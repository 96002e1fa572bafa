#include "probe.hpp"

#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

double host_speed_probe() {
  constexpr int kHandoffs = 4000;
  constexpr std::size_t kWords = std::size_t{1} << 20;  // 8 MB
  constexpr int kUpdates = 1 << 21;
  const std::int64_t t0 = host_ns();
  {
    std::mutex mu;
    std::condition_variable cv;
    int turn = 0;
    const auto player = [&](int me) {
      std::unique_lock<std::mutex> lock(mu);
      for (int i = 0; i < kHandoffs; ++i) {
        cv.wait(lock, [&] { return turn == me; });
        turn = 1 - me;
        cv.notify_one();
      }
    };
    std::thread other(player, 1);
    player(0);
    other.join();
  }
  std::vector<std::uint64_t> words(kWords, 1);
  std::uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < kUpdates; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    words[x & (kWords - 1)] += x;
  }
  volatile std::uint64_t sink = words[x & (kWords - 1)];
  (void)sink;
  return static_cast<double>(host_ns() - t0) / 1e9;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!f) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f.get());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // ts/dur are virtual microseconds; the host clock rides in args.
    std::fprintf(f.get(),
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,"
                 "\"op\":%lld,\"host_ts_us\":%.3f,\"host_dur_us\":%.3f",
                 i == 0 ? "" : ",\n", s.name, s.rank,
                 static_cast<double>(s.v0) / 1e3,
                 static_cast<double>(s.v1 - s.v0) / 1e3, s.id, s.parent,
                 static_cast<long long>(s.op),
                 static_cast<double>(s.h0 - spans_.front().h0) / 1e3,
                 static_cast<double>(s.h1 - s.h0) / 1e3);
    if (s.size_class != nullptr) {
      std::fprintf(f.get(), ",\"size\":\"%s\",\"layout\":\"%s\"", s.size_class,
                   s.layout);
    }
    std::fputs("}}", f.get());
  }
  std::fputs("\n]}\n", f.get());
  return std::ferror(f.get()) == 0;
}

}  // namespace perfbench
