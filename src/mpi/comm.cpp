#include "mpi/mpi.hpp"

#include <stdexcept>
#include <string>

#include <algorithm>
#include <array>

#include "mpi/coll.hpp"
#include "mpi/rank_comm.hpp"

namespace mv2gnc::mpisim {

Communicator::Communicator(detail::RankComm* impl)
    : impl_(impl), group_(impl->world_group()) {}

Communicator::Communicator(detail::RankComm* impl,
                           std::shared_ptr<const detail::CommGroup> group)
    : impl_(impl), group_(std::move(group)) {}

detail::RankComm& Communicator::impl() const {
  if (impl_ == nullptr) {
    throw std::logic_error("null Communicator used");
  }
  return *impl_;
}

const detail::CommGroup& Communicator::group() const {
  if (!group_) throw std::logic_error("null Communicator used");
  return *group_;
}

void Communicator::localize(Status* status) const {
  if (status != nullptr && status->source != kAnySource) {
    status->source = group().to_comm_rank(status->source);
  }
}

int Communicator::rank() const { return group().my_rank; }
int Communicator::size() const { return group().size(); }

namespace {

int checked_peer(const detail::CommGroup& g, int r, const char* api) {
  if (r < 0 || r >= g.size()) {
    throw std::invalid_argument(std::string(api) + ": bad rank " +
                                std::to_string(r));
  }
  return g.world[static_cast<std::size_t>(r)];
}

}  // namespace

namespace {

void check_user_tag(int tag, const char* api) {
  if (tag < 0) {
    throw std::invalid_argument(std::string(api) +
                                ": negative tags are reserved (got " +
                                std::to_string(tag) + ")");
  }
}

}  // namespace

void Communicator::send(const void* buf, int count, const Datatype& dtype,
                        int dst, int tag) {
  check_user_tag(tag, "send");
  ++impl().api_stats().send;
  Request r = impl().isend(buf, count, dtype, checked_peer(group(), dst, "send"),
                           tag, group().context);
  impl().wait(r, nullptr);
}

void Communicator::recv(void* buf, int count, const Datatype& dtype, int src,
                        int tag, Status* status) {
  if (tag != kAnyTag) check_user_tag(tag, "recv");
  ++impl().api_stats().recv;
  const int world_src =
      (src == kAnySource) ? kAnySource : checked_peer(group(), src, "recv");
  Request r = impl().irecv(buf, count, dtype, world_src, tag,
                           group().context);
  impl().wait(r, status);
  localize(status);
}

Request Communicator::isend(const void* buf, int count, const Datatype& dtype,
                            int dst, int tag) {
  check_user_tag(tag, "isend");
  ++impl().api_stats().isend;
  return impl().isend(buf, count, dtype, checked_peer(group(), dst, "isend"),
                      tag, group().context);
}

Request Communicator::irecv(void* buf, int count, const Datatype& dtype,
                            int src, int tag) {
  if (tag != kAnyTag) check_user_tag(tag, "irecv");
  ++impl().api_stats().irecv;
  const int world_src =
      (src == kAnySource) ? kAnySource : checked_peer(group(), src, "irecv");
  return impl().irecv(buf, count, dtype, world_src, tag, group().context);
}

void Communicator::wait(Request& req, Status* status) {
  ++impl().api_stats().wait;
  impl().wait(req, status);
  localize(status);
}

bool Communicator::test(Request& req, Status* status) {
  const bool done = impl().test(req, status);
  if (done) localize(status);
  return done;
}

void Communicator::waitall(std::span<Request> reqs) {
  ++impl().api_stats().waitall;
  for (Request& r : reqs) impl().wait(r, nullptr);
}

void Communicator::sendrecv(const void* sendbuf, int sendcount,
                            const Datatype& sendtype, int dst, int sendtag,
                            void* recvbuf, int recvcount,
                            const Datatype& recvtype, int src, int recvtag,
                            Status* status) {
  check_user_tag(sendtag, "sendrecv");
  if (recvtag != kAnyTag) check_user_tag(recvtag, "sendrecv");
  const int world_src = (src == kAnySource)
                            ? kAnySource
                            : checked_peer(group(), src, "sendrecv");
  Request rr = impl().irecv(recvbuf, recvcount, recvtype, world_src, recvtag,
                            group().context);
  Request sr = impl().isend(sendbuf, sendcount, sendtype,
                            checked_peer(group(), dst, "sendrecv"), sendtag,
                            group().context);
  impl().wait(sr, nullptr);
  impl().wait(rr, status);
  localize(status);
}

// ---------------------------------------------------------------------------
// Persistent requests
// ---------------------------------------------------------------------------

struct PersistentRequest::Init {
  bool is_send = false;
  void* buf = nullptr;
  int count = 0;
  Datatype dtype;
  int peer = -1;
  int tag = 0;
  Communicator comm;
  Request active;
  bool in_flight = false;
};

void PersistentRequest::start() {
  if (!impl_) throw std::logic_error("start() on null PersistentRequest");
  Init& s = *impl_;
  if (s.in_flight) {
    throw std::logic_error(
        "PersistentRequest::start: previous round not completed");
  }
  detail::RankComm& rc = s.comm.impl();
  const int ctx = s.comm.group().context;
  if (s.is_send) {
    ++rc.api_stats().isend;
    s.active = rc.isend(s.buf, s.count, s.dtype,
                        checked_peer(s.comm.group(), s.peer, "start"), s.tag,
                        ctx);
  } else {
    ++rc.api_stats().irecv;
    const int world_src = (s.peer == kAnySource)
                              ? kAnySource
                              : checked_peer(s.comm.group(), s.peer, "start");
    s.active = rc.irecv(s.buf, s.count, s.dtype, world_src, s.tag, ctx);
  }
  s.in_flight = true;
}

void PersistentRequest::wait(Status* status) {
  if (!impl_) throw std::logic_error("wait() on null PersistentRequest");
  Init& s = *impl_;
  if (!s.in_flight) {
    throw std::logic_error("PersistentRequest::wait: not started");
  }
  s.comm.wait(s.active, status);
  s.in_flight = false;
}

bool PersistentRequest::test(Status* status) {
  if (!impl_) throw std::logic_error("test() on null PersistentRequest");
  Init& s = *impl_;
  if (!s.in_flight) {
    throw std::logic_error("PersistentRequest::test: not started");
  }
  if (s.comm.test(s.active, status)) {
    s.in_flight = false;
    return true;
  }
  return false;
}

PersistentRequest Communicator::send_init(const void* buf, int count,
                                          const Datatype& dtype, int dst,
                                          int tag) {
  check_user_tag(tag, "send_init");
  PersistentRequest r;
  r.impl_ = std::make_shared<PersistentRequest::Init>();
  r.impl_->is_send = true;
  r.impl_->buf = const_cast<void*>(buf);
  r.impl_->count = count;
  r.impl_->dtype = dtype;
  r.impl_->peer = dst;
  r.impl_->tag = tag;
  r.impl_->comm = *this;
  return r;
}

PersistentRequest Communicator::recv_init(void* buf, int count,
                                          const Datatype& dtype, int src,
                                          int tag) {
  if (tag != kAnyTag) check_user_tag(tag, "recv_init");
  PersistentRequest r;
  r.impl_ = std::make_shared<PersistentRequest::Init>();
  r.impl_->is_send = false;
  r.impl_->buf = buf;
  r.impl_->count = count;
  r.impl_->dtype = dtype;
  r.impl_->peer = src;
  r.impl_->tag = tag;
  r.impl_->comm = *this;
  return r;
}

void Communicator::startall(std::span<PersistentRequest> reqs) {
  for (PersistentRequest& r : reqs) r.start();
}

void Communicator::waitall_persistent(std::span<PersistentRequest> reqs) {
  for (PersistentRequest& r : reqs) r.wait();
}

std::optional<int> Status::count(const Datatype& dtype) const {
  if (!dtype.valid()) throw std::invalid_argument("Status::count: null type");
  const std::size_t elem = dtype.size();
  if (elem == 0) return bytes == 0 ? std::optional<int>(0) : std::nullopt;
  if (bytes % elem != 0) return std::nullopt;
  return static_cast<int>(bytes / elem);
}

bool Communicator::iprobe(int src, int tag, Status* status) {
  if (tag != kAnyTag) check_user_tag(tag, "iprobe");
  const int world_src =
      (src == kAnySource) ? kAnySource : checked_peer(group(), src, "iprobe");
  const bool found = impl().iprobe(world_src, tag, status, group().context);
  if (found) localize(status);
  return found;
}

void Communicator::probe(int src, int tag, Status* status) {
  if (tag != kAnyTag) check_user_tag(tag, "probe");
  const int world_src =
      (src == kAnySource) ? kAnySource : checked_peer(group(), src, "probe");
  impl().probe(world_src, tag, status, group().context);
  localize(status);
}

std::size_t Communicator::pack_size(int count, const Datatype& dtype) const {
  if (count < 0) throw std::invalid_argument("pack_size: negative count");
  return dtype.size() * static_cast<std::size_t>(count);
}

void Communicator::pack(const void* inbuf, int count, const Datatype& dtype,
                        void* outbuf, std::size_t outsize,
                        std::size_t& position) {
  impl().pack(inbuf, count, dtype, outbuf, outsize, position);
}

void Communicator::unpack(const void* inbuf, std::size_t insize,
                          std::size_t& position, void* outbuf, int count,
                          const Datatype& dtype) {
  impl().unpack(inbuf, insize, position, outbuf, count, dtype);
}

void Communicator::barrier() { impl().coll().barrier(group()); }

void Communicator::gather(const void* sendbuf, int count,
                          const Datatype& dtype, void* recvbuf, int root) {
  if (root < 0 || root >= size()) {
    throw std::invalid_argument("gather: bad root rank");
  }
  impl().coll().gather(sendbuf, count, dtype, recvbuf, root, group());
}

void Communicator::scatter(const void* sendbuf, void* recvbuf, int count,
                           const Datatype& dtype, int root) {
  if (root < 0 || root >= size()) {
    throw std::invalid_argument("scatter: bad root rank");
  }
  impl().coll().scatter(sendbuf, recvbuf, count, dtype, root, group());
}

void Communicator::allgather(const void* sendbuf, int count,
                             const Datatype& dtype, void* recvbuf) {
  impl().coll().allgather(sendbuf, count, dtype, recvbuf, group());
}

void Communicator::alltoall(const void* sendbuf, void* recvbuf, int count,
                            const Datatype& dtype) {
  impl().coll().alltoall(sendbuf, recvbuf, count, dtype, group());
}

void Communicator::bcast(void* buf, int count, const Datatype& dtype,
                         int root) {
  if (root < 0 || root >= size()) {
    throw std::invalid_argument("bcast: bad root rank");
  }
  impl().coll().bcast(buf, count, dtype, root, group());
}

void Communicator::allreduce_sum(const double* sendbuf, double* recvbuf,
                                 int count) {
  impl().coll().allreduce_doubles(sendbuf, recvbuf, count,
                                  /*take_max=*/false, group());
}

void Communicator::allreduce_max(const double* sendbuf, double* recvbuf,
                                 int count) {
  impl().coll().allreduce_doubles(sendbuf, recvbuf, count,
                                  /*take_max=*/true, group());
}

Communicator Communicator::split(int color, int key) {
  const detail::CommGroup& g = group();
  const int p = g.size();
  // Allgather (color, key, context hint) over the parent communicator.
  static Datatype int_t = [] {
    Datatype t = Datatype::int32();
    t.commit();
    return t;
  }();
  std::array<std::int32_t, 3> mine{color, key, impl().next_context_hint()};
  std::vector<std::int32_t> all(static_cast<std::size_t>(p) * 3);
  impl().coll().allgather(mine.data(), 3, int_t, all.data(), g);

  // Context base: one past the largest hint anywhere in the parent, so all
  // members agree and fresh ids never collide with live ones.
  int base = 0;
  for (int i = 0; i < p; ++i) {
    base = std::max(base, all[static_cast<std::size_t>(i) * 3 + 2]);
  }
  // Sorted distinct colors define the new context of each subgroup.
  std::vector<int> colors;
  for (int i = 0; i < p; ++i) {
    const int c = all[static_cast<std::size_t>(i) * 3];
    if (c >= 0 && std::find(colors.begin(), colors.end(), c) == colors.end()) {
      colors.push_back(c);
    }
  }
  std::sort(colors.begin(), colors.end());
  impl().reserve_contexts(base, static_cast<int>(colors.size()));
  if (color < 0) return Communicator{};  // kUndefinedColor: null comm

  // Members of my color, ordered by (key, parent rank).
  struct Member {
    int key, parent_rank;
  };
  std::vector<Member> members;
  for (int i = 0; i < p; ++i) {
    if (all[static_cast<std::size_t>(i) * 3] == color) {
      members.push_back(Member{all[static_cast<std::size_t>(i) * 3 + 1], i});
    }
  }
  std::sort(members.begin(), members.end(), [](const Member& a,
                                               const Member& b) {
    return a.key != b.key ? a.key < b.key : a.parent_rank < b.parent_rank;
  });
  auto ng = std::make_shared<detail::CommGroup>();
  const auto color_idx = static_cast<int>(
      std::find(colors.begin(), colors.end(), color) - colors.begin());
  ng->context = base + color_idx;
  for (std::size_t i = 0; i < members.size(); ++i) {
    ng->world.push_back(
        g.world[static_cast<std::size_t>(members[i].parent_rank)]);
    if (members[i].parent_rank == g.my_rank) {
      ng->my_rank = static_cast<int>(i);
    }
  }
  return Communicator(impl_, std::move(ng));
}

Communicator Communicator::dup() {
  // A dup is a split where everyone shares one color, keyed by rank.
  return split(0, rank());
}

const ApiStats& Communicator::api_stats() const {
  return impl().api_stats();
}

void Communicator::reset_api_stats() { impl().api_stats() = ApiStats{}; }

double Communicator::wtime() const {
  return sim::to_sec(impl().engine().now());
}

}  // namespace mv2gnc::mpisim
