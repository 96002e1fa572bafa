#include "core/msg_view.hpp"

#include "core/pack_plan.hpp"

#include <gtest/gtest.h>

#include <array>
#include <vector>

using mv2gnc::core::LayoutClass;
using mv2gnc::core::MsgView;
using mv2gnc::gpu::MemoryRegistry;
using mv2gnc::mpisim::Datatype;

namespace {

Datatype committed(Datatype t) {
  t.commit();
  return t;
}

}  // namespace

TEST(MsgView, HostContiguous) {
  MemoryRegistry reg;
  std::vector<int> buf(16);
  auto t = committed(Datatype::int32());
  auto v = MsgView::make(buf.data(), 16, t, reg);
  EXPECT_FALSE(v.on_device);
  EXPECT_TRUE(v.contiguous);
  EXPECT_EQ(v.packed_bytes, 64u);
  // A contiguous plan carries no sub-pattern; the 16-row pattern lives on
  // the datatype.
  EXPECT_EQ(v.plan->layout(), LayoutClass::kContiguous);
  EXPECT_TRUE(v.plan->subpatterns().empty());
  ASSERT_TRUE(v.dtype.vector_pattern(v.count).has_value());
  EXPECT_EQ(v.dtype.vector_pattern(v.count)->count, 16u);
}

TEST(MsgView, DeviceClassification) {
  MemoryRegistry reg;
  std::array<std::byte, 256> fake_dev{};
  reg.register_range(fake_dev.data(), fake_dev.size(), 2);
  auto t = committed(Datatype::byte());
  auto v = MsgView::make(fake_dev.data(), 16, t, reg);
  EXPECT_TRUE(v.on_device);
  EXPECT_EQ(v.device_id, 2);
}

TEST(MsgView, StridedVectorPattern) {
  MemoryRegistry reg;
  std::vector<float> buf(1024);
  auto t = committed(Datatype::vector(64, 1, 16, Datatype::float32()));
  auto v = MsgView::make(buf.data(), 1, t, reg);
  EXPECT_FALSE(v.contiguous);
  EXPECT_EQ(v.plan->layout(), LayoutClass::kSingleVector);
  ASSERT_EQ(v.plan->subpatterns().size(), 1u);
  EXPECT_EQ(v.plan->subpatterns()[0].rows, 64u);
  EXPECT_EQ(v.plan->subpatterns()[0].block, 4u);
  EXPECT_EQ(v.plan->subpatterns()[0].stride, 64);
}

TEST(MsgView, FirstSegmentPointer) {
  MemoryRegistry reg;
  std::vector<int> buf(64);
  const std::array<int, 2> lens{1, 1};
  const std::array<int, 2> displs{5, 9};
  auto t = committed(Datatype::indexed(lens, displs, Datatype::int32()));
  auto v = MsgView::make(buf.data(), 1, t, reg);
  // Two equal rows 16 bytes apart: one sub-pattern whose first row is the
  // message's first data byte.
  ASSERT_EQ(v.plan->subpatterns().size(), 1u);
  EXPECT_EQ(static_cast<std::byte*>(v.base) +
                v.plan->subpatterns()[0].first_offset,
            reinterpret_cast<std::byte*>(buf.data()) + 20);
}

TEST(MsgView, RequiresCommittedType) {
  MemoryRegistry reg;
  std::vector<int> buf(4);
  auto t = Datatype::vector(2, 1, 2, Datatype::int32());  // not committed
  EXPECT_THROW(MsgView::make(buf.data(), 1, t, reg), std::logic_error);
}

TEST(MsgView, RejectsInvalidArguments) {
  MemoryRegistry reg;
  std::vector<int> buf(4);
  auto t = committed(Datatype::int32());
  EXPECT_THROW(MsgView::make(buf.data(), -1, t, reg), std::invalid_argument);
  EXPECT_THROW(MsgView::make(buf.data(), 1, Datatype{}, reg),
               std::invalid_argument);
}

TEST(MsgView, ZeroCountHasNoPattern) {
  MemoryRegistry reg;
  std::vector<int> buf(4);
  auto t = committed(Datatype::int32());
  auto v = MsgView::make(buf.data(), 0, t, reg);
  EXPECT_EQ(v.packed_bytes, 0u);
  EXPECT_TRUE(v.plan->subpatterns().empty());
}
