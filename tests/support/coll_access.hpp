// Test access to the engines behind a Communicator: the collective engine,
// whose operations take a CollForce, so a test can run a collective in a
// forced shape (CollShape::kFlat or kTwoLevel) and, on device buffers, a
// forced schedule (DeviceSchedule::kStaged or kPipelined), where the
// public operation (the empty force) takes both from the selection rules;
// and the rank's point-to-point engine, whose internal isend takes the
// data gate device collectives use.
#pragma once

#include "mpi/coll.hpp"
#include "mpi/mpi.hpp"

namespace mv2gnc::mpisim::detail {

struct CollAccess {
  static CollEngine& engine(Communicator& c) { return c.impl().coll(); }
  static RankComm& rank(Communicator& c) { return c.impl(); }
  static const CommGroup& group(const Communicator& c) { return c.group(); }
};

}  // namespace mv2gnc::mpisim::detail
