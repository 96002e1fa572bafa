// Test access to the collective engine behind a Communicator, so a test
// can run a collective in a forced shape (CollShape::kFlat or kTwoLevel)
// through the engine's shaped entry points. The public operations fill the
// shape from the selection rule instead.
#pragma once

#include "mpi/coll.hpp"
#include "mpi/mpi.hpp"

namespace mv2gnc::mpisim::detail {

struct CollAccess {
  static CollEngine& engine(Communicator& c) { return c.impl().coll(); }
  static const CommGroup& group(const Communicator& c) { return c.group(); }
};

}  // namespace mv2gnc::mpisim::detail
