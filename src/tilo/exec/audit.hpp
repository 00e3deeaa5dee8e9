// Performance-model audit: a contention-free critical-path lower bound on
// the completion time of a plan.
//
// Dynamic programming over tiles: a tile finishes no earlier than
//  * the previous tile in its rank's program order (CPU is serial), and
//  * every producer tile plus the cheapest possible message pipeline
//    (kernel copies + wire on the message's own link, ignoring CPU fills
//    and all contention),
// plus its own compute time at the cache-free rate iterations * t_c.
// Every message is priced through the model's hooks on its real
// (producer rank, consumer rank) link, so the bound holds under any
// mach::Model — a heterogeneous link model's fast links lower it.  Because
// every ignored cost only makes the real execution slower, `simulated
// completion >= lower bound` is an invariant of any correct
// executor/simulator pair — the tests use it to catch optimistic-timing
// bugs in either.
#pragma once

#include "tilo/exec/plan.hpp"
#include "tilo/machine/model.hpp"

namespace tilo::exec {

/// Contention-free critical-path lower bound (seconds) for either
/// schedule kind of the plan under `model`.
double critical_path_lower_bound(const TilePlan& plan,
                                 const mach::Model& model);

}  // namespace tilo::exec
