// Per-layer probes shared by the traced runs: direct calls into one layer,
// timed from outside, so a layer's cost is measured without the layers
// above it.
#pragma once

#include <vector>

#include "common.hpp"
#include "tracer.hpp"

namespace perfbench {

/// exec.* and msg.*: direct exec::run_plan calls (overlap schedule, middle
/// height of each case's grid); sim.*: a bare sim::Engine event chain of
/// the same length, as many times.
void exec_sim_probe(const std::vector<Case>& cases, Tracer* tracer,
                    Report& report);

/// Writes the trace next to the run's other files and says where.
void write_trace(const Tracer& tracer, const Options& opts);

}  // namespace perfbench
