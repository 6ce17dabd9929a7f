// The benchmark's workloads. Each fills `report` with its metrics and gates;
// a traced run (opts.trace) adds the per-layer metrics.
#pragma once

#include "setup.hpp"

namespace avdbench {

/// day_dusk_640 and night_1080: pre-rendered frame rings through the
/// vehicle and pedestrian engines in one closed loop on a 3+1 thread pool.
void run_frame_workload(const Options& opts, Report& report);

/// adaptive_serve: four canonical drives through runtime::StreamServer, a
/// saturation phase and a paced open-loop phase.
void run_serve_workload(const Options& opts, Report& report);

}  // namespace avdbench
