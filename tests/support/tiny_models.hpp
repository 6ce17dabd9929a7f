// One set of small trained models per test binary. The serving tests need
// real models but not good ones; training them costs little in a release
// build and seconds under ThreadSanitizer, once per test that builds its
// own. build_system_models is deterministic (every weight bit is pinned in
// tests/core), so a shared set serves each test exactly what a fresh one
// would.
#pragma once

#include "avd/core/system_models.hpp"

namespace avd::test_support {

/// The small training budget of the runtime suites.
inline core::TrainingBudget tiny_budget() {
  core::TrainingBudget b;
  b.vehicle_pos = b.vehicle_neg = 30;
  b.pedestrian_pos = b.pedestrian_neg = 20;
  b.dbn_windows_per_class = 40;
  b.pairing_scenes = 20;
  return b;
}

/// build_system_models(tiny_budget()), trained on first use (a
/// function-local static, so initialisation is thread-safe) and shared
/// read-only for the rest of the binary's run.
inline const core::SystemModels& tiny_models() {
  static const core::SystemModels models =
      core::build_system_models(tiny_budget());
  return models;
}

}  // namespace avd::test_support
