#include "avd/core/system_models.hpp"

#include <algorithm>
#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "avd/runtime/thread_pool.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace avd::core {
namespace {

// The training jobs free what they allocated, but glibc keeps each worker
// thread's freed arena pages resident; hand them back to the OS so the
// serving process does not carry the build's high-water mark.
void return_freed_memory() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

}  // namespace

// The models are independent, so their training runs as concurrent jobs on
// a pool local to this call. Each job keeps the seed and arguments of the
// serial build, so every model is bit-identical to training them one after
// another. The job graph:
//
//   dark DBN                                    (the critical path)
//   day patches  -> day SVM    -+
//   dusk patches -> dusk SVM   -+-> combined SVM, once both patch sets exist
//   pedestrian patches -> pedestrian SVM
//   pairing SVM
//   animal patches -> animal SVM                (when the budget enables it)
//
// The combined SVM runs as the tail of whichever vehicle job finishes its
// patches second, so no job ever waits on another and the build cannot
// deadlock, even on a pool with no worker threads.
SystemModels build_system_models(const TrainingBudget& budget) {
  using data::LightingCondition;

  data::VehiclePatchSpec day_spec;
  day_spec.condition = LightingCondition::Day;
  day_spec.patch_size = budget.vehicle_window;
  day_spec.n_positive = budget.vehicle_pos;
  day_spec.n_negative = budget.vehicle_neg;
  day_spec.seed = budget.seed + 1;

  data::VehiclePatchSpec dusk_spec = day_spec;
  dusk_spec.condition = LightingCondition::Dusk;
  dusk_spec.seed = budget.seed + 2;

  data::PedestrianPatchSpec ped_spec;
  ped_spec.patch_size = budget.pedestrian_window;
  ped_spec.n_positive = budget.pedestrian_pos;
  ped_spec.n_negative = budget.pedestrian_neg;
  ped_spec.seed = budget.seed + 3;

  det::HogSvmTrainOptions vehicle_opts;
  vehicle_opts.svm.seed = budget.seed + 4;
  det::HogSvmTrainOptions ped_opts;
  ped_opts.svm.seed = budget.seed + 5;
  ped_opts.class_id = det::kClassPedestrian;

  det::DarkTrainingSpec dark_spec;
  dark_spec.windows.per_class = budget.dbn_windows_per_class;
  dark_spec.pairing_scenes = budget.pairing_scenes;
  dark_spec.seed = budget.seed + 6;

  // Every job writes only its own model slots.
  det::HogSvmModel day, dusk, combined, pedestrian, animal;
  ml::Dbn dbn;
  ml::LinearSvm pairing_svm;
  {
    data::PatchDataset day_train, dusk_train;
    std::atomic<int> vehicle_sets_pending{2};
    const auto train_vehicle = [&](const data::VehiclePatchSpec& spec,
                                   const char* name, data::PatchDataset& train,
                                   det::HogSvmModel& model) {
      train = data::make_vehicle_patches(spec);
      // The second job to get here sees both patch sets.
      if (--vehicle_sets_pending == 0)
        combined = det::train_hog_svm(
            data::PatchDataset::concat(day_train, dusk_train), "combined",
            vehicle_opts);
      model = det::train_hog_svm(train, name, vehicle_opts);
    };

    // Longest first: the pool claims jobs in index order.
    std::vector<std::function<void()>> jobs{
        [&] { dbn = det::train_taillight_dbn(dark_spec); },
        [&] { train_vehicle(day_spec, "day", day_train, day); },
        [&] { train_vehicle(dusk_spec, "dusk", dusk_train, dusk); },
        [&] {
          pedestrian = det::train_hog_svm(
              data::make_pedestrian_patches(ped_spec), "pedestrian", ped_opts);
        },
        [&] { pairing_svm = det::train_pairing_svm(dark_spec); },
    };
    if (budget.animal_pos > 0 && budget.animal_neg > 0) {
      jobs.emplace_back([&] {
        data::AnimalPatchSpec animal_spec;
        animal_spec.patch_size = budget.animal_window;
        animal_spec.n_positive = budget.animal_pos;
        animal_spec.n_negative = budget.animal_neg;
        animal_spec.seed = budget.seed + 7;
        det::HogSvmTrainOptions animal_opts;
        animal_opts.svm.seed = budget.seed + 8;
        animal_opts.class_id = det::kClassAnimal;
        animal = det::train_hog_svm(data::make_animal_patches(animal_spec),
                                    "animal", animal_opts);
      });
    }

    // The calling thread runs jobs too, so the pool adds one thread fewer
    // than the cores it may use. run_indexed joins every job, also when one
    // throws, and then rethrows the first failure; the pool's destructor
    // joins its threads before the patch sets go.
    const int cores =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    runtime::ThreadPool pool(std::min(cores, static_cast<int>(jobs.size())) - 1);
    pool.run_indexed(static_cast<int>(jobs.size()),
                     [&](int i) { jobs[static_cast<std::size_t>(i)](); });
  }
  return_freed_memory();

  return SystemModels{
      std::move(day),
      std::move(dusk),
      std::move(combined),
      std::move(pedestrian),
      det::DarkVehicleDetector(std::move(dbn), std::move(pairing_svm),
                               dark_spec.config),
      std::move(animal),
  };
}

}  // namespace avd::core
