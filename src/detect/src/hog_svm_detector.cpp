#include "avd/detect/hog_svm_detector.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "avd/detect/multi_model_scan.hpp"
#include "avd/image/resize.hpp"

namespace avd::det {

double HogSvmModel::decision(const img::ImageU8& patch) const {
  if (patch.size() != window)
    throw std::invalid_argument("HogSvmModel: patch size != window size");
  const std::vector<float> desc = hog::compute_descriptor(patch, hog);
  return svm.decision(desc);
}

bool HogSvmModel::classify(const img::ImageU8& patch) const {
  return decision(patch) >= 0.0;
}

void HogSvmModel::save(std::ostream& out) const {
  // The header is whitespace-delimited and load() reads the name with >>, so
  // a name containing whitespace (or an empty name) would silently corrupt
  // the round-trip: "day model" saves fine but loads as name="day" with
  // "model" consumed as the window width. Reject at save time.
  if (name.empty() ||
      std::any_of(name.begin(), name.end(), [](unsigned char c) {
        return std::isspace(c) != 0;
      }))
    throw std::invalid_argument(
        "HogSvmModel::save: model name must be non-empty and contain no "
        "whitespace (the text format is whitespace-delimited)");
  out << "hogsvm " << name << ' ' << window.width << ' ' << window.height << ' '
      << class_id << ' ' << hog.cell_size << ' ' << hog.bins << ' '
      << hog.block_cells << ' ' << hog.block_stride_cells << ' '
      << hog.l2hys_clip << '\n';
  svm.save(out);
}

HogSvmModel HogSvmModel::load(std::istream& in) {
  std::string magic;
  HogSvmModel m;
  if (!(in >> magic >> m.name >> m.window.width >> m.window.height >>
        m.class_id >> m.hog.cell_size >> m.hog.bins >> m.hog.block_cells >>
        m.hog.block_stride_cells >> m.hog.l2hys_clip) ||
      magic != "hogsvm")
    throw std::runtime_error("HogSvmModel::load: bad header");
  m.svm = ml::LinearSvm::load(in);
  // A header can parse and still describe no scannable model: refuse bad
  // geometry and a weight count that is not the window's descriptor length.
  std::size_t expected = 0;
  try {
    expected = m.hog.descriptor_length(m.window);
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("HogSvmModel::load: ") + e.what());
  }
  if (m.svm.dimension() != expected)
    throw std::runtime_error(
        "HogSvmModel::load: SVM dimension != descriptor length");
  return m;
}

HogSvmModel train_hog_svm(const data::PatchDataset& dataset, std::string name,
                          const HogSvmTrainOptions& opts) {
  if (dataset.patches.empty())
    throw std::invalid_argument("train_hog_svm: empty dataset");

  HogSvmModel model;
  model.name = std::move(name);
  model.hog = opts.hog;
  model.window = dataset.patches.front().gray.size();
  model.class_id = opts.class_id;

  ml::SvmProblem problem;
  for (const data::LabeledPatch& p : dataset.patches) {
    if (p.gray.size() != model.window)
      throw std::invalid_argument("train_hog_svm: inconsistent patch sizes");
    problem.add(hog::compute_descriptor(p.gray, model.hog), p.label);
  }
  model.svm = ml::SvmTrainer(opts.svm).train(problem);
  return model;
}

ml::BinaryCounts evaluate_patches(const HogSvmModel& model,
                                  const data::PatchDataset& dataset) {
  ml::BinaryCounts counts;
  for (const data::LabeledPatch& p : dataset.patches)
    counts.record(p.label > 0, model.classify(p.gray));
  return counts;
}

std::vector<Detection> detect_multiscale(const img::ImageU8& frame,
                                         const HogSvmModel& model,
                                         const SlidingWindowParams& params) {
  // The single-model scan is the one-element case of the shared-front-end
  // scanner (multi_model_scan.hpp).
  const HogSvmModel* models[] = {&model};
  return detect_multiscale_multi(frame, models, params);
}

}  // namespace avd::det
