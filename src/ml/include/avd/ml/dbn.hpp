// Deep Belief Network: stacked RBMs with a softmax classification head.
//
// Paper §III-B: "We train a DBN with 81 visible inputs corresponding to the
// binary values of a 9x9 window of the image. Our DBN consists of two hidden
// layers with 20 and 8 hidden nodes, respectively. ... The final output layer
// consists of 4 nodes which determine the size and shape class of taillights."
//
// Training is the classical two-phase scheme: greedy layer-wise unsupervised
// RBM pre-training, then supervised fine-tuning of the whole stack (sigmoid
// layers + softmax head) with backpropagation.
#pragma once

#include <iosfwd>
#include <span>
#include <vector>

#include "avd/ml/rbm.hpp"

namespace avd::ml {

struct DbnTrainParams {
  RbmTrainParams pretrain;       ///< per-layer RBM pre-training
  int finetune_epochs = 60;
  double finetune_lr = 0.1;
  int finetune_batch = 16;
  double weight_decay = 1e-4;
  std::uint64_t seed = 11;
};

struct DbnTrainReport {
  std::vector<std::vector<double>> pretrain_errors;  ///< per layer, per epoch
  std::vector<double> finetune_loss;                 ///< per epoch mean CE loss
  double final_train_accuracy = 0.0;
};

/// Preallocated per-layer activation buffers for Dbn::posterior_batch.
/// Owned by the caller, one per scoring thread: a scratch reused across
/// calls makes the batched forward allocation-free once warm. The buffers
/// are resized on demand, so one scratch serves any batch size.
struct DbnBatchScratch {
  std::vector<std::vector<float>> activations;  ///< one buffer per RBM layer
};

/// A feed-forward classifier net built from pre-trained RBM layers.
class Dbn {
 public:
  Dbn() = default;
  /// `layer_sizes` = {visible, hidden1, ..., hiddenK}; `classes` = softmax
  /// output width. E.g. the paper's net: {81, 20, 8}, classes = 4.
  Dbn(std::vector<int> layer_sizes, int classes, std::uint64_t seed = 11);

  [[nodiscard]] int input_size() const { return layer_sizes_.front(); }
  [[nodiscard]] int classes() const { return classes_; }
  [[nodiscard]] std::size_t hidden_layers() const { return rbms_.size(); }
  [[nodiscard]] const Rbm& rbm(std::size_t i) const { return rbms_[i]; }
  /// Softmax head: classes x last-hidden weights and one bias per class.
  [[nodiscard]] const Matrix& head_weights() const { return head_w_; }
  [[nodiscard]] std::span<const float> head_bias() const { return head_b_; }

  /// Class posteriors P(c|x).
  [[nodiscard]] std::vector<float> posterior(std::span<const float> x) const;
  /// argmax class.
  [[nodiscard]] int predict(std::span<const float> x) const;

  /// Batched posteriors: `xs` holds `batch` input rows of input_size()
  /// floats, row-major; writes batch x classes() posteriors into `out`
  /// (row r = P(c|xs row r)). Every RBM layer and the softmax head run as
  /// one GEMM over the whole batch (ml::gemm), reusing `scratch`'s
  /// activation buffers. Bit-exactness: row r equals posterior(row r)
  /// exactly, for every batch size — the gemm contract guarantees each
  /// element's FP op sequence matches the per-vector path.
  void posterior_batch(std::span<const float> xs, int batch,
                       DbnBatchScratch& scratch, std::span<float> out) const;
  /// Convenience overload allocating its own scratch and output.
  [[nodiscard]] std::vector<float> posterior_batch(std::span<const float> xs,
                                                   int batch) const;

  /// Phase 1: greedy unsupervised pre-training on unlabelled inputs.
  void pretrain(std::span<const std::vector<float>> data,
                const DbnTrainParams& params, DbnTrainReport& report);

  /// Phase 2: supervised fine-tuning; labels in [0, classes).
  void finetune(std::span<const std::vector<float>> data,
                std::span<const int> labels, const DbnTrainParams& params,
                DbnTrainReport& report);

  /// Convenience: pretrain + finetune.
  DbnTrainReport train(std::span<const std::vector<float>> data,
                       std::span<const int> labels,
                       const DbnTrainParams& params);

  /// Text (de)serialisation of the full stack.
  void save(std::ostream& out) const;
  static Dbn load(std::istream& in);

 private:
  /// Forward pass storing every layer's activations (incl. input, excl.
  /// softmax). Returns logits of the head.
  std::vector<float> forward(std::span<const float> x,
                             std::vector<std::vector<float>>& activations) const;

  std::vector<int> layer_sizes_;
  int classes_ = 0;
  std::vector<Rbm> rbms_;
  Matrix head_w_;               // classes x last_hidden
  std::vector<float> head_b_;
};

}  // namespace avd::ml
