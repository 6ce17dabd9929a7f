#include "avd/ml/dbn.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

namespace avd::ml {

Dbn::Dbn(std::vector<int> layer_sizes, int classes, std::uint64_t seed)
    : layer_sizes_(std::move(layer_sizes)), classes_(classes) {
  if (layer_sizes_.size() < 2)
    throw std::invalid_argument("Dbn: need at least one hidden layer");
  if (classes_ < 2) throw std::invalid_argument("Dbn: need >= 2 classes");
  Rng rng(seed);
  for (std::size_t i = 0; i + 1 < layer_sizes_.size(); ++i)
    rbms_.emplace_back(layer_sizes_[i], layer_sizes_[i + 1], rng.engine()());

  const auto nh = static_cast<std::size_t>(layer_sizes_.back());
  head_w_ = Matrix(static_cast<std::size_t>(classes_), nh);
  head_b_.assign(static_cast<std::size_t>(classes_), 0.0f);
  for (float& x : head_w_.data()) x = static_cast<float>(rng.gaussian(0.0, 0.05));
}

std::vector<float> Dbn::forward(
    std::span<const float> x, std::vector<std::vector<float>>& activations) const {
  if (static_cast<int>(x.size()) != input_size())
    throw std::invalid_argument("Dbn: input dimension mismatch");
  activations.clear();
  activations.emplace_back(x.begin(), x.end());
  for (const Rbm& rbm : rbms_) activations.push_back(rbm.transform(activations.back()));

  const auto& top = activations.back();
  std::vector<float> logits(static_cast<std::size_t>(classes_));
  for (int c = 0; c < classes_; ++c) {
    float acc = head_b_[c];
    auto wrow = head_w_.row(static_cast<std::size_t>(c));
    for (std::size_t i = 0; i < top.size(); ++i) acc += wrow[i] * top[i];
    logits[c] = acc;
  }
  return logits;
}

std::vector<float> Dbn::posterior(std::span<const float> x) const {
  std::vector<std::vector<float>> acts;
  std::vector<float> logits = forward(x, acts);
  softmax(logits);
  return logits;
}

void Dbn::posterior_batch(std::span<const float> xs, int batch,
                          DbnBatchScratch& scratch, std::span<float> out) const {
  if (batch < 0) throw std::invalid_argument("Dbn::posterior_batch: batch < 0");
  const auto rows = static_cast<std::size_t>(batch);
  if (xs.size() != rows * static_cast<std::size_t>(input_size()))
    throw std::invalid_argument("Dbn::posterior_batch: input size mismatch");
  if (out.size() != rows * static_cast<std::size_t>(classes_))
    throw std::invalid_argument("Dbn::posterior_batch: output size mismatch");
  if (batch == 0) return;

  scratch.activations.resize(rbms_.size());
  std::span<const float> prev = xs;
  for (std::size_t l = 0; l < rbms_.size(); ++l) {
    const Rbm& rbm = rbms_[l];
    const auto nh = static_cast<std::size_t>(rbm.hidden());
    std::vector<float>& act = scratch.activations[l];
    act.resize(rows * nh);
    gemm(prev, rows, static_cast<std::size_t>(rbm.visible()),
         rbm.weights().data(), nh, rbm.hidden_bias(), act);
    sigmoid_inplace(act);
    prev = act;
  }
  gemm(prev, rows, static_cast<std::size_t>(layer_sizes_.back()),
       head_w_.data(), static_cast<std::size_t>(classes_), head_b_, out);
  softmax_rows(out, static_cast<std::size_t>(classes_));
}

std::vector<float> Dbn::posterior_batch(std::span<const float> xs,
                                        int batch) const {
  std::vector<float> out(static_cast<std::size_t>(batch) *
                         static_cast<std::size_t>(classes_));
  DbnBatchScratch scratch;
  posterior_batch(xs, batch, scratch, out);
  return out;
}

int Dbn::predict(std::span<const float> x) const {
  const auto p = posterior(x);
  return static_cast<int>(std::max_element(p.begin(), p.end()) - p.begin());
}

void Dbn::pretrain(std::span<const std::vector<float>> data,
                   const DbnTrainParams& params, DbnTrainReport& report) {
  std::vector<std::vector<float>> layer_input(data.begin(), data.end());
  Rng seed_rng(params.seed);
  for (std::size_t layer = 0; layer < rbms_.size(); ++layer) {
    RbmTrainParams p = params.pretrain;
    p.seed = seed_rng.engine()();
    report.pretrain_errors.push_back(rbms_[layer].train(layer_input, p));
    // Propagate (deterministic probabilities) to feed the next layer.
    if (layer + 1 < rbms_.size()) {
      for (auto& v : layer_input) v = rbms_[layer].transform(v);
    }
  }
}

void Dbn::finetune(std::span<const std::vector<float>> data,
                   std::span<const int> labels, const DbnTrainParams& params,
                   DbnTrainReport& report) {
  if (data.size() != labels.size())
    throw std::invalid_argument("Dbn::finetune: data/label size mismatch");
  if (data.empty()) throw std::invalid_argument("Dbn::finetune: empty data");
  for (int l : labels)
    if (l < 0 || l >= classes_)
      throw std::invalid_argument("Dbn::finetune: label out of range");

  Rng rng(params.seed + 1);
  std::vector<std::size_t> order(data.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  std::vector<std::vector<float>> acts;
  // Backprop deltas, one per layer above the input.
  std::vector<std::vector<float>> deltas(rbms_.size() + 1);

  for (int epoch = 0; epoch < params.finetune_epochs; ++epoch) {
    rng.shuffle(order);
    double loss_sum = 0.0;

    for (std::size_t start = 0; start < order.size();
         start += static_cast<std::size_t>(params.finetune_batch)) {
      const std::size_t end = std::min(
          order.size(), start + static_cast<std::size_t>(params.finetune_batch));
      const double inv_batch = 1.0 / static_cast<double>(end - start);

      // Accumulated gradients (simple SGD, per-batch application).
      Matrix g_head_w(head_w_.rows(), head_w_.cols());
      std::vector<double> g_head_b(head_b_.size(), 0.0);
      std::vector<Matrix> g_w;
      std::vector<std::vector<double>> g_b;
      for (const Rbm& r : rbms_) {
        g_w.emplace_back(r.weights().rows(), r.weights().cols());
        g_b.emplace_back(static_cast<std::size_t>(r.hidden()), 0.0);
      }

      for (std::size_t k = start; k < end; ++k) {
        const std::size_t idx = order[k];
        std::vector<float> logits = forward(data[idx], acts);
        softmax(logits);
        const int y = labels[idx];
        loss_sum += -std::log(std::max(1e-12, static_cast<double>(logits[y])));

        // Softmax + cross-entropy gradient.
        std::vector<float> dlogits = logits;
        dlogits[y] -= 1.0f;

        // Head gradients and delta into top hidden layer.
        const auto& top = acts.back();
        std::vector<float>& dtop = deltas[rbms_.size()];
        dtop.assign(top.size(), 0.0f);
        for (int c = 0; c < classes_; ++c) {
          auto gw = g_head_w.row(static_cast<std::size_t>(c));
          auto wr = head_w_.row(static_cast<std::size_t>(c));
          const float dc = dlogits[c];
          for (std::size_t i = 0; i < top.size(); ++i) {
            gw[i] += dc * top[i];
            dtop[i] += dc * wr[i];
          }
          g_head_b[c] += dc;
        }

        // Backwards through sigmoid layers.
        for (std::size_t layer = rbms_.size(); layer-- > 0;) {
          const auto& out = acts[layer + 1];   // sigmoid outputs of this layer
          const auto& in = acts[layer];        // inputs to this layer
          std::vector<float>& dout = deltas[layer + 1];
          // dpre = dout * out * (1-out)
          for (std::size_t j = 0; j < dout.size(); ++j)
            dout[j] *= out[j] * (1.0f - out[j]);

          auto& gw = g_w[layer];
          auto& gb = g_b[layer];
          const Matrix& w = rbms_[layer].weights();
          std::vector<float>& din = deltas[layer];
          din.assign(in.size(), 0.0f);
          for (std::size_t j = 0; j < dout.size(); ++j) {
            const float dj = dout[j];
            if (dj == 0.0f) continue;
            auto gwr = gw.row(j);
            auto wr = w.row(j);
            for (std::size_t i = 0; i < in.size(); ++i) {
              gwr[i] += dj * in[i];
              din[i] += dj * wr[i];
            }
            gb[j] += dj;
          }
        }
      }

      // Apply batch gradients.
      const double lr = params.finetune_lr;
      {
        auto w = head_w_.data();
        auto g = g_head_w.data();
        for (std::size_t i = 0; i < w.size(); ++i)
          w[i] -= static_cast<float>(lr * (g[i] * inv_batch +
                                           params.weight_decay * w[i]));
        for (std::size_t c = 0; c < head_b_.size(); ++c)
          head_b_[c] -= static_cast<float>(lr * g_head_b[c] * inv_batch);
      }
      for (std::size_t layer = 0; layer < rbms_.size(); ++layer) {
        auto w = rbms_[layer].weights().data();
        auto g = g_w[layer].data();
        for (std::size_t i = 0; i < w.size(); ++i)
          w[i] -= static_cast<float>(lr * (g[i] * inv_batch +
                                           params.weight_decay * w[i]));
        auto hb = rbms_[layer].hidden_bias();
        for (std::size_t j = 0; j < hb.size(); ++j)
          hb[j] -= static_cast<float>(lr * g_b[layer][j] * inv_batch);
      }
    }

    report.finetune_loss.push_back(loss_sum / static_cast<double>(data.size()));
  }

  std::size_t correct = 0;
  for (std::size_t i = 0; i < data.size(); ++i)
    correct += predict(data[i]) == labels[i];
  report.final_train_accuracy =
      static_cast<double>(correct) / static_cast<double>(data.size());
}

DbnTrainReport Dbn::train(std::span<const std::vector<float>> data,
                          std::span<const int> labels,
                          const DbnTrainParams& params) {
  DbnTrainReport report;
  pretrain(data, params, report);
  finetune(data, labels, params, report);
  return report;
}

void Dbn::save(std::ostream& out) const {
  // max_digits10 significant digits: every float reloads to the same bits.
  const std::streamsize precision =
      out.precision(std::numeric_limits<float>::max_digits10);
  out << "dbn " << layer_sizes_.size() << ' ' << classes_ << '\n';
  for (int s : layer_sizes_) out << s << ' ';
  out << '\n';
  for (const Rbm& r : rbms_) {
    for (std::size_t j = 0; j < r.weights().rows(); ++j)
      for (std::size_t i = 0; i < r.weights().cols(); ++i)
        out << r.weights()(j, i) << ' ';
    out << '\n';
    for (float v : r.visible_bias()) out << v << ' ';
    out << '\n';
    for (float v : r.hidden_bias()) out << v << ' ';
    out << '\n';
  }
  for (std::size_t c = 0; c < head_w_.rows(); ++c)
    for (std::size_t i = 0; i < head_w_.cols(); ++i) out << head_w_(c, i) << ' ';
  out << '\n';
  for (float v : head_b_) out << v << ' ';
  out << '\n';
  out.precision(precision);
}

Dbn Dbn::load(std::istream& in) {
  std::string magic;
  std::size_t nlayers = 0;
  int classes = 0;
  if (!(in >> magic >> nlayers >> classes) || magic != "dbn")
    throw std::runtime_error("Dbn::load: bad header");
  std::vector<int> sizes(nlayers);
  for (auto& s : sizes)
    if (!(in >> s)) throw std::runtime_error("Dbn::load: truncated sizes");
  Dbn dbn(sizes, classes, 0);
  for (Rbm& r : dbn.rbms_) {
    for (std::size_t j = 0; j < r.weights().rows(); ++j)
      for (std::size_t i = 0; i < r.weights().cols(); ++i)
        if (!(in >> r.weights()(j, i)))
          throw std::runtime_error("Dbn::load: truncated weights");
    for (float& v : r.visible_bias())
      if (!(in >> v)) throw std::runtime_error("Dbn::load: truncated vbias");
    for (float& v : r.hidden_bias())
      if (!(in >> v)) throw std::runtime_error("Dbn::load: truncated hbias");
  }
  for (std::size_t c = 0; c < dbn.head_w_.rows(); ++c)
    for (std::size_t i = 0; i < dbn.head_w_.cols(); ++i)
      if (!(in >> dbn.head_w_(c, i)))
        throw std::runtime_error("Dbn::load: truncated head");
  for (float& v : dbn.head_b_)
    if (!(in >> v)) throw std::runtime_error("Dbn::load: truncated head bias");
  return dbn;
}

}  // namespace avd::ml
