// Interval Bound Propagation (IBP) training — the machinery behind the
// paper's Sec. IV-C study of models robust to adversarial attacks.
//
// IbpNetwork wraps an existing feed-forward model (a Sequential of
// Conv2d / Linear / ReLU / MaxPool2d / Flatten / Dropout leaves) and
// propagates an input interval [x - eps, x + eps] to output logit bounds:
//
//   affine layers:  lo' = W+ lo + W- hi + b ,  hi' = W+ hi + W- lo + b
//                   (W+ = max(W, 0), W- = min(W, 0))
//   monotone layers (ReLU, MaxPool): applied to lo and hi independently.
//
// Implementation note: each affine layer gets four *shadow* modules (the W+
// pair and the W- pair) whose weights are refreshed from the wrapped layer
// on every forward. Backward reuses the shadows' verified backward code and
// maps their weight gradients back onto the original parameters through the
// sign masks — so IBP training trains the *original* model in place.
//
// The training loss follows the paper's Eq. (1) in its standard IBP form
// (Gowal et al. [13]):
//
//   J = (1 - alpha) * CE(z, y) + alpha * CE(z_worst, y)
//
// where z_worst picks the lower bound for the true class and upper bounds
// for all others — the worst case under any perturbation with Linf <= eps.
// Alpha and eps ramp linearly from 0 to their maxima between two training
// steps (the curriculum the paper describes: "we scale linearly both alpha
// and eps ... from iteration 41 to iteration 123").
#pragma once

#include <memory>

#include "data/synthetic.hpp"
#include "nn/nn.hpp"
#include "robust/interval.hpp"

namespace pfi::robust {

/// Interval-propagating wrapper around a feed-forward model.
class IbpNetwork {
 public:
  /// Flattens the model's leaf layers; throws on unsupported layer kinds.
  explicit IbpNetwork(std::shared_ptr<nn::Sequential> model);

  /// Propagate input bounds to output (logit) bounds.
  IntervalTensor forward(const IntervalTensor& input);

  /// Backpropagate gradients w.r.t. the output bounds and accumulate
  /// parameter gradients into the ORIGINAL model's parameters.
  void backward(const Tensor& grad_lo, const Tensor& grad_hi);

  /// Leaf layers being propagated through (after dropping Dropout).
  std::size_t num_layers() const { return layers_.size(); }

 private:
  struct Layer {
    // Affine layers (Conv2d / Linear): the wrapped layer and its shadows,
    // W+ applied to lo and hi, W- likewise.
    nn::GemmLayer* affine = nullptr;
    std::shared_ptr<nn::GemmLayer> plus_lo, plus_hi, minus_lo, minus_hi;
    // Monotone shadows (ReLU / MaxPool2d / Flatten): one per bound.
    std::shared_ptr<nn::Module> mono_lo, mono_hi;
  };

  void refresh_affine_weights(Layer& layer);
  void accumulate_affine_grads(Layer& layer);

  std::shared_ptr<nn::Sequential> model_;
  std::vector<Layer> layers_;
};

/// Training configuration for IBP (mirrors the paper's Sec. IV-C setup).
struct IbpTrainConfig {
  float alpha_max = 0.1f;   ///< weight of the worst-case CE term
  float eps_max = 0.25f;    ///< Linf perturbation radius being certified
  std::int64_t epochs = 4;
  std::int64_t batches_per_epoch = 30;
  std::int64_t batch_size = 16;
  float lr = 0.03f;
  float momentum = 0.9f;
  /// Curriculum: alpha and eps ramp linearly from 0 between these steps.
  std::int64_t ramp_start_step = 41;
  std::int64_t ramp_end_step = 123;
  std::uint64_t seed = 17;
  /// Global gradient-norm clip; IBP's |W|-path backward amplifies gradients,
  /// so training is clipped by default (0 disables).
  float grad_clip = 1.0f;
};

/// Outcome of IBP training.
struct IbpTrainResult {
  double final_loss = 0.0;
  double natural_accuracy = 0.0;   ///< clean train accuracy, last epoch
  double verified_fraction = 0.0;  ///< last-epoch lower bound on robustness:
                                   ///< fraction with z_worst still correct
  std::int64_t steps = 0;
};

/// Train `model` in place with the combined natural + worst-case loss.
IbpTrainResult train_ibp(const std::shared_ptr<nn::Sequential>& model,
                         const data::SyntheticDataset& ds,
                         const IbpTrainConfig& config);

/// Worst-case logits for targets y: z[y] = lo[y], z[k != y] = hi[k].
Tensor worst_case_logits(const IntervalTensor& bounds,
                         std::span<const std::int64_t> targets);

}  // namespace pfi::robust
