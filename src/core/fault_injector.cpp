#include "core/fault_injector.hpp"

#include <algorithm>
#include <iostream>
#include <set>
#include <sstream>
#include <string_view>

#include "core/calibrate.hpp"
#include "nn/serialize.hpp"
#include "util/bits.hpp"

namespace pfi::core {

FaultInjector::FaultInjector(std::shared_ptr<nn::Module> model, FiConfig config)
    : model_(std::move(model)), config_(std::move(config)), rng_(config_.seed) {
  PFI_CHECK(model_ != nullptr) << "FaultInjector needs a model";
  PFI_CHECK(config_.input_shape.size() == 3)
      << "FiConfig.input_shape must be [C, H, W], got "
      << shape_to_string(config_.input_shape);
  PFI_CHECK(config_.batch_size > 0)
      << "FiConfig.batch_size=" << config_.batch_size;
  PFI_CHECK(config_.prefix_cache_mb >= 0 && config_.prefix_cache_mb <= 1 << 20)
      << "FiConfig.prefix_cache_mb=" << config_.prefix_cache_mb
      << ", must be in [0, 1048576]";

  // Select instrumented layers: every convolution (the paper's target
  // operation), plus Linear layers when requested.
  for (nn::Module* m : model_->modules()) {
    auto* gemm = dynamic_cast<nn::GemmLayer*>(m);
    if (gemm != nullptr &&
        (m->kind() == "Conv2d" ||
         (config_.instrument_linear && m->kind() == "Linear"))) {
      layers_.push_back(gemm);
    }
  }
  PFI_CHECK(!layers_.empty())
      << "model has no instrumentable (Conv2d) layers";
  faults_.resize(layers_.size());
  golden_qp_.resize(layers_.size());

  // Dotted module paths: the stable layer identity exported traces carry.
  layer_paths_.resize(layers_.size());
  for (const auto& [path, m] : model_->named_modules()) {
    for (std::size_t i = 0; i < layers_.size(); ++i) {
      if (layers_[i] == m) layer_paths_[i] = path;
    }
  }

  // Per-layer numeric resolution, applied BEFORE the profiling pass so the
  // dummy inference (and every later one) runs each layer in its deployed
  // representation.
  apply_native_modes();

  // Install the hooks up front; each hook body starts with the O(1)
  // emptiness check the paper's overhead argument rests on.
  hook_handles_.reserve(layers_.size());
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    hook_handles_.push_back(layers_[i]->register_forward_hook(
        [this, i](nn::Module&, const Tensor& in, Tensor& out) {
          hook_body(static_cast<std::int64_t>(i), in, out);
        }));
  }

  // Profiling dummy pass (paper Sec. III-B step 2): one inference on zeros
  // to learn each instrumented layer's output shape.
  const bool was_training = model_->is_training();
  model_->eval();
  Shape in_shape{config_.batch_size};
  in_shape.insert(in_shape.end(), config_.input_shape.begin(),
                  config_.input_shape.end());
  (*model_)(Tensor(in_shape));
  model_->train(was_training);

  layer_shapes_.reserve(layers_.size());
  for (nn::Module* m : layers_) {
    const Shape& s = m->last_output_shape();
    PFI_CHECK(!s.empty())
        << "profiling pass did not reach layer '" << m->name()
        << "' — is it connected to the model's forward path?";
    layer_shapes_.push_back(s);
    // Only 4-D fmaps participate in random neuron sampling (Linear outputs,
    // when instrumented, are targeted explicitly by the caller).
    if (s.size() == 4) total_neurons_ += s[1] * s[2] * s[3];
  }

  if (config_.prefix_cache) {
    prefix_cache_ = std::make_unique<PrefixCache>(
        *model_,
        static_cast<std::size_t>(config_.prefix_cache_mb) * 1024u * 1024u);
  }
}

FaultInjector::~FaultInjector() {
  // Order matters: clear() re-asserts stuck bits, so the persistent heal
  // (which forgets the registrations first) must run after it.
  clear();
  heal_persistent_faults();
  reset_native_modes();
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->remove_hook(hook_handles_[i]);
  }
}

void FaultInjector::apply_native_modes() {
  layer_dtype_.assign(layers_.size(), config_.dtype);
  layer_native_.assign(layers_.size(), config_.native ? 1 : 0);
  layer_static_.assign(layers_.size(), 0);
  layer_static_scale_.assign(layers_.size(), 0.0f);
  // Stale-calibration refusal: frozen activation scales are only meaningful
  // for the exact weights they were profiled against — running them on a
  // different model silently shifts every quantized domain, so fail loudly
  // before any layer is switched.
  if (config_.static_act != nullptr) {
    const std::uint64_t fp = model_weight_fingerprint(*model_);
    PFI_CHECK(fp == config_.static_act->weight_fingerprint)
        << "static activation calibration was computed for a different model "
           "(calibration weights fingerprint "
        << config_.static_act->weight_fingerprint << ", this model is " << fp
        << ") — refusing to run stale scales; re-run calibration";
  }
  std::set<std::string_view> resolved;
  for (const LayerResolution& res : config_.per_layer) {
    PFI_CHECK(resolved.insert(res.layer).second)
        << "per-layer resolution names '" << res.layer
        << "' twice; give each layer one resolution";
    bool matched = false;
    for (std::size_t i = 0; i < layers_.size(); ++i) {
      if (layer_paths_[i] != res.layer) continue;
      layer_dtype_[i] = res.dtype;
      layer_native_[i] = res.native ? 1 : 0;
      matched = true;
    }
    PFI_CHECK(matched) << "per-layer resolution names '" << res.layer
                       << "', which is not an instrumented layer path";
  }
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (layer_native_[i] == 0) continue;
    kernels::LowPrec lp = kernels::LowPrec::kNone;
    switch (layer_dtype_[i]) {
      case DType::kFloat32:
        // fp32 already IS the native execution; nothing to switch.
        layer_native_[i] = 0;
        continue;
      case DType::kFloat16: lp = kernels::LowPrec::kFp16; break;
      case DType::kBFloat16: lp = kernels::LowPrec::kBf16; break;
      case DType::kInt8: lp = kernels::LowPrec::kInt8; break;
    }
    // INT8 weight scales are frozen from the GOLDEN weights here, per output
    // channel, and handed to the module. A later weight fault then flips
    // exactly one deployed code: the repack after invalidation re-quantizes
    // with the SAME scales, so no other code in the channel moves.
    std::vector<float> scales;
    if (lp == kernels::LowPrec::kInt8) {
      for (const quant::QuantParams& qp :
           quant::calibrate_per_channel(layers_[i]->weight().value)) {
        scales.push_back(qp.scale);
      }
    }
    layers_[i]->set_native_dtype(lp, std::move(scales));
    // Frozen activation scales: a covered native-INT8 layer skips the
    // per-forward absmax pass and re-quantizes its output onto the frozen
    // grid (the INT8-resident boundary). Uncovered layers stay dynamic.
    const quant::LayerActScales* act =
        (lp == kernels::LowPrec::kInt8 && config_.static_act != nullptr)
            ? config_.static_act->find(layer_paths_[i])
            : nullptr;
    if (act != nullptr) {
      layers_[i]->set_static_act(act->in_scale, act->out_scale);
      layer_static_[i] = 1;
      layer_static_scale_[i] = act->out_scale;
    }
  }
  // conv->ReLU fusion rides with static calibration: the rectification runs
  // on the resident codes inside the GEMM epilogue, making the hook's
  // injection domain the post-ReLU codes (the masked-fault pruner accounts
  // for the lost ReLU masking — see relu_adjacent_layers).
  if (config_.static_act != nullptr) {
    fused_relu_ = nn::fuse_relu(*model_) > 0;
  }
}

void FaultInjector::reset_native_modes() {
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (layer_native_[i] == 0) continue;
    layers_[i]->set_native_dtype(kernels::LowPrec::kNone);
    if (layer_static_[i] != 0) layers_[i]->clear_static_act();
  }
  if (fused_relu_) {
    nn::unfuse_relu(*model_);
    fused_relu_ = false;
  }
}

std::size_t FaultInjector::checked_layer(std::int64_t i) const {
  PFI_CHECK(i >= 0 && i < num_layers())
      << "layer " << i << " out of range; model has " << num_layers()
      << " instrumented layers";
  return static_cast<std::size_t>(i);
}

DType FaultInjector::layer_dtype(std::int64_t i) const {
  return layer_dtype_[checked_layer(i)];
}

bool FaultInjector::layer_native(std::int64_t i) const {
  return layer_native_[checked_layer(i)] != 0;
}

bool FaultInjector::layer_static(std::int64_t i) const {
  return layer_static_[checked_layer(i)] != 0;
}

const Shape& FaultInjector::layer_shape(std::int64_t layer) const {
  return layer_shapes_[checked_layer(layer)];
}

nn::GemmLayer& FaultInjector::layer(std::int64_t i) const {
  return *layers_[checked_layer(i)];
}

const std::string& FaultInjector::layer_path(std::int64_t i) const {
  return layer_paths_[checked_layer(i)];
}

void FaultInjector::set_profiler(trace::Profiler* profiler) {
  profiler_ = profiler;
  if (profiler_ == nullptr) return;
  if (prefix_cache_ != nullptr) {
    // A bypassed layer never executes, so its per-layer wall time and
    // activation stats would be missing or stale. Reuse yields to accuracy.
    std::cerr << "pfi: prefix-cache reuse disabled while a profiler is "
                 "attached (per-layer timings require real execution)\n";
    profiler_->set_note(
        "prefix-cache reuse disabled while profiling: every layer below "
        "really executed");
  }
  std::vector<trace::LayerProfile> table;
  table.reserve(layers_.size());
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    table.push_back({.name = layer_paths_[i], .kind = layers_[i]->kind()});
  }
  profiler_->init(std::move(table));
}

void FaultInjector::emit_event(trace::FaultKind kind, std::int64_t layer,
                               const std::int64_t (&coords)[4],
                               std::int64_t flat, float pre, float post,
                               const std::string& model_name,
                               const quant::QuantParams& qparams,
                               std::uint64_t time) {
  trace::InjectionEvent ev;
  ev.kind = kind;
  ev.time = time;
  ev.layer = layer;
  ev.layer_name = layer_paths_[static_cast<std::size_t>(layer)];
  ev.layer_kind = layers_[static_cast<std::size_t>(layer)]->kind();
  // Events carry the layer's OWN resolution — with per-layer configs this is
  // the true deployed representation of the corrupted value, and diff_bit
  // attributes the flip in that representation's bit domain.
  ev.dtype = layer_dtype_[static_cast<std::size_t>(layer)];
  for (int i = 0; i < 4; ++i) ev.coords[i] = coords[i];
  ev.flat = flat;
  ev.pre = pre;
  ev.post = post;
  ev.bit = trace::diff_bit(pre, post, ev.dtype, qparams);
  ev.model = model_name;
  sink_->record(std::move(ev));
}

void FaultInjector::record_neuron_event(std::int64_t layer,
                                        const std::int64_t (&coords)[4],
                                        std::int64_t flat, float pre,
                                        float post,
                                        const std::string& model_name,
                                        const quant::QuantParams& qparams) {
  if (sink_ != nullptr) {
    emit_event(trace::FaultKind::kNeuron, layer, coords, flat, pre, post,
               model_name, qparams);
  }
}

void FaultInjector::declare_neuron_fault(const NeuronLocation& loc,
                                         ErrorModel model) {
  const Shape& s = layer_shape(loc.layer);  // validates loc.layer
  PFI_CHECK(s.size() == 4)
      << "layer " << loc.layer << " output is " << shape_to_string(s)
      << ", not a 4-D fmap; neuron coordinates do not apply";
  PFI_CHECK(loc.batch == kAllBatchElements ||
            (loc.batch >= 0 && loc.batch < s[0]))
      << "batch index " << loc.batch << " out of range for layer "
      << loc.layer << " with batch size " << s[0];
  PFI_CHECK(loc.c >= 0 && loc.c < s[1])
      << "feature map " << loc.c << " out of range for layer " << loc.layer
      << " which has " << s[1] << " fmaps";
  PFI_CHECK(loc.h >= 0 && loc.h < s[2] && loc.w >= 0 && loc.w < s[3])
      << "position (" << loc.h << ", " << loc.w << ") out of range for layer "
      << loc.layer << " fmap of size " << s[2] << "x" << s[3];
  PFI_CHECK(model.apply != nullptr) << "error model '" << model.name
                                    << "' has no apply function";
  faults_[static_cast<std::size_t>(loc.layer)].push_back(
      {loc, std::move(model), FaultScope::kNeuron});
}

void FaultInjector::declare_fmap_fault(std::int64_t layer, std::int64_t c,
                                       std::int64_t batch, ErrorModel model) {
  const Shape& s = layer_shape(layer);
  PFI_CHECK(s.size() == 4) << "layer " << layer << " output is "
                           << shape_to_string(s) << ", not a 4-D fmap";
  PFI_CHECK(c >= 0 && c < s[1]) << "feature map " << c
                                << " out of range for layer " << layer
                                << " which has " << s[1] << " fmaps";
  PFI_CHECK(batch == kAllBatchElements || (batch >= 0 && batch < s[0]))
      << "batch index " << batch << " out of range for layer " << layer;
  PFI_CHECK(model.apply != nullptr) << "error model '" << model.name
                                    << "' has no apply function";
  faults_[static_cast<std::size_t>(layer)].push_back(
      {NeuronLocation{.layer = layer, .batch = batch, .c = c, .h = 0, .w = 0},
       std::move(model), FaultScope::kFmap});
}

void FaultInjector::declare_layer_fault(std::int64_t layer, std::int64_t batch,
                                        ErrorModel model) {
  const Shape& s = layer_shape(layer);
  PFI_CHECK(s.size() == 4) << "layer " << layer << " output is "
                           << shape_to_string(s) << ", not a 4-D fmap";
  PFI_CHECK(batch == kAllBatchElements || (batch >= 0 && batch < s[0]))
      << "batch index " << batch << " out of range for layer " << layer;
  PFI_CHECK(model.apply != nullptr) << "error model '" << model.name
                                    << "' has no apply function";
  faults_[static_cast<std::size_t>(layer)].push_back(
      {NeuronLocation{.layer = layer, .batch = batch},
       std::move(model), FaultScope::kLayer});
}

void FaultInjector::declare_weight_fault(const WeightLocation& loc,
                                         const ErrorModel& model) {
  nn::GemmLayer& conv = layer(loc.layer);
  PFI_CHECK(conv.kind() == "Conv2d")
      << "weight faults target Conv2d layers; layer " << loc.layer << " is "
      << conv.kind();
  Tensor& w = conv.weight().value;
  PFI_CHECK(loc.out_c >= 0 && loc.out_c < w.size(0) && loc.in_c >= 0 &&
            loc.in_c < w.size(1) && loc.kh >= 0 && loc.kh < w.size(2) &&
            loc.kw >= 0 && loc.kw < w.size(3))
      << "weight position (" << loc.out_c << ", " << loc.in_c << ", "
      << loc.kh << ", " << loc.kw << ") out of range for layer " << loc.layer
      << " weights " << w.to_string();
  PFI_CHECK(model.apply != nullptr) << "error model '" << model.name
                                    << "' has no apply function";

  const std::int64_t flat = w.offset_of(loc.out_c, loc.in_c, loc.kh, loc.kw);
  InjectionContext ctx;
  ctx.layer = loc.layer;
  ctx.flat_index = flat;
  ctx.dtype = layer_dtype_[static_cast<std::size_t>(loc.layer)];
  if (ctx.dtype == DType::kInt8) {
    if (layer_native_[static_cast<std::size_t>(loc.layer)] != 0) {
      // Native INT8 layer: the weight's deployed code lives at the frozen
      // per-channel scale the module packs with, so a bit flip in THAT code
      // is exactly what the next (invalidated) repack deploys.
      const std::vector<float>& scales = conv.native_scales();
      PFI_CHECK(!scales.empty())
          << "native INT8 layer " << loc.layer << " has no frozen scales";
      ctx.qparams.scale = scales[static_cast<std::size_t>(loc.out_c)];
    } else {
      ctx.qparams = quant::calibrate(w);
    }
  }
  ctx.rng = &rng_;

  // Offline corruption: mutate now, remember how to undo. The mutation
  // invalidates the layer's packed-weight cache so the next forward packs
  // the corrupted weights, not a stale golden pack.
  const float pre = w[flat];
  weight_undo_.push_back({&conv, flat, pre});
  w[flat] = model.apply(pre, ctx);
  conv.invalidate_weight_packs();
  ++injections_;
  if (sink_ != nullptr) {
    const std::int64_t coords[4] = {loc.out_c, loc.in_c, loc.kh, loc.kw};
    emit_event(trace::FaultKind::kWeight, loc.layer, coords, flat, pre,
               w[flat], model.name, ctx.qparams);
  }
}

NeuronLocation FaultInjector::random_neuron_location(Rng& rng,
                                                     std::int64_t layer) const {
  NeuronLocation loc;
  if (layer < 0) {
    // Weight the draw by layer size so every neuron in the network is
    // equally likely — the sampling the paper's campaigns use
    // ("a randomly selected neuron in the DNN", Sec. IV-A).
    std::int64_t pick = static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(total_neurons_)));
    for (std::size_t i = 0; i < layer_shapes_.size(); ++i) {
      const Shape& s = layer_shapes_[i];
      if (s.size() != 4) continue;
      const std::int64_t count = s[1] * s[2] * s[3];
      if (pick < count) {
        loc.layer = static_cast<std::int64_t>(i);
        loc.c = pick / (s[2] * s[3]);
        loc.h = (pick / s[3]) % s[2];
        loc.w = pick % s[3];
        return loc;
      }
      pick -= count;
    }
    PFI_CHECK(false) << "neuron sampling fell off the end (internal bug)";
  }
  const Shape& s = layer_shape(layer);
  loc.layer = layer;
  loc.c = rng.next_int(0, s[1] - 1);
  loc.h = rng.next_int(0, s[2] - 1);
  loc.w = rng.next_int(0, s[3] - 1);
  return loc;
}

WeightLocation FaultInjector::random_weight_location(Rng& rng,
                                                     std::int64_t layer) const {
  std::int64_t chosen = layer;
  if (chosen < 0) {
    // Weighted by weight-tensor size.
    std::int64_t total = 0;
    for (nn::GemmLayer* m : layers_) {
      if (m->kind() == "Conv2d") total += m->weight().value.numel();
    }
    PFI_CHECK(total > 0) << "no conv weights to sample";
    std::int64_t pick = static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(total)));
    for (std::size_t i = 0; i < layers_.size(); ++i) {
      if (layers_[i]->kind() != "Conv2d") continue;
      const auto n = layers_[i]->weight().value.numel();
      if (pick < n) {
        chosen = static_cast<std::int64_t>(i);
        break;
      }
      pick -= n;
    }
  }
  nn::GemmLayer& m = this->layer(chosen);
  PFI_CHECK(m.kind() == "Conv2d")
      << "layer " << chosen << " is " << m.kind() << ", not Conv2d";
  const Tensor& w = m.weight().value;
  WeightLocation loc;
  loc.layer = chosen;
  loc.out_c = rng.next_int(0, w.size(0) - 1);
  loc.in_c = rng.next_int(0, w.size(1) - 1);
  loc.kh = rng.next_int(0, w.size(2) - 1);
  loc.kw = rng.next_int(0, w.size(3) - 1);
  return loc;
}

std::unique_ptr<FaultInjector> FaultInjector::replicate() const {
  PFI_CHECK(weight_undo_.empty() && active_neuron_faults() == 0 &&
            persist_undo_.empty() && stuck_bits_.empty())
      << "replicate() requires a quiescent injector — call clear() (and "
         "heal_persistent_faults()) first so the replica starts from golden "
         "weights";
  auto model_copy = nn::clone_model(*model_);
  return std::make_unique<FaultInjector>(std::move(model_copy), config_);
}

void FaultInjector::clear() {
  for (auto& f : faults_) f.clear();
  // Undo weight perturbations in reverse declaration order so overlapping
  // faults restore the true golden value, then drop every touched layer's
  // packed-weight cache: restore must be bit-exact AND never leave a stale
  // pack of the corrupted weights behind.
  for (auto it = weight_undo_.rbegin(); it != weight_undo_.rend(); ++it) {
    it->layer->weight().value[it->flat] = it->original;
    it->layer->invalidate_weight_packs();
  }
  weight_undo_.clear();
  // Stuck memory cells cannot be scrubbed by a restore: re-force them so
  // the post-clear() state still reads the stuck value.
  reassert_stuck_bits();
}

quant::QuantParams FaultInjector::persistent_qparams(std::int64_t layer,
                                                     std::int64_t flat) const {
  quant::QuantParams qp;
  if (layer_dtype_[static_cast<std::size_t>(layer)] != DType::kInt8) return qp;
  nn::GemmLayer& m = this->layer(layer);
  const Tensor& w = m.weight().value;
  if (layer_native_[static_cast<std::size_t>(layer)] != 0) {
    // Native INT8: the deployed code lives at the frozen per-channel scale.
    // Row-major contiguous weights put output channel c at flat indices
    // [c * inner, (c + 1) * inner) with inner = numel / size(0).
    const std::vector<float>& scales = m.native_scales();
    PFI_CHECK(!scales.empty())
        << "native INT8 layer " << layer << " has no frozen scales";
    const std::int64_t inner = w.numel() / w.size(0);
    qp.scale = scales[static_cast<std::size_t>(flat / inner)];
  } else {
    qp = quant::calibrate(w);
  }
  return qp;
}

namespace {

/// Decompose a flat index into per-dimension coordinates of `w` (row-major
/// contiguous), padding trailing entries with 0 — Conv2d weights fill all
/// four slots (out_c, in_c, kh, kw), Linear weights fill (out, in, 0, 0).
void weight_coords(const Tensor& w, std::int64_t flat,
                   std::int64_t (&coords)[4]) {
  coords[0] = coords[1] = coords[2] = coords[3] = 0;
  std::int64_t rem = flat;
  const int dims = static_cast<int>(w.dim());
  for (int d = dims - 1; d >= 0; --d) {
    coords[d] = rem % w.size(d);
    rem /= w.size(d);
  }
}

}  // namespace

void FaultInjector::commit_persistent_write(std::int64_t layer,
                                            std::int64_t flat, float pre,
                                            float post, std::uint64_t time,
                                            const std::string& model_name,
                                            const quant::QuantParams& qparams) {
  nn::GemmLayer& m = this->layer(layer);
  persist_undo_.push_back({&m, flat, pre});
  Tensor& w = m.weight().value;
  w[flat] = post;
  m.invalidate_weight_packs();
  ++injections_;
  if (sink_ != nullptr) {
    std::int64_t coords[4];
    weight_coords(w, flat, coords);
    emit_event(trace::FaultKind::kPersist, layer, coords, flat, pre, post,
               model_name, qparams, time);
  }
}

FaultInjector::PersistentWrite FaultInjector::write_persistent_bit(
    std::int64_t layer, std::int64_t flat, int bit, int op, std::uint64_t time,
    const std::string& model_name) {
  Tensor& w = this->layer(layer).weight().value;
  PFI_CHECK(flat >= 0 && flat < w.numel())
      << "persistent write at flat index " << flat
      << " out of range for layer " << layer << " weights " << w.to_string();
  const DType dt = layer_dtype_[static_cast<std::size_t>(layer)];
  PFI_CHECK(bit >= 0 && bit < dtype_bit_width(dt))
      << "persistent write bit " << bit << " out of range for layer " << layer
      << " deployed as " << dtype_name(dt);
  const quant::QuantParams qp = persistent_qparams(layer, flat);
  const float pre = w[flat];
  const float post = force_bit(pre, bit, op, dt, qp);
  commit_persistent_write(layer, flat, pre, post, time, model_name, qp);
  return {pre, post};
}

void FaultInjector::write_persistent_value(std::int64_t layer,
                                           std::int64_t flat, float value,
                                           std::uint64_t time,
                                           const std::string& model_name) {
  Tensor& w = this->layer(layer).weight().value;
  PFI_CHECK(flat >= 0 && flat < w.numel())
      << "persistent write at flat index " << flat
      << " out of range for layer " << layer << " weights " << w.to_string();
  commit_persistent_write(layer, flat, w[flat], value, time, model_name,
                          persistent_qparams(layer, flat));
}

void FaultInjector::register_stuck_bit(std::int64_t layer, std::int64_t flat,
                                       int bit, int value) {
  const Tensor& w = this->layer(layer).weight().value;
  PFI_CHECK(flat >= 0 && flat < w.numel())
      << "stuck bit at flat index " << flat << " out of range for layer "
      << layer << " weights " << w.to_string();
  const DType dt = layer_dtype_[static_cast<std::size_t>(layer)];
  PFI_CHECK(bit >= 0 && bit < dtype_bit_width(dt))
      << "stuck bit " << bit << " out of range for layer " << layer
      << " deployed as " << dtype_name(dt);
  PFI_CHECK(value == 0 || value == 1) << "stuck bit value=" << value;
  stuck_bits_.push_back({layer, flat, bit, value});
}

void FaultInjector::reassert_stuck_bits() {
  for (const StuckBit& s : stuck_bits_) {
    nn::GemmLayer& m = this->layer(s.layer);
    Tensor& w = m.weight().value;
    const float pre = w[s.flat];
    const float post =
        force_bit(pre, s.bit, s.value,
                  layer_dtype_[static_cast<std::size_t>(s.layer)],
                  persistent_qparams(s.layer, s.flat));
    if (float_to_bits(post) == float_to_bits(pre)) continue;  // already stuck
    w[s.flat] = post;
    m.invalidate_weight_packs();
  }
}

void FaultInjector::heal_persistent_faults() {
  // Forget the registrations FIRST so nothing re-asserts over the restore.
  stuck_bits_.clear();
  for (auto it = persist_undo_.rbegin(); it != persist_undo_.rend(); ++it) {
    it->layer->weight().value[it->flat] = it->original;
    it->layer->invalidate_weight_packs();
  }
  persist_undo_.clear();
}

bool FaultInjector::prefix_cache_usable() const {
  return prefix_cache_ != nullptr && profiler_ == nullptr &&
         !model_->is_training();
}

FaultInjector::ReusePlan FaultInjector::reuse_plan() const {
  ReusePlan plan;
  // A faulted layer the recorded pass never reached means the recording
  // does not describe this model's execution — reuse nothing.
  bool stale = false;
  const auto first_idx = [&](const nn::Module* m) {
    const std::size_t idx = prefix_cache_->first_execution_index(m);
    if (idx == PrefixCache::kNoEvent) stale = true;
    return idx;
  };
  // Weight faults: the perturbed conv itself must recompute (its forward
  // changed), so only layers strictly before its first execution replay.
  // Persistent writes bound reuse exactly the same way — a recording made
  // before (or after) a persistent write is only valid for layers whose
  // weights the write never touched.
  std::size_t limit = prefix_cache_->num_events();
  for (const WeightUndo& undo : weight_undo_) {
    limit = std::min(limit, first_idx(undo.layer));
  }
  for (const WeightUndo& undo : persist_undo_) {
    limit = std::min(limit, first_idx(undo.layer));
  }
  std::size_t neuron_min = PrefixCache::kNoEvent;
  std::int64_t neuron_layer = -1;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (faults_[i].empty()) continue;
    const std::size_t idx = first_idx(layers_[i]);
    if (idx < neuron_min) {
      neuron_min = idx;
      neuron_layer = static_cast<std::int64_t>(i);
    }
  }
  if (stale) return plan;  // prefix_len 0 — full recompute
  if (neuron_layer >= 0 && neuron_min < limit) {
    // Resume AT the injection site: serve the injected layer's snapshot
    // with its faults applied on top, recompute only from the next layer.
    plan.prefix_len = neuron_min + 1;
    plan.mutate_event = neuron_min;
    plan.mutate_layer = neuron_layer;
    return plan;
  }
  // No neuron fault strictly before the weight bound: plain prefix reuse up
  // to the earlier of the two (kNoEvent neuron_min means weight-only).
  plan.prefix_len = std::min(neuron_min, limit);
  return plan;
}

Tensor FaultInjector::forward(const Tensor& input, ForwardMode mode) {
  PFI_CHECK(input.dim() ==
            static_cast<std::int64_t>(config_.input_shape.size()) + 1)
      << "input " << input.to_string() << " does not match configured shape "
      << shape_to_string(config_.input_shape) << " plus batch dim";
  for (std::size_t d = 0; d < config_.input_shape.size(); ++d) {
    PFI_CHECK(input.size(static_cast<std::int64_t>(d) + 1) ==
              config_.input_shape[d])
        << "input " << input.to_string() << " does not match configured shape "
        << shape_to_string(config_.input_shape);
  }
  PFI_CHECK(input.size(0) <= config_.batch_size)
      << "input batch " << input.size(0) << " exceeds configured batch size "
      << config_.batch_size;

  if (mode == ForwardMode::kRecordGolden) {
    // Golden quantization parameters must be captured on every golden pass
    // regardless of cache availability: pruner-synthesized trace events
    // decode masked faults through golden_qp_, and the prefix cache is
    // documented as a pure speed knob (byte-identical results either way).
    const bool record_snapshots = prefix_cache_usable();
    if (record_snapshots) prefix_cache_->begin_record(input);
    recording_golden_ = true;
    try {
      Tensor out = (*model_)(input);
      recording_golden_ = false;
      if (record_snapshots) prefix_cache_->end_record();
      return out;
    } catch (...) {
      recording_golden_ = false;
      if (record_snapshots) prefix_cache_->end_record();
      throw;
    }
  }

  if (mode == ForwardMode::kPlain || !prefix_cache_usable()) {
    return (*model_)(input);
  }

  // kReusePrefix: replay the golden prefix up to (for neuron faults:
  // through) the earliest armed fault; arm_reuse itself falls back
  // (returning 0) when nothing was recorded or the input differs. Either
  // way the forward runs — the cache only decides how much of it is served
  // from snapshots.
  const ReusePlan plan = reuse_plan();
  PrefixCache::SnapshotMutator mutator;
  if (plan.mutate_layer >= 0) {
    mutator = [this, layer = plan.mutate_layer](nn::Module&, Tensor& out) {
      apply_armed_faults(layer, out,
                         golden_qp_[static_cast<std::size_t>(layer)]);
    };
  }
  prefix_cache_->arm_reuse(plan.prefix_len, input, plan.mutate_event,
                           std::move(mutator));
  try {
    Tensor out = (*model_)(input);
    prefix_cache_->disarm();
    return out;
  } catch (...) {
    prefix_cache_->disarm();
    throw;
  }
}

void FaultInjector::absorb_prefix_stats(const FaultInjector& other) {
  if (prefix_cache_ == nullptr || other.prefix_cache_ == nullptr) return;
  prefix_cache_->stats().absorb(other.prefix_cache_->stats());
}

std::string FaultInjector::describe() const {
  std::ostringstream os;
  os << "FaultInjector: " << layers_.size() << " instrumented layers, "
     << total_neurons_ << " neurons, dtype " << dtype_name(config_.dtype)
     << ", input " << shape_to_string(config_.input_shape) << " x batch "
     << config_.batch_size << "\n";
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    os << "  [" << i << "] " << layers_[i]->kind() << " '"
       << layers_[i]->name() << "' -> " << shape_to_string(layer_shapes_[i])
       << " [" << dtype_name(layer_dtype_[i])
       << (layer_native_[i] != 0 ? "-native" : "") << "] ("
       << faults_[i].size() << " faults armed)\n";
  }
  return os.str();
}

std::size_t FaultInjector::active_neuron_faults() const {
  std::size_t n = 0;
  for (const auto& f : faults_) n += f.size();
  return n;
}

void FaultInjector::hook_body(std::int64_t layer_index, const Tensor& input,
                              Tensor& output) {
  auto& layer_faults = faults_[static_cast<std::size_t>(layer_index)];
  const DType dt = layer_dtype_[static_cast<std::size_t>(layer_index)];
  const bool is_static = layer_static_[static_cast<std::size_t>(layer_index)] != 0;
  // Fast path — the paper's "only a single check on every layer". Static
  // INT8 layers join fp32 here: their output already lies exactly on the
  // frozen grid, so an idle hook has nothing to emulate (the golden pass
  // still enters, to capture golden_qp_). With a profiler attached the hook
  // has observation work even when idle, so the early-out is skipped (and
  // the cost of that work is itself measured).
  if (layer_faults.empty() && profiler_ == nullptr &&
      (dt == DType::kFloat32 || (is_static && !recording_golden_))) {
    return;
  }
  trace::HookTimer hook_timer(profiler_, layer_index);
  // Input activation range (static calibration's golden-pass source).
  if (profiler_ != nullptr) profiler_->observe_input(layer_index, input.data());

  // Output-grid projection, for native and emulated layers alike: a native
  // layer's raw output (requantized i32 accumulators, or fp32 arithmetic
  // over 16-bit-rounded operands) is not itself on the layer dtype's grid,
  // and injections must land in the SAME output-quantized domain either
  // way — that uniformity is what makes native-vs-emulated flip semantics
  // comparable bit-for-bit.
  quant::QuantParams qp;
  switch (dt) {
    case DType::kFloat32:
      break;
    case DType::kFloat16:
    case DType::kBFloat16: {
      // The native 16-bit operands' rounding (kernels::round16): software
      // narrowing (not a _Float16 cast) so NaN payloads survive the grid
      // projection and single-bit attribution holds on non-finite
      // activations. Bit-identical to the hardware cast for all finite v.
      const auto data = output.data();
      kernels::round16(data.data(), static_cast<std::int64_t>(data.size()),
                       dt == DType::kFloat16 ? kernels::Storage16::kFp16
                                             : kernels::Storage16::kBf16,
                       data.data());
      break;
    }
    case DType::kInt8:
      if (is_static) {
        // The layer's epilogue already re-quantized onto the frozen output
        // grid (requantize_*_grid stores exact code images), so there is
        // nothing to emulate — faults simply arm under the frozen scale:
        // the injection domain IS the resident codes.
        qp.scale = layer_static_scale_[static_cast<std::size_t>(layer_index)];
        break;
      }
      // Emulate INT8 neuron quantization (paper Sec. IV-A): dynamic
      // per-tensor symmetric calibration, applied on golden and faulty runs
      // alike so the bit flip happens in the quantized domain.
      qp = quant::calibrate(output);
      quant::fake_quantize_(output, qp);
      break;
  }
  // Golden pass: remember the emulation params so a later resume-at-
  // injection replay applies faults in exactly the quantized domain the
  // cache-off pass would recompute (see golden_qp_'s comment).
  if (recording_golden_) {
    golden_qp_[static_cast<std::size_t>(layer_index)] = qp;
  }
  // Activation profile of the (post-dtype-emulation) output — the healthy
  // range injections perturb.
  if (profiler_ != nullptr) profiler_->observe(layer_index, output.data());
  apply_armed_faults(layer_index, output, qp);
}

void FaultInjector::apply_armed_faults(std::int64_t layer_index,
                                       Tensor& output,
                                       const quant::QuantParams& qp) {
  auto& layer_faults = faults_[static_cast<std::size_t>(layer_index)];
  if (layer_faults.empty()) return;

  PFI_CHECK(output.dim() == 4)
      << "neuron faults declared on layer " << layer_index
      << " but its output is " << output.to_string();
  InjectionContext ctx;
  ctx.layer = layer_index;
  ctx.dtype = layer_dtype_[static_cast<std::size_t>(layer_index)];
  ctx.qparams = qp;
  ctx.rng = &rng_;

  const auto batch = output.size(0);
  for (const ArmedFault& fault : layer_faults) {
    const auto& loc = fault.loc;
    // Shapes can differ from the profiled ones only in batch size (smaller
    // final batches are legal); spatial coordinates were validated against
    // the profiling pass, but re-check here to fail loudly if the model is
    // reconfigured behind the injector's back.
    PFI_CHECK(loc.c < output.size(1) && loc.h < output.size(2) &&
              loc.w < output.size(3))
        << "declared fault at fmap " << loc.c << ", (" << loc.h << ", "
        << loc.w << ") no longer fits layer " << layer_index << " output "
        << output.to_string();
    const std::int64_t b0 = loc.batch == kAllBatchElements ? 0 : loc.batch;
    const std::int64_t b1 =
        loc.batch == kAllBatchElements ? batch : loc.batch + 1;
    const std::int64_t c0 = fault.scope == FaultScope::kLayer ? 0 : loc.c;
    const std::int64_t c1 =
        fault.scope == FaultScope::kLayer ? output.size(1) : loc.c + 1;
    for (std::int64_t b = b0; b < b1; ++b) {
      if (b >= batch) break;  // final partial batch
      if (fault.scope == FaultScope::kNeuron) {
        const std::int64_t flat = output.offset_of(b, loc.c, loc.h, loc.w);
        ctx.flat_index = flat;
        const float pre = output[flat];
        output[flat] = fault.model.apply(pre, ctx);
        ++injections_;
        record_neuron_event(layer_index, {b, loc.c, loc.h, loc.w}, flat, pre,
                            output[flat], fault.model.name, qp);
        continue;
      }
      // Fmap / layer scope: corrupt every spatial position of the selected
      // channel range.
      for (std::int64_t c = c0; c < c1; ++c) {
        for (std::int64_t h = 0; h < output.size(2); ++h) {
          for (std::int64_t w = 0; w < output.size(3); ++w) {
            const std::int64_t flat = output.offset_of(b, c, h, w);
            ctx.flat_index = flat;
            const float pre = output[flat];
            output[flat] = fault.model.apply(pre, ctx);
            ++injections_;
            record_neuron_event(layer_index, {b, c, h, w}, flat, pre,
                                output[flat], fault.model.name, qp);
          }
        }
      }
    }
  }
}

void declare_one_fault_per_layer(FaultInjector& fi, const ErrorModel& model,
                                 Rng& rng) {
  for (std::int64_t l = 0; l < fi.num_layers(); ++l) {
    fi.declare_neuron_fault(fi.random_neuron_location(rng, l), model);
  }
}

}  // namespace pfi::core
