#include "robust/ibp.hpp"

#include <algorithm>
#include <cmath>

namespace pfi::robust {

using namespace pfi::nn;

namespace {

bool is_container(const std::string& kind) {
  return kind == "Sequential" || kind == "Residual" || kind == "Concat";
}

bool is_skipped(const std::string& kind) {
  // Dropout acts as identity for bound propagation (standard IBP practice);
  // Identity contributes nothing.
  return kind == "Dropout" || kind == "Identity";
}

}  // namespace

IbpNetwork::IbpNetwork(std::shared_ptr<Sequential> model)
    : model_(std::move(model)) {
  PFI_CHECK(model_ != nullptr) << "IbpNetwork needs a model";
  Rng shadow_rng(1);  // shadow weights are overwritten on every forward

  for (Module* m : model_->modules()) {
    const std::string kind = m->kind();
    if (is_container(kind) || is_skipped(kind)) {
      PFI_CHECK(kind != "Residual" && kind != "Concat")
          << "IbpNetwork supports plain feed-forward models; found a " << kind
          << " container";
      continue;
    }
    Layer layer;
    if (kind == "Conv2d") {
      auto& conv = static_cast<Conv2d&>(*m);
      Conv2dOptions minus_opts = conv.options();
      minus_opts.bias = false;
      layer.affine = &conv;
      layer.plus_lo = std::make_shared<Conv2d>(conv.options(), shadow_rng);
      layer.plus_hi = std::make_shared<Conv2d>(conv.options(), shadow_rng);
      layer.minus_lo = std::make_shared<Conv2d>(minus_opts, shadow_rng);
      layer.minus_hi = std::make_shared<Conv2d>(minus_opts, shadow_rng);
    } else if (kind == "Linear") {
      auto& fc = static_cast<Linear&>(*m);
      const auto in = fc.in_features(), out = fc.out_features();
      layer.affine = &fc;
      layer.plus_lo = std::make_shared<Linear>(in, out, shadow_rng,
                                               fc.has_bias());
      layer.plus_hi = std::make_shared<Linear>(in, out, shadow_rng,
                                               fc.has_bias());
      layer.minus_lo = std::make_shared<Linear>(in, out, shadow_rng, false);
      layer.minus_hi = std::make_shared<Linear>(in, out, shadow_rng, false);
    } else if (kind == "ReLU") {
      layer.mono_lo = std::make_shared<ReLU>();
      layer.mono_hi = std::make_shared<ReLU>();
    } else if (kind == "MaxPool2d") {
      auto& mp = static_cast<MaxPool2d&>(*m);
      layer.mono_lo = std::make_shared<MaxPool2d>(mp.kernel(), mp.stride(),
                                                  mp.padding());
      layer.mono_hi = std::make_shared<MaxPool2d>(mp.kernel(), mp.stride(),
                                                  mp.padding());
    } else if (kind == "Flatten") {
      layer.mono_lo = std::make_shared<Flatten>();
      layer.mono_hi = std::make_shared<Flatten>();
    } else {
      PFI_CHECK(false) << "IbpNetwork: unsupported layer kind '" << kind
                       << "' (supported: Conv2d, Linear, ReLU, MaxPool2d, "
                          "Flatten, Dropout)";
    }
    if (layer.affine != nullptr) {
      // The plus shadows add the ORIGINAL bias (shared storage): the bias
      // term appears identically in both bounds.
      if (layer.affine->has_bias()) {
        layer.plus_lo->bias().value = layer.affine->bias().value;
        layer.plus_hi->bias().value = layer.affine->bias().value;
      }
      // Within each sign pair the two shadows share weight storage.
      layer.plus_hi->weight().value = layer.plus_lo->weight().value;
      layer.minus_hi->weight().value = layer.minus_lo->weight().value;
    }
    layers_.push_back(std::move(layer));
  }
  PFI_CHECK(!layers_.empty()) << "IbpNetwork: model has no supported layers";
}

void IbpNetwork::refresh_affine_weights(Layer& layer) {
  const Tensor& w = layer.affine->weight().value;
  Tensor wplus = layer.plus_lo->weight().value;    // shared with plus_hi
  Tensor wminus = layer.minus_lo->weight().value;  // shared with minus_hi
  wplus.copy_from(w);
  wplus.apply_([](float v) { return v > 0.0f ? v : 0.0f; });
  wminus.copy_from(w);
  wminus.apply_([](float v) { return v < 0.0f ? v : 0.0f; });
}

IntervalTensor IbpNetwork::forward(const IntervalTensor& input) {
  input.validate();
  Tensor lo = input.lo;
  Tensor hi = input.hi;
  for (Layer& layer : layers_) {
    if (layer.plus_lo) {
      refresh_affine_weights(layer);
      Tensor lo_next = add((*layer.plus_lo)(lo), (*layer.minus_lo)(hi));
      Tensor hi_next = add((*layer.plus_hi)(hi), (*layer.minus_hi)(lo));
      lo = std::move(lo_next);
      hi = std::move(hi_next);
    } else {
      lo = (*layer.mono_lo)(lo);
      hi = (*layer.mono_hi)(hi);
    }
  }
  return {lo, hi};
}

void IbpNetwork::backward(const Tensor& grad_lo, const Tensor& grad_hi) {
  // Zero shadow gradients so each backward pass starts clean.
  for (Layer& layer : layers_) {
    for (Module* shadow : std::initializer_list<Module*>{
             layer.plus_lo.get(), layer.plus_hi.get(), layer.minus_lo.get(),
             layer.minus_hi.get(), layer.mono_lo.get(), layer.mono_hi.get()}) {
      if (shadow) shadow->zero_grad();
    }
  }

  Tensor dlo = grad_lo;
  Tensor dhi = grad_hi;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    Layer& layer = *it;
    if (layer.plus_lo) {
      // lo' = P(lo) + M(hi), hi' = P(hi) + M(lo)  =>
      // dlo = P^T dlo' + M^T dhi' ; dhi = M^T dlo' + P^T dhi'.
      Tensor dlo_prev = layer.plus_lo->backward(dlo);
      dlo_prev.add_(layer.minus_hi->backward(dhi));
      Tensor dhi_prev = layer.plus_hi->backward(dhi);
      dhi_prev.add_(layer.minus_lo->backward(dlo));
      dlo = std::move(dlo_prev);
      dhi = std::move(dhi_prev);
      accumulate_affine_grads(layer);
    } else {
      dlo = layer.mono_lo->backward(dlo);
      dhi = layer.mono_hi->backward(dhi);
    }
  }
}

void IbpNetwork::accumulate_affine_grads(Layer& layer) {
  Parameter& orig_w = layer.affine->weight();
  const auto w = orig_w.value.data();
  auto grad = orig_w.grad.data();
  const auto gpl = layer.plus_lo->weight().grad.data();
  const auto gph = layer.plus_hi->weight().grad.data();
  const auto gml = layer.minus_lo->weight().grad.data();
  const auto gmh = layer.minus_hi->weight().grad.data();
  for (std::size_t i = 0; i < w.size(); ++i) {
    // dW flows through W+ where W > 0 and through W- where W < 0; at
    // exactly zero both clamp masks are flat, so the subgradient is 0 —
    // except via W+ whose derivative we take as the right-sided one.
    if (w[i] > 0.0f) {
      grad[i] += gpl[i] + gph[i];
    } else if (w[i] < 0.0f) {
      grad[i] += gml[i] + gmh[i];
    }
  }

  if (layer.affine->has_bias()) {
    Parameter& orig_b = layer.affine->bias();
    orig_b.grad.add_(layer.plus_lo->bias().grad);
    orig_b.grad.add_(layer.plus_hi->bias().grad);
  }
}

Tensor worst_case_logits(const IntervalTensor& bounds,
                         std::span<const std::int64_t> targets) {
  const auto n = bounds.lo.size(0), c = bounds.lo.size(1);
  PFI_CHECK(static_cast<std::int64_t>(targets.size()) == n)
      << "worst_case_logits: " << targets.size() << " targets for batch " << n;
  Tensor z = bounds.hi.clone();
  for (std::int64_t i = 0; i < n; ++i) {
    const auto y = targets[static_cast<std::size_t>(i)];
    PFI_CHECK(y >= 0 && y < c) << "target " << y << " out of range";
    z.at(i, y) = bounds.lo.at(i, y);
  }
  return z;
}

IbpTrainResult train_ibp(const std::shared_ptr<Sequential>& model,
                         const data::SyntheticDataset& ds,
                         const IbpTrainConfig& config) {
  PFI_CHECK(config.alpha_max >= 0.0f && config.alpha_max <= 1.0f)
      << "alpha_max " << config.alpha_max;
  PFI_CHECK(config.eps_max >= 0.0f) << "eps_max " << config.eps_max;
  PFI_CHECK(config.ramp_start_step < config.ramp_end_step)
      << "curriculum ramp [" << config.ramp_start_step << ", "
      << config.ramp_end_step << ")";

  IbpNetwork ibp(model);
  Sgd opt(model->parameters(),
          {.lr = config.lr, .momentum = config.momentum, .weight_decay = 1e-4f});
  CrossEntropyLoss natural_ce;
  CrossEntropyLoss worst_ce;
  Rng rng(config.seed);

  // Dropout off: the natural and interval passes must see the same function.
  model->eval();

  IbpTrainResult result;
  std::int64_t step = 0;
  for (std::int64_t epoch = 0; epoch < config.epochs; ++epoch) {
    double loss_acc = 0.0, nat_acc = 0.0, verified_acc = 0.0;
    for (std::int64_t b = 0; b < config.batches_per_epoch; ++b, ++step) {
      // Curriculum schedule for (alpha, eps).
      float ramp = 0.0f;
      if (step >= config.ramp_end_step) {
        ramp = 1.0f;
      } else if (step > config.ramp_start_step) {
        ramp = static_cast<float>(step - config.ramp_start_step) /
               static_cast<float>(config.ramp_end_step -
                                  config.ramp_start_step);
      }
      const float alpha = config.alpha_max * ramp;
      const float eps = config.eps_max * ramp;

      const auto batch = ds.sample_batch(config.batch_size, rng);
      const auto params = model->parameters();
      opt.zero_grad();

      // Natural term.
      const Tensor logits = (*model)(batch.images);
      const float nat_loss = natural_ce.forward(logits, batch.labels);
      nat_acc += top1_accuracy(logits, batch.labels);
      Tensor gnat = natural_ce.backward();
      gnat.scale_(1.0f - alpha);
      model->run_backward(gnat);
      if (config.grad_clip > 0.0f) clip_grad_norm(params, config.grad_clip);

      float worst_loss = 0.0f;
      if (alpha > 0.0f && eps > 0.0f) {
        // The worst-case term is clipped SEPARATELY: early in the ramp its
        // raw gradient norm can exceed the natural term's by orders of
        // magnitude (the |W| backward path compounds per layer), and a joint
        // clip would let it drown the task gradient entirely.
        std::vector<Tensor> nat_grads;
        nat_grads.reserve(params.size());
        for (Parameter* p : params) {
          nat_grads.push_back(p->grad.clone());
          p->zero_grad();
        }

        const auto bounds =
            ibp.forward(IntervalTensor::around(batch.images, eps));
        const Tensor z = worst_case_logits(bounds, batch.labels);
        worst_loss = worst_ce.forward(z, batch.labels);
        verified_acc += top1_accuracy(z, batch.labels);
        Tensor gz = worst_ce.backward();
        gz.scale_(alpha);
        // Split dz into the bound gradients: the target column flows to lo,
        // every other column to hi.
        Tensor glo(gz.shape()), ghi = gz.clone();
        for (std::int64_t i = 0; i < gz.size(0); ++i) {
          const auto y = batch.labels[static_cast<std::size_t>(i)];
          glo.at(i, y) = gz.at(i, y);
          ghi.at(i, y) = 0.0f;
        }
        ibp.backward(glo, ghi);
        if (config.grad_clip > 0.0f) clip_grad_norm(params, config.grad_clip);
        for (std::size_t p = 0; p < params.size(); ++p) {
          params[p]->grad.add_(nat_grads[p]);
        }
      }

      loss_acc += (1.0f - alpha) * nat_loss + alpha * worst_loss;
      opt.step();
    }
    result.final_loss = loss_acc / static_cast<double>(config.batches_per_epoch);
    result.natural_accuracy =
        nat_acc / static_cast<double>(config.batches_per_epoch);
    result.verified_fraction =
        verified_acc / static_cast<double>(config.batches_per_epoch);
  }
  result.steps = step;
  return result;
}

}  // namespace pfi::robust
