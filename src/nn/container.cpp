#include "nn/container.hpp"

#include <algorithm>

#include "nn/gemm_layer.hpp"
#include "nn/layers.hpp"

namespace pfi::nn {

// ---------------------------------------------------------- Sequential ------

ModulePtr Sequential::push(ModulePtr m) {
  PFI_CHECK(m != nullptr) << "Sequential::push(nullptr)";
  if (m->name().empty()) m->set_name(std::to_string(items_.size()));
  m->train(is_training());
  items_.push_back(m);
  return items_.back();
}

Tensor Sequential::forward(const Tensor& input) {
  Tensor x = input;
  for (auto& m : items_) x = (*m)(x);
  return x;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  for (auto it = items_.rbegin(); it != items_.rend(); ++it) {
    g = (*it)->run_backward(g);
  }
  return g;
}

std::vector<Module*> Sequential::children() {
  std::vector<Module*> out;
  out.reserve(items_.size());
  for (auto& m : items_) out.push_back(m.get());
  return out;
}

std::shared_ptr<Module> Sequential::clone_structure() const {
  auto copy = std::make_shared<Sequential>();
  // push() re-derives the same positional child names, so a structural
  // clone's parameter paths match the source's exactly.
  for (const auto& m : items_) copy->push(m->clone_structure());
  return copy;
}

Module& Sequential::at(std::size_t i) {
  PFI_CHECK(i < items_.size())
      << "Sequential index " << i << " out of range (size " << items_.size()
      << ")";
  return *items_[i];
}

// ------------------------------------------------------------ Residual ------

Residual::Residual(ModulePtr main, ModulePtr shortcut)
    : main_(std::move(main)), shortcut_(std::move(shortcut)) {
  PFI_CHECK(main_ && shortcut_) << "Residual branches must be non-null";
  main_->set_name("main");
  shortcut_->set_name("shortcut");
}

Tensor Residual::forward(const Tensor& input) {
  Tensor a = (*main_)(input);
  Tensor b = (*shortcut_)(input);
  PFI_CHECK(a.shape() == b.shape())
      << "Residual branch shapes differ: main " << a.to_string()
      << " vs shortcut " << b.to_string();
  // Fresh storage: adding into `a` in place would corrupt activations the
  // main branch cached for backward (its output may alias a child's cache).
  Tensor out = a.clone();
  out.add_(b);
  return out;
}

Tensor Residual::backward(const Tensor& grad_output) {
  Tensor ga = main_->run_backward(grad_output);
  Tensor gb = shortcut_->run_backward(grad_output);
  ga.add_(gb);
  return ga;
}

std::vector<Module*> Residual::children() {
  return {main_.get(), shortcut_.get()};
}

std::shared_ptr<Module> Residual::clone_structure() const {
  return std::make_shared<Residual>(main_->clone_structure(),
                                    shortcut_->clone_structure());
}

// -------------------------------------------------------------- Concat ------

Concat::Concat(std::vector<ModulePtr> branches)
    : branches_(std::move(branches)) {
  PFI_CHECK(!branches_.empty()) << "Concat needs at least one branch";
  for (std::size_t i = 0; i < branches_.size(); ++i) {
    PFI_CHECK(branches_[i] != nullptr) << "Concat branch " << i << " is null";
    branches_[i]->set_name("branch" + std::to_string(i));
  }
}

Tensor Concat::forward(const Tensor& input) {
  std::vector<Tensor> outs;
  outs.reserve(branches_.size());
  branch_channels_.clear();
  std::int64_t total_c = 0;
  for (auto& b : branches_) {
    Tensor o = (*b)(input);
    PFI_CHECK(o.dim() == 4) << "Concat branches must produce NCHW, got "
                            << o.to_string();
    if (!outs.empty()) {
      PFI_CHECK(o.size(0) == outs[0].size(0) && o.size(2) == outs[0].size(2) &&
                o.size(3) == outs[0].size(3))
          << "Concat branch shape mismatch: " << o.to_string() << " vs "
          << outs[0].to_string();
    }
    total_c += o.size(1);
    branch_channels_.push_back(o.size(1));
    outs.push_back(std::move(o));
  }
  const auto n = outs[0].size(0), h = outs[0].size(2), w = outs[0].size(3);
  const auto hw = h * w;
  Tensor out({n, total_c, h, w});
  auto* op = out.data().data();
  for (std::int64_t ni = 0; ni < n; ++ni) {
    std::int64_t c_off = 0;
    for (const auto& o : outs) {
      const auto bc = o.size(1);
      const auto* src = o.data().data() + ni * bc * hw;
      std::copy(src, src + bc * hw, op + (ni * total_c + c_off) * hw);
      c_off += bc;
    }
  }
  return out;
}

Tensor Concat::backward(const Tensor& grad_output) {
  PFI_CHECK(!branch_channels_.empty()) << "Concat::backward before forward";
  const auto n = grad_output.size(0), total_c = grad_output.size(1),
             h = grad_output.size(2), w = grad_output.size(3);
  const auto hw = h * w;
  const auto* gp = grad_output.data().data();

  Tensor grad_input;
  std::int64_t c_off = 0;
  for (std::size_t bi = 0; bi < branches_.size(); ++bi) {
    const auto bc = branch_channels_[bi];
    Tensor slice({n, bc, h, w});
    auto* sp = slice.data().data();
    for (std::int64_t ni = 0; ni < n; ++ni) {
      const auto* src = gp + (ni * total_c + c_off) * hw;
      std::copy(src, src + bc * hw, sp + ni * bc * hw);
    }
    Tensor gi = branches_[bi]->run_backward(slice);
    if (!grad_input.defined()) {
      grad_input = std::move(gi);
    } else {
      grad_input.add_(gi);
    }
    c_off += bc;
  }
  return grad_input;
}

std::shared_ptr<Module> Concat::clone_structure() const {
  std::vector<ModulePtr> branches;
  branches.reserve(branches_.size());
  for (const auto& b : branches_) branches.push_back(b->clone_structure());
  return std::make_shared<Concat>(std::move(branches));
}

std::vector<Module*> Concat::children() {
  std::vector<Module*> out;
  out.reserve(branches_.size());
  for (auto& b : branches_) out.push_back(b.get());
  return out;
}

// ---------------------------------------------------------- ReLU fusion ------

int for_each_relu_pair(Module& root,
                       const std::function<void(GemmLayer&, ReLU&)>& fn) {
  int pairs = 0;
  for (Module* m : root.modules()) {
    auto* seq = dynamic_cast<Sequential*>(m);
    if (seq == nullptr) continue;
    const std::vector<Module*> children = seq->children();
    for (std::size_t i = 0; i + 1 < children.size(); ++i) {
      auto* producer = dynamic_cast<GemmLayer*>(children[i]);
      auto* relu = dynamic_cast<ReLU*>(children[i + 1]);
      if (producer == nullptr || relu == nullptr) continue;
      fn(*producer, *relu);
      ++pairs;
    }
  }
  return pairs;
}

int fuse_relu(Module& root) {
  return for_each_relu_pair(root, [](GemmLayer& producer, ReLU& relu) {
    producer.set_fuse_relu(true);
    relu.set_producer(&producer);
  });
}

int unfuse_relu(Module& root) {
  return for_each_relu_pair(root, [](GemmLayer& producer, ReLU& relu) {
    producer.set_fuse_relu(false);
    relu.set_producer(nullptr);
  });
}

}  // namespace pfi::nn
