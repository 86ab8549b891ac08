// Composite modules: Sequential chains, residual (additive skip) blocks, and
// channel-wise concatenation of parallel branches.
//
// Children are invoked through Module::operator() so that forward hooks on
// any descendant fire — this is what lets the fault injector instrument
// convolutions buried arbitrarily deep inside a model.
#pragma once

#include <functional>
#include <memory>
#include <utility>

#include "nn/module.hpp"

namespace pfi::nn {

using ModulePtr = std::shared_ptr<Module>;

/// Run children one after another.
class Sequential final : public Module {
 public:
  Sequential() = default;

  /// Append an already-constructed module; returns it for chaining.
  ModulePtr push(ModulePtr m);

  /// Construct a child in place.
  template <typename T, typename... Args>
  std::shared_ptr<T> emplace(Args&&... args) {
    auto m = std::make_shared<T>(std::forward<Args>(args)...);
    push(m);
    return m;
  }

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

  std::string kind() const override { return "Sequential"; }
  std::shared_ptr<Module> clone_structure() const override;
  std::vector<Module*> children() override;
  std::size_t size() const { return items_.size(); }
  Module& at(std::size_t i);

 private:
  std::vector<ModulePtr> items_;
};

/// y = main(x) + shortcut(x). The ResNet family's additive skip.
class Residual final : public Module {
 public:
  Residual(ModulePtr main, ModulePtr shortcut);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

  std::string kind() const override { return "Residual"; }
  std::shared_ptr<Module> clone_structure() const override;
  std::vector<Module*> children() override;

 private:
  ModulePtr main_;
  ModulePtr shortcut_;
};

/// Run every branch on the same input and concatenate outputs along the
/// channel dimension (DenseNet dense connectivity, GoogLeNet inception).
class Concat final : public Module {
 public:
  explicit Concat(std::vector<ModulePtr> branches);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

  std::string kind() const override { return "Concat"; }
  std::shared_ptr<Module> clone_structure() const override;
  std::vector<Module*> children() override;

 private:
  std::vector<ModulePtr> branches_;
  std::vector<std::int64_t> branch_channels_;  // from the last forward
};

class GemmLayer;
class ReLU;

/// Call `fn` on every adjacent (GemmLayer, ReLU) pair — a Conv2d or Linear
/// immediately followed by a ReLU — inside the tree's Sequential
/// containers. Only Sequential expresses "runs immediately after"
/// structurally, so that is where adjacency is read. Returns the number of
/// pairs visited.
int for_each_relu_pair(Module& root,
                       const std::function<void(GemmLayer&, ReLU&)>& fn);

/// Wire every adjacent (GemmLayer, ReLU) pair for fused rectification: the
/// producer gets set_fuse_relu(true) and the ReLU learns its producer.
/// Wiring is structural and cheap — whether a given forward actually fuses
/// is decided per call by the producer's relu_fused_output() gate (hooks,
/// mode, native path), and the model computes bit-identical outputs either
/// way. Returns the number of pairs wired.
int fuse_relu(Module& root);

/// Undo fuse_relu across the tree (producers unmarked, ReLUs detached).
/// Returns the number of pairs unwired.
int unfuse_relu(Module& root);

}  // namespace pfi::nn
