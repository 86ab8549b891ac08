// Model parameter serialization: save/load all parameters (plus BatchNorm
// running statistics) of a module tree to a simple binary container.
//
// Format (little-endian):
//   magic "PFIW" | u32 version | u64 entry_count
//   per entry: u32 name_len | name bytes | u64 numel | numel * f32
//
// Entries are the dotted parameter paths produced by Module::parameters()
// ("features.0.weight", ...) plus "<module path>#running_mean" /
// "#running_var" pseudo-entries for each BatchNorm2d. Loading matches by
// name and validates shapes, so a checkpoint can only be restored into a
// structurally identical model.
#pragma once

#include <string>

#include "nn/module.hpp"

namespace pfi::nn {

/// Serialize all parameters and batch-norm statistics of `model` to `path`.
/// Throws pfi::Error on I/O failure.
void save_parameters(Module& model, const std::string& path);

/// Restore parameters saved by save_parameters. Every entry in the file
/// must match a parameter (by name and element count) in `model`, every
/// model parameter must be present in the file exactly once, and no byte
/// may follow the last entry; anything else throws pfi::Error.
void load_parameters(Module& model, const std::string& path);

/// Deep-copy all parameters and batch-norm statistics from `src` to `dst`
/// (both must have identical structure). Used to fork identically
/// initialized models (Table I methodology) without touching the RNG.
void copy_parameters(Module& src, Module& dst);

/// Full deep replica of a model: clone_structure() for the architecture,
/// then copy_parameters() for weights and batch-norm statistics, plus
/// module names and train/eval mode. The replica shares no storage with the
/// source, so the two can run forward passes on different threads — the
/// parallel campaign engine builds one replica per worker this way.
std::shared_ptr<Module> clone_model(Module& src);

}  // namespace pfi::nn
