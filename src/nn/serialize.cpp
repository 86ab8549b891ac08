#include "nn/serialize.hpp"

#include <cstdint>
#include <fstream>
#include <map>
#include <set>

#include "nn/batchnorm.hpp"

namespace pfi::nn {

namespace {

constexpr char kMagic[4] = {'P', 'F', 'I', 'W'};
constexpr std::uint32_t kVersion = 1;

/// Every named tensor in the module tree: parameters plus batch-norm
/// running statistics (which are state, not parameters, but must round-trip
/// for eval-mode models to reproduce).
std::map<std::string, Tensor> named_tensors(Module& model) {
  std::map<std::string, Tensor> out;
  for (Parameter* p : model.parameters()) {
    PFI_CHECK(out.emplace(p->name, p->value).second)
        << "duplicate parameter name '" << p->name << "'";
  }
  // Batch-norm statistics: keyed by a stable per-instance counter (module
  // name paths for non-parameter state are not dotted by parameters()).
  std::int64_t bn_index = 0;
  for (Module* m : model.modules()) {
    if (m->kind() == "BatchNorm2d") {
      auto& bn = static_cast<BatchNorm2d&>(*m);
      const std::string base = "bn" + std::to_string(bn_index++);
      out.emplace(base + "#running_mean", bn.running_mean());
      out.emplace(base + "#running_var", bn.running_var());
    }
  }
  return out;
}

template <typename T>
void write_pod(std::ofstream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::ifstream& in) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  return v;
}

}  // namespace

void save_parameters(Module& model, const std::string& path) {
  const auto tensors = named_tensors(model);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  PFI_CHECK(out.good()) << "cannot open '" << path << "' for writing";

  out.write(kMagic, sizeof(kMagic));
  write_pod(out, kVersion);
  write_pod(out, static_cast<std::uint64_t>(tensors.size()));
  for (const auto& [name, tensor] : tensors) {
    write_pod(out, static_cast<std::uint32_t>(name.size()));
    out.write(name.data(), static_cast<std::streamsize>(name.size()));
    write_pod(out, static_cast<std::uint64_t>(tensor.numel()));
    const auto d = tensor.data();
    out.write(reinterpret_cast<const char*>(d.data()),
              static_cast<std::streamsize>(d.size() * sizeof(float)));
  }
  PFI_CHECK(out.good()) << "write to '" << path << "' failed";
}

void load_parameters(Module& model, const std::string& path) {
  auto tensors = named_tensors(model);
  std::ifstream in(path, std::ios::binary);
  PFI_CHECK(in.good()) << "cannot open '" << path << "' for reading";

  char magic[4];
  in.read(magic, sizeof(magic));
  PFI_CHECK(in.good() && std::equal(magic, magic + 4, kMagic))
      << "'" << path << "' is not a pfi weight file";
  const auto version = read_pod<std::uint32_t>(in);
  PFI_CHECK(version == kVersion)
      << "'" << path << "' has version " << version << ", expected "
      << kVersion;
  const auto count = read_pod<std::uint64_t>(in);
  PFI_CHECK(count == tensors.size())
      << "'" << path << "' holds " << count << " tensors but the model has "
      << tensors.size();

  // With `count` equal to the model's tensor count, distinct names that
  // all exist in the model restore every tensor exactly once.
  std::set<std::string> restored;
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto name_len = read_pod<std::uint32_t>(in);
    PFI_CHECK(in.good() && name_len < 4096) << "corrupt entry in '" << path
                                            << "'";
    std::string name(name_len, '\0');
    in.read(name.data(), name_len);
    PFI_CHECK(in.good()) << "truncated tensor name in '" << path << "'";
    const auto numel = read_pod<std::uint64_t>(in);

    const auto it = tensors.find(name);
    PFI_CHECK(it != tensors.end())
        << "'" << path << "' contains tensor '" << name
        << "' which the model does not have";
    PFI_CHECK(restored.insert(name).second)
        << "'" << path << "' holds tensor '" << name << "' twice";
    PFI_CHECK(static_cast<std::uint64_t>(it->second.numel()) == numel)
        << "tensor '" << name << "' has " << numel << " elements in '" << path
        << "' but " << it->second.numel() << " in the model";
    auto d = it->second.data();
    in.read(reinterpret_cast<char*>(d.data()),
            static_cast<std::streamsize>(d.size() * sizeof(float)));
    PFI_CHECK(in.good()) << "truncated tensor '" << name << "' in '" << path
                         << "'";
  }
  PFI_CHECK(in.peek() == std::ifstream::traits_type::eof())
      << "'" << path << "' has bytes after its last tensor";
}

std::shared_ptr<Module> clone_model(Module& src) {
  auto copy = src.clone_structure();
  // Identical structure => identical pre-order traversal; carry over any
  // names assigned by hand (containers already re-derive positional names).
  const auto src_modules = src.modules();
  const auto dst_modules = copy->modules();
  PFI_CHECK(src_modules.size() == dst_modules.size())
      << "clone_model: clone_structure produced " << dst_modules.size()
      << " modules for a source with " << src_modules.size();
  for (std::size_t i = 0; i < src_modules.size(); ++i) {
    dst_modules[i]->set_name(src_modules[i]->name());
  }
  copy->train(src.is_training());
  copy_parameters(src, *copy);
  return copy;
}

void copy_parameters(Module& src, Module& dst) {
  const auto from = named_tensors(src);
  auto to = named_tensors(dst);
  PFI_CHECK(from.size() == to.size())
      << "copy_parameters: structure mismatch (" << from.size() << " vs "
      << to.size() << " tensors)";
  for (const auto& [name, tensor] : from) {
    const auto it = to.find(name);
    PFI_CHECK(it != to.end()) << "copy_parameters: destination lacks '"
                              << name << "'";
    it->second.copy_from(tensor);
  }
}

}  // namespace pfi::nn
