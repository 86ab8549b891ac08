#include "quant/static_act.hpp"

#include <sstream>

#include "util/error.hpp"
#include "util/fileio.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace pfi::quant {

const LayerActScales* StaticActQuant::find(const std::string& path) const {
  for (const LayerActScales& l : layers) {
    if (l.path == path) return &l;
  }
  return nullptr;
}

std::uint64_t StaticActQuant::fingerprint() const {
  return util::fnv1a(to_json());
}

std::string StaticActQuant::to_json() const {
  std::ostringstream os;
  os << "{\"version\":1,\"weight_fp\":" << weight_fingerprint << ",\"layers\":[";
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const LayerActScales& l = layers[i];
    if (i != 0) os << ',';
    // Scales are serialized as exact IEEE-754 bit patterns, never decimal:
    // a loaded calibration must quantize bit-identically to the session
    // that wrote it.
    os << "{\"path\":\"" << util::json_escape(l.path) << "\",\"in_bits\":\""
       << util::float_bits_hex(l.in_scale) << "\",\"out_bits\":\""
       << util::float_bits_hex(l.out_scale) << "\"}";
  }
  os << "]}\n";
  return os.str();
}

StaticActQuant StaticActQuant::from_json(const std::string& text) {
  util::JsonReader r(text, "static calibration");
  StaticActQuant out;
  const std::uint64_t version = r.key("version").u64();
  if (version != 1) r.fail("is ", version, ", an unsupported version");
  out.weight_fingerprint = r.key("weight_fp").u64();
  r.key("layers");
  while (r.next_item()) {
    LayerActScales l;
    l.path = r.key("path").str();
    l.in_scale = r.key("in_bits").f32_bits();
    l.out_scale = r.key("out_bits").f32_bits();
    r.lit("}");
    out.layers.push_back(std::move(l));
  }
  r.end("}\n");
  return out;
}

void StaticActQuant::save(const std::string& path) const {
  util::atomic_write_file(path, to_json());
}

StaticActQuant StaticActQuant::load(const std::string& path) {
  PFI_CHECK(util::file_exists(path))
      << "static calibration file '" << path << "' does not exist";
  return from_json(util::read_file(path));
}

}  // namespace pfi::quant
