#include "core/persistent.hpp"

#include <cmath>
#include <sstream>

#include "util/error.hpp"

namespace pfi::core {

namespace {

// Seed-derivation streams for the fault process, disjoint from the campaign
// streams (campaign_internal.hpp uses 0..2). Each (event, layer) pair gets
// Rng(derive_seed(derive_seed(seed, event, kPersistStream), layer)); the
// stuck-cell draw at event 0 has its own stream so adding stuck cells never
// shifts the BER/distance sequences.
constexpr std::uint64_t kPersistStream = 11;
constexpr std::uint64_t kStuckStream = 12;

std::string compact_double(double v) {
  std::ostringstream os;
  os << v;  // default precision: compact, stable ("1e-05", "64", "0.5")
  return os.str();
}

}  // namespace

PersistentFaultSet::PersistentFaultSet(FaultInjector& fi,
                                       PersistScenario scenario)
    : fi_(fi), scenario_(scenario) {
  PFI_CHECK(scenario_.ber >= 0.0 && scenario_.ber < 1.0)
      << "PersistScenario.ber=" << scenario_.ber << " must be in [0, 1)";
  PFI_CHECK(scenario_.stuck_bits >= 0)
      << "PersistScenario.stuck_bits=" << scenario_.stuck_bits;
  PFI_CHECK(scenario_.stuck_value >= -1 && scenario_.stuck_value <= 1)
      << "PersistScenario.stuck_value=" << scenario_.stuck_value
      << " must be -1 (random), 0, or 1";
  PFI_CHECK(scenario_.distance_mean >= 0.0)
      << "PersistScenario.distance_mean=" << scenario_.distance_mean;
  PFI_CHECK(scenario_.distance_stddev >= 0.0)
      << "PersistScenario.distance_stddev=" << scenario_.distance_stddev;
  PFI_CHECK(fi_.active_persistent_faults() == 0)
      << "PersistentFaultSet requires a persistently-quiescent injector — "
         "heal_persistent_faults() first";
  if (scenario_.layer >= 0) {
    PFI_CHECK(scenario_.layer < fi_.num_layers())
        << "PersistScenario.layer=" << scenario_.layer
        << " out of range; model has " << fi_.num_layers()
        << " instrumented layers";
    layers_.push_back(scenario_.layer);
  } else {
    for (std::int64_t l = 0; l < fi_.num_layers(); ++l) layers_.push_back(l);
  }
  ber_name_ = "ber[" + compact_double(scenario_.ber) + "]";
  distance_name_ = "distance[" + compact_double(scenario_.distance_mean) +
                   "," + compact_double(scenario_.distance_stddev) + "]";
}

PersistentFaultSet::~PersistentFaultSet() { heal(); }

void PersistentFaultSet::heal() {
  fi_.heal_persistent_faults();
  now_ = 0;
  faults_applied_ = 0;
}

void PersistentFaultSet::advance_to(std::uint64_t t) {
  PFI_CHECK(t >= now_) << "PersistentFaultSet clock runs forward only: "
                       << "advance_to(" << t << ") with now()=" << now_;
  while (now_ < t) {
    apply_event(now_);
    ++now_;
  }
}

void PersistentFaultSet::draw_stuck_cells() {
  // One draw stream for every stuck cell, uniform over the eligible bit
  // space (so dense layers absorb proportionally more stuck cells, like
  // real memory).
  Rng rng(derive_seed(scenario_.seed, 0, kStuckStream));
  std::uint64_t total_bits = 0;
  std::vector<std::uint64_t> layer_bits;
  for (const std::int64_t l : layers_) {
    const Tensor& w = fi_.layer(l).weight().value;
    const auto bits = static_cast<std::uint64_t>(w.numel()) *
                      static_cast<std::uint64_t>(
                          dtype_bit_width(fi_.layer_dtype(l)));
    layer_bits.push_back(bits);
    total_bits += bits;
  }
  PFI_CHECK(total_bits > 0) << "no weight bits to stick";
  for (std::int64_t i = 0; i < scenario_.stuck_bits; ++i) {
    std::uint64_t pick = rng.next_below(total_bits);
    std::size_t li = 0;
    while (pick >= layer_bits[li]) {
      pick -= layer_bits[li];
      ++li;
    }
    const std::int64_t layer = layers_[li];
    const int width = dtype_bit_width(fi_.layer_dtype(layer));
    const auto flat = static_cast<std::int64_t>(
        pick / static_cast<std::uint64_t>(width));
    const int bit = static_cast<int>(pick % static_cast<std::uint64_t>(width));
    const int value = scenario_.stuck_value >= 0
                          ? scenario_.stuck_value
                          : static_cast<int>(rng.next_below(2));
    fi_.register_stuck_bit(layer, flat, bit, value);
    fi_.write_persistent_bit(
        layer, flat, bit, value, 0,
        "stuck_at_bit[" + std::to_string(bit) + "=" + std::to_string(value) +
            "]");
    ++faults_applied_;
  }
}

void PersistentFaultSet::apply_event(std::uint64_t t) {
  if (t == 0 && scenario_.stuck_bits > 0) draw_stuck_cells();
  for (const std::int64_t l : layers_) {
    const Tensor& w = fi_.layer(l).weight().value;
    const int width = dtype_bit_width(fi_.layer_dtype(l));
    // Every fault of event t in layer l derives from this one generator —
    // a pure function of (seed, t, l), independent of threads or resume.
    Rng rng(derive_seed(derive_seed(scenario_.seed, t, kPersistStream),
                        static_cast<std::uint64_t>(l)));
    if (scenario_.ber > 0.0) {
      // Bernoulli(ber) over every bit, sampled by geometric gap skipping:
      // gap ~ Geometric(ber) on {1, 2, ...} via inversion, so work scales
      // with the number of flips, not the number of bits.
      const auto total_bits = static_cast<std::uint64_t>(w.numel()) *
                              static_cast<std::uint64_t>(width);
      const double denom = std::log1p(-scenario_.ber);
      std::uint64_t consumed = 0;
      while (true) {
        const double gap =
            std::floor(std::log1p(-rng.next_double()) / denom) + 1.0;
        if (!(gap <= static_cast<double>(total_bits - consumed))) break;
        consumed += static_cast<std::uint64_t>(gap);
        const std::uint64_t pos = consumed - 1;
        fi_.write_persistent_bit(
            l, static_cast<std::int64_t>(pos / static_cast<std::uint64_t>(width)),
            static_cast<int>(pos % static_cast<std::uint64_t>(width)),
            /*op=*/-1, t, ber_name_);
        ++faults_applied_;
      }
    }
    if (scenario_.distance_mean > 0.0) {
      // Byte-walk: consecutive errors are N(mean, stddev) bytes apart
      // (clamped to >= 1 byte); one random bit of each landed byte flips.
      const int bytes_per_elem = width / 8;
      const auto total_bytes = static_cast<std::uint64_t>(w.numel()) *
                               static_cast<std::uint64_t>(bytes_per_elem);
      std::uint64_t consumed = 0;
      while (true) {
        const double gap = std::max(
            1.0, std::round(static_cast<double>(rng.normal(
                     static_cast<float>(scenario_.distance_mean),
                     static_cast<float>(scenario_.distance_stddev)))));
        if (!(gap <= static_cast<double>(total_bytes - consumed))) break;
        consumed += static_cast<std::uint64_t>(gap);
        const std::uint64_t byte = consumed - 1;
        const auto flat = static_cast<std::int64_t>(
            byte / static_cast<std::uint64_t>(bytes_per_elem));
        const int bit =
            static_cast<int>(byte % static_cast<std::uint64_t>(bytes_per_elem)) *
                8 +
            static_cast<int>(rng.next_below(8));
        fi_.write_persistent_bit(l, flat, bit, /*op=*/-1, t, distance_name_);
        ++faults_applied_;
      }
    }
  }
  // A flip that landed on a stuck cell cannot actually change it: the cell
  // still reads its stuck value. Re-force after every event.
  if (scenario_.stuck_bits > 0) fi_.reassert_stuck_bits();
}

}  // namespace pfi::core
