#include "core/prefix_cache.hpp"

#include <sstream>

#include "util/error.hpp"

namespace pfi::core {

void PrefixCacheStats::absorb(const PrefixCacheStats& other) {
  golden_records += other.golden_records;
  reuse_passes += other.reuse_passes;
  fallback_passes += other.fallback_passes;
  layers_reused += other.layers_reused;
  layers_recomputed += other.layers_recomputed;
  budget_truncations += other.budget_truncations;
  input_mismatches += other.input_mismatches;
  injection_site_serves += other.injection_site_serves;
}

PrefixCache::PrefixCache(nn::Module& root, std::size_t budget_bytes)
    : budget_bytes_(budget_bytes) {
  for (nn::Module* m : root.modules()) {
    if (m->children().empty()) {
      leaves_.push_back(m);
    } else if (m != &root) {
      containers_.push_back(m);
    }
  }
  PFI_CHECK(!leaves_.empty()) << "prefix cache: model has no leaf modules";
}

PrefixCache::~PrefixCache() {
  remove_hooks(record_hooks_);
  remove_hooks(bypass_hooks_);
}

void PrefixCache::remove_hooks(
    std::vector<std::pair<nn::Module*, nn::HookHandle>>& v) {
  for (auto& [m, h] : v) m->remove_hook(h);
  v.clear();
}

void PrefixCache::install_record_hooks() {
  for (nn::Module* m : leaves_) {
    const nn::HookHandle h = m->register_forward_hook(
        [this](nn::Module& mod, const Tensor&, Tensor& out) {
          on_record(mod, out);
        });
    record_hooks_.emplace_back(m, h);
  }
  for (nn::Module* m : containers_) {
    const nn::HookHandle h = m->register_forward_hook(
        [this](nn::Module& mod, const Tensor&, Tensor& out) {
          on_record_container(mod, out);
        });
    record_hooks_.emplace_back(m, h);
  }
}

void PrefixCache::install_bypass_hooks() {
  for (nn::Module* m : leaves_) {
    const nn::HookHandle h = m->register_bypass_hook(
        [this](nn::Module& mod, const Tensor&, Tensor& out) {
          return on_bypass(mod, out);
        });
    bypass_hooks_.emplace_back(m, h);
  }
  for (nn::Module* m : containers_) {
    const nn::HookHandle h = m->register_bypass_hook(
        [this](nn::Module& mod, const Tensor&, Tensor& out) {
          return on_bypass_container(mod, out);
        });
    bypass_hooks_.emplace_back(m, h);
  }
}

void PrefixCache::begin_record(const Tensor& input) {
  PFI_CHECK(!recording_) << "prefix cache: begin_record while recording";
  PFI_CHECK(!armed_) << "prefix cache: begin_record while reuse is armed";
  recording_ = true;
  recorded_ = false;
  record_cursor_ = 0;
  recorded_bytes_ = 0;
  first_uncached_ = kNoEvent;
  accounted_.clear();
  input_data_ = input.data().data();
  input_shape_ = input.shape();
  install_record_hooks();
}

void PrefixCache::on_record(nn::Module& m, Tensor& output) {
  // Reuse the event slot from the previous record pass: campaigns record
  // once per attempt, so steady state only swaps tensor handles.
  if (record_cursor_ < events_.size()) {
    LeafEvent& ev = events_[record_cursor_];
    if (&m != ev.module) {
      // Execution order changed (different control flow). Drop the stale
      // tail; the vector regrows below.
      events_.resize(record_cursor_);
    }
  }
  const std::size_t bytes =
      static_cast<std::size_t>(output.numel()) * sizeof(float);
  const bool fits = recorded_bytes_ + bytes <= budget_bytes_;
  // A non-deterministic leaf's recorded output is NOT the value a re-run
  // would produce, so it must never be replayed. It still occupies an
  // execution-order slot so indices line up; the reusable prefix ends at
  // the first uncached event, whichever kind.
  const bool cacheable = fits && m.deterministic_forward();
  if (record_cursor_ == events_.size()) events_.emplace_back();
  LeafEvent& ev = events_[record_cursor_];
  ev.module = &m;
  // Zero-copy record: retain the output tensor handle (shared storage)
  // instead of memcpy'ing the activation. Safe because every leaf forward
  // writes a freshly allocated output — nothing ever mutates a previous
  // forward's storage in place (the same invariant the zero-copy hand-out
  // in on_bypass relies on; pinned by PrefixReplay.ForwardOutputsNeverAlias
  // and the rep-to-rep bit-identity tests). The previous attempt's
  // activation is released as each slot is overwritten.
  ev.snapshot = cacheable ? output : Tensor();
  ev.cached = cacheable;
  if (cacheable) {
    recorded_bytes_ += bytes;
    accounted_.insert(output.data().data());
  } else if (first_uncached_ == kNoEvent) {
    first_uncached_ = record_cursor_;
    if (!fits) ++stats_.budget_truncations;
  }
  ++record_cursor_;
  index_dirty_ = true;
}

void PrefixCache::on_record_container(nn::Module& m, Tensor& output) {
  // Containers are snapshotted too, so a subtree that sits entirely inside
  // the prefix can be bypassed as ONE unit — skipping its join work
  // (Residual adds, Concat copies) and all child dispatch, not just the
  // leaf forwards. Budget: only novel storage is charged — a Sequential
  // returns its last child's tensor (already accounted), while a join
  // allocates a fresh one.
  // A container completing after the first uncached leaf spans it, so it
  // could never be served — release any stale handle instead of retaining
  // storage past the budget.
  if (first_uncached_ != kNoEvent) {
    container_snaps_[&m] = Tensor();
    return;
  }
  const float* data = output.data().data();
  const std::size_t bytes =
      accounted_.count(data) > 0
          ? 0
          : static_cast<std::size_t>(output.numel()) * sizeof(float);
  const bool fits = recorded_bytes_ + bytes <= budget_bytes_;
  // An undefined snapshot (budget miss) must REPLACE any stale handle from
  // an earlier pass, so reuse never serves an outdated activation.
  container_snaps_[&m] = fits ? output : Tensor();
  if (fits) {
    recorded_bytes_ += bytes;
    accounted_.insert(data);
  }
}

void PrefixCache::end_record() {
  PFI_CHECK(recording_) << "prefix cache: end_record without begin_record";
  remove_hooks(record_hooks_);
  recording_ = false;
  if (record_cursor_ < events_.size()) events_.resize(record_cursor_);
  recorded_ = record_cursor_ > 0;
  if (recorded_) ++stats_.golden_records;
}

void PrefixCache::ensure_index() const {
  if (!index_dirty_) return;
  first_index_.clear();
  subtree_.clear();
  for (std::size_t i = 0; i < events_.size(); ++i) {
    first_index_.emplace(events_[i].module, i);  // keeps the FIRST index
  }
  // Container subtree ranges are only meaningful when every leaf executed
  // exactly once (a repeated module would need a per-execution snapshot,
  // which only the leaf cursor path provides); with repeats, container
  // bypass is simply disabled and leaves are still served one by one.
  if (first_index_.size() == events_.size()) {
    for (nn::Module* c : containers_) {
      SubtreeRange range{kNoEvent, 0};
      std::size_t leaf_count = 0;
      for (const nn::Module* d : c->modules()) {
        const auto it = first_index_.find(d);
        if (it == first_index_.end()) continue;
        range.lo = std::min(range.lo, it->second);
        range.hi = std::max(range.hi, it->second);
        ++leaf_count;
      }
      // Contiguity holds for single-execution trees; guard it anyway so a
      // surprising topology degrades to leaf-by-leaf reuse, never to a
      // wrong replay.
      if (leaf_count > 0 && range.hi - range.lo + 1 == leaf_count) {
        subtree_.emplace(c, range);
      }
    }
  }
  index_dirty_ = false;
}

std::size_t PrefixCache::first_execution_index(const nn::Module* m) const {
  ensure_index();
  const auto it = first_index_.find(m);
  return it == first_index_.end() ? kNoEvent : it->second;
}

std::size_t PrefixCache::arm_reuse(std::size_t prefix_len,
                                   const Tensor& input,
                                   std::size_t mutate_index,
                                   SnapshotMutator mutator) {
  PFI_CHECK(!recording_) << "prefix cache: arm_reuse while recording";
  PFI_CHECK(!armed_) << "prefix cache: arm_reuse while already armed";
  std::size_t usable = recorded_ ? prefix_len : 0;
  if (usable > events_.size()) usable = events_.size();
  // The prefix must be contiguous snapshots: a budget- or determinism-
  // truncated event cannot be served, and nothing after it may be served
  // either (its input would be missing).
  if (usable > first_uncached_) usable = first_uncached_;
  if (usable > 0 && (input.data().data() != input_data_ ||
                     input.shape() != input_shape_)) {
    ++stats_.input_mismatches;
    usable = 0;
  }
  if (usable == 0) {
    ++stats_.fallback_passes;
    return 0;
  }
  reuse_len_ = usable;
  reuse_cursor_ = 0;
  // Only arm the injection-site mutation if that event survived truncation;
  // otherwise it recomputes and the caller's real fault hook fires.
  if (mutate_index < usable && mutator != nullptr) {
    mutate_index_ = mutate_index;
    mutator_ = std::move(mutator);
  }
  armed_ = true;
  ++stats_.reuse_passes;
  install_bypass_hooks();
  return usable;
}

bool PrefixCache::on_bypass(nn::Module& m, Tensor& out) {
  if (reuse_cursor_ >= reuse_len_) {
    ++stats_.layers_recomputed;
    return false;
  }
  LeafEvent& ev = events_[reuse_cursor_];
  if (ev.module != &m) {
    // The faulty pass diverged from the recorded execution order before the
    // expected boundary — only possible if the model changed between record
    // and reuse. Serving snapshots past this point would be wrong, so stop
    // reusing and let the rest of the pass recompute.
    reuse_len_ = reuse_cursor_;
    ++stats_.layers_recomputed;
    return false;
  }
  ++reuse_cursor_;
  ++stats_.layers_reused;
  if (reuse_cursor_ - 1 == mutate_index_) {
    // The injection site: hand out a CLONE with the faults applied on top,
    // so the shared golden snapshot itself stays pristine for later reps.
    ++stats_.injection_site_serves;
    out = ev.snapshot.clone();
    mutator_(m, out);
    return true;
  }
  // Zero-copy hand-out: eval-mode forwards never mutate their input in
  // place (verified per layer; pinned by PrefixReplay tests), so the next
  // module can consume the snapshot's storage directly.
  out = ev.snapshot;
  return true;
}

bool PrefixCache::on_bypass_container(nn::Module& m, Tensor& out) {
  // Serve a whole subtree when (a) its contiguous leaf-event range sits
  // inside the armed prefix, (b) the replay cursor stands exactly at its
  // first leaf (pre-order consultation guarantees this for the outermost
  // qualifying container), and (c) its snapshot survived the byte budget.
  ensure_index();
  const auto it = subtree_.find(&m);
  if (it == subtree_.end()) return false;
  const SubtreeRange range = it->second;
  if (range.hi >= reuse_len_ || reuse_cursor_ != range.lo) return false;
  // The injection site must be served leaf-by-leaf (its snapshot needs the
  // mutator applied); a container spanning it cannot substitute.
  if (range.lo <= mutate_index_ && mutate_index_ <= range.hi) return false;
  const auto snap = container_snaps_.find(&m);
  if (snap == container_snaps_.end() || !snap->second.defined()) return false;
  reuse_cursor_ = range.hi + 1;
  stats_.layers_reused += range.hi - range.lo + 1;
  out = snap->second;
  return true;
}

void PrefixCache::disarm() {
  remove_hooks(bypass_hooks_);
  armed_ = false;
  reuse_len_ = 0;
  reuse_cursor_ = 0;
  mutate_index_ = kNoEvent;
  mutator_ = nullptr;
}

std::string prefix_cache_summary(const PrefixCacheStats& stats,
                                 std::size_t budget_bytes) {
  std::ostringstream os;
  os << "prefix cache: " << stats.golden_records << " golden records, "
     << stats.layers_reused << "/"
     << (stats.layers_reused + stats.layers_recomputed)
     << " layer fwds reused (";
  os.setf(std::ios::fixed);
  os.precision(1);
  os << 100.0 * stats.hit_rate() << "% hit rate), " << stats.fallback_passes
     << " full recomputes, ";
  if (stats.injection_site_serves > 0) {
    os << stats.injection_site_serves << " faults applied on cached "
       << "activations, ";
  }
  os << "budget " << (budget_bytes >> 20) << " MB";
  if (stats.budget_truncations > 0) {
    os << " (" << stats.budget_truncations << " truncations)";
  }
  return os.str();
}

}  // namespace pfi::core
