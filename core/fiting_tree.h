// FITing-Tree with per-segment insert buffers (paper Sec 4.2), grown into a
// full key-value store: each linear segment owns its sorted key page with a
// parallel payload array, plus a small sorted delta buffer of
// {key, payload, tombstone} entries for incoming mutations. Inserts of new
// keys land in the buffer; deletes of paged keys leave a tombstone there;
// updates of paged keys rewrite the payload in place (the page's keys are
// what the models predict, payloads are free to change). When a buffer
// exceeds its budget the segment merges buffer and page — dropping
// tombstoned keys — and re-runs the shrinking cone over the surviving keys,
// replacing itself with however many segments the data now needs. This is
// the data-aware split that distinguishes FITing-Tree from fixed paging; a
// merge that deletes every key retires the segment outright.
//
// Each segment is a SegmentPage (core/segment.h, the kernel shared with the
// concurrent engine) plus its buffer. The segment directory is a flat sorted
// array of first keys (core/flat_directory.h: interpolation + SIMD floor),
// spliced in place when a merge replaces a segment. Read operations are
// const and safe for concurrent readers.
//
// Buffer invariants (asserted at merge time, checked by Validate()):
//   - at most one buffer entry per key;
//   - a live entry's key is absent from the page (pure pending insert);
//   - a tombstone's key is present in the page (pending delete).

#ifndef FITREE_CORE_FITING_TREE_H_
#define FITREE_CORE_FITING_TREE_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/options.h"
#include "common/timer.h"
#include "core/flat_directory.h"
#include "core/search_policy.h"
#include "core/segment.h"
#include "core/shrinking_cone.h"
#include "telemetry/phase.h"
#include "telemetry/registry.h"
#include "telemetry/structural.h"

namespace fitree {

struct FitingTreeConfig {
  // Sentinel: size the buffer as max(1, error/2), the paper's default ratio
  // (Sec 7.1.3).
  static constexpr size_t kAutoBufferSize = static_cast<size_t>(-1);

  double error = 64.0;
  // Per-segment delta-buffer capacity (pending inserts + tombstones). 0
  // means merge on every mutation (write-pessimal, read-optimal);
  // kAutoBufferSize means error/2.
  size_t buffer_size = kAutoBufferSize;
  // In-window search strategy; defaults to the FITREE_SEARCH_POLICY knob
  // (simd unless overridden).
  SearchPolicy search_policy = DefaultSearchPolicy();
  Feasibility feasibility = Feasibility::kEndpointLine;
};

struct FitingTreeStats {
  uint64_t inserts = 0;          // Insert calls, including rejected dups
  uint64_t updates = 0;          // successful Update calls
  uint64_t deletes = 0;          // successful Delete calls
  uint64_t segment_merges = 0;   // buffer merge-and-resegment events
  uint64_t segments_created = 0; // segments produced by those merges
  uint64_t segments_retired = 0; // segments whose merge left zero keys
  uint64_t tombstones_cleared = 0;  // deleted keys resolved by merges
};

template <typename K, typename V = uint64_t>
class FitingTree {
 public:
  using Key = K;
  using Payload = V;

  static std::unique_ptr<FitingTree> Create(const std::vector<K>& keys,
                                            const FitingTreeConfig& config) {
    return Create(keys, {}, config);
  }

  // Bulk-loads `keys` with parallel `values` (empty = value-initialized
  // payloads). Keys must be sorted and duplicate-free.
  static std::unique_ptr<FitingTree> Create(const std::vector<K>& keys,
                                            const std::vector<V>& values,
                                            const FitingTreeConfig& config) {
    assert(values.empty() || values.size() == keys.size());
    auto tree = std::make_unique<FitingTree>();
    tree->config_ = config;
    tree->effective_buffer_ =
        config.buffer_size == FitingTreeConfig::kAutoBufferSize
            ? std::max<size_t>(1, static_cast<size_t>(config.error / 2.0))
            : config.buffer_size;
    tree->BulkLoad(std::span<const K>(keys), std::span<const V>(values));
    return tree;
  }

  size_t size() const { return size_; }

  bool Contains(const K& key) const { return Lookup(key).has_value(); }

  // Payload stored for `key`, or nullopt when absent. Buffer entries
  // override the page: a tombstone hides the paged key until the next merge
  // physically drops it.
  std::optional<V> Lookup(const K& key) const {
    telemetry::ScopedOp telem(kEngine, telemetry::Op::kLookup);
    const SegmentData* seg = LocateSegment(key);
    if (seg == nullptr) return std::nullopt;
    // Start the page lines travelling while the buffer probe runs.
    seg->PrefetchPredicted(key);
    if (const BufferEntry* entry = FindBuffer(*seg, key)) {
      if (entry->tombstone) return std::nullopt;
      return entry->value;
    }
    const size_t i = FindInPage(*seg, key);
    if (i == kNotFound) return std::nullopt;
    return seg->values[i];
  }

  // Returns the stored key equal to `key` when present.
  std::optional<K> Find(const K& key) const {
    return Contains(key) ? std::optional<K>(key) : std::nullopt;
  }

  // Contains() that also accrues the time spent descending the directory
  // vs. searching the segment page/buffer (Figure 13's breakdown).
  bool ContainsWithBreakdown(const K& key, int64_t* tree_ns,
                             int64_t* page_ns) const {
    // Count-only: this path already times itself at finer grain, and a
    // sampled ScopedOp timer would perturb the breakdown it measures.
    telemetry::CountOp(kEngine, telemetry::Op::kLookup);
    Timer timer;
    const SegmentData* seg = LocateSegment(key);
    if (seg != nullptr) seg->PrefetchPredicted(key);
    *tree_ns += timer.ElapsedNs();
    timer.Reset();
    bool found = false;
    if (seg != nullptr) {
      if (const BufferEntry* entry = FindBuffer(*seg, key)) {
        found = !entry->tombstone;
      } else {
        found = FindInPage(*seg, key) != kNotFound;
      }
    }
    *page_ns += timer.ElapsedNs();
    return found;
  }

  // Inserts `key` -> `value`. Returns true iff the key was new (set
  // semantics: inserting a present key is a no-op returning false). The key
  // lands in its floor segment's buffer; a full buffer triggers
  // merge-and-resegment.
  bool Insert(const K& key, const V& value = V{}) {
    telemetry::ScopedOp telem(kEngine, telemetry::Op::kInsert);
    ++stats_.inserts;
    SegmentData* seg = LocateSegmentMutable(key);
    if (seg == nullptr) {
      // First key of an empty tree.
      auto data = std::make_unique<SegmentData>();
      data->first_key = key;
      data->keys.push_back(key);
      data->values.push_back(value);
      SegmentData* ptr = data.get();
      dir_.Splice(0, 0, std::span<const K>(&key, 1),
                  std::span<SegmentData* const>(&ptr, 1));
      segments_.push_back(std::move(data));
      ++size_;
      return true;
    }
    auto pos = BufferPos(*seg, key);
    if (pos != seg->buffer.end() && pos->key == key) {
      if (!pos->tombstone) return false;  // live duplicate
      // Delete-then-reinsert: the key still sits in the page; drop the
      // tombstone and refresh the paged payload in place.
      const size_t i = FindInPage(*seg, key);
      assert(i != kNotFound);
      seg->values[i] = value;
      seg->buffer.erase(pos);
      ++size_;
      return true;
    }
    if (FindInPage(*seg, key) != kNotFound) return false;
    seg->buffer.insert(pos, BufferEntry{key, value, false});
    ++size_;
    if (seg->buffer.size() > effective_buffer_) MergeSegment(seg);
    return true;
  }

  // Replaces the payload of a present key. Returns false when absent.
  bool Update(const K& key, const V& value) {
    telemetry::ScopedOp telem(kEngine, telemetry::Op::kUpdate);
    SegmentData* seg = LocateSegmentMutable(key);
    if (seg == nullptr) return false;
    auto pos = BufferPos(*seg, key);
    if (pos != seg->buffer.end() && pos->key == key) {
      if (pos->tombstone) return false;
      pos->value = value;
      ++stats_.updates;
      return true;
    }
    const size_t i = FindInPage(*seg, key);
    if (i == kNotFound) return false;
    seg->values[i] = value;
    ++stats_.updates;
    return true;
  }

  // Removes `key`. Returns false when absent. A paged key gets a tombstone
  // in the buffer (resolved by the next merge); a buffered key is dropped
  // outright. Tombstones count against the buffer budget, so delete-heavy
  // traffic triggers merges just like insert-heavy traffic.
  bool Delete(const K& key) {
    telemetry::ScopedOp telem(kEngine, telemetry::Op::kDelete);
    SegmentData* seg = LocateSegmentMutable(key);
    if (seg == nullptr) return false;
    auto pos = BufferPos(*seg, key);
    if (pos != seg->buffer.end() && pos->key == key) {
      if (pos->tombstone) return false;
      seg->buffer.erase(pos);
      --size_;
      ++stats_.deletes;
      return true;
    }
    if (FindInPage(*seg, key) == kNotFound) return false;
    seg->buffer.insert(pos, BufferEntry{key, V{}, true});
    --size_;
    ++stats_.deletes;
    if (seg->buffer.size() > effective_buffer_) MergeSegment(seg);
    return true;
  }

  // Calls fn(key) or fn(key, value) for every live entry in [lo, hi] in
  // ascending order, merging each segment's page with its buffer on the fly
  // (tombstoned keys are skipped). Returns the number of entries emitted
  // (IndexApi contract, core/index_api.h).
  template <typename Fn>
  size_t ScanRange(const K& lo, const K& hi, Fn fn) const {
    telemetry::ScopedOp telem(kEngine, telemetry::Op::kScan);
    if (dir_.empty() || hi < lo) return 0;
    size_t emitted = 0;
    for (size_t i = FloorSlot(lo); i < dir_.size() && !(hi < dir_.key_at(i));
         ++i) {
      const SegmentData& seg = *dir_.value_at(i);
      emitted += seg.EmitRange(seg.buffer, lo, hi, fn);
    }
    return emitted;
  }

  // Starts the cache lines a Lookup(key) would touch travelling: descend
  // the directory, then prefetch the predicted in-page position. The
  // server's batched dispatch (server/sharded_index.h) calls this across a
  // whole batch before resolving any probe, overlapping the page misses.
  void PrefetchLookup(const K& key) const {
    const SegmentData* seg = LocateSegment(key);
    if (seg != nullptr) seg->PrefetchPredicted(key);
  }

  // Directory arrays plus per-segment model metadata (the key pages and
  // buffers are the data, not the index).
  size_t IndexSizeBytes() const {
    return dir_.MemoryBytes() + dir_.size() * SegmentData::kMetaBytes;
  }

  size_t SegmentCount() const { return dir_.size(); }
  const FitingTreeStats& stats() const { return stats_; }
  const FitingTreeConfig& config() const { return config_; }

  // Checks the structure's invariants: the directory is strictly sorted and
  // each entry's key is its segment's first key; every page keeps the error
  // bound (SegmentPage::CheckErrorBound); every buffer is sorted and unique,
  // its tombstones shadow paged keys and its live entries do not.
  bool Validate() const {
    for (size_t i = 0; i < dir_.size(); ++i) {
      const SegmentData& seg = *dir_.value_at(i);
      if (i > 0 && !(dir_.key_at(i - 1) < dir_.key_at(i))) return false;
      if (dir_.key_at(i) != seg.first_key) return false;
      if (!seg.CheckErrorBound(config_.error)) return false;
      if (!BufferSortedUnique<K, V>(seg.buffer)) return false;
      for (const BufferEntry& e : seg.buffer) {
        const bool paged = std::binary_search(seg.keys.begin(),
                                              seg.keys.end(), e.key);
        if (paged != e.tombstone) return false;
      }
    }
    return dir_.size() == segments_.size();
  }

  // Structural snapshot (telemetry tentpole): segment shape plus pending
  // delta-buffer occupancy against the per-segment budget, and the
  // lifetime merge counters this instance has accrued.
  telemetry::StructuralStats Stats() const {
    telemetry::StructuralStats st;
    st.engine = telemetry::EngineName(kEngine);
    const size_t segments = dir_.size();
    st.Add("keys", static_cast<double>(size_));
    st.Add("segments", static_cast<double>(segments));
    st.Add("error", config_.error);
    st.Add("buffer_capacity", static_cast<double>(effective_buffer_));
    size_t buffered = 0, max_buffer = 0;
    for (const auto& seg : segments_) {
      buffered += seg->buffer.size();
      max_buffer = std::max(max_buffer, seg->buffer.size());
    }
    st.Add("buffered_entries", static_cast<double>(buffered));
    st.Add("buffer_max", static_cast<double>(max_buffer));
    st.Add("buffer_occupancy",
           segments == 0 || effective_buffer_ == 0
               ? 0.0
               : static_cast<double>(buffered) /
                     (static_cast<double>(segments) *
                      static_cast<double>(effective_buffer_)));
    st.Add("merges", static_cast<double>(stats_.segment_merges));
    st.Add("segments_created", static_cast<double>(stats_.segments_created));
    st.Add("segments_retired", static_cast<double>(stats_.segments_retired));
    st.Add("index_bytes", static_cast<double>(IndexSizeBytes()));
    return st;
  }

 private:
  static constexpr telemetry::Engine kEngine = telemetry::Engine::kBuffered;

  using BufferEntry = detail::BufferEntry<K, V>;

  struct SegmentData : SegmentPage<K, V> {
    std::vector<BufferEntry> buffer;  // sorted delta buffer
  };

  static constexpr size_t kNotFound = SegmentData::kNotFound;

  using FlatDir = FlatDirectory<K, SegmentData*>;

  void BulkLoad(std::span<const K> keys, std::span<const V> values) {
    size_ = keys.size();
    if (keys.empty()) return;
    const auto models =
        SegmentShrinkingCone<K>(keys, config_.error, config_.feasibility);
    std::vector<K> first_keys;
    std::vector<SegmentData*> ptrs;
    first_keys.reserve(models.size());
    ptrs.reserve(models.size());
    segments_.reserve(models.size());
    for (const Segment<K>& m : models) {
      segments_.push_back(std::make_unique<SegmentData>());
      segments_.back()->Assign(m, keys, values);
      first_keys.push_back(m.first_key);
      ptrs.push_back(segments_.back().get());
    }
    dir_.BulkLoad(std::move(first_keys), std::move(ptrs));
  }

  // Directory slot of `key`'s floor segment; keys below the leftmost
  // segment fall to slot 0. Precondition: the directory is non-empty.
  size_t FloorSlot(const K& key) const {
    const size_t i = dir_.FloorIndex(key);
    return i == FlatDir::kNone ? 0 : i;
  }

  const SegmentData* LocateSegment(const K& key) const {
    telemetry::ScopedPhase phase(kEngine, telemetry::Phase::kDirectoryDescent);
    return dir_.empty() ? nullptr : dir_.value_at(FloorSlot(key));
  }

  SegmentData* LocateSegmentMutable(const K& key) {
    return const_cast<SegmentData*>(LocateSegment(key));
  }

  // The kernel's error-bounded page search.
  size_t FindInPage(const SegmentData& seg, const K& key) const {
    return seg.Find(key, config_.error, config_.search_policy, kEngine);
  }

  typename std::vector<BufferEntry>::iterator BufferPos(SegmentData& seg,
                                                        const K& key) const {
    return std::lower_bound(seg.buffer.begin(), seg.buffer.end(), key,
                            detail::BufferKeyLess{});
  }

  const BufferEntry* FindBuffer(const SegmentData& seg, const K& key) const {
    telemetry::ScopedPhase phase(kEngine, telemetry::Phase::kBufferProbe);
    auto pos = std::lower_bound(seg.buffer.begin(), seg.buffer.end(), key,
                                detail::BufferKeyLess{});
    if (pos == seg.buffer.end() || pos->key != key) return nullptr;
    return &*pos;
  }

  // Merges `seg`'s buffer into its page — applying pending inserts and
  // dropping tombstoned keys — and re-segments the surviving keys with the
  // shrinking cone, replacing one directory entry with possibly several
  // (paper Sec 4.2.2). A merge that leaves no keys retires the segment.
  void MergeSegment(SegmentData* seg) {
    // Merges are rare and long: always timed (no sampling), so the merge
    // histogram sees every event.
    telemetry::ScopedDuration telem(kEngine, telemetry::Op::kMerge);
    telemetry::ScopedPhase phase(kEngine, telemetry::Phase::kMergeResegment);
    ++stats_.segment_merges;
    std::vector<K> merged;
    std::vector<V> merged_values;
    const size_t dropped =
        seg->MergeBuffer(seg->buffer, &merged, &merged_values);
    // Buffer invariants: every tombstone dropped a paged key and no live
    // entry shadowed one.
    assert(merged.size() + 2 * dropped ==
           seg->keys.size() + seg->buffer.size());
    stats_.tombstones_cleared += dropped;

    // Exact-match floor: the merged segment's directory slot, spliced below
    // once the replacement set is known.
    const size_t slot = dir_.FloorIndex(seg->first_key);
    assert(slot != FlatDir::kNone && dir_.value_at(slot) == seg);
    if (merged.empty()) {
      // Every key of this segment was deleted: retire and free it. Its key
      // range is absorbed by the floor rule (lookups fall to the left
      // neighbor). Swap-and-pop keeps sustained delete/reinsert churn from
      // growing segments_ without bound.
      auto it = std::find_if(
          segments_.begin(), segments_.end(),
          [seg](const std::unique_ptr<SegmentData>& p) {
            return p.get() == seg;
          });
      assert(it != segments_.end());
      std::swap(*it, segments_.back());
      segments_.pop_back();
      dir_.Splice(slot, 1, {}, {});
      ++stats_.segments_retired;
      return;
    }

    const auto models = SegmentShrinkingCone<K>(
        std::span<const K>(merged), config_.error, config_.feasibility);
    stats_.segments_created += models.size();

    // Reuse the merged segment's slot for the first replacement model and
    // append the rest.
    seg->buffer.clear();
    seg->buffer.shrink_to_fit();
    std::vector<K> new_keys;
    std::vector<SegmentData*> new_ptrs;
    new_keys.reserve(models.size());
    new_ptrs.reserve(models.size());
    for (size_t m = 0; m < models.size(); ++m) {
      SegmentData* target = seg;
      if (m > 0) {
        segments_.push_back(std::make_unique<SegmentData>());
        target = segments_.back().get();
      }
      target->Assign(models[m], merged, merged_values);
      new_keys.push_back(models[m].first_key);
      new_ptrs.push_back(target);
    }
    // The replacement models span the same key range in order, so the
    // splice is positional; the common one-for-one case is an in-place
    // overwrite with no tail move.
    dir_.Splice(slot, 1, new_keys, new_ptrs);
  }

  FitingTreeConfig config_;
  size_t effective_buffer_ = 0;
  std::vector<std::unique_ptr<SegmentData>> segments_;  // owns every segment
  FlatDir dir_;
  size_t size_ = 0;
  FitingTreeStats stats_;
};

}  // namespace fitree

#endif  // FITREE_CORE_FITING_TREE_H_
