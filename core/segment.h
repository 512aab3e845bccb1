// The segment kernel both in-memory engines (core/fiting_tree.h and
// concurrency/concurrent_fiting_tree.h) are built from — paper Sec 4.2's one
// mechanism, written once: a linear model over a sorted key/payload page,
// the error-bounded window search, the page+buffer merge that
// merge-and-resegment feeds to the shrinking cone, and the page+buffer range
// emitter scans walk. The engines differ only in what they wrap around a
// SegmentPage (a plain buffer vs. a latch, flags and a latch-protected
// buffer) and in which buffer invariants they keep; the kernel applies the
// general rule — a buffer entry shadows its page key — and leaves each
// engine's stricter invariants to asserts at its own call sites.

#ifndef FITREE_CORE_SEGMENT_H_
#define FITREE_CORE_SEGMENT_H_

#include <algorithm>
#include <cstddef>
#include <span>
#include <type_traits>
#include <vector>

#include "common/prefetch.h"
#include "core/search_policy.h"
#include "core/shrinking_cone.h"
#include "telemetry/phase.h"

namespace fitree {

namespace detail {

// Invokes a scan callback that accepts either (key) or (key, value), so
// key-only consumers (the paper benches) and payload-aware consumers (the
// CRUD suites) share one ScanRange.
template <typename Fn, typename K, typename V>
inline void EmitEntry(Fn& fn, const K& key, const V& value) {
  if constexpr (std::is_invocable_v<Fn&, const K&, const V&>) {
    fn(key, value);
  } else {
    fn(key);
  }
}

// One pending mutation in a segment's sorted delta buffer: a live entry
// (pending insert or payload override) or a tombstone (pending delete).
template <typename K, typename V>
struct BufferEntry {
  K key{};
  V value{};
  bool tombstone = false;
};

// Heterogeneous key comparator for lower_bound over a sorted buffer.
struct BufferKeyLess {
  template <typename K, typename V>
  bool operator()(const BufferEntry<K, V>& e, const K& k) const {
    return e.key < k;
  }
};

}  // namespace detail

template <typename K, typename V>
struct SegmentPage {
  using Entry = detail::BufferEntry<K, V>;

  static constexpr size_t kNotFound = static_cast<size_t>(-1);
  // Index bytes charged per segment: the model plus its directory pointer
  // (the page and buffer are data, not index).
  static constexpr size_t kMetaBytes =
      sizeof(K) + 2 * sizeof(double) + sizeof(void*);

  K first_key{};
  double slope = 0.0;
  double intercept = 0.0;  // predicted index into `keys` at first_key
  std::vector<K> keys;     // sorted page
  std::vector<V> values;   // payloads, parallel to `keys`

  double Predict(const K& key) const {
    return intercept + slope * (static_cast<double>(key) -
                                static_cast<double>(first_key));
  }

  // Loads one shrinking-cone model over `all_keys` (and parallel
  // `all_values`; empty = value-initialized payloads): the model's line,
  // rebased to page-local ranks, and a copy of the keys it covers.
  void Assign(const Segment<K>& model, std::span<const K> all_keys,
              std::span<const V> all_values) {
    first_key = model.first_key;
    slope = model.slope;
    intercept = model.intercept - static_cast<double>(model.start);
    const auto first = all_keys.begin() + model.start;
    keys.assign(first, first + model.length);
    if (all_values.empty()) {
      values.assign(model.length, V{});
    } else {
      const auto vfirst = all_values.begin() + model.start;
      values.assign(vfirst, vfirst + model.length);
    }
  }

  // Error-bounded exact-match search of the page: the in-page index of
  // `key`, or kNotFound. Correct whenever CheckErrorBound(error) holds. The
  // window search is attributed to `engine`'s kWindowSearch phase.
  size_t Find(const K& key, double error, SearchPolicy policy,
              telemetry::Engine engine) const {
    telemetry::ScopedPhase phase(engine, telemetry::Phase::kWindowSearch);
    const size_t n = keys.size();
    if (n == 0) return kNotFound;
    const double pred = Predict(key);
    // A key below the leftmost segment (floor fallback) predicts far
    // negative; a present key always predicts a window overlapping [0, n).
    if (pred + error + 2.0 < 0.0) return kNotFound;
    const auto [begin, end] = ErrorWindow(pred, error, 0, n);
    const size_t hint = static_cast<size_t>(std::max(0.0, pred));
    const size_t i = detail::BoundedLowerBound(keys.data(), begin, end, hint,
                                               key, policy);
    return i < n && keys[i] == key ? i : kNotFound;
  }

  // The paper's guarantee, checked: every paged key lies inside the error
  // window its own prediction opens, which is what Find relies on.
  bool CheckErrorBound(double error) const {
    const size_t n = keys.size();
    for (size_t i = 0; i < n; ++i) {
      const auto [begin, end] = ErrorWindow(Predict(keys[i]), error, 0, n);
      if (i < begin || i >= end) return false;
    }
    return true;
  }

  // Starts the predicted in-page lines (keys and payloads) travelling so
  // they arrive while the buffer probe before the page search executes.
  void PrefetchPredicted(const K& key) const {
    const size_t n = keys.size();
    if (n == 0) return;
    const double pred = Predict(key);
    const size_t hint =
        pred <= 0.0 ? 0 : std::min(n - 1, static_cast<size_t>(pred));
    PrefetchRead(keys.data() + hint);
    PrefetchRead(values.data() + hint);
  }

  // Merges the page with the sorted, duplicate-free `buffer` into
  // `out_keys`/`out_values`: a buffer entry shadows the paged key it
  // matches — a tombstone drops it, a live entry overrides its payload —
  // and live entries for unpaged keys are inserted. Returns the number of
  // paged keys tombstones dropped.
  size_t MergeBuffer(std::span<const Entry> buffer, std::vector<K>* out_keys,
                     std::vector<V>* out_values) const {
    out_keys->reserve(keys.size() + buffer.size());
    out_values->reserve(keys.size() + buffer.size());
    size_t dropped = 0;
    size_t k = 0;
    size_t b = 0;
    while (k < keys.size() || b < buffer.size()) {
      if (b == buffer.size() || (k < keys.size() && keys[k] < buffer[b].key)) {
        out_keys->push_back(keys[k]);
        out_values->push_back(values[k]);
        ++k;
        continue;
      }
      const bool shadows = k < keys.size() && keys[k] == buffer[b].key;
      if (!buffer[b].tombstone) {
        out_keys->push_back(buffer[b].key);
        out_values->push_back(buffer[b].value);
      } else if (shadows) {
        ++dropped;
      }
      k += shadows;
      ++b;
    }
    return dropped;
  }

  // Calls fn(key) or fn(key, value) for every live entry of the page
  // merged with `buffer` (same shadowing rule as MergeBuffer) whose key
  // lies in [lo, hi], ascending. Returns the number of entries emitted.
  template <typename Fn>
  size_t EmitRange(std::span<const Entry> buffer, const K& lo, const K& hi,
                   Fn& fn) const {
    size_t emitted = 0;
    size_t k = static_cast<size_t>(
        std::lower_bound(keys.begin(), keys.end(), lo) - keys.begin());
    size_t b = static_cast<size_t>(
        std::lower_bound(buffer.begin(), buffer.end(), lo,
                         detail::BufferKeyLess{}) -
        buffer.begin());
    while (k < keys.size() || b < buffer.size()) {
      if (b == buffer.size() || (k < keys.size() && keys[k] < buffer[b].key)) {
        if (hi < keys[k]) return emitted;
        detail::EmitEntry(fn, keys[k], values[k]);
        ++emitted;
        ++k;
        continue;
      }
      const Entry& e = buffer[b];
      if (hi < e.key) return emitted;
      if (!e.tombstone) {
        detail::EmitEntry(fn, e.key, e.value);
        ++emitted;
      }
      k += k < keys.size() && keys[k] == e.key;
      ++b;
    }
    return emitted;
  }
};

// True when `buffer` is strictly ascending by key (sorted, one entry per
// key) — the delta-buffer shape MergeBuffer and EmitRange require.
template <typename K, typename V>
bool BufferSortedUnique(std::span<const detail::BufferEntry<K, V>> buffer) {
  for (size_t i = 1; i < buffer.size(); ++i) {
    if (!(buffer[i - 1].key < buffer[i].key)) return false;
  }
  return true;
}

}  // namespace fitree

#endif  // FITREE_CORE_SEGMENT_H_
