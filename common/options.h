// Consolidated process-wide configuration. Every FITREE_* environment knob
// that tunes engine or server behavior is resolved HERE, exactly once, into
// one immutable fitree::Options value (GlobalOptions()). Engine and server
// config structs default their fields from it; nothing outside this header
// (and the test-only override hooks in telemetry) reads those variables ad
// hoc anymore, so a knob's default, parse rule, and clamp live in a single
// place.
//
// Knobs resolved here:
//   FITREE_SEARCH_POLICY  binary | linear | exponential | simd  (simd)
//   FITREE_DIRECTORY      btree | flat, StaticFitingTree only   (flat)
//   FITREE_TELEM_SAMPLE   latency sampling period, >= 1         (64)
//   FITREE_TRACE          0 | 1 trace-ring capture              (0)
//   FITREE_TRACE_RING     per-thread trace ring slots, >= 16    (4096)
//   FITREE_PERF           0 disables perf_event PMU capture     (attempt)
//   FITREE_SHARDS         server shard count, >= 1              (4)
//   FITREE_BATCH          server per-shard drain batch, >= 1    (32)
//   FITREE_IO_BACKEND     auto | uring | threads | sync         (auto)
//   FITREE_IO_DEPTH       batched-read queue depth, [1, 1024]   (64)
//   FITREE_IO_DIRECT      0 | 1 attempt O_DIRECT reads          (0)
//   FITREE_FETCH_STRATEGY single | window                       (single)
//   FITREE_COMPACT_THRESHOLD  per-segment delta occupancy (%)
//                         that triggers incremental compaction;
//                         0 disables the automatic trigger      (0)
//
// An enumerated knob (FITREE_SEARCH_POLICY, FITREE_DIRECTORY,
// FITREE_IO_BACKEND, FITREE_FETCH_STRATEGY) set to a value outside its
// list, or a numeric knob set to anything but a whole decimal integer
// ("abc", "12abc", out of range), is a configuration error: the process
// names the variable and the value on stderr and exits with status 2,
// instead of silently running the default. Numeric values that parse are
// then clamped to their ranges above.
//
// Bench-harness knobs (FITREE_BENCH_*) stay in bench/ — they size
// workloads, not the engines.

#ifndef FITREE_COMMON_OPTIONS_H_
#define FITREE_COMMON_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>

#include "common/env.h"
#include "core/flat_directory.h"
#include "core/search_policy.h"

namespace fitree {

// How the storage layer executes a batch of page reads
// (storage/async_io.h): io_uring when the kernel grants it, a pread
// thread pool otherwise, or strictly synchronous preads. kAuto probes
// io_uring once and falls back to the thread pool.
enum class IoBackend : uint8_t { kAuto, kUring, kThreads, kSync };

inline std::optional<IoBackend> ParseIoBackend(std::string_view s) {
  if (s == "auto") return IoBackend::kAuto;
  if (s == "uring") return IoBackend::kUring;
  if (s == "threads") return IoBackend::kThreads;
  if (s == "sync") return IoBackend::kSync;
  return std::nullopt;
}

inline constexpr const char* IoBackendName(IoBackend b) {
  switch (b) {
    case IoBackend::kAuto: return "auto";
    case IoBackend::kUring: return "uring";
    case IoBackend::kThreads: return "threads";
    case IoBackend::kSync: return "sync";
  }
  return "?";
}

// Disk-lookup paging policy: kSingle demand-faults pages one at a time as
// the window search walks them; kWindow speculatively batch-fetches every
// page the error window can touch before searching, so a window that
// straddles page boundaries overlaps its faults.
enum class FetchStrategy : uint8_t { kSingle, kWindow };

inline std::optional<FetchStrategy> ParseFetchStrategy(std::string_view s) {
  if (s == "single") return FetchStrategy::kSingle;
  if (s == "window") return FetchStrategy::kWindow;
  return std::nullopt;
}

inline constexpr const char* FetchStrategyName(FetchStrategy f) {
  switch (f) {
    case FetchStrategy::kSingle: return "single";
    case FetchStrategy::kWindow: return "window";
  }
  return "?";
}

// Resolves enumerated knob `name` (default `def`) through `parse`; an
// unknown value is fatal (exit status 2), see the header comment.
template <typename Parse>
auto ParseEnumKnob(const char* name, const char* def, const char* accepted,
                   Parse parse) {
  const std::string value = GetEnvString(name, def);
  const auto parsed = parse(value);
  if (!parsed.has_value()) {
    std::fprintf(stderr, "fitree: %s=%s is not a valid value; accepted: %s\n",
                 name, value.c_str(), accepted);
    std::exit(2);
  }
  return *parsed;
}

// Resolves numeric knob `name` (default `def` when unset or empty); text
// that is not a whole base-10 int64 is fatal (exit status 2).
inline int64_t ParseIntKnob(const char* name, int64_t def) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return def;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "fitree: %s=%s is not a valid value; expected an "
                 "integer\n", name, value);
    std::exit(2);
  }
  return static_cast<int64_t>(parsed);
}

struct Options {
  SearchPolicy search_policy = SearchPolicy::kSimd;
  DirectoryMode directory = DirectoryMode::kFlat;
  uint64_t telemetry_sample = 64;  // 1-in-N latency sampling
  bool trace = false;              // trace-ring capture on/off
  size_t trace_ring = 4096;        // per-thread ring capacity (slots)
  bool perf = true;                // attempt perf_event PMU capture
  size_t shards = 4;               // server: shard / worker-thread count
  size_t batch = 32;               // server: max ops drained per batch
  IoBackend io_backend = IoBackend::kAuto;  // batched page-read backend
  size_t io_depth = 64;            // batched-read queue depth
  bool io_direct = false;          // attempt O_DIRECT page reads
  FetchStrategy fetch_strategy = FetchStrategy::kSingle;
  size_t compact_threshold_pct = 0;  // 0 = no automatic incremental compact

  // Reads every knob from the environment, applying defaults and clamps.
  // Exits with status 2 on an unknown enumerated value or a non-integer
  // numeric value.
  static Options FromEnvironment() {
    Options o;
    o.search_policy =
        ParseEnumKnob("FITREE_SEARCH_POLICY", "simd",
                      "binary linear exponential simd", ParseSearchPolicy);
    o.directory = ParseEnumKnob("FITREE_DIRECTORY", "flat", "btree flat",
                                ParseDirectoryMode);
    const int64_t sample = ParseIntKnob("FITREE_TELEM_SAMPLE", 64);
    o.telemetry_sample = sample < 1 ? 1u : static_cast<uint64_t>(sample);
    o.trace = ParseIntKnob("FITREE_TRACE", 0) != 0;
    const int64_t ring = ParseIntKnob("FITREE_TRACE_RING", 4096);
    o.trace_ring = ring < 16 ? 16u : static_cast<size_t>(ring);
    o.perf = ParseIntKnob("FITREE_PERF", 1) != 0;
    const int64_t shards = ParseIntKnob("FITREE_SHARDS", 4);
    o.shards = shards < 1 ? 1u : static_cast<size_t>(shards);
    const int64_t batch = ParseIntKnob("FITREE_BATCH", 32);
    o.batch = batch < 1 ? 1u : static_cast<size_t>(batch);
    o.io_backend = ParseEnumKnob("FITREE_IO_BACKEND", "auto",
                                 "auto uring threads sync", ParseIoBackend);
    const int64_t depth = ParseIntKnob("FITREE_IO_DEPTH", 64);
    o.io_depth = depth < 1 ? 1u
                           : depth > 1024 ? 1024u : static_cast<size_t>(depth);
    o.io_direct = ParseIntKnob("FITREE_IO_DIRECT", 0) != 0;
    o.fetch_strategy = ParseEnumKnob(
        "FITREE_FETCH_STRATEGY", "single", "single window", ParseFetchStrategy);
    const int64_t compact = ParseIntKnob("FITREE_COMPACT_THRESHOLD", 0);
    o.compact_threshold_pct =
        compact < 0 ? 0u
                    : compact > 10000 ? 10000u : static_cast<size_t>(compact);
    return o;
  }
};

// The process-wide Options, resolved from the environment on first use and
// immutable afterwards. Config structs capture its fields as defaults at
// construction time, so per-instance overrides still work as before.
inline const Options& GlobalOptions() {
  static const Options options = Options::FromEnvironment();
  return options;
}

// Process-wide defaults for the two hot-path strategy knobs. These used to
// live next to their enums (core/search_policy.h, core/flat_directory.h)
// and read the environment themselves; they are now thin views over
// GlobalOptions() so the resolution story has one home.
inline SearchPolicy DefaultSearchPolicy() {
  return GlobalOptions().search_policy;
}

inline DirectoryMode DefaultDirectoryMode() { return GlobalOptions().directory; }

}  // namespace fitree

#endif  // FITREE_COMMON_OPTIONS_H_
