// The repository benchmark: four named workloads over the FITing-Tree
// engines, each driven from a seed and checked op by op against an exact
// oracle. perfbench/README.md gives the workload table, the metric
// mapping and the command; perfbench/run.py builds this file and runs it.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --out <dir> [--fingerprint <hex>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// workload with per-op spans recorded from this file and isolated replays
// of each layer's public functions, and prints the per-layer metrics.
// Engine code is not instrumented by this benchmark; it reads only public
// counters (stats(), io(), Stats(), registry counters).

#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "concurrency/concurrent_fiting_tree.h"
#include "core/fiting_tree.h"
#include "core/flat_directory.h"
#include "core/search_policy.h"
#include "core/shrinking_cone.h"
#include "datasets/datasets.h"
#include "server/sharded_index.h"
#include "storage/disk_fiting_tree.h"
#include "storage/segment_file.h"
#include "telemetry/registry.h"
#include "workloads/workloads.h"

extern char** environ;

namespace {

using namespace fitree;
using Key = int64_t;
using Payload = uint64_t;

uint64_t Now() { return telemetry::NowNs(); }

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Payload written for `key` at write `version` (0 = the bulk load).
Payload PayloadOf(Key key, uint64_t version) {
  return Mix(static_cast<uint64_t>(key) * 31 + version);
}

std::vector<Payload> LoadPayloads(const std::vector<Key>& keys) {
  std::vector<Payload> values(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) values[i] = PayloadOf(keys[i], 0);
  return values;
}

// ---- measurement helpers -------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v.size() % 2 == 1 ? v[v.size() / 2]
                           : 0.5 * (v[v.size() / 2 - 1] + v[v.size() / 2]);
}

// Latency samples of one op class (ns), in the order they were taken.
//
// P(q) is the pooled nearest-rank percentile over every sample. In a closed
// loop a scheduling stall of the shared virtual machine stretches only the
// op in progress, so with millions of samples it barely moves the p99.
//
// WindowedP(q) is for open loops, where one stall delays every request due
// during it: the samples are cut into consecutive windows of at least
// kWindowSamples, the nearest-rank percentile is taken in each (a window's
// p99 is its second-largest sample), and the median over windows is
// reported, so the figure does not move with how many stalls a run caught.
//
// Bound(cap) keeps the first `cap` samples, in memory touched up front: the
// resident size then does not follow how many ops a run completes.
class Lat {
 public:
  static constexpr size_t kWindowSamples = 100;

  void Reserve(size_t n) { v_.reserve(n); }
  void Bound(size_t cap) {
    cap_ = cap;
    v_.resize(cap);
    v_.clear();
  }
  // Drops the samples and keeps the memory.
  void Clear() {
    v_.clear();
    added_ = 0;
  }
  void Add(uint64_t ns) {
    ++added_;
    if (cap_ == 0 || v_.size() < cap_) v_.push_back(ns);
  }
  void Append(const Lat& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  size_t size() const { return v_.size(); }
  uint64_t added() const { return added_; }
  double P(double q) const {
    std::vector<uint64_t> all = v_;
    return Rank(all, q);
  }
  double WindowedP(double q) const {
    std::vector<double> per;
    Windows(q, kWindowSamples, per);
    return Median(std::move(per));
  }
  // Appends to `per` the nearest-rank percentile of each of the
  // consecutive windows of at least `min_samples` samples.
  void Windows(double q, size_t min_samples, std::vector<double>& per) const {
    const size_t n = v_.size();
    if (n == 0) return;
    const size_t k = std::max<size_t>(n / min_samples, 1);
    std::vector<uint64_t> w;
    for (size_t i = 0; i < k; ++i) {
      w.assign(v_.begin() + n * i / k, v_.begin() + n * (i + 1) / k);
      per.push_back(Rank(w, q));
    }
  }

 private:
  static double Rank(std::vector<uint64_t>& w, double q) {
    if (w.empty()) return 0.0;
    const size_t rank = std::clamp<size_t>(
        static_cast<size_t>(std::ceil(q * static_cast<double>(w.size()))), 1,
        w.size());
    std::nth_element(w.begin(), w.begin() + (rank - 1), w.end());
    return static_cast<double>(w[rank - 1]);
  }

  std::vector<uint64_t> v_;
  size_t cap_ = 0;
  uint64_t added_ = 0;
};

// Ops completed per 100 ms bucket of a timed phase; the reported rate is
// the median over the phase's full buckets, for the reason Lat gives.
class RateMeter {
 public:
  static constexpr uint64_t kBucketNs = 100'000'000;

  RateMeter(uint64_t start, double seconds)
      : start_(start), counts_(static_cast<size_t>(seconds * 10) + 2, 0) {}
  void Add(uint64_t now, uint64_t ops) {
    const size_t b = (now - start_) / kBucketNs;
    if (b < counts_.size()) counts_[b] += ops;
  }
  void Merge(const RateMeter& o) {
    for (size_t i = 0; i < counts_.size() && i < o.counts_.size(); ++i) {
      counts_[i] += o.counts_[i];
    }
  }
  // Median ops/s over the buckets that ended before `end`.
  double OpsPerSec(uint64_t end) const {
    const size_t full = std::min<size_t>((end - start_) / kBucketNs, counts_.size());
    std::vector<double> rates;
    for (size_t i = 0; i < full; ++i) rates.push_back(counts_[i] * 1e9 / kBucketNs);
    return Median(std::move(rates));
  }

 private:
  uint64_t start_;
  std::vector<uint64_t> counts_;
};

// Resident set size now, in bytes (/proc/self/statm).
double RssBytes() {
  std::ifstream statm("/proc/self/statm");
  double pages = 0, resident = 0;
  statm >> pages >> resident;
  return resident * static_cast<double>(::sysconf(_SC_PAGESIZE));
}

double PeakRssMb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// Median cost of one back-to-back pair of clock reads: every per-call
// timing below carries it once, so layer sums subtract it.
double TimerOverheadNs() {
  Lat lat;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t t0 = Now();
    lat.Add(Now() - t0);
  }
  return lat.P(0.5);
}

std::atomic<uint64_t> g_sink{0};

// ---- result record -------------------------------------------------------

struct Result {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, std::string>> config;  // JSON values
  std::vector<std::pair<std::string, uint64_t>> samples;
  std::vector<std::pair<std::string, double>> counters;  // gated exactly
  std::vector<std::pair<std::string, double>> bounded;   // gated by share
  std::vector<std::string> notes;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool gate_ok = true;

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void Config(const std::string& name, const std::string& json_value) {
    config.push_back({name, json_value});
  }
  void Samples(const std::string& name, uint64_t n) {
    samples.push_back({name, n});
  }
  // Counts one op answered against the oracle.
  void Check(bool ok, const char* what, Key key) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (notes.size() < 8) {
      notes.push_back(std::string("oracle mismatch: ") + what + " key " +
                      std::to_string(key));
    }
  }
};

std::string Quote(const std::string& s) { return "\"" + s + "\""; }

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

// ---- arguments -----------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".";
  std::string fingerprint = "unknown";
};

// ---- open-loop rate ladder ----------------------------------------------

// Fixed geometric ladder: rung i offers 1000 * 1.02^i ops/s. A rung passes
// when the p99 of its reads, timed from each request's due time, meets the
// workload's limit and the backlog does not grow: the median lag of all
// the rung's requests stays under the same limit. Above the knee the lag
// grows from the start, so its median is the lag at mid-rung; below it, a
// stall of the shared machine and the drain after it leave the median
// alone unless they fill half the rung.
constexpr double kLadderStep = 1.02;
// Independent searches per run; max_rate_kops is their median, so one
// search misled by a stall near the knee does not set it.
constexpr int kLadderSearches = 3;

double LadderRate(int i) { return 1000.0 * std::pow(kLadderStep, i); }
int LadderIndex(double ops) {
  return std::max(0, static_cast<int>(std::floor(std::log(ops / 1000.0) /
                                                 std::log(kLadderStep))));
}

// `lags`: every request's lag from its due time, in due order.
bool RungPasses(const Lat& reads, std::vector<uint64_t> lags, double limit_ns) {
  const auto mid = lags.begin() + lags.size() / 2;
  std::nth_element(lags.begin(), mid, lags.end());
  return reads.WindowedP(0.99) <= limit_ns && static_cast<double>(*mid) <= limit_ns;
}

// One thread issues and executes requests on schedule. `exec()` runs the
// next op of the workload stream and returns whether it was a read.
template <typename Exec>
bool OpenLoopRung(double rate, double seconds, double limit_ns, Exec& exec,
                  uint64_t* ops) {
  const size_t n = std::max<size_t>(1, static_cast<size_t>(rate * seconds));
  const double gap = 1e9 / rate;
  Lat reads;
  reads.Reserve(n);
  std::vector<uint64_t> lags(n);
  const uint64_t t0 = Now() + 1000;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t due = t0 + static_cast<uint64_t>(gap * static_cast<double>(i));
    while (Now() < due) {
    }
    const bool is_read = exec();
    lags[i] = Now() - due;
    if (is_read) reads.Add(lags[i]);
  }
  *ops += n;
  return RungPasses(reads, std::move(lags), limit_ns);
}

// Highest passing rung, by bisection between 0.4x and 1.1x the measured
// closed-loop capacity; the median of kLadderSearches searches within
// about `budget_s` seconds. The range is first
// widened by 2x steps while its low end fails or its high end passes (an
// open loop can outrun a closed loop that keeps few requests in flight).
// `rung(rate, seconds)` runs one rung and returns whether it passed. A
// rung fails only when three attempts fail: above the knee the backlog
// grows on every attempt, below it a failure is a scheduling stall.
template <typename Rung>
double MaxRateKops(double capacity_ops, double budget_s, double limit_ns,
                   Rung rung, Result& r) {
  const int lo0 = LadderIndex(0.4 * capacity_ops);
  const int hi0 = LadderIndex(1.1 * capacity_ops) + 1;
  const int probes = 1 + static_cast<int>(std::ceil(std::log2(hi0 - lo0)));
  const double d = budget_s / (kLadderSearches * probes * 2);
  auto passes = [&](int i) {
    return rung(LadderRate(i), d) || rung(LadderRate(i), d) ||
           rung(LadderRate(i), d);
  };
  std::vector<double> found;
  std::string each;
  for (int search = 0; search < kLadderSearches; ++search) {
    int lo = lo0, hi = hi0;
    while (lo > 0 && !passes(lo)) lo = std::max(0, lo - 35);
    for (int i = 0; i < 3 && passes(hi); ++i) {
      lo = hi;
      hi += 35;
    }
    while (hi - lo > 1) {
      const int mid = (lo + hi) / 2;
      (passes(mid) ? lo : hi) = mid;
    }
    found.push_back(LadderRate(lo));
    each += (search == 0 ? "" : ",") + Num(LadderRate(lo));
  }
  r.Config("ladder", "{\"base_ops\":1000,\"step\":" + Num(kLadderStep) +
                         ",\"p99_limit_ns\":" + Num(limit_ns) +
                         ",\"rung_seconds\":" + Num(d) +
                         ",\"searches_ops\":[" + each + "]}");
  return Median(std::move(found)) / 1000.0;
}

// MaxRateKops over a single-threaded open loop of `exec`.
template <typename Exec>
double MaxRateKopsInline(double capacity_ops, double budget_s, double limit_ns,
                         Exec exec, Result& r) {
  uint64_t ops = 0;
  const double kops = MaxRateKops(capacity_ops, budget_s, limit_ns,
                                  [&](double rate, double d) {
    return OpenLoopRung(rate, d, limit_ns, exec, &ops);
  }, r);
  r.Samples("ladder_ops", ops);
  return kops;
}

// ---- core-layer replays --------------------------------------------------

// Replays a lookup stream's core steps over a replica of the in-memory
// engine's layout, built from the same keys: the SegmentShrinkingCone
// table, a FlatKeyIndex over its first keys, and one heap object per
// segment holding the model, a copy of the segment's keys and payloads and
// an empty delta buffer, allocated in the order FitingTree's bulk load
// allocates them. Each probe is timed step by step, four clock reads per
// probe:
//   descent — the flat-directory descent (FlatKeyIndex::FloorIndex);
//   access  — the pointer chase to the segment object, its model
//             prediction and the buffer probe (lower bound over its
//             buffer, as FitingTree's FindBuffer);
//   search  — the bounded window search (detail::BoundedLowerBound) over
//             the segment's keys and the read of the found payload.
struct CoreReplay {
  size_t segments = 0;
  double segment_ns_per_key = 0;
  double descent_ns_p50 = 0;
  double access_ns_p50 = 0;
  double search_ns_p50 = 0;
  double error_used_ratio = 0;
};

struct ReplicaSegment {
  Key first_key = 0;
  double slope = 0;
  double intercept = 0;  // predicted index into `keys` at first_key
  std::vector<Key> keys;
  std::vector<Payload> values;
  std::vector<std::pair<Key, Payload>> buffer;
};

CoreReplay ReplayCore(const std::vector<Key>& keys,
                      const std::vector<Payload>& values, double error,
                      const std::vector<uint32_t>& probe_ranks,
                      SearchPolicy policy, Result& r) {
  CoreReplay out;
  const uint64_t t0 = Now();
  const auto models = SegmentShrinkingCone<Key>(std::span<const Key>(keys),
                                                error,
                                                Feasibility::kEndpointLine);
  out.segment_ns_per_key =
      static_cast<double>(Now() - t0) / static_cast<double>(keys.size());
  out.segments = models.size();
  std::vector<std::unique_ptr<ReplicaSegment>> segs;
  std::vector<Key> first_keys;
  segs.reserve(models.size());
  first_keys.reserve(models.size());
  for (const auto& m : models) {
    auto seg = std::make_unique<ReplicaSegment>();
    seg->first_key = m.first_key;
    seg->slope = m.slope;
    seg->intercept = m.intercept - static_cast<double>(m.start);
    seg->keys.assign(keys.begin() + m.start, keys.begin() + m.start + m.length);
    seg->values.assign(values.begin() + m.start,
                       values.begin() + m.start + m.length);
    segs.push_back(std::move(seg));
    first_keys.push_back(m.first_key);
  }
  const FlatKeyIndex<Key> dir(std::move(first_keys));

  Lat descent, access, search;
  descent.Reserve(probe_ranks.size());
  access.Reserve(probe_ranks.size());
  search.Reserve(probe_ranks.size());
  uint64_t sink = 0;
  double used = 0;
  for (const uint32_t rank : probe_ranks) {
    const Key key = keys[rank];
    const uint64_t a = Now();
    const size_t s = dir.FloorIndex(key);
    const uint64_t b = Now();
    const ReplicaSegment& seg = *segs[s];
    const double pred =
        seg.intercept + seg.slope * (static_cast<double>(key) -
                                     static_cast<double>(seg.first_key));
    const auto in_buffer = std::lower_bound(
        seg.buffer.begin(), seg.buffer.end(), key,
        [](const std::pair<Key, Payload>& e, Key k) { return e.first < k; });
    const uint64_t c = Now();
    const auto [begin, end] = ErrorWindow(pred, error, 0, seg.keys.size());
    const size_t hint = static_cast<size_t>(std::max(0.0, pred));
    const size_t pos = detail::BoundedLowerBound(seg.keys.data(), begin, end,
                                                 hint, key, policy);
    const Payload v = pos < seg.values.size() ? seg.values[pos] : 0;
    const uint64_t d = Now();
    descent.Add(b - a);
    access.Add(c - b);
    search.Add(d - c);
    sink += v + (in_buffer != seg.buffer.end());
    used += std::abs(pred - static_cast<double>(pos)) / error;
    r.Check(pos < seg.keys.size() && seg.keys[pos] == key && v == values[rank],
            "replay search", key);
  }
  g_sink += sink;
  out.descent_ns_p50 = descent.P(0.5);
  out.access_ns_p50 = access.P(0.5);
  out.search_ns_p50 = search.P(0.5);
  out.error_used_ratio = used / static_cast<double>(probe_ranks.size());
  r.Samples("replay_probes", probe_ranks.size());
  return out;
}

void EmitCore(const CoreReplay& c, size_t engine_segments, Result& r) {
  r.Metric("core.segments", static_cast<double>(engine_segments), "count");
  r.Metric("core.error_used_ratio", c.error_used_ratio, "ratio");
  r.Metric("core.segment_ns_per_key", c.segment_ns_per_key, "ns");
  r.Metric("core.descent_ns_p50", c.descent_ns_p50, "ns");
  r.Metric("core.search_ns_p50", c.search_ns_p50, "ns");
}

// The replayed steps of a closure sum, as JSON members for the record.
std::string CoreTerms(const CoreReplay& c, double timer_ns) {
  return "\"descent_ns_p50\":" + Num(c.descent_ns_p50) +
         ",\"access_ns_p50\":" + Num(c.access_ns_p50) +
         ",\"search_ns_p50\":" + Num(c.search_ns_p50) +
         ",\"timer_ns\":" + Num(timer_ns);
}

// Layer closure: the isolated replays' sum `sum` against the end-to-end
// read median `e2e` of the same run. The gap, the terms and the tolerance
// go into the record; a gap outside the tolerance is flagged there and in
// a note of the report.
void Closure(double e2e, double sum, double tolerance_pct,
             const std::string& terms, Result& r) {
  const double gap = e2e <= 0 ? 0.0 : 100.0 * (e2e - sum) / e2e;
  const bool within = std::abs(gap) <= tolerance_pct;
  r.Metric("closure_gap_pct", gap, "%");
  r.Config("closure", "{" + terms + ",\"e2e_read_ns_p50\":" + Num(e2e) +
                          ",\"layer_sum_ns\":" + Num(sum) +
                          ",\"tolerance_pct\":" + Num(tolerance_pct) +
                          ",\"within_tolerance\":" +
                          (within ? "true" : "false") + "}");
  if (!within) {
    r.notes.push_back("closure gap " + Num(gap) + "% is outside the +-" +
                      Num(tolerance_pct) + "% tolerance");
  }
}

// Per-layer metrics a workload's path does not reach read 0 (the layer
// does no work there); every traced run reports the full set.
const char* const kLayerMetrics[][2] = {
    {"core.segments", "count"},
    {"core.error_used_ratio", "ratio"},
    {"core.segment_ns_per_key", "ns"},
    {"core.descent_ns_p50", "ns"},
    {"core.search_ns_p50", "ns"},
    {"core.merges_per_kop", "count"},
    {"core.segments_created_per_merge", "count"},
    {"concurrency.insert_retries_per_kop", "count"},
    {"concurrency.epoch_freed_ratio", "ratio"},
    {"storage.pages_read_per_op", "count"},
    {"storage.hit_rate", "ratio"},
    {"storage.page_read_ns_p50", "ns"},
    {"storage.pages_per_io_batch", "count"},
    {"storage.compactions", "count"},
    {"storage.compact_stall_ns_p50", "ns"},
    {"storage.bytes_written_per_user_byte", "ratio"},
    {"server.avg_batch", "count"},
    {"server.enqueue_stalls", "count"},
    {"server.exec_ns_p50", "ns"},
    {"server.hop_ns_p50", "ns"},
    {"server.gen_lag_ns_p99", "ns"},
    {"trace.overhead_pct", "%"},
    {"closure_gap_pct", "%"},
    {"failed_ratio", "ratio"},
};

const char* const kEndToEndMetrics[][2] = {
    {"setup_s", "s"},
    {"read_ns_p50", "ns"},
    {"read_ns_p99", "ns"},
    {"write_ns_p50", "ns"},
    {"write_ns_p99", "ns"},
    {"scan_ns_p50", "ns"},
    {"multiget_ns_p50", "ns"},
    {"throughput_mops", "Mops"},
    {"max_rate_kops", "kops"},
    {"index_bytes_per_key", "B"},
    {"space_amp", "ratio"},
    {"peak_rss_mb", "MB"},
};

// Chunked alternation for the traced run: the main phase switches between
// untraced and traced chunks every kTraceChunkNs, so drift spreads over
// both and trace.overhead_pct compares like with like.
constexpr uint64_t kTraceChunkNs = 50'000'000;
bool TracedChunk(uint64_t start, uint64_t now) {
  return ((now - start) / kTraceChunkNs) % 2 == 1;
}

// One recorded span: the op type, its start and end, and the layer counter
// delta the benchmark attributed to it (pages read, compactions).
struct Span {
  uint8_t op = 0;
  uint64_t start = 0;
  uint64_t end = 0;
  uint64_t delta = 0;
};

class SpanLog {
 public:
  explicit SpanLog(size_t reserve) { spans_.reserve(reserve); }
  void Add(uint8_t op, uint64_t start, uint64_t end, uint64_t delta = 0) {
    if (spans_.size() < spans_.capacity()) spans_.push_back({op, start, end, delta});
  }
  void Append(const SpanLog& o) {
    spans_.insert(spans_.end(), o.spans_.begin(), o.spans_.end());
  }
  // Written when the run ends: one "op,start_ns,end_ns,delta" line each.
  void Write(const std::string& path) const {
    std::ofstream f(path);
    f << "op,start_ns,end_ns,delta\n";
    for (const Span& s : spans_) {
      f << int(s.op) << ',' << s.start << ',' << s.end << ',' << s.delta << '\n';
    }
  }

 private:
  std::vector<Span> spans_;
};

double OverheadPct(const Lat& untraced, const Lat& traced) {
  const double u = untraced.P(0.5);
  return u <= 0 ? 0 : 100.0 * (traced.P(0.5) - u) / u;
}

std::string SpanPath(const Args& a) {
  return a.out + "/spans-" + a.workload + "-" + std::to_string(a.seed) + ".csv";
}

// Times `build()` `reps` times and returns the median seconds; the first
// build's resident-memory growth is returned in *rss_growth.
template <typename Build>
double TimeSetup(int reps, Build build, double* rss_growth, Result& r) {
  std::vector<double> secs;
  for (int i = 0; i < reps; ++i) {
    const double rss0 = RssBytes();
    const uint64_t t0 = Now();
    build(i == reps - 1);
    secs.push_back(static_cast<double>(Now() - t0) / 1e9);
    if (i == 0) *rss_growth = RssBytes() - rss0;
  }
  r.Samples("setup_builds", static_cast<uint64_t>(reps));
  return Median(secs);
}

void Common(const Args& a, Result& r) {
  r.Config("workload", Quote(a.workload));
  r.Config("seed", std::to_string(a.seed));
  r.Config("seconds", Num(a.seconds));
  r.Config("nproc", std::to_string(std::thread::hardware_concurrency()));
  r.Config("search_policy", Quote(SearchPolicyName(DefaultSearchPolicy())));
  r.Config("directory", Quote(DirectoryModeName(DefaultDirectoryMode())));
  r.Config("isa", Quote(simd::IsaName()));
}

// ==== mem_read ============================================================
// FitingTree over 16M Weblogs keys at error 64, one client: 95% Lookup + 5%
// ScanRange of 100 keys, uniform over the keys, with a multiget riding
// along every kMultigetEvery ops and kMemReadInserts inserts, for write
// latency, spread evenly over the timed mix. After it: the open-loop rate
// ladder on the same mix.

constexpr size_t kMemReadKeys = 16'000'000;
constexpr size_t kMemReadInserts = 100'000;
constexpr double kMemReadError = 64.0;
constexpr size_t kScanKeys = 100;
constexpr size_t kMultiget = 32;
// The in-memory workloads interleave one multiget per this many ops, so it
// sees the same machine and cache state as the mix around it.
constexpr uint64_t kMultigetEvery = 1024;
// Rate-ladder p99 limit of the in-memory workloads (reads, from due time).
constexpr double kMemP99LimitNs = 200'000;
constexpr double kMemReadClosureTolerancePct = 20;

using MemTree = FitingTree<Key>;

struct ReadOp {
  uint32_t rank = 0;
  bool scan = false;
};

std::vector<ReadOp> ReadOps(size_t n_keys, size_t count, double scan_share,
                            uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unif(0.0, 1.0);
  std::vector<ReadOp> ops(count);
  for (auto& op : ops) {
    op.scan = unif(rng) < scan_share;
    op.rank = static_cast<uint32_t>(rng() % (n_keys - kScanKeys));
  }
  return ops;
}

void RunMemRead(const Args& a, Result& r) {
  const auto keys = datasets::Weblogs(kMemReadKeys, a.seed);
  const auto values = LoadPayloads(keys);
  // Prefix sums of payloads for O(1) scan expectations.
  std::vector<uint64_t> prefix(keys.size() + 1, 0);
  for (size_t i = 0; i < keys.size(); ++i) prefix[i + 1] = prefix[i] + values[i];
  FitingTreeConfig cfg;
  cfg.error = kMemReadError;

  std::unique_ptr<MemTree> tree;
  double rss_growth = 0;
  const double setup_s = TimeSetup(3, [&](bool keep) {
    auto t = MemTree::Create(keys, values, cfg);
    if (keep) tree = std::move(t);
  }, &rss_growth, r);
  r.Config("keys", std::to_string(keys.size()));
  r.Config("error", Num(kMemReadError));
  r.Config("engine", Quote("FitingTree"));
  r.Config("clients", "1");
  r.Config("buffer_capacity", Num(tree->Stats().Get("buffer_capacity")));
  // The bulk-loaded layout, which the core replays rebuild; inserts merge
  // some segments later.
  const size_t segments = tree->SegmentCount();
  r.counters.push_back({"core.segments", double(segments)});
  r.counters.push_back({"index_bytes", double(tree->IndexSizeBytes())});
  const double index_bpk =
      static_cast<double>(tree->IndexSizeBytes()) / keys.size();

  const auto ops = ReadOps(keys.size(), 1 << 21, 0.05, a.seed * 7 + 1);
  size_t next = 0;
  // Inserts: each key is one past a stored key with a gap above it; a
  // stride coprime to the key count never repeats a gap. filled[i] marks
  // the gap above keys[i], so scans expect the keys inserted so far.
  std::vector<bool> filled(keys.size(), false);
  std::vector<Key> inserted;
  inserted.reserve(kMemReadInserts);
  Lat writes;
  size_t gap = Mix(a.seed) % (keys.size() - 1);
  auto insert_next = [&] {
    Key k;
    do {
      gap = (gap + 1'000'003) % (keys.size() - 1);
      k = keys[gap] + 1;
    } while (k >= keys[gap + 1]);
    const uint64_t t0 = Now();
    const bool fresh = tree->Insert(k, PayloadOf(k, 1));
    writes.Add(Now() - t0);
    r.Check(fresh, "insert", k);
    filled[gap] = true;
    inserted.push_back(k);
  };
  Lat reads, scans, reads_traced;
  reads.Reserve(8 << 20);
  scans.Reserve(1 << 20);
  SpanLog spans(a.trace ? (1 << 20) : 0);
  // Runs op `i` of the stream; returns whether it was a read.
  auto exec = [&](bool traced, Lat* read_lat) {
    const ReadOp& op = ops[next++ & (ops.size() - 1)];
    const Key lo = keys[op.rank];
    if (!op.scan) {
      const uint64_t t0 = Now();
      const auto got = tree->Lookup(lo);
      const uint64_t t1 = Now();
      if (read_lat) read_lat->Add(t1 - t0);
      if (traced) spans.Add(0, t0, t1);
      r.Check(got.has_value() && *got == values[op.rank], "lookup", lo);
      return true;
    }
    const Key hi = keys[op.rank + kScanKeys - 1];
    uint64_t sum = 0;
    const uint64_t t0 = Now();
    const size_t n = tree->ScanRange(lo, hi, [&](const Key&, const Payload& v) {
      sum += v;
    });
    const uint64_t t1 = Now();
    scans.Add(t1 - t0);
    if (traced) spans.Add(1, t0, t1);
    size_t want_n = kScanKeys;
    uint64_t want = prefix[op.rank + kScanKeys] - prefix[op.rank];
    for (size_t j = op.rank; j + 1 < op.rank + kScanKeys; ++j) {
      if (!filled[j]) continue;
      ++want_n;
      want += PayloadOf(keys[j] + 1, 1);
    }
    r.Check(n == want_n && sum == want, "scan", lo);
    return false;
  };

  // Multiget of 32 keys: group prefetch, then resolve.
  Lat multigets;
  std::mt19937_64 mg_rng(a.seed * 13 + 5);
  auto multiget = [&] {
    uint32_t ranks[kMultiget];
    for (auto& rank : ranks) rank = static_cast<uint32_t>(mg_rng() % keys.size());
    std::optional<Payload> got[kMultiget];
    const uint64_t t0 = Now();
    for (size_t i = 0; i < kMultiget; ++i) tree->PrefetchLookup(keys[ranks[i]]);
    for (size_t i = 0; i < kMultiget; ++i) got[i] = tree->Lookup(keys[ranks[i]]);
    multigets.Add(Now() - t0);
    for (size_t i = 0; i < kMultiget; ++i) {
      r.Check(got[i].has_value() && *got[i] == values[ranks[i]], "multiget",
              keys[ranks[i]]);
    }
  };

  // Warm-up prefix, then the timed closed loop; one multiget rides along
  // every kMultigetEvery ops of the untraced chunks, and the inserts come
  // due evenly over the loop's time, so write latency is sampled over the
  // whole phase like read latency, and every run inserts the same count.
  for (int i = 0; i < 200'000; ++i) exec(false, nullptr);
  const double main_s = a.seconds * 0.55;
  const uint64_t start = Now();
  const uint64_t stop = start + static_cast<uint64_t>(main_s * 1e9);
  const uint64_t insert_every = (stop - start) / kMemReadInserts;
  uint64_t insert_due = start + insert_every / 2;
  RateMeter meter(start, main_s);
  uint64_t done = 0;
  uint64_t now = start;
  while (now < stop) {
    const bool traced = a.trace && TracedChunk(start, now);
    exec(traced, traced ? &reads_traced : &reads);
    if ((++done & 63) == 0) {
      now = Now();
      meter.Add(now, 64);
      for (; now >= insert_due && inserted.size() < kMemReadInserts;
           insert_due += insert_every) {
        insert_next();
      }
    }
    if (done % kMultigetEvery == 0 && !traced) multiget();
  }
  const double capacity = meter.OpsPerSec(Now());
  while (inserted.size() < kMemReadInserts) insert_next();
  const double timer_ns = TimerOverheadNs();
  r.Samples("reads", reads.size());
  r.Samples("scans", scans.size());

  if (a.trace) {
    std::vector<uint32_t> probes;
    for (size_t i = 0; i < 200'000; ++i) probes.push_back(ops[i].rank);
    const CoreReplay core =
        ReplayCore(keys, values, kMemReadError, probes, cfg.search_policy, r);
    r.Check(core.segments == segments, "segment count",
            static_cast<Key>(core.segments));
    EmitCore(core, segments, r);
    // Closure: descent + segment access + search against the untraced
    // end-to-end read median. Each replayed step carries one clock read
    // and the e2e timing one, so the sum drops two.
    Closure(reads.P(0.5),
            core.descent_ns_p50 + core.access_ns_p50 + core.search_ns_p50 -
                2 * timer_ns,
            kMemReadClosureTolerancePct, CoreTerms(core, timer_ns), r);
    r.Metric("trace.overhead_pct", OverheadPct(reads, reads_traced), "%");
    spans.Write(SpanPath(a));
    return;
  }

  // Side phase: open-loop ladder over the same 95/5 mix.
  const double max_rate = MaxRateKopsInline(capacity, a.seconds * 0.25,
                                            kMemP99LimitNs, [&] {
    return exec(false, nullptr);
  }, r);

  for (const Key k : inserted) {
    const auto got = tree->Lookup(k);
    r.Check(got.has_value() && *got == PayloadOf(k, 1), "read-back", k);
  }

  r.Samples("multigets", multigets.size());
  r.Samples("writes", writes.size());
  r.Metric("setup_s", setup_s, "s");
  r.Metric("read_ns_p50", reads.P(0.5), "ns");
  r.Metric("read_ns_p99", reads.P(0.99), "ns");
  r.Metric("write_ns_p50", writes.P(0.5), "ns");
  r.Metric("write_ns_p99", writes.P(0.99), "ns");
  r.Metric("scan_ns_p50", scans.P(0.5), "ns");
  r.Metric("multiget_ns_p50", multigets.P(0.5), "ns");
  r.Metric("throughput_mops", capacity / 1e6, "Mops");
  r.Metric("max_rate_kops", max_rate, "kops");
  r.Metric("index_bytes_per_key", index_bpk, "B");
  r.Metric("space_amp", rss_growth / (16.0 * keys.size()), "ratio");
}

// ==== mem_write ===========================================================
// ConcurrentFitingTree over ~4M IoT keys at error 64, default buffer, two
// clients on disjoint interleaved partitions of a 5M-key universe (80%
// loaded): Zipfian keys, 50% read / 30% insert / 10% update / 10% delete.
// Each client keeps an exact oracle of its own partition.

constexpr size_t kWriteUniverse = 5'000'000;
constexpr double kWriteError = 64.0;
constexpr int kWriteClients = 2;

using ConcTree = ConcurrentFitingTree<Key>;

enum class WOp : uint8_t { kRead, kInsert, kUpdate, kDelete };

struct Client {
  std::vector<std::pair<WOp, uint32_t>> ops;  // (type, partition slot)
  std::vector<uint8_t> present;               // oracle, by partition slot
  std::vector<Payload> payload;
  uint64_t version = 1;
  size_t next = 0;
  Lat reads, writes, reads_traced, multigets;
  uint64_t attempted = 0, failed = 0, done = 0;
  std::unique_ptr<RateMeter> meter;
  SpanLog spans{0};
  std::string first_failure;
};

// Partition slot s of client c is universe index s * kWriteClients + c.
size_t Universe(size_t slot, int c) { return slot * kWriteClients + c; }

// Runs the client's next op; returns whether it was a read. Latency goes
// to `read_lat` / `write_lat` when given, and a span to `spans`.
bool StepClient(ConcTree& tree, const std::vector<Key>& universe, Client& cl,
                int c, Lat* read_lat, Lat* write_lat,
                SpanLog* spans = nullptr) {
  const auto [type, slot] = cl.ops[cl.next++ % cl.ops.size()];
  const Key key = universe[Universe(slot, c)];
  bool ok = true;
  const uint64_t t0 = Now();
  if (type == WOp::kRead) {
    const auto got = tree.Lookup(key);
    const uint64_t t1 = Now();
    if (read_lat) read_lat->Add(t1 - t0);
    if (spans) spans->Add(0, t0, t1);
    ok = cl.present[slot] ? got.has_value() && *got == cl.payload[slot]
                          : !got.has_value();
  } else {
    const Payload v = PayloadOf(key, cl.version++);
    bool ret = false;
    if (type == WOp::kInsert) ret = tree.Insert(key, v);
    if (type == WOp::kUpdate) ret = tree.Update(key, v);
    if (type == WOp::kDelete) ret = tree.Delete(key);
    const uint64_t t1 = Now();
    if (write_lat) write_lat->Add(t1 - t0);
    if (spans) spans->Add(static_cast<uint8_t>(type), t0, t1);
    const bool was = cl.present[slot] != 0;
    ok = ret == (type == WOp::kInsert ? !was : was);
    if (type == WOp::kInsert && !was) cl.payload[slot] = v;
    if (type == WOp::kUpdate && was) cl.payload[slot] = v;
    cl.present[slot] = type == WOp::kDelete ? 0 : (was || type == WOp::kInsert);
  }
  ++cl.attempted;
  if (!ok) {
    ++cl.failed;
    if (cl.first_failure.empty()) cl.first_failure = std::to_string(key);
  }
  return type == WOp::kRead;
}

// Multiget of 32 keys of the client's own partition: group prefetch, then
// resolve, each checked against the client's oracle.
void ClientMultiget(ConcTree& tree, const std::vector<Key>& universe,
                    Client& cl, int c) {
  size_t slots[kMultiget];
  for (size_t i = 0; i < kMultiget; ++i) {
    slots[i] = cl.ops[(cl.next + i * 7919) % cl.ops.size()].second;
  }
  std::optional<Payload> got[kMultiget];
  const uint64_t t0 = Now();
  for (size_t i = 0; i < kMultiget; ++i) {
    tree.PrefetchLookup(universe[Universe(slots[i], c)]);
  }
  for (size_t i = 0; i < kMultiget; ++i) {
    got[i] = tree.Lookup(universe[Universe(slots[i], c)]);
  }
  cl.multigets.Add(Now() - t0);
  for (size_t i = 0; i < kMultiget; ++i) {
    const std::optional<Payload> want =
        cl.present[slots[i]] ? std::optional<Payload>(cl.payload[slots[i]])
                             : std::nullopt;
    ++cl.attempted;
    if (got[i] != want) {
      ++cl.failed;
      if (cl.first_failure.empty()) {
        cl.first_failure = std::to_string(universe[Universe(slots[i], c)]);
      }
    }
  }
}

void RunMemWrite(const Args& a, Result& r) {
  const auto universe = datasets::Iot(kWriteUniverse, a.seed);
  const size_t slots = universe.size() / kWriteClients;
  std::vector<Client> clients(kWriteClients);
  std::vector<Key> load;
  std::vector<Payload> load_values;
  for (int c = 0; c < kWriteClients; ++c) {
    clients[c].present.assign(slots, 0);
    clients[c].payload.assign(slots, 0);
  }
  for (size_t u = 0; u < slots * kWriteClients; ++u) {
    if (Mix(a.seed * 1000003 + u) % 5 == 0) continue;
    Client& cl = clients[u % kWriteClients];
    cl.present[u / kWriteClients] = 1;
    cl.payload[u / kWriteClients] = PayloadOf(universe[u], 0);
    load.push_back(universe[u]);
    load_values.push_back(PayloadOf(universe[u], 0));
  }
  for (int c = 0; c < kWriteClients; ++c) {
    std::mt19937_64 rng(workloads::ThreadSeed(a.seed, c));
    std::uniform_real_distribution<double> unif(0.0, 1.0);
    workloads::detail::ZipfianRanks zipf(slots);
    auto& ops = clients[c].ops;
    ops.resize(4 << 20);
    for (auto& op : ops) {
      const double u = unif(rng);
      op.first = u < 0.5   ? WOp::kRead
                 : u < 0.8 ? WOp::kInsert
                 : u < 0.9 ? WOp::kUpdate
                           : WOp::kDelete;
      op.second = static_cast<uint32_t>(zipf.Next(rng));
    }
  }

  ConcurrentFitingTreeConfig cfg;
  cfg.error = kWriteError;
  std::unique_ptr<ConcTree> tree;
  double rss_growth = 0;
  const double setup_s = TimeSetup(7, [&](bool keep) {
    auto t = ConcTree::Create(load, load_values, cfg);
    if (keep) tree = std::move(t);
  }, &rss_growth, r);
  r.Config("keys", std::to_string(load.size()));
  r.Config("universe", std::to_string(universe.size()));
  r.Config("error", Num(kWriteError));
  r.Config("engine", Quote("ConcurrentFitingTree"));
  r.Config("clients", std::to_string(kWriteClients));
  r.Config("background_merge", cfg.background_merge ? "true" : "false");
  const size_t loaded_segments = tree->SegmentCount();

  // Runs every client for `seconds` (or `count` ops each when nonzero).
  auto run_clients = [&](double seconds, size_t count, bool timed) {
    std::atomic<uint64_t> go_at{0};
    std::vector<std::thread> threads;
    for (int c = 0; c < kWriteClients; ++c) {
      threads.emplace_back([&, c] {
        Client& cl = clients[c];
        uint64_t start = 0;
        while ((start = go_at.load(std::memory_order_acquire)) == 0) {
        }
        if (!timed) {
          for (size_t i = 0; i < count; ++i) {
            StepClient(*tree, universe, cl, c, nullptr, nullptr);
          }
          return;
        }
        cl.meter = std::make_unique<RateMeter>(start, seconds);
        const uint64_t stop = start + static_cast<uint64_t>(seconds * 1e9);
        bool traced = false;
        for (uint64_t now = start; now < stop;) {
          StepClient(*tree, universe, cl, c,
                     traced ? &cl.reads_traced : &cl.reads,
                     traced ? nullptr : &cl.writes,
                     traced ? &cl.spans : nullptr);
          if ((++cl.done & 15) == 0) {
            now = Now();
            cl.meter->Add(now, 16);
            traced = a.trace && TracedChunk(start, now);
          }
          if (cl.done % kMultigetEvery == 0 && !traced) {
            ClientMultiget(*tree, universe, cl, c);
          }
        }
      });
    }
    go_at.store(Now(), std::memory_order_release);
    for (auto& t : threads) t.join();
  };

  // Warm-up prefix of 100k ops per client; the counters after it are the
  // bounded gate (two clients interleave, so merges move by a few).
  run_clients(0, 100'000, false);
  r.bounded.push_back({"core.merges", double(tree->stats().segment_merges)});
  r.bounded.push_back({"core.segments", double(tree->SegmentCount())});
  const double index_bpk =
      static_cast<double>(tree->IndexSizeBytes()) / tree->size();

  const auto st0 = tree->stats();
  const uint64_t retired0 =
      telemetry::Registry::Get().counter(telemetry::CounterId::kEpochRetired).Load();
  const uint64_t freed0 =
      telemetry::Registry::Get().counter(telemetry::CounterId::kEpochFreed).Load();
  for (auto& cl : clients) {
    cl.reads.Reserve(4 << 20);
    cl.writes.Reserve(4 << 20);
    if (a.trace) cl.spans = SpanLog(1 << 20);
  }
  run_clients(a.seconds * 0.6, 0, true);
  const uint64_t end = Now();
  const auto st1 = tree->stats();
  Lat reads, writes, reads_traced, multigets;
  uint64_t done = 0;
  for (auto& cl : clients) {
    reads.Append(cl.reads);
    writes.Append(cl.writes);
    multigets.Append(cl.multigets);
    reads_traced.Append(cl.reads_traced);
    done += cl.done;
    if (&cl != &clients[0]) clients[0].meter->Merge(*cl.meter);
  }
  const double throughput = clients[0].meter->OpsPerSec(end);
  r.Samples("reads", reads.size());
  r.Samples("writes", writes.size());

  if (a.trace) {
    const double kops = static_cast<double>(done) / 1000.0;
    const uint64_t merges = st1.segment_merges - st0.segment_merges;
    const uint64_t retired =
        telemetry::Registry::Get().counter(telemetry::CounterId::kEpochRetired).Load() -
        retired0;
    const uint64_t freed =
        telemetry::Registry::Get().counter(telemetry::CounterId::kEpochFreed).Load() -
        freed0;
    std::vector<uint32_t> probes;
    for (size_t i = 0; i < 200'000; ++i) {
      probes.push_back(static_cast<uint32_t>(Mix(a.seed + i) % load.size()));
    }
    const CoreReplay core = ReplayCore(load, load_values, kWriteError, probes,
                                       cfg.search_policy, r);
    r.Check(core.segments == loaded_segments, "segment count",
            static_cast<Key>(core.segments));
    EmitCore(core, tree->SegmentCount(), r);
    r.Metric("core.merges_per_kop", merges / kops, "count");
    r.Metric("core.segments_created_per_merge",
             merges == 0 ? 0.0
                         : double(st1.segments_created - st0.segments_created) /
                               merges,
             "count");
    r.Metric("concurrency.insert_retries_per_kop",
             (st1.insert_retries - st0.insert_retries) / kops, "count");
    r.Metric("concurrency.epoch_freed_ratio",
             retired == 0 ? 0.0 : double(freed) / double(retired), "ratio");
    r.Metric("trace.overhead_pct", OverheadPct(reads, reads_traced), "%");
    for (size_t c = 1; c < clients.size(); ++c) clients[0].spans.Append(clients[c].spans);
    clients[0].spans.Write(SpanPath(a));
  } else {
    // Side phases run single-threaded: scans against the union of both
    // oracles, then client 0's stream on the rate ladder.
    auto expect = [&](size_t u) -> std::optional<Payload> {
      const Client& cl = clients[u % kWriteClients];
      const size_t s = u / kWriteClients;
      return cl.present[s] ? std::optional<Payload>(cl.payload[s]) : std::nullopt;
    };
    Lat scans;
    std::mt19937_64 rng(a.seed * 19 + 7);
    const uint64_t end = Now() + static_cast<uint64_t>(a.seconds * 0.1e9);
    while (Now() < end) {
      const size_t u = rng() % (slots * kWriteClients - 200);
      size_t want_n = 0;
      uint64_t want_sum = 0;
      for (size_t j = u; j < u + 150; ++j) {
        if (const auto p = expect(j)) {
          ++want_n;
          want_sum += *p;
        }
      }
      uint64_t sum = 0;
      const uint64_t t0 = Now();
      const size_t n = tree->ScanRange(universe[u], universe[u + 149],
                                       [&](const Key&, const Payload& v) {
                                         sum += v;
                                       });
      scans.Add(Now() - t0);
      r.Check(n == want_n && sum == want_sum, "scan", universe[u]);
    }
    // The ladder runs client 0 alone, on an index no other client
    // contends for: faster than its share of the two-client throughput,
    // and bounded by the whole of it.
    const double max_rate = MaxRateKopsInline(throughput, a.seconds * 0.3,
                                              kMemP99LimitNs, [&] {
      return StepClient(*tree, universe, clients[0], 0, nullptr, nullptr);
    }, r);
    // Final state: one full scan must equal the union of the oracles.
    size_t u = 0;
    bool same = true;
    auto advance = [&] {
      while (u < slots * kWriteClients && !expect(u)) ++u;
    };
    advance();
    tree->ScanRange(universe.front(), universe.back(),
                    [&](const Key& k, const Payload& v) {
                      if (u >= slots * kWriteClients || universe[u] != k ||
                          *expect(u) != v) {
                        same = false;
                      }
                      ++u;
                      advance();
                    });
    r.Check(same && u == slots * kWriteClients, "final scan", 0);
    r.Samples("scans", scans.size());
    r.Samples("multigets", multigets.size());
    r.Metric("setup_s", setup_s, "s");
    r.Metric("read_ns_p50", reads.P(0.5), "ns");
    r.Metric("read_ns_p99", reads.P(0.99), "ns");
    r.Metric("write_ns_p50", writes.P(0.5), "ns");
    r.Metric("write_ns_p99", writes.P(0.99), "ns");
    r.Metric("scan_ns_p50", scans.P(0.5), "ns");
    r.Metric("multiget_ns_p50", multigets.P(0.5), "ns");
    r.Metric("throughput_mops", throughput / 1e6, "Mops");
    r.Metric("max_rate_kops", max_rate, "kops");
    r.Metric("index_bytes_per_key", index_bpk, "B");
    r.Metric("space_amp", rss_growth / (16.0 * load.size()), "ratio");
  }
  for (const auto& cl : clients) {
    r.attempted += cl.attempted;
    r.failed += cl.failed;
    if (!cl.first_failure.empty()) {
      r.notes.push_back("oracle mismatch: mem_write key " + cl.first_failure);
    }
  }
}

// ==== disk_mixed ==========================================================
// DiskFitingTree on an 8M-key Weblogs file at error 256, buffer pool = 5%
// of leaf pages, one client: uniform keys, 90% Lookup + 5% LookupBatch of
// 32 + 5% Insert. Inserts fill gaps among the newest 1% of the keys (late
// log entries for recent time), so about 20 segments take every write and
// incremental compaction cycles hundreds of times per run, and within the
// gated prefix too. A segment compacts once its overlay holds 2% of its
// length, so a few percent of inserts pay for one and write_ns_p99 carries
// the compaction. Every CompactSegment fsyncs its appended pages and its
// meta page.

constexpr size_t kDiskKeys = 8'000'000;
constexpr double kDiskError = 256.0;
constexpr double kDiskCacheShare = 0.05;
constexpr size_t kDiskCompactPct = 2;
constexpr double kDiskHotShare = 0.01;
constexpr size_t kDiskHotStride = 7919;  // prime, coprime to the hot range
constexpr double kDiskP99LimitNs = 20'000'000;
constexpr double kDiskClosureTolerancePct = 30;

using DiskTree = storage::DiskFitingTree<Key>;

void RunDiskMixed(const Args& a, Result& r) {
  const auto keys = datasets::Weblogs(kDiskKeys, a.seed);
  const auto values = LoadPayloads(keys);
  const std::string path =
      a.out + "/disk_mixed-" + std::to_string(::getpid()) + ".fit";
  const size_t leaf_cap = storage::LeafCapacity<Key>(storage::kDefaultPageBytes);

  DiskTree::Options opt;
  opt.compact_threshold_pct = kDiskCompactPct;
  std::unique_ptr<DiskTree> tree;
  double rss_growth = 0;
  const double setup_s = TimeSetup(3, [&](bool keep) {
    tree.reset();
    const auto models = SegmentShrinkingCone<Key>(std::span<const Key>(keys),
                                                  kDiskError,
                                                  Feasibility::kEndpointLine);
    std::vector<PackedSegment<Key>> packed;
    packed.reserve(models.size());
    for (const auto& m : models) packed.push_back(m.Pack());
    if (!storage::WriteSegmentFile<Key>(
            path, std::span<const Key>(keys), std::span<const uint64_t>(values),
            std::span<const PackedSegment<Key>>(packed), kDiskError)) {
      std::fprintf(stderr, "disk_mixed: cannot write %s\n", path.c_str());
      std::exit(1);
    }
    // Size the pool from the file's own leaf count, then reopen with it.
    auto probe = DiskTree::Open(path, opt);
    if (probe == nullptr) {
      std::fprintf(stderr, "disk_mixed: cannot open %s\n", path.c_str());
      std::exit(1);
    }
    opt.cache_pages = std::max<size_t>(
        4, static_cast<size_t>(kDiskCacheShare * probe->LeafPageCount()));
    probe.reset();
    auto t = DiskTree::Open(path, opt);
    if (keep) tree = std::move(t);
  }, &rss_growth, r);
  if (tree == nullptr) {
    std::fprintf(stderr, "disk_mixed: open failed\n");
    std::exit(1);
  }
  r.Config("keys", std::to_string(keys.size()));
  r.Config("error", Num(kDiskError));
  r.Config("engine", Quote("DiskFitingTree"));
  r.Config("clients", "1");
  r.Config("leaf_pages", std::to_string(tree->LeafPageCount()));
  r.Config("cache_pages", std::to_string(opt.cache_pages));
  r.Config("page_bytes", std::to_string(storage::kDefaultPageBytes));
  r.Config("fetch_strategy", Quote(FetchStrategyName(opt.fetch_strategy)));
  r.Config("compact_threshold_pct", std::to_string(kDiskCompactPct));
  r.Config("flush_policy",
           Quote("fsync appended pages and meta on every CompactSegment"));
  r.Config("insert_range", Quote("gaps among the newest 1% of keys"));

  // Op stream (and span op codes): 0 = lookup, 1 = multiget, 2 = insert.
  std::mt19937_64 rng(a.seed * 23 + 11);
  std::uniform_real_distribution<double> unif(0.0, 1.0);
  // Insert j lands one past the key at hot rank (j * stride) mod the hot
  // range; the stride is coprime to the range, so no key repeats.
  const size_t hot_len = static_cast<size_t>(keys.size() * kDiskHotShare);
  const size_t hot_lo = keys.size() - 1 - hot_len;
  size_t hot_next = Mix(a.seed) % hot_len;
  std::vector<Key> inserted;
  Lat reads, reads_traced, writes, multigets, stalls;
  reads.Reserve(1 << 20);
  SpanLog spans(a.trace ? (1 << 20) : 0);
  uint64_t lookup_pages = 0, lookups_traced = 0, batch_pages = 0,
           batch_ios = 0;
  std::vector<Key> batch(kMultiget);
  std::vector<size_t> batch_ranks(kMultiget);
  std::vector<std::optional<Payload>> got(kMultiget);
  // Inserts the next key of the hot range; returns false (not a read).
  auto insert = [&](bool traced, Lat* write_lat) {
    Key k = 0;
    do {
      hot_next = (hot_next + kDiskHotStride) % hot_len;
      k = keys[hot_lo + hot_next] + 1;
    } while (k >= keys[hot_lo + hot_next + 1]);
    const uint64_t c0 = tree->IncrementalCompactions();
    const uint64_t t0 = Now();
    const bool fresh = tree->Insert(k, PayloadOf(k, 1));
    const uint64_t t1 = Now();
    if (write_lat) write_lat->Add(t1 - t0);
    if (traced) {
      const uint64_t compacted = tree->IncrementalCompactions() - c0;
      spans.Add(2, t0, t1, compacted);
      if (compacted != 0) stalls.Add(t1 - t0);
    }
    r.Check(fresh && !tree->io_error(), "insert", k);
    inserted.push_back(k);
    return false;
  };
  auto exec = [&](bool traced, Lat* read_lat, Lat* write_lat) {
    const double u = unif(rng);
    if (u < 0.90) {
      const size_t rank = rng() % keys.size();
      const uint64_t p0 = tree->io().pages_read;
      const uint64_t t0 = Now();
      const auto v = tree->Lookup(keys[rank]);
      const uint64_t t1 = Now();
      if (read_lat) read_lat->Add(t1 - t0);
      if (traced) {
        const uint64_t pages = tree->io().pages_read - p0;
        spans.Add(0, t0, t1, pages);
        lookup_pages += pages;
        ++lookups_traced;
      }
      r.Check(v.has_value() && *v == values[rank] && !tree->io_error(),
              "lookup", keys[rank]);
      return true;
    }
    if (u < 0.95) {
      for (size_t i = 0; i < kMultiget; ++i) {
        batch_ranks[i] = rng() % keys.size();
        batch[i] = keys[batch_ranks[i]];
      }
      const uint64_t p0 = tree->io().pages_read;
      const uint64_t b0 = telemetry::Registry::Get()
                              .counter(telemetry::CounterId::kIoBatches)
                              .Load();
      const uint64_t t0 = Now();
      tree->LookupBatch(batch.data(), kMultiget, got.data());
      const uint64_t t1 = Now();
      if (read_lat) multigets.Add(t1 - t0);
      if (traced) {
        const uint64_t pages = tree->io().pages_read - p0;
        spans.Add(1, t0, t1, pages);
        batch_pages += pages;
        batch_ios += telemetry::Registry::Get()
                         .counter(telemetry::CounterId::kIoBatches)
                         .Load() -
                     b0;
      }
      for (size_t i = 0; i < kMultiget; ++i) {
        r.Check(got[i].has_value() && *got[i] == values[batch_ranks[i]] &&
                    !tree->io_error(),
                "multiget", batch[i]);
      }
      return false;
    }
    return insert(traced, write_lat);
  };

  // Deterministic warm-up prefix: its counters are the exact gate.
  const IoStats io_start = tree->io();
  constexpr int kPrefix = 60'000;
  for (int i = 0; i < kPrefix; ++i) exec(false, nullptr, nullptr);
  const IoStats io_prefix = tree->io() - io_start;
  r.counters.push_back({"storage.pages_read", double(io_prefix.pages_read)});
  r.counters.push_back({"storage.compactions",
                        double(tree->IncrementalCompactions())});
  r.counters.push_back({"core.segments", double(tree->SegmentCount())});
  r.counters.push_back({"index_bytes", double(tree->IndexSizeBytes())});
  r.counters.push_back({"file_bytes", double(tree->FileBytes())});
  const double index_bpk =
      static_cast<double>(tree->IndexSizeBytes()) / tree->size();
  const double space_amp =
      static_cast<double>(tree->FileBytes()) / (16.0 * tree->size());

  const double timer_ns = TimerOverheadNs();
  CoreReplay core;
  double page_read_p50 = 0;
  if (a.trace) {
    // Replays before the timed phase. Pages: the leaf page holding each
    // probe's key, read through a separate synchronous reader of the file.
    std::vector<uint32_t> probes;
    for (size_t i = 0; i < 100'000; ++i) {
      probes.push_back(static_cast<uint32_t>(Mix(a.seed * 3 + i) % keys.size()));
    }
    core = ReplayCore(keys, values, kDiskError, probes, opt.search_policy, r);
    storage::SegmentFileReader<Key> reader;
    typename storage::SegmentFileReader<Key>::IoOptions io;
    io.backend = IoBackend::kSync;
    io.direct = false;
    std::vector<storage::SegmentRecord<Key>> table;
    if (!reader.Open(path, io) || !reader.ReadSegmentTable(&table)) {
      std::fprintf(stderr, "disk_mixed: replay reader failed\n");
      std::exit(1);
    }
    std::vector<Key> firsts;
    for (const auto& rec : table) firsts.push_back(rec.seg.first_key);
    storage::AlignedBytes page(reader.meta().page_bytes);
    Lat page_reads;
    for (size_t i = 0; i < 20'000; ++i) {
      const Key key = keys[probes[i]];
      const size_t s = static_cast<size_t>(
          std::upper_bound(firsts.begin(), firsts.end(), key) - firsts.begin() - 1);
      const auto& rec = table[s];
      const uint64_t in_seg = probes[i] - rec.seg.start;
      if (in_seg >= rec.seg.length) continue;  // key moved by a compaction
      const uint32_t id =
          static_cast<uint32_t>(rec.first_leaf_page + in_seg / leaf_cap);
      const uint64_t t0 = Now();
      const bool ok = reader.ReadPageInto(id, page.data());
      page_reads.Add(Now() - t0);
      r.Check(ok, "page read", key);
    }
    page_read_p50 = page_reads.P(0.5);
  }

  const IoStats io0 = tree->io();
  const uint64_t file0 = tree->FileBytes();
  const size_t inserted0 = inserted.size();
  const double main_s = a.seconds * 0.6;
  const uint64_t start = Now();
  const uint64_t stop = start + static_cast<uint64_t>(main_s * 1e9);
  RateMeter meter(start, main_s);
  for (uint64_t now = start; now < stop; now = Now()) {
    const bool traced = a.trace && TracedChunk(start, now);
    exec(traced, traced ? &reads_traced : &reads, traced ? nullptr : &writes);
    meter.Add(now, 1);
  }
  const double throughput = meter.OpsPerSec(Now());
  const IoStats io_main = tree->io() - io0;
  r.Samples("reads", reads.size());
  r.Samples("multigets", multigets.size());

  if (a.trace) {
    EmitCore(core, tree->SegmentCount(), r);
    const double pages_per_lookup =
        lookups_traced == 0 ? 0 : double(lookup_pages) / lookups_traced;
    r.Metric("storage.pages_read_per_op", io_prefix.pages_read / double(kPrefix),
             "count");
    r.Metric("storage.hit_rate", io_main.HitRate(), "ratio");
    r.Metric("storage.page_read_ns_p50", page_read_p50, "ns");
    r.Metric("storage.pages_per_io_batch",
             batch_ios == 0 ? 0.0 : double(batch_pages) / batch_ios, "count");
    r.Metric("storage.compactions", double(tree->IncrementalCompactions()),
             "count");
    r.Metric("storage.compact_stall_ns_p50", stalls.P(0.5), "ns");
    const double inserted_bytes = 16.0 * (inserted.size() - inserted0);
    r.Metric("storage.bytes_written_per_user_byte",
             inserted_bytes == 0 ? 0.0
                                 : double(tree->FileBytes() - file0) /
                                       inserted_bytes,
             "ratio");
    // Closure: descent + segment access + pages/lookup x page read +
    // search against the untraced end-to-end read median; every timed
    // step but one carries an extra clock read.
    Closure(reads.P(0.5),
            core.descent_ns_p50 + core.access_ns_p50 + core.search_ns_p50 -
                2 * timer_ns + pages_per_lookup * (page_read_p50 - timer_ns),
            kDiskClosureTolerancePct,
            CoreTerms(core, timer_ns) +
                ",\"pages_per_lookup\":" + Num(pages_per_lookup) +
                ",\"page_read_ns_p50\":" + Num(page_read_p50),
            r);
    r.Metric("trace.overhead_pct", OverheadPct(reads, reads_traced), "%");
    r.Samples("compact_stalls", stalls.size());
    spans.Write(SpanPath(a));
  } else {
    Lat scans;
    const uint64_t end = Now() + static_cast<uint64_t>(a.seconds * 0.1e9);
    while (Now() < end) {
      // Below the insert range, so the base keys are the whole answer.
      const size_t rank = rng() % (hot_lo - kScanKeys);
      uint64_t sum = 0, want = 0;
      for (size_t j = rank; j < rank + kScanKeys; ++j) want += values[j];
      const uint64_t t0 = Now();
      const size_t n = tree->ScanRange(keys[rank], keys[rank + kScanKeys - 1],
                                       [&](const Key&, const Payload& v) {
                                         sum += v;
                                       });
      scans.Add(Now() - t0);
      r.Check(n == kScanKeys && sum == want, "scan", keys[rank]);
    }
    r.Samples("writes", writes.size());
    const double max_rate = MaxRateKopsInline(
        throughput, a.seconds * 0.25, kDiskP99LimitNs,
        [&] { return exec(false, nullptr, nullptr); }, r);
    r.Samples("scans", scans.size());
    r.Metric("setup_s", setup_s, "s");
    r.Metric("read_ns_p50", reads.P(0.5), "ns");
    r.Metric("read_ns_p99", reads.P(0.99), "ns");
    r.Metric("write_ns_p50", writes.P(0.5), "ns");
    r.Metric("write_ns_p99", writes.P(0.99), "ns");
    r.Metric("scan_ns_p50", scans.P(0.5), "ns");
    r.Metric("multiget_ns_p50", multigets.P(0.5), "ns");
    r.Metric("throughput_mops", throughput / 1e6, "Mops");
    r.Metric("max_rate_kops", max_rate, "kops");
    r.Metric("index_bytes_per_key", index_bpk, "B");
    r.Metric("space_amp", space_amp, "ratio");
  }
  // Inserted keys read back (every 16th); the live count must add up.
  for (size_t i = 0; i < inserted.size(); i += 16) {
    const Key k = inserted[i];
    const auto v = tree->Lookup(k);
    r.Check(v.has_value() && *v == PayloadOf(k, 1), "read-back", k);
  }
  r.Check(tree->size() == keys.size() + inserted.size() && !tree->io_error(),
          "size", 0);
  r.Config("compactions", std::to_string(tree->IncrementalCompactions()));
  // The batched-read engine is created on the first batch, so the backend
  // actually used is known only now.
  r.Config("io_backend", Quote(tree->IoBackendName()));
  r.Config("o_direct", tree->DirectIo() ? "true" : "false");
  tree.reset();
  std::remove(path.c_str());
}

// ==== server_open =========================================================
// ShardedIndex<FitingTree> with one shard over 4M Weblogs keys, one
// generator thread sending YCSB-A (50% read / 50% update, uniform keys)
// through SubmitAsync and polling the slots. Latency and throughput come
// from a pipelined closed loop with kServerWindow requests in flight;
// max_rate_kops from the open-loop rate ladder, where latency is timed from
// each request's due time. Every key maps to the one FIFO shard queue, so
// the payload the oracle holds at submission is exact and responses arrive
// in submission order.
//
// One shard, not two: with two, the single generator is the slower side,
// the workers drain their queues and park, and nearly every batch waits
// for a cross-CPU wake whose cost follows the load of the shared host. With
// one shard and four full batches in flight the worker never parks, and
// the worker and the generator are pinned to two CPUs of their own, so the
// main phase measures the queue, the batch drain and the engine.
//
// YCSB-A, not YCSB-B: the main phase's percentiles are taken over windows
// of kServerWindowSamples samples of each op class (see RunServerOpen),
// and at 5% updates a window of writes would span about 20 ms, long enough
// to take in several of the host's stalls. Updates are in place, so the
// server path is the same for both op classes.

constexpr size_t kServerKeys = 4'000'000;
constexpr double kServerError = 64.0;
constexpr size_t kServerShards = 1;
constexpr size_t kServerWindow = 128;     // requests in flight, main phase
constexpr double kServerUpdateShare = 0.5;
constexpr size_t kServerChunkSamples = 1 << 18;  // per op class and chunk
constexpr size_t kServerWindowSamples = 1000;
constexpr double kServerRate = 50'000.0;  // ops/s, traced generator-lag phase
constexpr double kServerP99LimitNs = 500'000;
constexpr size_t kInflight = 4096;
constexpr size_t kMultigetDepth = 2;  // multigets in flight, side phase
constexpr size_t kScanDepth = 4;      // scans in flight, side phase
constexpr int kSideEvery = 10;        // main chunks per side-phase slice

// The CPUs this process may run on, ascending.
std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

bool PinCallingThread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return ::pthread_setaffinity_np(::pthread_self(), sizeof(set), &set) == 0;
}

using ShardTree = FitingTree<Key>;
using Server = server::ShardedIndex<ShardTree>;

struct ServerLoad {
  const std::vector<Key>& keys;
  std::vector<Payload>& oracle;  // latest payload submitted, by rank
  std::mt19937_64 rng;
  uint64_t version = 1;
};

struct InFlight {
  server::ResponseSlot<Key, Payload> slot;
  uint64_t due = 0;
  uint64_t seq = 0;
  uint64_t sent = 0;
  uint32_t rank = 0;
  bool read = false;
  Payload expect = 0;
};

struct DriveStats {
  Lat reads, writes, lag;
  std::vector<uint64_t> seq_lag;  // lag by send order, when sized
  uint64_t sent = 0;
  std::vector<uint32_t> read_ranks;  // for the traced exec replay
  SpanLog spans{0};  // traced chunks: due -> completion, delta = send lag
};

// Sends YCSB-A requests for `seconds` and collects every response. With
// `rate` > 0 it is an open loop: request i is due at i / rate and timed
// from then. With `rate` == 0 it is a closed loop that keeps `window`
// requests in flight, each timed from its submission.
void DriveServer(const Server& srv, ServerLoad& load, double rate,
                 double seconds, size_t window, DriveStats* st,
                 std::vector<InFlight>& fl, Result& r, bool traced) {
  const size_t n = rate > 0 ? std::max<size_t>(1, size_t(rate * seconds))
                            : static_cast<size_t>(-1);
  const double gap = rate > 0 ? 1e9 / rate : 0;
  const uint64_t t0 = Now() + 1000;
  const uint64_t stop = t0 + static_cast<uint64_t>(seconds * 1e9);
  size_t head = 0, tail = 0, i = 0;
  std::uniform_real_distribution<double> unif(0.0, 1.0);
  while (true) {
    const uint64_t now = Now();
    // Submit everything due (open loop) or fill the window (closed loop).
    while (i < n && head - tail < std::min(window, kInflight)) {
      const uint64_t due =
          rate > 0 ? t0 + static_cast<uint64_t>(gap * double(i)) : Now();
      if (rate > 0 ? due > now : now >= stop) break;
      InFlight& f = fl[head % kInflight];
      f.slot.Reset();
      f.due = due;
      f.seq = i;
      f.rank = static_cast<uint32_t>(load.rng() % load.keys.size());
      f.read = unif(load.rng) >= kServerUpdateShare;
      server::Request<Key, Payload> req;
      req.key = load.keys[f.rank];
      req.slot = &f.slot;
      if (f.read) {
        req.op = server::ReqOp::kLookup;
        f.expect = load.oracle[f.rank];
      } else {
        req.op = server::ReqOp::kUpdate;
        req.value = PayloadOf(req.key, load.version++);
        load.oracle[f.rank] = req.value;
      }
      srv.SubmitAsync(req);
      f.sent = Now();
      st->lag.Add(f.sent - due);
      ++head;
      ++i;
      ++st->sent;
    }
    // Collect completions oldest first: the one shard answers in
    // submission order, so only the oldest request in flight is polled.
    const uint64_t seen = Now();
    for (; tail < head; ++tail) {
      InFlight& f = fl[tail % kInflight];
      if (!f.slot.Ready()) break;
      if (f.seq < st->seq_lag.size()) st->seq_lag[f.seq] = seen - f.due;
      if (traced) st->spans.Add(f.read ? 0 : 1, f.due, seen, f.sent - f.due);
      if (f.read) {
        st->reads.Add(seen - f.due);
        if (traced) st->read_ranks.push_back(f.rank);
        r.Check(f.slot.found && f.slot.value == f.expect, "server lookup",
                load.keys[f.rank]);
      } else {
        st->writes.Add(seen - f.due);
        r.Check(f.slot.ok, "server update", load.keys[f.rank]);
      }
    }
    const bool sending = rate > 0 ? i < n : now < stop;
    if (!sending && tail == head) break;
  }
}

// Keeps `depth` units of work in flight for `seconds`: submit(u) issues
// unit u and finish(u) waits for it and checks it. The one shard answers
// in submission order, so units finish round robin.
template <typename Submit, typename Finish>
void Pipelined(size_t depth, double seconds, Submit submit, Finish finish) {
  for (size_t u = 0; u < depth; ++u) submit(u);
  const uint64_t end = Now() + static_cast<uint64_t>(seconds * 1e9);
  size_t u = 0;
  for (bool more = true; more; u = (u + 1) % depth) {
    finish(u);
    more = Now() < end;
    if (more) submit(u);
  }
  for (size_t k = 0; k + 1 < depth; ++k) finish((u + k) % depth);
}

void RunServerOpen(const Args& a, Result& r) {
  const auto keys = datasets::Weblogs(kServerKeys, a.seed);
  auto oracle = LoadPayloads(keys);
  const auto values = oracle;
  Server::Config scfg;
  scfg.shards = kServerShards;
  FitingTreeConfig tcfg;
  tcfg.error = kServerError;
  auto factory = [&](const std::vector<Key>& k, const std::vector<Payload>& v) {
    return ShardTree::Create(k, v, tcfg);
  };
  std::unique_ptr<Server> srv;
  double rss_growth = 0;
  // A thread starts with its creator's affinity: the worker takes the
  // second-to-last allowed CPU from the thread that creates the server,
  // and the generator then moves to the last one.
  const std::vector<int> cpus = AllowedCpus();
  const bool pin = cpus.size() >= 2 &&
                   PinCallingThread(cpus[cpus.size() - 2]);
  const double setup_s = TimeSetup(3, [&](bool keep) {
    auto s = Server::Create(keys, values, factory, scfg);
    if (keep) srv = std::move(s);
  }, &rss_growth, r);
  const bool pinned = pin && PinCallingThread(cpus.back());
  r.Config("pinned_cpus", pinned ? "{\"worker\":" +
                                       std::to_string(cpus[cpus.size() - 2]) +
                                       ",\"generator\":" +
                                       std::to_string(cpus.back()) + "}"
                                 : "null");
  r.Config("keys", std::to_string(keys.size()));
  r.Config("error", Num(kServerError));
  r.Config("engine", Quote("ShardedIndex<FitingTree>"));
  r.Config("shards", std::to_string(srv->shard_count()));
  r.Config("batch", std::to_string(srv->batch_limit()));
  r.Config("generator_threads", "1");
  r.Config("in_flight", std::to_string(kServerWindow));
  r.Config("update_share", Num(kServerUpdateShare));
  size_t segments = 0, index_bytes = 0;
  for (size_t s = 0; s < srv->shard_count(); ++s) {
    segments += srv->shard_engine(s).SegmentCount();
    index_bytes += srv->shard_engine(s).IndexSizeBytes();
  }
  r.counters.push_back({"core.segments", double(segments)});
  r.counters.push_back({"index_bytes", double(index_bytes)});

  ServerLoad load{keys, oracle, std::mt19937_64(a.seed * 29 + 13)};
  std::vector<InFlight> fl(kInflight);
  DriveStats warm;
  DriveServer(*srv, load, 0, 0.3, kServerWindow, &warm, fl, r, false);

  auto& reg = telemetry::Registry::Get();
  const uint64_t batches0 = reg.counter(telemetry::CounterId::kServerBatches).Load();
  const uint64_t bops0 = reg.counter(telemetry::CounterId::kServerBatchOps).Load();
  const uint64_t stalls0 =
      reg.counter(telemetry::CounterId::kServerEnqueueStalls).Load();
  // Side phases: multigets of kMultiget async lookups and scans of
  // kScanKeys keys, each kept queued kMultigetDepth / kScanDepth deep so
  // the worker never parks between them. They run in slices between main
  // chunks, so their medians span the whole run like the main phase's.
  Lat multigets, scans;
  std::mt19937_64 rng(a.seed * 31 + 17);
  struct Multiget {
    uint64_t start = 0;
    uint32_t ranks[kMultiget];
    InFlight slots[kMultiget];
  };
  std::vector<Multiget> mg(kMultigetDepth);
  auto multiget_slice = [&](double seconds) {
    Pipelined(kMultigetDepth, seconds, [&](size_t u) {
      Multiget& m = mg[u];
      m.start = Now();
      for (size_t i = 0; i < kMultiget; ++i) {
        m.ranks[i] = static_cast<uint32_t>(rng() % keys.size());
        m.slots[i].slot.Reset();
        server::Request<Key, Payload> req;
        req.op = server::ReqOp::kLookup;
        req.key = keys[m.ranks[i]];
        req.slot = &m.slots[i].slot;
        srv->SubmitAsync(req);
      }
    }, [&](size_t u) {
      Multiget& m = mg[u];
      for (size_t i = 0; i < kMultiget; ++i) m.slots[i].slot.Wait();
      multigets.Add(Now() - m.start);
      for (size_t i = 0; i < kMultiget; ++i) {
        r.Check(m.slots[i].slot.found &&
                    m.slots[i].slot.value == oracle[m.ranks[i]],
                "server multiget", keys[m.ranks[i]]);
      }
    });
  };
  struct Scan {
    uint64_t start = 0;
    size_t rank = 0;
    uint64_t want = 0;
    InFlight f;
    std::vector<std::pair<Key, Payload>> out;
  };
  std::vector<Scan> sc(kScanDepth);
  auto scan_slice = [&](double seconds) {
    Pipelined(kScanDepth, seconds, [&](size_t u) {
      Scan& q = sc[u];
      q.rank = rng() % (keys.size() - kScanKeys);
      q.want = 0;
      for (size_t j = q.rank; j < q.rank + kScanKeys; ++j) q.want += oracle[j];
      q.out.clear();
      q.out.reserve(kScanKeys);
      q.f.slot.Reset();
      q.f.slot.scan_out = &q.out;
      server::Request<Key, Payload> req;
      req.op = server::ReqOp::kScan;
      req.key = keys[q.rank];
      req.hi = keys[q.rank + kScanKeys - 1];
      req.slot = &q.f.slot;
      q.start = Now();
      srv->SubmitAsync(req);
    }, [&](size_t u) {
      Scan& q = sc[u];
      q.f.slot.Wait();
      scans.Add(Now() - q.start);
      uint64_t sum = 0;
      for (const auto& kv : q.out) sum += kv.second;
      r.Check(q.f.slot.count == kScanKeys && q.out.size() == kScanKeys &&
                  sum == q.want,
              "server scan", keys[q.rank]);
    });
  };
  // Main phase: the pipelined closed loop in 50 ms chunks, so the traced
  // run can alternate. Throughput is the median over the untraced chunks.
  // Each latency percentile is the median, over every window of
  // kServerWindowSamples consecutive samples of its op class in the
  // untraced chunks, of the window's nearest-rank percentile (about 2 ms
  // of traffic; a window's p99 has 10 samples beyond it). A thread of the
  // shared machine stalls hundreds of times a second, for about 20 us at
  // the median; with kServerWindow requests in flight a stall of the
  // worker delays all of them, so about a tenth of the requests overlap
  // one, and a pooled p99 would measure the host's stalls, not the server.
  DriveStats chunk, traced;
  chunk.reads.Bound(kServerChunkSamples);
  chunk.writes.Bound(kServerChunkSamples);
  if (a.trace) traced.spans = SpanLog(1 << 20);
  const double main_s = a.seconds * 0.5;
  const int chunks = static_cast<int>(std::max(1.0, main_s / 0.05));
  const double side_slice_s =
      a.seconds * 0.05 / ((chunks + kSideEvery - 1) / kSideEvery);
  std::vector<double> rates, read_p50, read_p99, write_p50, write_p99;
  uint64_t reads_timed = 0, writes_timed = 0;
  for (int c = 0; c < chunks; ++c) {
    const bool tr = a.trace && c % 2 == 1;
    chunk.reads.Clear();
    chunk.writes.Clear();
    DriveStats& st = tr ? traced : chunk;
    const uint64_t sent0 = st.sent;
    const uint64_t c0 = Now();
    DriveServer(*srv, load, 0, main_s / chunks, kServerWindow, &st, fl, r, tr);
    if (tr) continue;
    rates.push_back(double(st.sent - sent0) / (double(Now() - c0) / 1e9));
    chunk.reads.Windows(0.5, kServerWindowSamples, read_p50);
    chunk.reads.Windows(0.99, kServerWindowSamples, read_p99);
    chunk.writes.Windows(0.5, kServerWindowSamples, write_p50);
    chunk.writes.Windows(0.99, kServerWindowSamples, write_p99);
    reads_timed += chunk.reads.added();
    writes_timed += chunk.writes.added();
    if (!a.trace && ((c + 1) % kSideEvery == 0 || c + 1 == chunks)) {
      multiget_slice(side_slice_s);
      scan_slice(side_slice_s);
    }
  }
  const double throughput = Median(rates);
  r.Samples("main_chunks", rates.size());
  r.Samples("read_windows", read_p99.size());
  r.Samples("write_windows", write_p99.size());
  r.Samples("reads", reads_timed);
  r.Samples("writes", writes_timed);

  if (a.trace) {
    const uint64_t batches =
        reg.counter(telemetry::CounterId::kServerBatches).Load() - batches0;
    const uint64_t bops =
        reg.counter(telemetry::CounterId::kServerBatchOps).Load() - bops0;
    const uint64_t stalls =
        reg.counter(telemetry::CounterId::kServerEnqueueStalls).Load() - stalls0;
    // Replay the traced chunks' reads directly on the shard engines
    // (post-quiescence: every request above has completed).
    Lat exec;
    for (const uint32_t rank : traced.read_ranks) {
      const Key k = keys[rank];
      const ShardTree& eng = srv->shard_engine(srv->ShardOf(k));
      const uint64_t t0 = Now();
      const auto v = eng.Lookup(k);
      exec.Add(Now() - t0);
      r.Check(v.has_value() && *v == oracle[rank], "exec replay", k);
    }
    // Generator lateness, from an open loop at a fixed rate.
    DriveStats open;
    DriveServer(*srv, load, kServerRate, a.seconds * 0.1, kInflight, &open,
                fl, r, false);
    std::vector<uint32_t> probes;
    for (size_t i = 0; i < 200'000; ++i) {
      probes.push_back(static_cast<uint32_t>(Mix(a.seed * 5 + i) % keys.size()));
    }
    const CoreReplay core = ReplayCore(keys, values, kServerError, probes,
                                       tcfg.search_policy, r);
    EmitCore(core, segments, r);
    r.Metric("server.avg_batch", batches == 0 ? 0.0 : double(bops) / batches,
             "count");
    r.Metric("server.enqueue_stalls", double(stalls), "count");
    r.Metric("server.exec_ns_p50", exec.P(0.5), "ns");
    r.Metric("server.hop_ns_p50", traced.reads.P(0.5) - exec.P(0.5), "ns");
    r.Metric("server.gen_lag_ns_p99", open.lag.WindowedP(0.99), "ns");
    const double untraced_p50 = Median(read_p50);
    r.Metric("trace.overhead_pct",
             untraced_p50 <= 0
                 ? 0
                 : 100.0 * (traced.reads.P(0.5) - untraced_p50) / untraced_p50,
             "%");
    r.Config("gen_lag_rate_ops", Num(kServerRate));
    r.Samples("exec_replays", exec.size());
    r.Samples("gen_lag_requests", open.sent);
    traced.spans.Write(SpanPath(a));
    return;
  }

  // The open-loop rate ladder: each rung is one open-loop run of the
  // generator at that rate.
  uint64_t ladder_ops = 0;
  const double max_rate = MaxRateKops(throughput, a.seconds * 0.2,
                                      kServerP99LimitNs,
                                      [&](double rate, double d) {
    DriveStats st;
    st.seq_lag.resize(static_cast<size_t>(rate * d) + 1);
    DriveServer(*srv, load, rate, d, kInflight, &st, fl, r, false);
    ladder_ops += st.sent;
    st.seq_lag.resize(st.sent);
    return RungPasses(st.reads, std::move(st.seq_lag), kServerP99LimitNs);
  }, r);
  r.Samples("ladder_ops", ladder_ops);
  // Final state: every key reads its last submitted payload.
  for (size_t i = 0; i < keys.size(); i += 97) {
    const auto v = srv->Lookup(keys[i]);
    r.Check(v.has_value() && *v == oracle[i], "server final", keys[i]);
  }
  r.Samples("multigets", multigets.size());
  r.Samples("scans", scans.size());
  r.Metric("setup_s", setup_s, "s");
  r.Metric("read_ns_p50", Median(read_p50), "ns");
  r.Metric("read_ns_p99", Median(read_p99), "ns");
  r.Metric("write_ns_p50", Median(write_p50), "ns");
  r.Metric("write_ns_p99", Median(write_p99), "ns");
  r.Metric("scan_ns_p50", scans.P(0.5), "ns");
  r.Metric("multiget_ns_p50", multigets.P(0.5), "ns");
  r.Metric("throughput_mops", throughput / 1e6, "Mops");
  r.Metric("max_rate_kops", max_rate, "kops");
  r.Metric("index_bytes_per_key", double(index_bytes) / keys.size(), "B");
  r.Metric("space_amp", rss_growth / (16.0 * keys.size()), "ratio");
}

// ---- exact-counter gate --------------------------------------------------

// Deterministic counters of a run are recorded per (workload, seed, source
// fingerprint) under --out; a later run of the same seed on the same
// sources must reproduce them exactly (r.counters) or within 0.5%
// (r.bounded: counters two racing clients move by a few).
void Gate(const Args& a, Result& r) {
  const std::string dir = a.out + "/counters";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + a.workload + "-" + std::to_string(a.seed) +
                           "-" + a.fingerprint + ".txt";
  std::vector<std::pair<std::string, double>> stored;
  {
    std::ifstream in(path);
    std::string name;
    double v;
    while (in >> name >> v) stored.push_back({name, v});
  }
  if (stored.empty()) {
    std::ofstream out(path);
    for (const auto& [n, v] : r.counters) out << n << ' ' << Num(v) << '\n';
    for (const auto& [n, v] : r.bounded) out << n << ' ' << Num(v) << '\n';
    r.Config("counter_gate", Quote("recorded"));
    return;
  }
  auto find = [&](const std::string& n) -> std::optional<double> {
    for (const auto& [k, v] : stored) {
      if (k == n) return v;
    }
    return std::nullopt;
  };
  for (const auto& [n, v] : r.counters) {
    const auto s = find(n);
    if (!s || *s != v) {
      r.gate_ok = false;
      r.notes.push_back("exact counter " + n + " = " + Num(v) + ", recorded " +
                        (s ? Num(*s) : "none"));
    }
  }
  for (const auto& [n, v] : r.bounded) {
    const auto s = find(n);
    if (!s || std::abs(*s - v) > 0.005 * std::max(1.0, std::abs(*s))) {
      r.gate_ok = false;
      r.notes.push_back("bounded counter " + n + " = " + Num(v) +
                        ", recorded " + (s ? Num(*s) : "none"));
    }
  }
  r.Config("counter_gate", Quote(r.gate_ok ? "matched" : "MISMATCH"));
}

// ---- output --------------------------------------------------------------

void Print(const Args& a, Result& r) {
  // Fill in the metric set: every end-to-end metric untraced, every
  // per-layer metric traced.
  if (a.trace) {
    r.Metric("failed_ratio",
             r.attempted == 0 ? 0.0 : double(r.failed) / r.attempted, "ratio");
    for (const auto& [name, unit] : kLayerMetrics) {
      const bool have = std::any_of(r.metrics.begin(), r.metrics.end(),
                                    [&](const auto& m) { return m.first == name; });
      if (!have) r.Metric(name, 0.0, unit);
    }
  } else {
    r.Metric("peak_rss_mb", PeakRssMb(), "MB");
  }
  const std::span<const char* const[2]> names =
      a.trace ? std::span<const char* const[2]>(kLayerMetrics)
              : std::span<const char* const[2]>(kEndToEndMetrics);
  const bool correct = r.failed == 0 && r.gate_ok && r.attempted > 0;

  // Human-readable report, then the full record, then the result line.
  std::printf("perfbench %s seed=%llu trace=%d\n", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), a.trace ? 1 : 0);
  std::ostringstream metrics;
  metrics << '{';
  bool first = true;
  for (const auto& [name, unit] : names) {
    double value = 0;
    for (const auto& m : r.metrics) {
      if (m.first == name) value = m.second.first;
    }
    std::printf("  %-40s %16.4f %s\n", name, value, unit);
    metrics << (first ? "" : ", ") << Quote(name) << ": {\"value\": " << Num(value)
            << ", \"unit\": " << Quote(unit) << '}';
    first = false;
  }
  metrics << '}';
  for (const auto& note : r.notes) std::printf("  note: %s\n", note.c_str());
  std::ostringstream rec;
  rec << "{\"config\": {";
  first = true;
  for (const auto& [k, v] : r.config) {
    rec << (first ? "" : ", ") << Quote(k) << ": " << v;
    first = false;
  }
  rec << "}, \"samples\": {";
  first = true;
  for (const auto& [k, v] : r.samples) {
    rec << (first ? "" : ", ") << Quote(k) << ": " << v;
    first = false;
  }
  rec << "}}";
  std::printf("record: %s\n", rec.str().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.str().c_str());
  std::fflush(stdout);
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "mem_read|mem_write|disk_mixed|server_open --seed N "
               "--seconds S --trace 0|1 --out DIR [--fingerprint HEX]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  // Engine knobs are read from FITREE_* variables, and unknown values fall
  // back to defaults silently; a benchmark run must not depend on them.
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "FITREE_", 7) == 0) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", *e);
      return 2;
    }
  }
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string v = argv[i + 1];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::stoull(v);
    else if (flag == "--seconds") a.seconds = std::stod(v);
    else if (flag == "--trace") a.trace = v == "1";
    else if (flag == "--out") a.out = v;
    else if (flag == "--fingerprint") a.fingerprint = v;
    else Usage(("unknown flag " + flag).c_str());
  }
  if (a.seconds <= 0) Usage("--seconds must be positive");
  std::filesystem::create_directories(a.out);
  // Freed heap memory stays in the process, so every repeated build in
  // set-up allocates on equal terms (with trimming on, some builds fault
  // fresh pages and some do not, and setup_s turns bimodal).
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  Result r;
  Common(a, r);
  if (a.workload == "mem_read") RunMemRead(a, r);
  else if (a.workload == "mem_write") RunMemWrite(a, r);
  else if (a.workload == "disk_mixed") RunDiskMixed(a, r);
  else if (a.workload == "server_open") RunServerOpen(a, r);
  else Usage("unknown workload");
  Gate(a, r);
  Print(a, r);
  return 0;
}
