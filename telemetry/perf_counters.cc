// perf_event_open plumbing for PerfRegion (see perf_counters.h for the
// design: independent per-event fds, inherit=1, read-side multiplex
// scaling, graceful degradation everywhere).

#include "telemetry/perf_counters.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/options.h"

#if defined(__linux__) && __has_include(<linux/perf_event.h>)
#define FITREE_PERF_SUPPORTED 1
#include <linux/perf_event.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace fitree::telemetry {

namespace {

// FITREE_PERF: unset -> attempt, "0" -> off. Read live at every PerfRegion
// construction — NOT through the cached GlobalOptions() snapshot — because
// the knob gates kernel fd acquisition per-region and long-lived processes
// (and the unit tests) flip it at runtime. Options::perf carries the same
// knob's startup value for config reporting.
bool PerfEnvEnabled() { return ParseIntKnob("FITREE_PERF", 1) != 0; }

#ifdef FITREE_PERF_SUPPORTED

struct EventSpec {
  uint32_t type;
  uint64_t config;
};

// Index order matches the PerfSample fields (cycles first ... task-clock
// last). The cache events use the HW_CACHE encoding: id | (op << 8) |
// (result << 16).
constexpr EventSpec kEvents[kNumPerfEvents] = {
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS},
    {PERF_TYPE_HW_CACHE,
     PERF_COUNT_HW_CACHE_LL | (PERF_COUNT_HW_CACHE_OP_READ << 8) |
         (PERF_COUNT_HW_CACHE_RESULT_MISS << 16)},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES},
    {PERF_TYPE_HW_CACHE,
     PERF_COUNT_HW_CACHE_DTLB | (PERF_COUNT_HW_CACHE_OP_READ << 8) |
         (PERF_COUNT_HW_CACHE_RESULT_MISS << 16)},
    {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK},
};

int OpenEvent(const EventSpec& spec) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.type = spec.type;
  attr.config = spec.config;
  attr.disabled = 0;  // free-running; regions read before/after deltas
  attr.inherit = 1;   // count worker threads spawned inside a region
  attr.exclude_kernel = 1;  // works at perf_event_paranoid <= 2
  attr.exclude_hv = 1;
  attr.read_format =
      PERF_FORMAT_TOTAL_TIME_ENABLED | PERF_FORMAT_TOTAL_TIME_RUNNING;
  return static_cast<int>(
      syscall(SYS_perf_event_open, &attr, 0 /* this thread */,
              -1 /* any cpu */, -1 /* no group: inherit forbids group
                                      reads, see header */,
              0));
}

// perf_event_paranoid level for diagnostics, or -100 when unreadable.
long ParanoidLevel() {
  std::FILE* f = std::fopen("/proc/sys/kernel/perf_event_paranoid", "re");
  if (f == nullptr) return -100;
  long level = -100;
  if (std::fscanf(f, "%ld", &level) != 1) level = -100;
  std::fclose(f);
  return level;
}

#endif  // FITREE_PERF_SUPPORTED

}  // namespace

PerfRegion::PerfRegion() {
  for (int i = 0; i < kNumPerfEvents; ++i) fds_[i] = -1;
  if (!PerfEnvEnabled()) {
    status_ = "disabled (FITREE_PERF=0)";
    return;
  }
#ifndef FITREE_PERF_SUPPORTED
  status_ = "unavailable: perf_event_open not supported on this platform";
#else
  int opened = 0;
  int first_errno = 0;
  for (int i = 0; i < kNumPerfEvents; ++i) {
    fds_[i] = OpenEvent(kEvents[i]);
    if (fds_[i] >= 0) {
      ++opened;
    } else if (first_errno == 0) {
      first_errno = errno;
    }
  }
  if (opened == 0) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "unavailable: perf_event_open failed (%s; "
                  "kernel.perf_event_paranoid=%ld)",
                  std::strerror(first_errno), ParanoidLevel());
    status_ = buf;
    return;
  }
  available_ = true;
  status_ = opened == kNumPerfEvents
                ? "ok"
                : "ok (some events unsupported on this cpu)";
#endif
}

PerfRegion::~PerfRegion() {
#ifdef FITREE_PERF_SUPPORTED
  for (int i = 0; i < kNumPerfEvents; ++i) {
    if (fds_[i] >= 0) close(fds_[i]);
  }
#endif
}

bool PerfRegion::Read(int event, Reading* out) const {
#ifdef FITREE_PERF_SUPPORTED
  if (fds_[event] < 0) return false;
  uint64_t buf[3] = {0, 0, 0};  // value, time_enabled, time_running
  const ssize_t n = read(fds_[event], buf, sizeof(buf));
  if (n != static_cast<ssize_t>(sizeof(buf))) return false;
  out->value = buf[0];
  out->time_enabled = buf[1];
  out->time_running = buf[2];
  return true;
#else
  (void)event;
  (void)out;
  return false;
#endif
}

void PerfRegion::Start() {
  if (!available_) return;
  for (int i = 0; i < kNumPerfEvents; ++i) {
    baseline_[i] = Reading{};
    if (!Read(i, &baseline_[i])) {
      // Leave the zero baseline; Stop() re-checks readability per event.
    }
  }
  started_ = true;
}

PerfSample PerfRegion::Stop() {
  PerfSample sample;
  sample.status = status_;
  if (!available_ || !started_) {
    if (available_ && !started_) sample.status = "not measured";
    return sample;
  }
  started_ = false;

  double* fields[kNumPerfEvents] = {
      &sample.cycles,     &sample.instructions, &sample.llc_misses,
      &sample.branch_misses, &sample.dtlb_misses,  &sample.task_clock_ns,
  };
  bool any = false;
  for (int i = 0; i < kNumPerfEvents; ++i) {
    Reading now;
    if (!Read(i, &now)) continue;
    const double d_value =
        static_cast<double>(now.value - baseline_[i].value);
    const double d_enabled =
        static_cast<double>(now.time_enabled - baseline_[i].time_enabled);
    const double d_running =
        static_cast<double>(now.time_running - baseline_[i].time_running);
    // Multiplex extrapolation: the event only counted for d_running of the
    // d_enabled ns it was scheduled-in for.
    const double scale = d_running > 0 ? d_enabled / d_running : 0.0;
    *fields[i] = d_running > 0 ? d_value * scale : -1.0;
    if (d_running > 0) {
      any = true;
      if (sample.time_enabled_ns == 0) {
        sample.time_enabled_ns = d_enabled;
        sample.time_running_ns = d_running;
      }
    }
  }
  sample.ok = any;
  if (!any) sample.status = "unavailable: counters never scheduled";
  return sample;
}

}  // namespace fitree::telemetry
