// Shared plumbing for the benchmark driver: the wall clock, the
// in-memory span recorder, percentiles and the per-iteration result.
//
// Every time in here is measured by the driver around its own calls
// into the library's public API; nothing under src/ is instrumented.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/rng.h"

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

// Nearest-rank percentile of an unsorted sample (q in [0, 1]); 0 for
// an empty sample.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

// A unique op payload: `prefix`, then 8 to 64 seeded random letters,
// so block sizes (and every byte and time derived from them) vary with
// the seed.
inline std::string OpValue(const std::string& prefix, vegvisir::Rng* rng) {
  std::string v = prefix + "-";
  const std::uint64_t len = 8 + rng->NextU64() % 57;
  for (std::uint64_t i = 0; i < len; ++i) {
    v += static_cast<char>('a' + rng->NextU64() % 26);
  }
  return v;
}

inline double Sum(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return s;
}

// One traced interval. `parent` is the id of the enclosing span (0 for
// a root) and `request` groups the spans of one transaction or session.
struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint32_t id;
  std::uint32_t parent;
  std::uint64_t request;
};

// Keeps spans in memory while enabled; written out when the run ends.
// Disabled recorders cost one branch per Begin/End.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Opens a span under the innermost open one; returns its id (0 when
  // disabled).
  std::uint32_t Begin(const char* name, std::uint64_t request) {
    if (!enabled_) return 0;
    const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
    const std::uint32_t parent = open_.empty() ? 0 : open_.back();
    spans_.push_back({name, NowNs(), 0, id, parent, request});
    open_.push_back(id);
    return id;
  }

  void End(std::uint32_t id) {
    if (!enabled_ || id == 0) return;
    spans_[id - 1].end_ns = NowNs();
    open_.pop_back();
  }

  // Records an already-finished span under the innermost open one.
  void Record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
              std::uint64_t request) {
    if (!enabled_) return;
    const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
    const std::uint32_t parent = open_.empty() ? 0 : open_.back();
    spans_.push_back({name, start_ns, end_ns, id, parent, request});
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Self time of every span: its duration minus that of its direct
  // children (which never overlap, all spans being on one thread), in
  // nanoseconds, indexed like spans().
  std::vector<std::int64_t> SelfTimesNs() const;

  // Writes one tab-separated line per span:
  // name, start_ns, end_ns, id, parent, request.
  bool WriteTsv(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, std::uint64_t request)
      : rec_(rec), id_(rec->Begin(name, request)) {}
  ~ScopedSpan() { rec_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  std::uint32_t id_;
};

// What one workload iteration reports. Metric names are the ones in
// BENCHMARK.json plus a few raw inputs run.py derives from; the
// `deterministic` set names the metrics that must repeat bit for bit
// for a given seed (counts, bytes, simulated times).
struct Result {
  std::map<std::string, double> metrics;
  std::set<std::string> deterministic;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  unsigned exec_width = 1;          // the execution pool's width
  std::vector<std::string> errors;  // wrong outputs: the run is incorrect

  void Det(const std::string& name, double v) {
    metrics[name] = v;
    deterministic.insert(name);
  }
  void Wall(const std::string& name, double v) { metrics[name] = v; }
  void Error(std::string what) { errors.push_back(std::move(what)); }
};

// One driver run's command line. `tiny` and `exec_width` exist for the
// self-test; everything else about a workload is fixed by its definition.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  bool tiny = false;
  bool setup_only = false;
  unsigned exec_width = 0;  // 0: the workload's own width
  std::string work_dir;     // storage data dirs and trace files
};

// Tracks how fast a shared host runs the benchmark right now. On a
// busy host the speed of a VM's CPU drifts by a third within seconds
// (another guest on the same physical core), and CPU time drifts with
// it, so a raw time says as much about the neighbours as about the
// library. A workload calls Tick() between its own steps; every ~10 ms
// a Tick runs one pass of a fixed load that calls nothing in the
// library (hostspeed.cpp). The mean wall time of a pass over a phase
// is the host's speed during that phase, and End() rescales the
// phase's wall time to a host on which a pass takes kReferencePassNs.
class HostProbe {
 public:
  // About a pass's time on a quiet 4-core x86-64 VM.
  static constexpr double kReferencePassNs = 330'000;

  struct Mark {
    std::int64_t wall_ns, own_ns;
    std::uint64_t passes;
  };
  // A phase's wall time, less the probe's passes and the caller's
  // excluded time.
  struct PhaseTime {
    double wall_s;
    double ref_s;    // wall_s at the reference host speed
    double pass_us;  // mean time of a pass in the phase
  };

  HostProbe();
  void Tick();

  // Starts a phase; End runs one more pass, so every phase has one.
  // `excluded_ns` is time the caller spent inside the phase on its own
  // bookkeeping.
  Mark Begin() const;
  PhaseTime End(const Mark& m, std::int64_t excluded_ns = 0);

 private:
  void Pass();

  std::vector<std::uint64_t> table_;
  std::uint64_t x_ = 0x9e3779b97f4a7c15ULL;
  std::int64_t last_pass_end_ns_ = 0;
  std::int64_t own_ns_ = 0;
  std::uint64_t passes_ = 0;
  volatile std::uint64_t sink_ = 0;
};

// Reports a timed phase: `run_ref_s` (bounded) and the raw `run.wall_s`
// and `host.pass_us` beside it.
inline void AddRunTimes(const HostProbe::PhaseTime& t, Result* r) {
  r->Wall("run_ref_s", t.ref_s);
  r->Wall("run.wall_s", t.wall_s);
  r->Wall("host.pass_us", t.pass_us);
}

// `steady` and `catchup` (cluster_workloads.cpp), `deepsync` (deepsync.cpp).
Result RunCluster(const Options& opt, SpanRecorder* rec);
Result RunDeepsync(const Options& opt, SpanRecorder* rec);

}  // namespace perfbench
