// Metrics registry: named counters, gauges and fixed-bucket
// histograms shared by every layer of the system.
//
// The paper's evaluation (§V) is measurement-driven — reconciliation
// rounds, bytes on the wire, convergence after partition heal, energy
// per block — and related IoT-ledger work (DLedger, Cao et al. 2019)
// treats resource accounting as a first-class design input on
// constrained devices. This registry is the single sink those
// measurements flow through.
//
// Hot-path discipline: a metric is resolved to a handle ONCE
// (`GetCounter` et al. allocate on first use); the handle is a bare
// pointer into registry-owned storage, so an increment is one relaxed
// atomic add — no lookup, no allocation, no lock. Default-constructed
// handles are valid no-ops, so uninstrumented components cost a
// predictable branch.
//
// Concurrency contract (DESIGN.md §12/§14): counter/gauge cells are
// atomics, so `Inc`/`Add`/`Set` are safe from exec-pool workers.
// Registration (`Get*`), point reads and `TakeSnapshot` serialize on
// the registry mutex (cells live in deques, so a concurrent
// registration never moves an existing cell). Histogram `Observe`
// mutates its cell without a lock and stays on the owning (serial)
// thread — handles are resolved in constructors before any worker
// exists, and histograms are only observed from the thread that
// submits work.
//
// Registries are per node; `Snapshot::Merge` aggregates across a
// Cluster, `Snapshot::DiffSince` isolates a measurement window.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "util/thread_annotations.h"

namespace vegvisir::telemetry {

class MetricsRegistry;

class Counter {
 public:
  Counter() = default;
  void Inc(std::uint64_t n = 1) {
    if (cell_ != nullptr) cell_->fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return cell_ == nullptr ? 0 : cell_->load(std::memory_order_relaxed);
  }
  bool bound() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::atomic<std::uint64_t>* cell) : cell_(cell) {}
  std::atomic<std::uint64_t>* cell_ = nullptr;
};

class Gauge {
 public:
  Gauge() = default;
  void Set(double v) {
    if (cell_ != nullptr) cell_->store(v, std::memory_order_relaxed);
  }
  // Read-modify-write via CAS: atomic<double> has no fetch_add on
  // every toolchain this builds with.
  void Add(double d) {
    if (cell_ == nullptr) return;
    double cur = cell_->load(std::memory_order_relaxed);
    while (!cell_->compare_exchange_weak(cur, cur + d,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const {
    return cell_ == nullptr ? 0.0 : cell_->load(std::memory_order_relaxed);
  }
  bool bound() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::atomic<double>* cell) : cell_(cell) {}
  std::atomic<double>* cell_ = nullptr;
};

// Bucket counts for a histogram: `counts[i]` is the number of
// observations <= bounds[i]; the final slot counts the +inf overflow.
struct HistogramData {
  std::vector<double> bounds;        // ascending upper bounds
  std::vector<std::uint64_t> counts; // bounds.size() + 1 slots
  std::uint64_t count = 0;
  double sum = 0.0;
};

class Histogram {
 public:
  Histogram() = default;
  void Observe(double v);
  const HistogramData* data() const { return cell_; }
  bool bound() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Histogram(HistogramData* cell) : cell_(cell) {}
  HistogramData* cell_ = nullptr;
};

// Counter a Snapshot::Merge bumps once per histogram it had to skip
// because the two sides' bucket bounds differ.
inline constexpr char kMergeConflictsCounter[] = "telemetry.merge_conflicts";

// A point-in-time copy of every metric in a registry. Plain data:
// copyable, mergeable, diffable — the unit the exporters and the
// bench output consume.
struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramData> histograms;

  // Counter and histogram deltas since `earlier` (names absent there
  // count from zero); gauges keep their current value. The
  // before/after helper for scoped measurements.
  Snapshot DiffSince(const Snapshot& earlier) const;

  // Folds `other` into this snapshot: counters and histograms add;
  // a gauge takes the maximum of the two readings (a gauge is a level,
  // not a flow: eight 1-thread runs still read exec.threads = 1). A
  // histogram whose bucket bounds differ from this side's is skipped
  // whole — buckets, count and sum — so every histogram keeps
  // count == sum of its buckets, and each skip adds one to the
  // kMergeConflictsCounter counter.
  void Merge(const Snapshot& other);

  // Sum of every counter whose name starts with `prefix` (e.g.
  // "fault." or "recon.initiator."). Invariant checks aggregate whole
  // families with this instead of enumerating names.
  std::uint64_t CounterSumByPrefix(const std::string& prefix) const;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

// Owns metric storage. Cells live in deques, so handles stay valid
// for the registry's lifetime (and across moves of whoever owns the
// registry, as long as the registry itself is heap-allocated or
// otherwise address-stable).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Resolve-once lookups: the first call registers the metric, later
  // calls return a handle to the same cell.
  Counter GetCounter(const std::string& name);
  Gauge GetGauge(const std::string& name);
  // `bounds` are ascending upper bucket bounds; they are fixed at
  // first registration (later calls ignore the argument).
  Histogram GetHistogram(const std::string& name, std::vector<double> bounds);

  // Point reads for shims and tests (0 / 0.0 when unregistered).
  std::uint64_t CounterValue(const std::string& name) const;
  double GaugeValue(const std::string& name) const;

  Snapshot TakeSnapshot() const;

 private:
  // Guards the name→cell maps and cell deques (the registration
  // path). The cells themselves are NOT guarded: counter/gauge cells
  // are atomics addressed through handles, and deque growth never
  // invalidates them. Rank kTelemetryRegistry — the innermost lock
  // in the tree: registration runs under the storage-engine lock
  // (TieredStore::Open wires counters while holding mu_), and
  // nothing is ever acquired under this one.
  mutable util::Mutex mu_{util::LockRank::kTelemetryRegistry};
  std::deque<std::atomic<std::uint64_t>> counter_cells_
      VEGVISIR_GUARDED_BY(mu_);
  std::map<std::string, std::atomic<std::uint64_t>*> counters_
      VEGVISIR_GUARDED_BY(mu_);
  std::deque<std::atomic<double>> gauge_cells_ VEGVISIR_GUARDED_BY(mu_);
  std::map<std::string, std::atomic<double>*> gauges_ VEGVISIR_GUARDED_BY(mu_);
  std::deque<HistogramData> histogram_cells_ VEGVISIR_GUARDED_BY(mu_);
  std::map<std::string, HistogramData*> histograms_ VEGVISIR_GUARDED_BY(mu_);
};

// Bucket helper: {1, 2, 4, ..., 2^(n-1)} — the natural scale for
// escalation levels, round counts and message sizes.
std::vector<double> PowerOfTwoBounds(int n);

}  // namespace vegvisir::telemetry
