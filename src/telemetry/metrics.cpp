#include "telemetry/metrics.h"

#include <algorithm>

namespace vegvisir::telemetry {

void Histogram::Observe(double v) {
  if (cell_ == nullptr) return;
  // Linear scan: bucket counts are small (<= ~16) and fixed, which
  // beats binary search on these sizes and keeps the hot path
  // branch-predictable.
  std::size_t i = 0;
  while (i < cell_->bounds.size() && v > cell_->bounds[i]) ++i;
  cell_->counts[i] += 1;
  cell_->count += 1;
  cell_->sum += v;
}

Counter MetricsRegistry::GetCounter(const std::string& name) {
  const util::MutexLock guard(mu_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return Counter(it->second);
  std::atomic<std::uint64_t>* cell = &counter_cells_.emplace_back(0);
  counters_.emplace(name, cell);
  return Counter(cell);
}

Gauge MetricsRegistry::GetGauge(const std::string& name) {
  const util::MutexLock guard(mu_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return Gauge(it->second);
  std::atomic<double>* cell = &gauge_cells_.emplace_back(0.0);
  gauges_.emplace(name, cell);
  return Gauge(cell);
}

Histogram MetricsRegistry::GetHistogram(const std::string& name,
                                        std::vector<double> bounds) {
  const util::MutexLock guard(mu_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return Histogram(it->second);
  std::sort(bounds.begin(), bounds.end());
  HistogramData data;
  data.counts.assign(bounds.size() + 1, 0);
  data.bounds = std::move(bounds);
  histogram_cells_.push_back(std::move(data));
  HistogramData* cell = &histogram_cells_.back();
  histograms_.emplace(name, cell);
  return Histogram(cell);
}

std::uint64_t MetricsRegistry::CounterValue(const std::string& name) const {
  const util::MutexLock guard(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end()
             ? 0
             : it->second->load(std::memory_order_relaxed);
}

double MetricsRegistry::GaugeValue(const std::string& name) const {
  const util::MutexLock guard(mu_);
  const auto it = gauges_.find(name);
  return it == gauges_.end()
             ? 0.0
             : it->second->load(std::memory_order_relaxed);
}

Snapshot MetricsRegistry::TakeSnapshot() const {
  const util::MutexLock guard(mu_);
  Snapshot snap;
  for (const auto& [name, cell] : counters_) {
    snap.counters[name] = cell->load(std::memory_order_relaxed);
  }
  for (const auto& [name, cell] : gauges_) {
    snap.gauges[name] = cell->load(std::memory_order_relaxed);
  }
  for (const auto& [name, cell] : histograms_) snap.histograms[name] = *cell;
  return snap;
}

Snapshot Snapshot::DiffSince(const Snapshot& earlier) const {
  Snapshot diff;
  for (const auto& [name, value] : counters) {
    const auto it = earlier.counters.find(name);
    diff.counters[name] =
        value - (it == earlier.counters.end() ? 0 : it->second);
  }
  for (const auto& [name, value] : gauges) diff.gauges[name] = value;
  for (const auto& [name, data] : histograms) {
    HistogramData d = data;
    const auto it = earlier.histograms.find(name);
    if (it != earlier.histograms.end() &&
        it->second.bounds == data.bounds) {
      for (std::size_t i = 0; i < d.counts.size(); ++i) {
        d.counts[i] -= it->second.counts[i];
      }
      d.count -= it->second.count;
      d.sum -= it->second.sum;
    }
    diff.histograms[name] = std::move(d);
  }
  return diff;
}

void Snapshot::Merge(const Snapshot& other) {
  for (const auto& [name, value] : other.counters) counters[name] += value;
  for (const auto& [name, value] : other.gauges) {
    const auto [it, fresh] = gauges.emplace(name, value);
    if (!fresh) it->second = std::max(it->second, value);
  }
  for (const auto& [name, data] : other.histograms) {
    const auto it = histograms.find(name);
    if (it == histograms.end()) {
      histograms[name] = data;
      continue;
    }
    HistogramData& mine = it->second;
    if (mine.bounds != data.bounds) {
      counters[kMergeConflictsCounter] += 1;
      continue;
    }
    for (std::size_t i = 0; i < mine.counts.size(); ++i) {
      mine.counts[i] += data.counts[i];
    }
    mine.count += data.count;
    mine.sum += data.sum;
  }
}

std::uint64_t Snapshot::CounterSumByPrefix(const std::string& prefix) const {
  std::uint64_t total = 0;
  // counters is ordered by name: everything with the prefix forms one
  // contiguous range starting at lower_bound(prefix).
  for (auto it = counters.lower_bound(prefix); it != counters.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    total += it->second;
  }
  return total;
}

std::vector<double> PowerOfTwoBounds(int n) {
  std::vector<double> bounds;
  double b = 1.0;
  for (int i = 0; i < n; ++i, b *= 2.0) bounds.push_back(b);
  return bounds;
}

}  // namespace vegvisir::telemetry
