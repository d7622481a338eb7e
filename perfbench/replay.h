// Layer replay: after a traced run, time each layer's public call on
// the workload's own final DAG and scale the unit cost by the run's
// deterministic count of that call.
#pragma once

#include <cstdint>
#include <string>

#include "bench.h"
#include "chain/dag.h"
#include "csm/membership.h"
#include "telemetry/metrics.h"

namespace perfbench {

struct ReplayInput {
  const vegvisir::chain::Dag* dag = nullptr;
  // Certificates for the creators' public keys (any converged node's).
  const vegvisir::csm::Membership* membership = nullptr;
  // Counter deltas of the timed phase, summed over every registry.
  const vegvisir::telemetry::Snapshot* counters = nullptr;
  // Non-empty: time TieredStore::Append (fsync each) in this fresh
  // directory, removed afterwards.
  std::string store_dir;
  // Also time Node::OfferBlock on a fresh node (the cluster workloads,
  // whose nodes the driver cannot proxy).
  bool replay_offer = false;
};

// Adds the per-layer unit costs (`*_us`), the estimates (`*_est_s`)
// and their total `layers.est_s` to `out`.
void ReplayLayers(const ReplayInput& in, SpanRecorder* rec, Result* out);

// Counter value from a snapshot (0 when absent).
std::uint64_t CounterOf(const vegvisir::telemetry::Snapshot& s,
                        const std::string& name);

// Fills the per-layer counters and ratios every workload reports from
// registry counters: node.*, gossip.*, recon.*, setdiff.*, csm.*,
// exec.*, storage.*, net.*.
void AddRegistryMetrics(const vegvisir::telemetry::Snapshot& diff,
                        Result* out);

}  // namespace perfbench
