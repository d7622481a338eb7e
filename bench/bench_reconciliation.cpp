// E1 + E10 — reconciliation bandwidth.
//
// Paper claim (§VI): frontier-set reconciliation is "considerably
// more efficient than exchanging entire DAGs", and "more efficient
// DAG reconciliation algorithms" (our hash-first mode) can do better
// still. Two replicas share a 64-block history; the responder then
// runs `d` blocks ahead. We measure the bytes the initiator moves to
// catch up, for:
//   full-dag   — naive baseline: ship everything, every time
//   block-push — Algorithm 1 exactly as published
//   hash-first — the future-work ablation (hashes first, bodies on
//                demand)
// in two divergence shapes: a linear chain (deep) and a bush of
// concurrent branches (wide, as after a many-way partition).
//
// The second sweep (BENCH_recondiff.json) is reconciliation v2's
// headline experiment: delta sizes x DAG depths for the paper
// algorithm, full exchange and setdiff. It shows setdiff's bytes
// scaling with the delta and staying flat in depth, and locates the
// crossover where the negotiation overhead (probe + sketch + result)
// pays for itself against Algorithm 1. Each row also reports the CPU
// time of the whole session (initiator + responder, one thread) —
// report-only, machine-dependent — so the per-session cost's slope in
// depth is visible next to the bytes. The setdiff "warm" column times
// a second session on the same pair after the responder writes
// `delta` more blocks: the steady state of a long-lived pair.
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

#include "baseline/full_exchange.h"
#include "bench_common.h"
#include "chain/genesis.h"
#include "crypto/drbg.h"
#include "node/checkpoint.h"
#include "node/node.h"
#include "recon/session.h"

using namespace vegvisir;

namespace {

struct Pair {
  std::unique_ptr<node::Node> initiator;
  std::unique_ptr<node::Node> responder;
};

crypto::KeyPair OwnerKeys() {
  crypto::Drbg drbg(std::uint64_t{1});
  return crypto::KeyPair::Generate(drbg);
}

const crypto::KeyPair& Owner() {
  static const crypto::KeyPair owner = OwnerKeys();
  return owner;
}

node::NodeConfig BenchNodeConfig() {
  node::NodeConfig cfg;
  cfg.user_id = "owner";
  cfg.telemetry = &benchio::Sink();
  return cfg;
}

std::unique_ptr<node::Node> FreshNode() {
  static const chain::Block genesis =
      chain::GenesisBuilder("recon-bench").WithTimestamp(1).Build("owner",
                                                                  Owner());
  auto n = std::make_unique<node::Node>(BenchNodeConfig(), genesis, Owner());
  n->SetTime(1'000'000);
  return n;
}

// Builds a pair sharing `shared` history blocks, with the responder
// `d` blocks ahead, shaped as a chain or a bush.
Pair MakePair(int shared, int d, bool bush) {
  Pair p;
  p.initiator = FreshNode();
  p.responder = FreshNode();
  for (int i = 0; i < shared; ++i) {
    const auto h = p.responder->AddWitnessBlock();
    (void)p.initiator->OfferBlock(*p.responder->dag().Find(*h));
  }

  if (bush) {
    // d concurrent children of the shared head (a d-way partition's
    // worth of frontier width).
    const auto head = p.responder->dag().Frontier()[0];
    const std::uint64_t base_ts =
        p.responder->dag().TimestampOf(head) + 1;
    for (int i = 0; i < d; ++i) {
      chain::BlockHeader h;
      h.user_id = "owner";
      h.timestamp_ms = base_ts + static_cast<std::uint64_t>(i);
      h.parents = {head};
      const auto verdict = p.responder->OfferBlock(
          chain::Block::Create(std::move(h), {}, Owner()));
      if (verdict != chain::BlockVerdict::kValid) {
        std::fprintf(stderr, "bush block rejected\n");
      }
    }
  } else {
    for (int i = 0; i < d; ++i) (void)p.responder->AddWitnessBlock();
  }
  return p;
}

struct Row {
  std::uint64_t bytes;
  std::uint64_t rounds;
  std::uint64_t blocks;
};

Row RunFrontier(recon::ReconConfig::Mode mode, int shared, int d, bool bush) {
  Pair p = MakePair(shared, d, bush);
  recon::ReconConfig cfg;
  cfg.mode = mode;
  recon::SessionStats stats;
  recon::RunLocalSession(p.initiator.get(), p.responder.get(), cfg, &stats);
  return Row{stats.bytes_received + stats.bytes_sent, stats.rounds,
             stats.blocks_received};
}

const char* StrategyName(recon::ReconConfig::Mode mode) {
  switch (mode) {
    case recon::ReconConfig::Mode::kBlockPush:
      return "paper";
    case recon::ReconConfig::Mode::kHashFirst:
      return "hashfirst";
    case recon::ReconConfig::Mode::kSetDiff:
      return "setdiff";
  }
  return "unknown";
}

Row RunFullOn(const Pair& p) {
  const auto stats =
      baseline::RunFullDagExchange(p.initiator.get(), p.responder.get());
  return Row{stats.bytes_received + stats.bytes_sent, stats.rounds,
             stats.blocks_received};
}

Row RunFull(int shared, int d, bool bush) {
  return RunFullOn(MakePair(shared, d, bush));
}

// A shared chain history of `depth` blocks, captured once as a
// checkpoint image: every (delta, strategy) row restores its two nodes
// from it instead of signing and verifying the whole history again,
// which keeps the 16k-deep rows affordable. The clock advances with
// the chain (block i is stamped 1'000'000 + i either way), so deep
// histories stay inside the validator's clock-skew bound.
node::CheckpointImage SharedHistory(int depth) {
  auto n = FreshNode();
  for (int i = 0; i < depth; ++i) {
    n->SetTime(1'000'000 + static_cast<std::uint64_t>(i));
    if (!n->AddWitnessBlock().ok()) {
      std::fprintf(stderr, "history block %d rejected\n", i);
      std::exit(1);
    }
  }
  return node::CaptureCheckpoint(*n);
}

// Two replicas restored from `history`, the responder `d` blocks ahead
// in a chain: the same pair MakePair(depth, d, false) builds.
Pair RestorePair(const node::CheckpointImage& history, int depth, int d) {
  Pair p;
  for (auto* side : {&p.initiator, &p.responder}) {
    auto restored =
        node::RestoreFromImage(BenchNodeConfig(), Owner(), history);
    if (!restored.ok()) {
      std::fprintf(stderr, "restore failed: %s\n",
                   restored.status().ToString().c_str());
      std::exit(1);
    }
    *side = std::move(*restored);
    (*side)->SetTime(1'000'000 + static_cast<std::uint64_t>(depth));
  }
  for (int i = 0; i < d; ++i) {
    if (!p.responder->AddWitnessBlock().ok()) std::exit(1);
  }
  return p;
}

double CpuMicros() {
  return 1e6 * static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

// The delta x depth x strategy sweep behind BENCH_recondiff.json.
// Chain-shaped runs: the responder is `delta` blocks ahead of a
// `depth`-block shared history.
void RunDiffSweep() {
  std::printf(
      "\nreconciliation v2: initiator bytes received and session CPU, by\n"
      "strategy (shared depth x delta; chain shape)\n");
  std::printf("%-6s %-6s | %12s | %12s %7s %9s | %12s %7s %9s %9s\n",
              "depth", "delta", "full B", "paper B", "rounds", "cpu us",
              "setdiff B", "rounds", "cpu us", "warm us");
  std::vector<telemetry::BenchValue> rows;
  const recon::ReconConfig::Mode kStrategies[] = {
      recon::ReconConfig::Mode::kBlockPush,
      recon::ReconConfig::Mode::kSetDiff,
  };
  for (const int depth : {64, 256, 1024, 4096, 16384}) {
    const node::CheckpointImage history = SharedHistory(depth);
    for (const int delta : {1, 4, 16, 64, 256}) {
      Row per[2];
      double cpu_us[2];
      double warm_us = 0;
      for (int s = 0; s < 2; ++s) {
        Pair p = RestorePair(history, depth, delta);
        recon::ReconConfig cfg;
        cfg.mode = kStrategies[s];
        recon::SessionStats stats;
        const double start = CpuMicros();
        recon::RunLocalSession(p.initiator.get(), p.responder.get(), cfg,
                               &stats);
        cpu_us[s] = CpuMicros() - start;
        per[s] = Row{stats.bytes_received, stats.rounds,
                     stats.blocks_received};
        const std::string key = std::string("recondiff.strategy=") +
                                StrategyName(kStrategies[s]) +
                                ".depth=" + std::to_string(depth) +
                                ".delta=" + std::to_string(delta);
        rows.push_back({key + ".bytes_received",
                        static_cast<double>(stats.bytes_received)});
        rows.push_back(
            {key + ".bytes_sent", static_cast<double>(stats.bytes_sent)});
        rows.push_back({key + ".rounds", static_cast<double>(stats.rounds)});
        rows.push_back({key + ".session_cpu_us", cpu_us[s]});
        if (kStrategies[s] == recon::ReconConfig::Mode::kSetDiff) {
          for (int i = 0; i < delta; ++i) {
            if (!p.responder->AddWitnessBlock().ok()) std::exit(1);
          }
          const double warm_start = CpuMicros();
          recon::RunLocalSession(p.initiator.get(), p.responder.get(), cfg);
          warm_us = CpuMicros() - warm_start;
          rows.push_back({key + ".warm_session_cpu_us", warm_us});
        }
      }
      const Row full = RunFullOn(RestorePair(history, depth, delta));
      const std::string key = std::string("recondiff.strategy=full.depth=") +
                              std::to_string(depth) +
                              ".delta=" + std::to_string(delta);
      rows.push_back(
          {key + ".bytes_received", static_cast<double>(full.bytes)});
      rows.push_back({key + ".rounds", static_cast<double>(full.rounds)});
      std::printf(
          "%-6d %-6d | %12llu | %12llu %7llu %9.0f | %12llu %7llu %9.0f "
          "%9.0f\n",
          depth, delta, static_cast<unsigned long long>(full.bytes),
          static_cast<unsigned long long>(per[0].bytes),
          static_cast<unsigned long long>(per[0].rounds), cpu_us[0],
          static_cast<unsigned long long>(per[1].bytes),
          static_cast<unsigned long long>(per[1].rounds), cpu_us[1],
          warm_us);
    }
  }
  std::printf(
      "\nExpected shape: setdiff bytes track delta and stay flat as\n"
      "depth grows; the paper algorithm re-ships level sets, so its\n"
      "cost grows superlinearly in delta. The crossover (where the\n"
      "probe+sketch overhead pays off) sits at small single-digit\n"
      "deltas and moves in setdiff's favour as the DAG deepens.\n"
      "Session CPU (report-only): for deltas of 1 and 4 (16-cell\n"
      "sketches) cold and warm setdiff CPU stay flat from depth 64 to\n"
      "16384 (~0.1-0.8 ms on a 4-core x86-64 VM), because both sides\n"
      "copy the range digest and floor IBLT their Dags keep on insert.\n"
      "Larger deltas size bigger tables, which each side still folds\n"
      "over its whole hash set, so their CPU grows with depth; so does\n"
      "a session whose 16-cell sketch fails to peel and escalates.\n");
  (void)telemetry::WriteBenchJson("recondiff",
                                  benchio::Sink().metrics.TakeSnapshot(),
                                  std::move(rows));
}

}  // namespace

int main() {
  constexpr int kShared = 64;
  std::printf("E1/E10: reconciliation cost, shared history = %d blocks\n",
              kShared);
  std::printf("%-6s %-6s | %12s | %12s %7s | %12s %7s\n", "shape", "d",
              "full-dag B", "block-push B", "rounds", "hash-first B",
              "rounds");
  for (const bool bush : {false, true}) {
    for (const int d : {1, 2, 4, 8, 16, 32, 64}) {
      const Row full = RunFull(kShared, d, bush);
      const Row paper =
          RunFrontier(recon::ReconConfig::Mode::kBlockPush, kShared, d, bush);
      const Row hashed =
          RunFrontier(recon::ReconConfig::Mode::kHashFirst, kShared, d, bush);
      std::printf("%-6s %-6d | %12llu | %12llu %7llu | %12llu %7llu\n",
                  bush ? "bush" : "chain", d,
                  static_cast<unsigned long long>(full.bytes),
                  static_cast<unsigned long long>(paper.bytes),
                  static_cast<unsigned long long>(paper.rounds),
                  static_cast<unsigned long long>(hashed.bytes),
                  static_cast<unsigned long long>(hashed.rounds));
    }
  }
  std::printf(
      "\nExpected shape: full-dag cost is flat in d (always ~shared+d\n"
      "blocks); frontier protocols scale with d. Hash-first beats\n"
      "block-push on deep chains (level escalation re-ships bodies).\n"
      "The E10 sweep below pays bytes proportional to the delta.\n");
  RunDiffSweep();
  benchio::WriteBench("reconciliation");
  return 0;
}
