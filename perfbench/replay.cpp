#include "replay.h"

#include <algorithm>
#include <filesystem>
#include <limits>

#include "chain/block.h"
#include "crypto/drbg.h"
#include "crypto/ed25519.h"
#include "csm/state_machine.h"
#include "node/node.h"
#include "setdiff/digest.h"
#include "setdiff/iblt.h"
#include "serial/limits.h"
#include "storage/engine.h"

namespace perfbench {

using namespace vegvisir;

namespace {

// Samples per unit cost. Large enough for a stable median, small
// enough that the replay stays well under a second per layer.
constexpr std::size_t kVerifySamples = 256;
constexpr std::size_t kSignSamples = 128;
constexpr std::size_t kDecodeSamples = 512;
constexpr std::size_t kStorageSamples = 128;
constexpr int kWholeDagRepeats = 5;

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

// Times `fn` as a span named `name` and returns its duration in us.
template <typename Fn>
double TimedUs(SpanRecorder* rec, const char* name, std::uint64_t request,
               Fn&& fn) {
  const std::uint32_t id = rec->Begin(name, request);
  const std::int64_t t0 = NowNs();
  fn();
  const std::int64_t t1 = NowNs();
  rec->End(id);
  return static_cast<double>(t1 - t0) / 1e3;
}

// Every `stride`-th element so a sample spans the whole DAG.
std::vector<const chain::Block*> Sample(
    const std::vector<const chain::Block*>& all, std::size_t n) {
  std::vector<const chain::Block*> out;
  if (all.empty()) return out;
  const std::size_t stride = std::max<std::size_t>(1, all.size() / n);
  for (std::size_t i = 0; i < all.size() && out.size() < n; i += stride) {
    out.push_back(all[i]);
  }
  return out;
}

}  // namespace

std::uint64_t CounterOf(const telemetry::Snapshot& s, const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

void AddRegistryMetrics(const telemetry::Snapshot& d, Result* out) {
  auto c = [&](const std::string& n) {
    return static_cast<double>(CounterOf(d, n));
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  for (const char* n :
       {"node.blocks_accepted", "node.blocks_quarantined",
        "node.blocks_rejected", "gossip.ticks", "gossip.sessions_timed_out",
        "gossip.retries", "gossip.backoffs",
        "recon.responder.sessions_orphaned", "setdiff.probes",
        "setdiff.decode_success", "setdiff.decode_failure",
        "setdiff.fallbacks", "setdiff.escalations", "setdiff.sketch_bytes",
        "csm.applied_txns", "csm.rejected_txns", "exec.batches",
        "exec.tasks_executed", "storage.appends", "storage.fsyncs",
        "storage.bytes_appended", "storage.append_failures"}) {
    out->Det(n, c(n));
  }
  out->Det("recon.sessions_started", c("recon.initiator.sessions_started"));
  out->Det("recon.sessions_completed",
           c("recon.initiator.sessions_completed"));
  out->Det("recon.sessions_failed", c("recon.initiator.sessions_failed"));
  out->Det("recon.level_cap_hit", c("recon.initiator.level_cap_hit"));
  out->Det("recon.rounds_per_session",
           ratio(c("recon.initiator.rounds"),
                 c("recon.initiator.sessions_started")));
  out->Det("recon.useful_ratio",
           ratio(c("recon.initiator.blocks_inserted") +
                     c("recon.responder.blocks_inserted"),
                 c("recon.initiator.blocks_received") +
                     c("recon.responder.blocks_received")));
  out->Det("setdiff.decode_ratio",
           ratio(c("setdiff.decode_success"),
                 c("setdiff.decode_success") + c("setdiff.decode_failure")));
  out->Det("exec.presig_hit_ratio",
           ratio(c("exec.presig_hits"),
                 c("exec.presig_hits") + c("exec.presig_misses")));
  // Work stealing depends on thread timing: reported, never compared.
  out->Wall("exec.steals", c("exec.steals"));

  // Mean batch size only from a histogram whose count matches its
  // buckets; a merge across mismatched bounds breaks that, and the
  // metric is then reported missing (NaN, written as null).
  double batch_mean = std::numeric_limits<double>::quiet_NaN();
  if (const auto it = d.histograms.find("exec.batch_size");
      it == d.histograms.end()) {
    batch_mean = 0.0;
  } else {
    std::uint64_t buckets = 0;
    for (const std::uint64_t n : it->second.counts) buckets += n;
    if (buckets == it->second.count) {
      batch_mean = it->second.count == 0
                       ? 0.0
                       : it->second.sum / static_cast<double>(it->second.count);
    }
  }
  out->Det("exec.batch_size_mean", batch_mean);
}

void ReplayLayers(const ReplayInput& in, SpanRecorder* rec, Result* out) {
  const chain::Dag& dag = *in.dag;
  const std::uint32_t root = rec->Begin("replay", 0);

  std::vector<chain::BlockHash> order;
  std::vector<double> topo_us;
  for (int i = 0; i < kWholeDagRepeats; ++i) {
    topo_us.push_back(TimedUs(rec, "replay.chain.topo_order", 0,
                              [&] { order = dag.TopologicalOrder(); }));
  }
  std::vector<const chain::Block*> blocks;  // topological, genesis first
  for (const chain::BlockHash& h : order) {
    if (const chain::Block* b = dag.Find(h); b != nullptr) blocks.push_back(b);
  }
  const chain::Block& genesis = *dag.Find(dag.genesis_hash());

  // crypto: verify against the creator's certificate; sign with a
  // driver-owned key over the same payloads.
  std::vector<double> verify_us;
  for (const chain::Block* b : Sample(blocks, kVerifySamples)) {
    const chain::Certificate* cert =
        in.membership->FindCertificate(b->header().user_id);
    if (cert == nullptr) continue;
    const Bytes payload = b->SigningPayload();
    bool ok = false;
    verify_us.push_back(TimedUs(rec, "replay.crypto.verify", 0, [&] {
      ok = crypto::Verify(cert->public_key, payload, b->signature());
    }));
    if (!ok) out->Error("replay: a stored block failed signature verification");
  }
  crypto::Drbg drbg(0x5eed);
  const crypto::KeyPair signer = crypto::KeyPair::Generate(drbg);
  std::vector<double> sign_us;
  for (const chain::Block* b : Sample(blocks, kSignSamples)) {
    const Bytes payload = b->SigningPayload();
    sign_us.push_back(TimedUs(rec, "replay.crypto.sign", 0,
                              [&] { (void)signer.Sign(payload); }));
  }

  // serial: block decode from the wire form.
  std::vector<double> decode_us;
  for (const chain::Block* b : Sample(blocks, kDecodeSamples)) {
    const Bytes wire = b->Serialize();
    bool ok = false;
    decode_us.push_back(TimedUs(rec, "replay.serial.block_decode", 0, [&] {
      ok = chain::Block::Deserialize(wire).ok();
    }));
    if (!ok) out->Error("replay: a stored block failed to decode");
  }

  // chain + csm: rebuild the DAG and the state machine in order.
  std::vector<double> insert_us, apply_us;
  {
    chain::Dag fresh(genesis);
    csm::StateMachine sm;
    sm.ApplyBlock(genesis);
    for (std::size_t i = 1; i < blocks.size(); ++i) {
      chain::Block copy = *blocks[i];
      bool ok = false;
      insert_us.push_back(TimedUs(rec, "replay.chain.dag_insert", i, [&] {
        ok = fresh.Insert(std::move(copy)).ok();
      }));
      if (!ok) out->Error("replay: DAG re-insert failed");
      apply_us.push_back(TimedUs(rec, "replay.csm.apply", i,
                                 [&] { sm.ApplyBlock(*blocks[i]); }));
    }
  }

  // setdiff: the whole-set digest and an IBLT at the run's mean sketch
  // size (the smallest delta-sized table when no sketch was sent).
  const telemetry::Snapshot& cnt = *in.counters;
  const double sketches =
      static_cast<double>(CounterOf(cnt, "setdiff.sketches_sent"));
  std::size_t cells = setdiff::CellsForDelta(1, serial::limits::kMaxIbltCells);
  if (sketches > 0) {
    cells = static_cast<std::size_t>(
        static_cast<double>(CounterOf(cnt, "setdiff.sketch_bytes")) /
        sketches / static_cast<double>(setdiff::kIbltCellWireBytes));
    cells = std::clamp<std::size_t>(cells, 1, serial::limits::kMaxIbltCells);
  }
  std::vector<double> digest_us, iblt_us;
  for (int i = 0; i < kWholeDagRepeats; ++i) {
    digest_us.push_back(TimedUs(rec, "replay.setdiff.digest_build", 0, [&] {
      setdiff::RangeDigest d;
      for (const chain::BlockHash& h : order) d.Insert(h);
    }));
    iblt_us.push_back(TimedUs(rec, "replay.setdiff.iblt_build", 0, [&] {
      setdiff::Iblt t(cells, setdiff::SeedForCells(cells));
      for (const chain::BlockHash& h : order) t.Insert(h);
    }));
  }

  // storage: fsync'd write-ahead appends in a temporary store.
  std::vector<double> append_us;
  if (!in.store_dir.empty()) {
    std::filesystem::remove_all(in.store_dir);
    storage::TieredStoreOptions opts;
    opts.dir = in.store_dir;
    opts.fsync_each_append = true;
    if (auto store = storage::TieredStore::Open(opts); store.ok()) {
      const std::size_t n = std::min(blocks.size(), kStorageSamples);
      for (std::size_t i = 0; i < n; ++i) {
        bool ok = false;
        append_us.push_back(TimedUs(rec, "replay.storage.append", i, [&] {
          ok = (*store)->Append(*blocks[i]).ok();
        }));
        if (!ok) out->Error("replay: storage append failed");
      }
    } else {
      out->Error("replay: could not open a temporary store");
    }
    std::filesystem::remove_all(in.store_dir);
  }

  // node: the full ingest path on a fresh observer node.
  if (in.replay_offer) {
    crypto::Drbg keys_drbg(0x0b5e);
    node::NodeConfig cfg;
    cfg.user_id = "replay-observer";
    node::Node observer(cfg, genesis, crypto::KeyPair::Generate(keys_drbg));
    std::uint64_t latest = 0;
    for (const chain::Block* b : blocks) {
      latest = std::max(latest, b->header().timestamp_ms);
    }
    observer.SetTime(latest + 1);
    std::vector<double> offer_us;
    for (std::size_t i = 1; i < blocks.size(); ++i) {
      chain::BlockVerdict verdict{};
      offer_us.push_back(TimedUs(rec, "replay.node.offer_block", i, [&] {
        verdict = observer.OfferBlock(*blocks[i]);
      }));
      if (verdict != chain::BlockVerdict::kValid) {
        out->Error("replay: a stored block was not accepted by a fresh node");
      }
    }
    const double unit = Median(offer_us);
    out->Wall("node.offer_block_us_p50", unit);
    out->Wall("node.offer_s",
              unit * 1e-6 *
                  static_cast<double>(CounterOf(cnt, "node.blocks_accepted")));
  }
  rec->End(root);

  // Unit costs times the run's deterministic call counts. The counts
  // follow the call sites in src/: a setdiff probe costs three
  // TopologicalOrder walks and two digest builds (initiator probe,
  // responder estimate) and each sketch one IBLT build per side.
  auto n = [&](const char* name) {
    return static_cast<double>(CounterOf(cnt, name));
  };
  const double probes = n("setdiff.probes");
  struct Layer {
    const char* unit_name;
    const char* est_name;
    double unit_us;
    double calls;
  };
  const Layer layers[] = {
      {"crypto.verify_us", "crypto.verify_est_s", Median(verify_us),
       n("node.blocks_accepted") + n("node.blocks_rejected")},
      {"crypto.sign_us", "crypto.sign_est_s", Median(sign_us),
       n("node.blocks_created")},
      {"serial.block_decode_us", "serial.decode_est_s", Median(decode_us),
       n("recon.initiator.blocks_received") +
           n("recon.responder.blocks_received")},
      {"chain.dag_insert_us", "chain.insert_est_s", Median(insert_us),
       n("node.blocks_accepted") + n("node.blocks_created")},
      {"chain.topo_order_us", "chain.topo_est_s", Median(topo_us),
       3 * probes},
      {"csm.apply_us", "csm.apply_est_s", Median(apply_us),
       n("csm.applied_blocks")},
      {"setdiff.digest_build_us", "setdiff.digest_est_s", Median(digest_us),
       2 * probes},
      {"setdiff.iblt_build_us", "setdiff.iblt_est_s", Median(iblt_us),
       n("setdiff.sketches_sent") + n("setdiff.decode_success") +
           n("setdiff.decode_failure")},
      {"storage.append_us", "storage.est_s", Median(append_us),
       n("storage.appends")},
  };
  double total = 0;
  for (const Layer& l : layers) {
    const double est = l.unit_us * 1e-6 * l.calls;
    out->Wall(l.unit_name, l.unit_us);
    out->Wall(l.est_name, est);
    total += est;
  }
  out->Wall("layers.est_s", total);
}

}  // namespace perfbench
