// The `deepsync` workload: two nodes, no simulator, a deep shared DAG
// and a closed loop of setdiff sessions whose every message the driver
// carries itself. The reader keeps a durable block log, so every block
// it receives is fsync'd before it is acked.
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "chain/genesis.h"
#include "crdt/sets.h"
#include "crypto/drbg.h"
#include "node/node.h"
#include "recon/messages.h"
#include "recon/session.h"
#include "replay.h"
#include "sim/energy.h"
#include "sim/network.h"
#include "storage/engine.h"
#include "util/rng.h"

namespace perfbench {

using namespace vegvisir;

namespace {

constexpr char kCrdt[] = "load";
// Simulated time between one session's end and the next writes.
constexpr std::uint64_t kThinkMs = 1'000;

// Forwards to a Node and times its ingest calls (OfferBlock and the
// pipelined signature pre-check) from the outside.
class TimedHost final : public recon::ReconHost {
 public:
  TimedHost(node::Node* node, SpanRecorder* rec) : node_(node), rec_(rec) {}

  void set_request(std::uint64_t r) { request_ = r; }

  const chain::Dag& dag() const override { return node_->dag(); }
  chain::BlockVerdict OfferBlock(const chain::Block& block) override {
    ScopedSpan span(rec_, "node.offer_block", request_);
    return node_->OfferBlock(block);
  }
  bool HasBlock(const chain::BlockHash& h) const override {
    return node_->HasBlock(h);
  }
  telemetry::Telemetry* telemetry() const override {
    return node_->telemetry();
  }
  void PreverifyBlocks(
      const std::vector<const chain::Block*>& blocks) override {
    ScopedSpan span(rec_, "node.preverify", request_);
    node_->PreverifyBlocks(blocks);
  }

 private:
  node::Node* node_;
  SpanRecorder* rec_;
  std::uint64_t request_ = 0;
};

const char* MessageTypeName(recon::MessageType t) {
  switch (t) {
    case recon::MessageType::kFrontierRequest: return "frontier_request";
    case recon::MessageType::kFrontierResponse: return "frontier_response";
    case recon::MessageType::kBlockRequest: return "block_request";
    case recon::MessageType::kBlockResponse: return "block_response";
    case recon::MessageType::kPushBlocks: return "push_blocks";
    case recon::MessageType::kDiffProbe: return "diff_probe";
    case recon::MessageType::kDiffSketch: return "diff_sketch";
    case recon::MessageType::kDiffResult: return "diff_result";
  }
  return "unknown";
}

telemetry::Snapshot Counters(const node::Node& a, const node::Node& b) {
  telemetry::Snapshot s = a.telemetry()->metrics.TakeSnapshot();
  s.Merge(b.telemetry()->metrics.TakeSnapshot());
  s.gauges.clear();  // Merge sums gauges; none is read
  return s;
}

}  // namespace

Result RunDeepsync(const Options& opt, SpanRecorder* rec) {
  const std::size_t shared_blocks = opt.tiny ? 128 : 4'096;
  const int sessions = opt.tiny ? 24 : 1'000;
  Result r;

  // ---- set-up: a deep DAG both nodes hold ---------------------------
  HostProbe probe;
  const HostProbe::Mark setup_mark = probe.Begin();
  crypto::Drbg drbg(opt.seed * 1'000'003ULL + 17);
  const crypto::KeyPair owner_keys = crypto::KeyPair::Generate(drbg);
  const crypto::KeyPair reader_keys = crypto::KeyPair::Generate(drbg);
  const chain::Block genesis = chain::GenesisBuilder("deepsync-chain")
                                   .WithTimestamp(1)
                                   .Build("owner", owner_keys);
  sim::EnergyMeter writer_meter, reader_meter;
  // Declared before the reader, which holds a raw pointer into it.
  std::unique_ptr<storage::TieredStore> store;
  const std::string data_dir = opt.work_dir + "/data-deepsync";
  node::NodeConfig wcfg;
  wcfg.user_id = "owner";
  node::Node writer(wcfg, genesis, owner_keys);
  node::NodeConfig rcfg;
  rcfg.user_id = "reader";
  node::Node reader(rcfg, genesis, reader_keys);
  writer.AttachEnergyMeter(&writer_meter);
  reader.AttachEnergyMeter(&reader_meter);

  std::uint64_t clock_ms = 1'000;
  auto set_time = [&](std::uint64_t t) {
    clock_ms = t;
    writer.SetTime(t);
    reader.SetTime(t);
  };
  set_time(clock_ms);
  Rng values(opt.seed ^ 0x51ed270b27cbd5a3ULL);
  std::vector<std::string> committed;
  std::uint64_t attempted = 0, not_committed = 0;
  auto write = [&]() -> std::optional<chain::BlockHash> {
    const std::string v = OpValue("w" + std::to_string(attempted), &values);
    ++attempted;
    auto h = writer.AppendOp(kCrdt, "add", {crdt::Value::OfStr(v)});
    if (!h.ok()) {
      ++not_committed;
      return std::nullopt;
    }
    committed.push_back(v);
    return *h;
  };

  if (!writer.CreateCrdt(kCrdt, crdt::CrdtType::kGSet, crdt::ValueType::kStr,
                         csm::AclPolicy::AllowAll())
           .ok()) {
    r.Error("setup: could not create the CRDT");
  }
  while (writer.dag().Size() < shared_blocks) {
    set_time(clock_ms + 10);
    probe.Tick();
    if (!write()) {
      r.Error("setup: a write failed");
      break;
    }
  }
  for (const chain::BlockHash& h : writer.dag().TopologicalOrder()) {
    if (h == genesis.hash()) continue;
    probe.Tick();
    if (reader.OfferBlock(*writer.dag().Find(h)) !=
        chain::BlockVerdict::kValid) {
      r.Error("setup: the reader rejected a shared block");
      break;
    }
  }
  // A fresh log: attaching writes the shared DAG into it.
  std::filesystem::remove_all(data_dir);
  storage::TieredStoreOptions sopts;
  sopts.dir = data_dir;
  sopts.telemetry = reader.telemetry();
  if (auto opened = storage::TieredStore::Open(sopts); opened.ok()) {
    store = std::move(*opened);
    if (!reader.AttachStorage(store.get()).ok()) {
      r.Error("setup: could not attach the reader's block log");
    }
  } else {
    r.Error("setup: could not open the reader's block log");
  }
  r.Wall("setup_s", probe.End(setup_mark).ref_s);
  auto close_store = [&] {
    (void)reader.AttachStorage(nullptr);
    store.reset();
    std::filesystem::remove_all(data_dir);
  };
  if (opt.setup_only || !r.errors.empty()) {
    close_store();
    return r;
  }

  // ---- timed phase: write 2 blocks, then one setdiff pull ----------
  recon::ReconConfig cfg;
  cfg.mode = recon::ReconConfig::Mode::kSetDiff;
  TimedHost writer_host(&writer, rec), reader_host(&reader, rec);
  const sim::LinkParams link;  // the simulator's radio model
  auto transfer_ms = [&](std::size_t bytes) {
    return static_cast<double>(link.base_latency_ms) +
           static_cast<double>(bytes) / link.bytes_per_ms;
  };

  const telemetry::Snapshot before = Counters(writer, reader);
  const double energy_before =
      writer_meter.total_mj() + reader_meter.total_mj();
  std::map<std::string, double> type_bytes;
  std::vector<double> session_us, submit_us, propagation_ms;
  std::vector<double> heal_ms;  // per session: its writes' last arrival
  double wire_bytes = 0, messages = 0;
  std::uint64_t bad_sessions = 0;
  const HostProbe::Mark run_mark = probe.Begin();

  for (int s = 0; s < sessions; ++s) {
    probe.Tick();
    const auto request = static_cast<std::uint64_t>(s + 1);
    set_time(clock_ms + kThinkMs);
    std::vector<chain::BlockHash> fresh;
    for (int k = 0; k < 2; ++k) {
      const std::int64_t t0 = NowNs();
      const std::uint32_t span = rec->Begin("node.submit", request);
      const auto h = write();
      rec->End(span);
      submit_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      if (h) fresh.push_back(*h);
    }

    // The session, with the driver as the transport. The modelled
    // clock charges each message the radio model's latency plus
    // serialization delay; a block's propagation ends at the delivery
    // that inserts it at the reader.
    const std::int64_t t0 = NowNs();
    const std::uint32_t session_span = rec->Begin("deepsync.session", request);
    writer_host.set_request(request);
    reader_host.set_request(request);
    recon::InitiatorSession initiator(&reader_host, cfg);
    recon::ResponderSession responder(&writer_host, cfg);
    double link_ms = 0;
    std::deque<Bytes> to_responder, to_initiator;
    {
      ScopedSpan span(rec, "recon.initiator.start", request);
      to_responder.push_back(initiator.Start());
    }
    bool broken = false;
    std::size_t fresh_arrived = 0;
    double last_arrival_ms = 0;
    auto carry = [&](const Bytes& msg, sim::EnergyMeter* from,
                     sim::EnergyMeter* to) {
      link_ms += transfer_ms(msg.size());
      wire_bytes += static_cast<double>(msg.size());
      messages += 1;
      from->AddTx(msg.size());
      to->AddRx(msg.size());
      if (auto t = recon::PeekType(msg); t.ok()) {
        type_bytes[MessageTypeName(*t)] += static_cast<double>(msg.size());
      }
    };
    while (!broken && (!to_responder.empty() || !to_initiator.empty())) {
      std::vector<Bytes> replies;
      if (!to_responder.empty()) {
        const Bytes msg = std::move(to_responder.front());
        to_responder.pop_front();
        carry(msg, &reader_meter, &writer_meter);
        ScopedSpan span(rec, "recon.responder.on_message", request);
        broken = !responder.OnMessage(msg, &replies).ok();
        for (Bytes& m : replies) to_initiator.push_back(std::move(m));
        continue;
      }
      const Bytes msg = std::move(to_initiator.front());
      to_initiator.pop_front();
      carry(msg, &writer_meter, &reader_meter);
      {
        ScopedSpan span(rec, "recon.initiator.on_message", request);
        broken = !initiator.OnMessage(msg, &replies).ok();
      }
      for (Bytes& m : replies) to_responder.push_back(std::move(m));
      for (std::size_t i = fresh_arrived; i < fresh.size(); ++i) {
        if (!reader.dag().Contains(fresh[i])) break;
        propagation_ms.push_back(link_ms);
        last_arrival_ms = link_ms;
        ++fresh_arrived;
      }
    }
    rec->End(session_span);
    session_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    heal_ms.push_back(last_arrival_ms);
    set_time(clock_ms + static_cast<std::uint64_t>(link_ms));

    // A session fails if it did not finish or left the pair unequal.
    if (broken || initiator.state() != recon::SessionState::kDone ||
        reader.dag().Size() != writer.dag().Size() ||
        reader.dag().FrontierDigest() != writer.dag().FrontierDigest()) {
      ++bad_sessions;
    }
  }
  const HostProbe::PhaseTime run = probe.End(run_mark);

  // ---- correctness gate -------------------------------------------
  if (reader.Fingerprint() != writer.Fingerprint()) {
    r.Error("the pair's fingerprints differ at the end");
  }
  for (const node::Node* n : {&writer, &reader}) {
    const auto* set = n->state().FindCrdtAs<crdt::GSet>(kCrdt);
    bool ok = set != nullptr && set->Size() == committed.size();
    for (std::size_t i = 0; ok && i < committed.size(); ++i) {
      ok = set->Contains(crdt::Value::OfStr(committed[i]));
    }
    if (!ok) r.Error(n->user_id() + " does not hold exactly the written ops");
  }
  r.attempted = static_cast<std::uint64_t>(sessions);
  r.failed = bad_sessions + not_committed;

  // ---- metrics ------------------------------------------------------
  const telemetry::Snapshot diff = Counters(writer, reader).DiffSince(before);
  const double deliveries =
      static_cast<double>(CounterOf(diff, "node.blocks_accepted"));
  AddRunTimes(run, &r);
  r.Wall("recon.session_ms_p50", Percentile(session_us, 0.50) / 1e3);
  r.Wall("recon.session_ms_p99", Percentile(session_us, 0.99) / 1e3);
  r.Wall("sim.slice_ms_p50", 0);
  r.Wall("sim.slice_ms_p99", 0);
  r.Det("propagation_sim_ms_p50", Percentile(propagation_ms, 0.50));
  r.Det("propagation_sim_ms_p95", Percentile(propagation_ms, 0.95));
  r.Det("heal_sim_s", Sum(heal_ms) / static_cast<double>(heal_ms.size()) / 1e3);
  r.Det("wire_bytes_per_delivery",
        deliveries > 0 ? wire_bytes / deliveries : 0);
  r.Det("energy_mj_per_node",
        (writer_meter.total_mj() + reader_meter.total_mj() - energy_before) /
            2.0);

  for (const char* n : {"sim.events", "sim.busy_s", "sim.event_us_p50",
                        "sim.event_us_p99", "sim.event_us_max"}) {
    r.Wall(n, 0);
  }
  r.Det("net.messages_sent", messages);
  r.Det("net.bytes_sent", wire_bytes);
  r.Det("net.messages_dropped", 0);
  r.Wall("node.submit_us_p50", Percentile(submit_us, 0.5));
  r.Wall("node.submit_s", Sum(submit_us) / 1e6);
  AddRegistryMetrics(diff, &r);
  for (const char* t :
       {"frontier_request", "frontier_response", "block_request",
        "block_response", "push_blocks", "diff_probe", "diff_sketch",
        "diff_result"}) {
    r.Det(std::string("recon.msg.") + t + ".bytes", type_bytes[t]);
  }

  if (opt.trace) {
    // Session-call self time (the recon calls minus the proxy's ingest
    // children) and the proxy's own ingest times.
    const std::vector<Span>& spans = rec->spans();
    const std::vector<std::int64_t> self = rec->SelfTimesNs();
    std::map<std::uint64_t, double> recon_self_us;
    std::vector<double> offer_us;
    double ingest_us = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const std::string name = spans[i].name;
      const double us =
          static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e3;
      if (name.rfind("recon.", 0) == 0) {
        recon_self_us[spans[i].request] += static_cast<double>(self[i]) / 1e3;
      } else if (name == "node.offer_block") {
        offer_us.push_back(us);
        ingest_us += us;
      } else if (name == "node.preverify") {
        ingest_us += us;
      }
    }
    std::vector<double> per_session;
    for (const auto& [req, us] : recon_self_us) per_session.push_back(us);
    r.Wall("recon.self_us_p50", Percentile(per_session, 0.5));
    r.Wall("node.offer_block_us_p50", Percentile(offer_us, 0.5));
    r.Wall("node.offer_s", ingest_us / 1e6);

    ReplayInput in;
    in.dag = &reader.dag();
    in.membership = &writer.state().membership();
    in.counters = &diff;
    in.store_dir = opt.work_dir + "/replay-store";
    ReplayLayers(in, rec, &r);
  }
  close_store();
  return r;
}

}  // namespace perfbench
