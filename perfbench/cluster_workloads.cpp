// The two simulated-cluster workloads, `steady` and `catchup`.
//
// Both drive a node::Cluster through the simulator one event at a time
// (timing each Simulator::Step), write CRDT ops through Node::AppendOp
// on a fixed simulated schedule, and watch every written block until
// it is on every honest node.
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "crdt/sets.h"
#include "node/cluster.h"
#include "replay.h"
#include "sim/topology.h"
#include "util/rng.h"

namespace perfbench {

using namespace vegvisir;

namespace {

constexpr char kCrdt[] = "load";
constexpr std::uint64_t kDeploymentSeed = 5;
// Simulated time is advanced in slices of this length; block arrivals
// are checked between slices, and each slice's wall time is one
// sim.slice_ms sample.
constexpr sim::TimeMs kSliceMs = 100;

struct ClusterSpec {
  int nodes = 0;
  bool clique = false;            // else unit disk, 500 m field, 400 m range
  recon::ReconConfig::Mode mode = recon::ReconConfig::Mode::kBlockPush;
  unsigned exec_width = 1;
  double drop_probability = 0.0;
  int partition_groups = 0;       // 0: never partitioned
  int write_rounds = 0;           // one op per node per round
  sim::TimeMs round_ms = 5'000;
  sim::TimeMs settle_deadline_ms = 0;
};

// Steps the simulator event by event, timing each Step() from the
// outside, up to an absolute simulated time.
class Stepper {
 public:
  Stepper(sim::Simulator* sim, SpanRecorder* rec) : sim_(sim), rec_(rec) {}

  void RunUntil(sim::TimeMs end) {
    // A sentinel event marks `end`; events due at `end` that were
    // scheduled before it still run in this call, as with RunUntil.
    bool reached = false;
    sim_->ScheduleAt(end, [&reached] { reached = true; });
    while (true) {
      const std::int64_t t0 = NowNs();
      if (!sim_->Step()) break;
      const std::int64_t t1 = NowNs();
      if (reached) break;
      rec_->Record("sim.step", t0, t1, events_);
      step_us_.push_back(static_cast<double>(t1 - t0) / 1e3);
      ++events_;
    }
  }

  std::uint64_t events() const { return events_; }
  const std::vector<double>& step_us() const { return step_us_; }

 private:
  sim::Simulator* sim_;
  SpanRecorder* rec_;
  std::uint64_t events_ = 0;
  std::vector<double> step_us_;
};

struct Written {
  chain::BlockHash hash;
  int burst = 0;  // writes released together: a round, or the partition
  sim::TimeMs written_at = 0;
  sim::TimeMs everywhere_at = 0;
  std::vector<int> missing;  // honest nodes that do not hold it yet
};

ClusterSpec SpecFor(const Options& opt) {
  ClusterSpec s;
  if (opt.workload == "steady") {
    s.nodes = opt.tiny ? 6 : 32;
    s.write_rounds = opt.tiny ? 4 : 32;  // 32 x 32 = 1,024 ops
    s.settle_deadline_ms = 300'000;
  } else {
    s.nodes = opt.tiny ? 8 : 24;
    s.clique = true;
    s.mode = recon::ReconConfig::Mode::kSetDiff;
    s.exec_width = 2;
    s.drop_probability = 0.05;
    s.partition_groups = 4;
    s.write_rounds = opt.tiny ? 6 : 120;  // 600 simulated seconds
    s.settle_deadline_ms = 900'000;
  }
  if (opt.exec_width != 0) s.exec_width = opt.exec_width;
  return s;
}

telemetry::Snapshot CounterSnapshot(node::Cluster& c) {
  // Counters and histograms only: AggregateSnapshot sums gauges, so
  // none is ever read from it.
  telemetry::Snapshot s = c.AggregateSnapshot();
  s.gauges.clear();
  return s;
}

double EnergyMj(node::Cluster& c) {
  double mj = 0;
  for (int i = 0; i < c.size(); ++i) mj += c.meter(i).total_mj();
  return mj;
}

bool AllHoldCrdt(node::Cluster& c) {
  for (const int i : c.honest()) {
    if (c.node(i).state().FindCrdt(kCrdt) == nullptr) return false;
  }
  return c.Converged();
}

}  // namespace

Result RunCluster(const Options& opt, SpanRecorder* rec) {
  const ClusterSpec spec = SpecFor(opt);
  Result r;
  r.exec_width = spec.exec_width;

  // ---- set-up: topology, cluster, enrolment and the shared CRDT -----
  HostProbe probe;
  const HostProbe::Mark setup_mark = probe.Begin();
  std::unique_ptr<sim::Topology> base;
  if (spec.clique) {
    auto t = std::make_unique<sim::ExplicitTopology>(spec.nodes);
    t->MakeClique();
    base = std::move(t);
  } else {
    sim::UnitDiskTopology::Params p;
    p.field_size = 500;
    p.radio_range = 400;
    // One fixed deployment: node positions do not depend on the seed,
    // so seeds vary the traffic, keys and radio randomness only.
    base = std::make_unique<sim::UnitDiskTopology>(spec.nodes, p,
                                                   kDeploymentSeed);
  }
  sim::PartitionedTopology topology(base.get());

  node::ClusterConfig cfg;
  cfg.node_count = spec.nodes;
  cfg.seed = opt.seed;
  cfg.node_template.recon.mode = spec.mode;
  cfg.link.drop_probability = spec.drop_probability;
  cfg.exec.threads = spec.exec_width;
  auto cluster = std::make_unique<node::Cluster>(cfg, &topology);
  Stepper stepper(&cluster->simulator(), rec);
  if (!cluster->node(0)
           .CreateCrdt(kCrdt, crdt::CrdtType::kGSet, crdt::ValueType::kStr,
                       csm::AclPolicy::AllowAll())
           .ok()) {
    r.Error("setup: owner could not create the CRDT");
  }
  const sim::TimeMs setup_deadline = 300'000;
  sim::Simulator& sim = cluster->simulator();
  while (!AllHoldCrdt(*cluster) && sim.now() < setup_deadline) {
    stepper.RunUntil(sim.now() + 1'000);
    probe.Tick();
  }
  if (!AllHoldCrdt(*cluster)) r.Error("setup: enrolment did not converge");
  r.Wall("setup_s", probe.End(setup_mark).ref_s);
  if (opt.setup_only || !r.errors.empty()) return r;

  // ---- timed phase --------------------------------------------------
  const telemetry::Snapshot before = CounterSnapshot(*cluster);
  const double energy_before = EnergyMj(*cluster);
  const std::uint64_t events_before = stepper.events();
  const std::size_t steps_before = stepper.step_us().size();
  std::int64_t monitor_ns = 0;
  const HostProbe::Mark run_mark = probe.Begin();

  const sim::TimeMs write_start = sim.now();
  const sim::TimeMs write_end =
      write_start + spec.round_ms * static_cast<sim::TimeMs>(spec.write_rounds);
  if (spec.partition_groups > 0) {
    topology.SplitEvenly(write_start, write_end, spec.partition_groups);
  }

  Rng values(opt.seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<Written> pending;
  std::vector<Written> done;
  std::vector<std::string> committed_values;
  std::vector<double> submit_us;
  std::uint64_t attempted = 0, not_committed = 0;

  // Moves blocks now held by every honest node from `pending` to
  // `done`. Skipped while partitioned: nothing can be everywhere then.
  auto check = [&] {
    if (spec.partition_groups > 0 && sim.now() < write_end) return;
    const std::int64_t t0 = NowNs();
    std::vector<Written> still;
    for (Written& w : pending) {
      std::vector<int> missing;
      for (const int i : w.missing) {
        if (!cluster->node(i).dag().Contains(w.hash)) missing.push_back(i);
      }
      w.missing = std::move(missing);
      if (w.missing.empty()) {
        w.everywhere_at = sim.now();
        done.push_back(w);
      } else {
        still.push_back(std::move(w));
      }
    }
    pending = std::move(still);
    monitor_ns += NowNs() - t0;
  };
  std::vector<double> slice_us;
  auto advance_to = [&](sim::TimeMs end) {
    while (sim.now() < end) {
      const std::int64_t t0 = NowNs();
      stepper.RunUntil(std::min(end, sim.now() + kSliceMs));
      slice_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      check();
      probe.Tick();
    }
  };

  for (int round = 0; round < spec.write_rounds; ++round) {
    for (int i = 0; i < spec.nodes; ++i) {
      const std::string v = OpValue(
          "r" + std::to_string(round) + "-n" + std::to_string(i), &values);
      ++attempted;
      const std::int64_t t0 = NowNs();
      const std::uint32_t span = rec->Begin("node.submit", attempted);
      auto h = cluster->node(i).AppendOp(kCrdt, "add", {crdt::Value::OfStr(v)});
      rec->End(span);
      submit_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      if (!h.ok()) {
        ++not_committed;
        continue;
      }
      committed_values.push_back(v);
      Written w;
      w.hash = *h;
      w.burst = spec.partition_groups > 0 ? 0 : round;
      w.written_at = sim.now();
      for (const int j : cluster->honest()) {
        if (j != i) w.missing.push_back(j);
      }
      pending.push_back(std::move(w));
    }
    advance_to(sim.now() + spec.round_ms);
  }
  // Settle: run until every written block is everywhere, or the
  // deadline passes.
  const sim::TimeMs deadline = write_end + spec.settle_deadline_ms;
  while (!pending.empty() && sim.now() < deadline) {
    advance_to(std::min(deadline, sim.now() + kSliceMs));
  }
  const HostProbe::PhaseTime run = probe.End(run_mark, monitor_ns);

  // ---- correctness gate -------------------------------------------
  const std::uint64_t missing_at_deadline = pending.size();
  if (!cluster->Converged()) r.Error("replica fingerprints differ at the end");
  for (const int i : cluster->honest()) {
    const auto* set =
        cluster->node(i).state().FindCrdtAs<crdt::GSet>(kCrdt);
    if (set == nullptr || set->Size() != committed_values.size()) {
      r.Error("node " + std::to_string(i) + " holds the wrong op count");
      continue;
    }
    for (const std::string& v : committed_values) {
      if (!set->Contains(crdt::Value::OfStr(v))) {
        r.Error("node " + std::to_string(i) + " is missing a committed op");
        break;
      }
    }
  }
  r.attempted = attempted;
  r.failed = not_committed + missing_at_deadline;

  // ---- metrics ------------------------------------------------------
  const telemetry::Snapshot diff = CounterSnapshot(*cluster).DiffSince(before);
  std::vector<double> propagation_ms;
  // Heal time of a burst: from the moment its blocks could first
  // spread to every node (its writes; the heal, when partitioned)
  // until the last of them is everywhere. Averaged over bursts.
  std::map<int, std::pair<sim::TimeMs, sim::TimeMs>> bursts;  // start, end
  for (const Written& w : done) {
    propagation_ms.push_back(
        static_cast<double>(w.everywhere_at - w.written_at));
    const sim::TimeMs start =
        spec.partition_groups > 0 ? write_end : w.written_at;
    auto [it, fresh] = bursts.try_emplace(w.burst, start, w.everywhere_at);
    if (!fresh) {
      it->second.second = std::max(it->second.second, w.everywhere_at);
    }
  }
  double heal_ms = 0;
  for (const auto& [burst, span] : bursts) {
    heal_ms += static_cast<double>(span.second - span.first);
  }
  if (!bursts.empty()) heal_ms /= static_cast<double>(bursts.size());
  const std::vector<double> steps(stepper.step_us().begin() +
                                      static_cast<std::ptrdiff_t>(steps_before),
                                  stepper.step_us().end());
  const double deliveries =
      static_cast<double>(CounterOf(diff, "node.blocks_accepted"));
  const double wire_bytes =
      static_cast<double>(CounterOf(diff, "net.bytes_sent"));

  AddRunTimes(run, &r);
  r.Wall("sim.slice_ms_p50", Percentile(slice_us, 0.50) / 1e3);
  r.Wall("sim.slice_ms_p99", Percentile(slice_us, 0.99) / 1e3);
  r.Wall("recon.session_ms_p50", 0);
  r.Wall("recon.session_ms_p99", 0);
  r.Det("propagation_sim_ms_p50", Percentile(propagation_ms, 0.50));
  r.Det("propagation_sim_ms_p95", Percentile(propagation_ms, 0.95));
  r.Det("heal_sim_s", heal_ms / 1e3);
  r.Det("wire_bytes_per_delivery",
        deliveries > 0 ? wire_bytes / deliveries : 0);
  r.Det("energy_mj_per_node",
        (EnergyMj(*cluster) - energy_before) / static_cast<double>(spec.nodes));

  r.Det("sim.events", static_cast<double>(stepper.events() - events_before));
  r.Wall("sim.busy_s", Sum(steps) / 1e6);
  r.Wall("sim.event_us_p50", Percentile(steps, 0.50));
  r.Wall("sim.event_us_p99", Percentile(steps, 0.99));
  r.Wall("sim.event_us_max", Percentile(steps, 1.0));
  for (const char* n : {"net.messages_sent", "net.bytes_sent",
                        "net.messages_dropped"}) {
    r.Det(n, static_cast<double>(CounterOf(diff, n)));
  }
  r.Wall("node.submit_us_p50", Percentile(submit_us, 0.5));
  r.Wall("node.submit_s", Sum(submit_us) / 1e6);
  AddRegistryMetrics(diff, &r);
  // The driver carries no session itself here: the message mix and
  // the session self time are deepsync's.
  for (const char* n :
       {"recon.msg.frontier_request.bytes", "recon.msg.frontier_response.bytes",
        "recon.msg.block_request.bytes", "recon.msg.block_response.bytes",
        "recon.msg.push_blocks.bytes", "recon.msg.diff_probe.bytes",
        "recon.msg.diff_sketch.bytes", "recon.msg.diff_result.bytes"}) {
    r.Det(n, 0);
  }
  r.Wall("recon.self_us_p50", 0);

  if (opt.trace) {
    ReplayInput in;
    const int probe = cluster->honest().front();
    in.dag = &cluster->node(probe).dag();
    in.membership = &cluster->node(probe).state().membership();
    in.counters = &diff;
    in.replay_offer = true;
    ReplayLayers(in, rec, &r);
  }
  return r;
}


}  // namespace perfbench
