#!/usr/bin/env python3
"""The repository benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload steady|catchup|deepsync \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first call builds perfbench_driver
from source (CMake, RelWithDebInfo) into $CARGO_TARGET_DIR, default
.bench_build; later calls reuse that build.

--trace 0 repeats the workload with the same seed, about --seconds
worth of repeats (see NOMINAL_REPEAT_S), and reports the end-to-end
metrics: medians over the repeats for times, and deterministic values
that must be identical in every repeat. The two bounded times,
setup_s and run_ref_s, are wall times rescaled by the host speed the
driver measured while the phase ran (HostProbe in perfbench/bench.h). --trace 1 runs the
workload once untraced and once traced (spans kept in memory, written
to the work directory when the run ends, then a layer replay) and
reports the per-layer metrics.

The last line of standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The process exits non-zero when an output was wrong or the build failed.
See perfbench/README.md for what each workload and metric means.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("steady", "catchup", "deepsync")

# A seed no tuning run used. Confirm a claimed gain on it as well.
HELDOUT_SEED = 7_340_033

# About the wall seconds one repeat of each workload takes (set-up and
# correctness gate included) on a busy 4-core x86-64 VM. An end-to-end
# run makes round(--seconds / this) repeats, at least MIN_REPEATS, so
# every run of a workload does the same work.
NOMINAL_REPEAT_S = {"steady": 12, "catchup": 18, "deepsync": 11}
# At least two repeats, so every run compares deterministic metrics
# across repeats and reports medians of two or more times.
MIN_REPEATS = 2
# Set-up is repeated at least this often per end-to-end run, so setup_s
# is always a median.
MIN_SETUPS = 3
# No single driver call may run longer than this.
DRIVER_TIMEOUT_S = 170

END_TO_END = [
    ("setup_s", "s"),
    ("run_ref_s", "s"),
    ("propagation_sim_ms_p50", "ms"),
    ("propagation_sim_ms_p95", "ms"),
    ("heal_sim_s", "s"),
    ("wire_bytes_per_delivery", "B"),
    ("energy_mj_per_node", "mJ"),
    ("peak_rss_mb", "MB"),
]
# Measured end-to-end metrics: medians over repeats. The rest are
# deterministic for a seed and must repeat exactly.
WALL_E2E = {"setup_s", "run_ref_s", "peak_rss_mb"}

_MSG_TYPES = ("frontier_request", "frontier_response", "block_request",
              "block_response", "push_blocks", "diff_probe", "diff_sketch",
              "diff_result")

PER_LAYER = [
    # the untraced timed phase, raw, and the host speed it ran at
    ("run.wall_s", "s"), ("host.pass_us", "us"),
    # sim
    ("sim.events", "count"), ("sim.busy_s", "s"),
    ("sim.event_us_p50", "us"), ("sim.event_us_p99", "us"),
    ("sim.event_us_max", "us"),
    ("sim.slice_ms_p50", "ms"), ("sim.slice_ms_p99", "ms"),
    ("net.messages_sent", "count"), ("net.bytes_sent", "B"),
    ("net.messages_dropped", "count"),
    # node
    ("node.submit_us_p50", "us"), ("node.submit_s", "s"),
    ("node.offer_block_us_p50", "us"), ("node.offer_s", "s"),
    ("node.blocks_accepted", "count"), ("node.blocks_quarantined", "count"),
    ("node.blocks_rejected", "count"),
    # gossip
    ("gossip.ticks", "count"), ("gossip.sessions_timed_out", "count"),
    ("gossip.retries", "count"), ("gossip.backoffs", "count"),
    # recon
    ("recon.sessions_started", "count"), ("recon.sessions_completed", "count"),
    ("recon.sessions_failed", "count"), ("recon.level_cap_hit", "count"),
    ("recon.session_ms_p50", "ms"), ("recon.session_ms_p99", "ms"),
    ("recon.rounds_per_session", "ratio"), ("recon.useful_ratio", "ratio"),
] + [("recon.msg.%s.bytes" % t, "B") for t in _MSG_TYPES] + [
    ("recon.self_us_p50", "us"), ("recon.responder.sessions_orphaned", "count"),
    # setdiff
    ("setdiff.probes", "count"), ("setdiff.decode_success", "count"),
    ("setdiff.decode_failure", "count"), ("setdiff.fallbacks", "count"),
    ("setdiff.escalations", "count"), ("setdiff.sketch_bytes", "B"),
    ("setdiff.decode_ratio", "ratio"),
    ("setdiff.digest_build_us", "us"), ("setdiff.iblt_build_us", "us"),
    ("setdiff.digest_est_s", "s"), ("setdiff.iblt_est_s", "s"),
    # chain
    ("chain.topo_order_us", "us"), ("chain.dag_insert_us", "us"),
    ("chain.topo_est_s", "s"), ("chain.insert_est_s", "s"),
    # crypto
    ("crypto.verify_us", "us"), ("crypto.sign_us", "us"),
    ("crypto.verify_est_s", "s"), ("crypto.sign_est_s", "s"),
    # serial
    ("serial.block_decode_us", "us"), ("serial.decode_est_s", "s"),
    # csm
    ("csm.apply_us", "us"), ("csm.applied_txns", "count"),
    ("csm.rejected_txns", "count"), ("csm.apply_est_s", "s"),
    # exec
    ("exec.batches", "count"), ("exec.batch_size_mean", "count"),
    ("exec.presig_hit_ratio", "ratio"), ("exec.steals", "count"),
    ("exec.tasks_executed", "count"),
    # storage
    ("storage.appends", "count"), ("storage.fsyncs", "count"),
    ("storage.bytes_appended", "B"), ("storage.append_failures", "count"),
    ("storage.append_us", "us"), ("storage.est_s", "s"),
    # summary
    ("layers.est_s", "s"), ("layers.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"), ("failed_ratio", "ratio"),
]


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build():
    """Configures and builds the driver; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources (src/) are missing; cannot build")
        return None
    build_dir = os.path.join(target_dir(), "perfbench-cmake")
    os.makedirs(build_dir, exist_ok=True)
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.isfile(
            os.path.join(build_dir, "Makefile")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [configure,
             ["cmake", "--build", build_dir, "--target", "perfbench_driver",
              "-j", jobs]]
    with open(os.path.join(build_dir, "perfbench-build.log"), "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log("build failed; see " + out.name)
                return None
    return os.path.join(build_dir, "perfbench_driver")


def run_driver(driver, workload, seed, trace=False, setup_only=False,
               tiny=False, exec_width=0):
    cmd = [driver, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0",
           "--work-dir", os.path.join(target_dir(), "perfbench-work")]
    if setup_only:
        cmd.append("--setup-only")
    if tiny:
        cmd.append("--tiny")
    if exec_width:
        cmd += ["--exec-width", str(exec_width)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=DRIVER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("driver printed nothing (exit %d)" % proc.returncode)
    result = json.loads(lines[-1])
    for err in result["errors"]:
        log("wrong output: " + err)
    return result


def deterministic_mismatches(a, b):
    """Names of deterministic metrics whose values differ between runs."""
    names = set(a["deterministic"]) | set(b["deterministic"])
    return sorted(n for n in names
                  if a["metrics"].get(n) != b["metrics"].get(n))


def fs_type(path):
    """Filesystem type of `path` (statfs via coreutils `stat -f`)."""
    try:
        out = subprocess.run(["stat", "-f", "-c", "%T", path],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        # The ceiling keeps git from searching the checkout's parents.
        env = dict(os.environ,
                   GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none (not a git checkout)"


def stamp(first, seed):
    work = os.path.join(target_dir(), "perfbench-work")
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "compiler": first["compiler"],
        "build_type": first["build_type"],
        "nproc": os.cpu_count(),
        "exec_width": first["exec_width"],
        "seed": seed,
        "heldout_seed": HELDOUT_SEED,
        "storage_fs": fs_type(work),
        "trace_file": first.get("trace_file", ""),
    }


def end_to_end(driver, workload, seed, seconds):
    repeats = max(MIN_REPEATS, round(seconds / NOMINAL_REPEAT_S[workload]))
    runs = [run_driver(driver, workload, seed) for _ in range(repeats)]
    setups = [r["metrics"]["setup_s"] for r in runs]
    while len(setups) < MIN_SETUPS:
        setups.append(run_driver(driver, workload, seed, setup_only=True)
                      ["metrics"]["setup_s"])
    ok = all(not r["errors"] for r in runs)
    for r in runs[1:]:
        diff = deterministic_mismatches(runs[0], r)
        if diff:
            log("deterministic metrics changed between repeats: " +
                ", ".join(diff))
            ok = False
    metrics = {}
    for name, _ in END_TO_END:
        if name == "setup_s":
            metrics[name] = statistics.median(setups)
        elif name in WALL_E2E:
            metrics[name] = statistics.median(r["metrics"][name] for r in runs)
        else:
            metrics[name] = runs[0]["metrics"][name]
    log("%d repeat(s), %d set-up(s)" % (len(runs), len(setups)))
    return runs, metrics, ok


def per_layer(driver, workload, seed):
    base = run_driver(driver, workload, seed)
    traced = run_driver(driver, workload, seed, trace=True)
    ok = not base["errors"] and not traced["errors"]
    diff = deterministic_mismatches(base, traced)
    if diff:
        log("tracing changed deterministic metrics: " + ", ".join(diff))
        ok = False
    m = dict(traced["metrics"])
    for name in ("run.wall_s", "host.pass_us"):
        m[name] = base["metrics"][name]
    # Both runs' times at the reference host speed, so the host's drift
    # between them does not read as tracing cost.
    m["trace.overhead_ratio"] = (traced["metrics"]["run_ref_s"] /
                                 base["metrics"]["run_ref_s"] - 1.0)
    m["layers.coverage"] = m["layers.est_s"] / base["metrics"]["run.wall_s"]
    attempted = traced["attempted"]
    m["failed_ratio"] = traced["failed"] / attempted if attempted else 0.0
    metrics = {name: m.get(name) for name, _ in PER_LAYER}
    return [traced, base], metrics, ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    driver = build()
    if driver is None:
        return 1
    try:
        if args.trace:
            runs, metrics, ok = per_layer(driver, args.workload, args.seed)
            units = PER_LAYER
        else:
            runs, metrics, ok = end_to_end(driver, args.workload, args.seed,
                                           args.seconds)
            units = END_TO_END
    except (RuntimeError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log("driver failed: %s" % e)
        return 1

    for name, _ in units:
        if metrics.get(name) is None and name != "exec.batch_size_mean":
            log("metric %s is missing" % name)
            ok = False
    print(json.dumps({"stamp": stamp(runs[0], args.seed)}))
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {name: {"value": metrics.get(name), "unit": unit}
                    for name, unit in units},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
