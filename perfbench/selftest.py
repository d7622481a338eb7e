#!/usr/bin/env python3
"""Self-test of the benchmark driver at a tiny size.

    python3 perfbench/selftest.py

For every workload it runs the driver at --tiny size: twice at exec
width 1, once at width 2, once traced and once with another seed. All
deterministic metrics must be bit-identical across the first four, and
the other seed must change them. It also checks that every run passes
the correctness gate, that the traced run reports every per-layer
metric, and that BENCHMARK.json lists exactly the metrics run.py
prints. Exits non-zero on the first failure.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def deterministic(result):
    return {n: result["metrics"][n] for n in result["deterministic"]}


def check_benchmark_json(failures):
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return
    with open(path) as f:
        spec = json.load(f)
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from run.py")
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        listed = [(m["name"], m["unit"]) for m in spec[key]]
        if listed != table:
            failures.append("BENCHMARK.json %s differs from run.py" % key)


def main():
    driver = run.build()
    if driver is None:
        return 1
    failures = []
    check_benchmark_json(failures)
    for w in run.WORKLOADS:
        before = len(failures)
        a = run.run_driver(driver, w, 1, tiny=True, exec_width=1)
        b = run.run_driver(driver, w, 1, tiny=True, exec_width=1)
        c = run.run_driver(driver, w, 1, tiny=True, exec_width=2)
        t = run.run_driver(driver, w, 1, tiny=True, trace=True)
        other = run.run_driver(driver, w, 2, tiny=True, exec_width=1)
        for label, r in (("repeat", b), ("width 2", c), ("traced", t)):
            diff = run.deterministic_mismatches(a, r)
            if diff:
                failures.append("%s: %s changed %s" % (w, label, diff))
        if deterministic(other) == deterministic(a):
            failures.append("%s: another seed changed no metric" % w)
        for label, r in (("seed 1", a), ("width 2", c), ("traced", t),
                         ("seed 2", other)):
            if r["errors"] or r["failed"]:
                failures.append("%s %s: %d failed, errors %s" %
                                (w, label, r["failed"], r["errors"]))
        missing = [n for n, _ in run.END_TO_END
                   if n != "setup_s" and n not in a["metrics"]]
        missing += [n for n, _ in run.PER_LAYER
                    if n not in t["metrics"] and n not in (
                        "layers.coverage", "trace.overhead_ratio",
                        "failed_ratio")]
        if missing:
            failures.append("%s: metrics not reported: %s" % (w, missing))
        print("%-9s %s: %d deterministic metrics" %
              (w, "ok" if len(failures) == before else "FAILED",
               len(a["deterministic"])))
    for f in failures:
        print("FAIL " + f)
    print("selftest: %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
