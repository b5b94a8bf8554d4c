"""Self-test of the benchmark itself.

Run from the repository root:

    python3 perfbench/selftest.py                 # evolve and pointwise, about 1 min
    python3 perfbench/selftest.py --workload duhamel --seed-counts   # about 3 min

It checks that

- every metric name matches ``[A-Za-z0-9_.-]+`` and is declared in
  BENCHMARK.json with the unit and direction of perfbench/metrics.py, and
  every per-layer metric names the end-to-end metric and workloads it feeds;
- a ``--trace 0`` run emits exactly the end-to-end metrics and a
  ``--trace 1`` run exactly the per-layer metrics, with those units;
- two traced runs give identical counts and byte counts (except the
  report bytes, whose `timing` block holds wall-clock digits);
- no call path goes unwrapped: with the tracer installed, a profile hook
  counts every call of each wrapped function's code object, and the counts
  must equal the wrapper's span counts;
- with ``--seed-counts``, the duhamel counts equal those measured on the
  seed code (they change when a later change batches or removes calls).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9_.-]+")
# duhamel-rate at its README config, counted on the seed code
SEED_COUNTS = {
    "grids.interp_calls": 93460,
    "kernels.d5_calls": 2493,
    "numerics.quad_panels": 86244,
    "diagnostics.slice_panels": 85996,
    "ode.exact_flow_calls": 1600,
}


def check_declarations(failures):
    import metrics

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared_e2e = {m["name"]: m for m in bench["end_to_end"]}
    declared_layer = {m["name"]: m for m in bench["per_layer"]}
    for table, declared in ((metrics.END_TO_END, declared_e2e),
                            (metrics.PER_LAYER, declared_layer)):
        if set(table) != set(declared):
            failures.append(f"BENCHMARK.json names differ: {set(table) ^ set(declared)}")
        for name, m in table.items():
            if not NAME.fullmatch(name):
                failures.append(f"bad metric name {name!r}")
            d = declared.get(name, {})
            if (d.get("unit"), d.get("better")) != (m.unit, m.better):
                failures.append(f"{name}: BENCHMARK.json says {d}, metrics.py {m}")
            if m.bound is not None and d.get("bound") != m.bound:
                failures.append(f"{name}: bound {d.get('bound')} != {m.bound}")
    for name, m in metrics.PER_LAYER.items():
        known = set(metrics.END_TO_END) | {"fail_frac"}
        if not m.feeds or not set(m.feeds) <= known:
            failures.append(f"{name}: feeds {m.feeds} not among {sorted(known)}")
        if not m.workloads or not set(m.workloads) <= set(metrics.ALL):
            failures.append(f"{name}: workloads {m.workloads}")
    workloads = {w["name"] for w in bench["workloads"]}
    if workloads != set(metrics.ALL):
        failures.append(f"BENCHMARK.json workloads {workloads} != {metrics.ALL}")


def run_bench(workload, seed, trace, seconds=1):
    """One benchmark run as the command line gives it; returns the result object."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_runs(workload, failures, seed_counts):
    import metrics

    plain = run_bench(workload, 1, 0)
    first = run_bench(workload, 1, 1)
    second = run_bench(workload, 1, 1)
    for result, table in ((plain, metrics.END_TO_END), (first, metrics.PER_LAYER)):
        if not result["correct"] or result["failed"]:
            failures.append(f"{workload}: {result['failed']} operations failed")
        emitted = result["metrics"]
        if set(emitted) != set(table):
            failures.append(f"{workload}: emitted names differ: {set(emitted) ^ set(table)}")
        for name, m in emitted.items():
            if name in table and m["unit"] != table[name].unit:
                failures.append(f"{workload}: {name} emitted in {m['unit']}")
    for name, m in metrics.PER_LAYER.items():
        # a report's byte count includes the wall-clock digits of its timing block
        if m.unit in ("count", "B") and name != "trajio.report_bytes":
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                failures.append(f"{workload}: {name} differs between traced runs: {a} vs {b}")
    if seed_counts:
        for name, want in SEED_COUNTS.items():
            got = first["metrics"][name]["value"]
            if got != want:
                failures.append(f"{workload}: {name} = {got}, seed code gave {want}")
    return first


def check_coverage(workload, failures):
    """Wrapper span counts equal profiled call counts of the wrapped code."""
    import tracing
    import workloads

    tracer = tracing.Tracer()
    codes = {fn.__code__: name for name, fn in tracer.funcs.items()}
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls[codes[frame.f_code]] += 1

    tracer.install()
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            for i, op in enumerate(workloads.build(workload, 1)):
                code, _, console = workloads.run_op(op, os.path.join(tmp, str(i)))
                if code != 0:
                    failures.append(f"{workload}: {op.label} exited {code}: {console}")
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        tracer.uninstall()
    spans = Counter(s[3] for s in tracer.spans)
    for name in codes.values():
        if spans[name] != calls[name]:
            failures.append(f"{workload}: {name} called {calls[name]} times, "
                            f"{spans[name]} through the wrapper")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Self-test of the reglab benchmark.")
    parser.add_argument("--workload", action="append", choices=("duhamel", "evolve", "pointwise"))
    parser.add_argument("--seed-counts", action="store_true",
                        help="also require the duhamel counts of the seed code")
    args = parser.parse_args(argv)
    chosen = args.workload or ["evolve", "pointwise"]

    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.join(ROOT, "src"))
    failures = []
    check_declarations(failures)
    for workload in chosen:
        check_runs(workload, failures, args.seed_counts and workload == "duhamel")
        if workload != "duhamel":  # profiling every call would take several minutes
            check_coverage(workload, failures)
        print(f"selftest: {workload} done", flush=True)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
