"""reglab benchmark: run one workload through the public CLI path.

Run from the repository root:

    python3 perfbench/run.py --workload duhamel --seed 1 --seconds 10 --trace 0

Workloads (see perfbench/NOTES.md for why each was chosen):

    duhamel    duhamel-rate at its README config
    evolve     simulate for heat, CGL and NLS at alpha 0.5 and 1.5, each
               followed by a reload of its trajectory, plus two
               third-derivative scans
    pointwise  ode-defect, scaling-report x3, verify-kernel x3, inequality-suite

One repetition runs every operation of the workload once, one after another
in this process.  Repetitions continue until ``--seconds`` have passed, and
at least one always runs (a duhamel repetition takes longer than that).

``--trace 0`` prints the end-to-end metrics: the median repetition time
``wall_s``, the set-up time ``setup_s`` (median of seven fresh interpreters
that import reglab), and the peak resident memory ``peak_rss_mb``.
``--trace 1`` traces every repetition with the wrappers of
perfbench/tracing.py and prints the per-layer metrics of
perfbench/metrics.py, medians over the repetitions; its spans go to
.perfbench_work/.

Human-readable lines come first; the last line of standard output is the
result object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is nonzero, with no result printed, when reglab's sources are missing.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("duhamel", "evolve", "pointwise")
SETUP_PROBES = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "REGLAB_THREADS")


def _import_reglab():
    """Import reglab from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "reglab", "__init__.py")):
        sys.exit(f"perfbench: no reglab sources under {SRC}")
    sys.path.insert(0, SRC)
    import reglab

    if os.path.dirname(os.path.dirname(os.path.abspath(reglab.__file__))) != SRC:
        sys.exit(f"perfbench: imported reglab from {reglab.__file__}, not {SRC}")


def measure_setup(probes: int) -> list[float]:
    """Seconds from starting a fresh interpreter to reglab being ready to call.

    Each probe is a new ``python3`` that imports reglab.cli (and so numpy)
    the way the CLI does and reports readiness on a pipe; probes run one
    after another before the workload starts, and each is waited for.
    """
    code = (f"import sys; sys.path.insert(0, {SRC!r}); import reglab.cli; "
            "sys.stdout.write('ready\\n'); sys.stdout.flush()")
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line != "ready\n":
            sys.exit(f"perfbench: set-up probe failed with exit code {proc.returncode}")
    return times


def openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": openblas_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "platform": platform.platform(),
    }


def run_repetition(ops, rep, run_dir, tracer=None):
    """Run every operation once; returns (elapsed seconds, failures, science)."""
    from workloads import CheckFailed, check, run_op

    rep_dir = os.path.join(run_dir, str(rep))
    elapsed = 0.0
    failures = []
    science = []
    for i, op in enumerate(ops):
        out_dir = os.path.join(rep_dir, f"op{i}")
        if tracer is not None:
            tracer.op = f"{rep}.{i}"
        code, loaded, console = None, None, ""
        t0 = time.perf_counter()
        try:
            code, loaded, console = run_op(op, out_dir)
        except (Exception, SystemExit):  # argparse exits; errors the CLI lets escape
            console = traceback.format_exc()
        elapsed += time.perf_counter() - t0
        try:
            if code is None:
                raise CheckFailed("raised an exception")
            science.append({"op": op.label, **check(op, code, loaded, out_dir)})
        except (CheckFailed, OSError, KeyError, ValueError) as err:
            failures.append(f"{op.label}: {err}")
            sys.stderr.write(f"perfbench: FAILED {op.label}: {err}\n{console}\n")
        del loaded
    shutil.rmtree(rep_dir, ignore_errors=True)
    return elapsed, failures, science


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.dont_write_bytecode = True  # keep perfbench/ free of build products
    _import_reglab()
    import metrics as declared
    import workloads

    env = environment()
    env["loadavg_before"] = list(os.getloadavg())
    setup = [] if args.trace else measure_setup(SETUP_PROBES)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()

    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    ops = workloads.build(args.workload, args.seed)
    walls, per_rep = [], []
    failures, science = [], []
    started = time.perf_counter()
    if tracer is not None:
        tracer.install()
    try:
        while not walls or time.perf_counter() - started < args.seconds:
            first = len(tracer.spans) if tracer else 0
            elapsed, fails, sci = run_repetition(ops, len(walls), run_dir, tracer)
            walls.append(elapsed)
            failures += fails
            science += sci
            if tracer is not None:
                per_rep.append(tracing.layer_metrics(tracer.spans[first:]))
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(run_dir, ignore_errors=True)
    attempted = len(ops) * len(walls)
    env["loadavg_after"] = list(os.getloadavg())

    if tracer is None:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        names = declared.END_TO_END
    else:
        values = {name: statistics.median(r[name] for r in per_rep) for name in per_rep[0]}
        names = declared.PER_LAYER
    metrics = {name: {"value": values[name], "unit": names[name].unit} for name in names}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "ops": [op.label for op in ops],
        "wall_s_samples": walls, "setup_s_samples": setup,
        "per_layer_samples": per_rep, "failures": failures, "science": science,
        "metrics": metrics,
    }
    os.makedirs(WORK, exist_ok=True)
    stem = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.write(stem + ".spans.tsv.gz")

    print("env " + json.dumps(env))
    for row in _science_summary(science):
        print("science " + json.dumps(row))
    q = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
    print(f"{'traced ' if tracer else ''}wall_s median={statistics.median(walls):.4f} s "
          f"n={len(walls)} q1={q[0]:.4f} q3={q[2]:.4f}")
    print(f"fail_frac {len(failures) / attempted:.4f} ({len(failures)}/{attempted} operations)")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def _science_summary(science):
    """One row per operation label: its science outputs from the first repetition."""
    seen = {}
    for row in science:
        seen.setdefault(row["op"], row)
    return list(seen.values())


if __name__ == "__main__":
    sys.exit(main())
