"""The three benchmark workloads and the checks on their outputs.

Every operation is one ``reglab.cli.main`` call at a README configuration,
run in this process the way a command-line user runs it.  ``simulate`` is
followed by ``reglab.load_trajectory`` of the file it wrote, inside the
timed region.  After the timed region each operation's report is read back
and its science outputs are checked against the acceptance tolerances.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np

import reglab
import reglab.cli

# Flags of the README commands (see README.md, "Command line").
SIMULATE = ["--grid-n", "1024", "--domain-l", "4", "--dt", "2e-5", "--t-final", "0.02",
            "--amplitude", "16", "--support-radius", "2"]
DUHAMEL = ["--alpha", "0.5", "--dt", "2.5e-5", "--grid-n", "1024", "--domain-l", "4",
           "--t-final", "0.02", "--amplitude", "16", "--support-radius", "2"]

# Equation families of evolve: (label, theta, lambda_re, lambda_im).
FAMILIES = [
    ("heat", 0.0, 1.0, 0.0),
    ("cgl", math.pi / 4, 1.0, 0.0),
    ("nls", math.pi / 2, 0.0, 1.0),
]


class CheckFailed(Exception):
    """An operation ran but one of its outputs is wrong."""


@dataclass
class Op:
    """One CLI experiment of a workload."""

    label: str
    experiment: str
    flags: list
    reload: bool = False


def _family_flags(theta, lam_re, lam_im):
    return ["--theta", repr(theta), "--lambda-re", repr(lam_re), "--lambda-im", repr(lam_im)]


def build(workload: str, seed: int) -> list[Op]:
    """The operations of one workload repetition, in a seed-given order."""
    ops = []
    if workload == "duhamel":
        ops.append(Op("duhamel-rate a=0.5", "duhamel-rate", DUHAMEL))
    elif workload == "evolve":
        for name, theta, lam_re, lam_im in FAMILIES:
            for alpha in ("0.5", "1.5"):
                ops.append(Op(f"simulate {name} a={alpha}", "simulate",
                              ["--alpha", alpha, *SIMULATE,
                               *_family_flags(theta, lam_re, lam_im)], reload=True))
        for name, theta, lam_re, lam_im in FAMILIES[:2]:
            ops.append(Op(f"third-derivative-scan {name} a=0.5", "third-derivative-scan",
                          ["--alpha", "0.5", *_family_flags(theta, lam_re, lam_im)]))
    elif workload == "pointwise":
        ops.append(Op("ode-defect a=0.5", "ode-defect",
                      ["--alpha", "0.5", "--grid-n", "1024"]))
        for alpha in ("0.5", "1.0", "1.5"):
            ops.append(Op(f"scaling-report a={alpha}", "scaling-report",
                          ["--alpha", alpha, "--sobolev-s", "5.5", "--dimension-n", "16"]))
        # verify-kernel draws its 50 moment-recursion samples from --seed
        for k, alpha in enumerate(("0.5", "1.0", "1.5")):
            ops.append(Op(f"verify-kernel a={alpha}", "verify-kernel",
                          ["--alpha", alpha, "--seed", str(seed * 3 + k)]))
        ops.append(Op("inequality-suite seed=7", "inequality-suite", ["--seed", "7"]))
    else:
        raise ValueError(f"unknown workload '{workload}'")
    random.Random(seed).shuffle(ops)
    return ops


def run_op(op: Op, out_dir: str):
    """The timed part of an operation: the CLI call, and the reload for simulate.

    Returns (exit code, reloaded trajectory or None, captured console output).
    """
    console = io.StringIO()
    with contextlib.redirect_stdout(console), contextlib.redirect_stderr(console):
        code = reglab.cli.main(["--experiment", op.experiment, *op.flags,
                                "--out-dir", out_dir])
    loaded = None
    if op.reload and code == 0:
        # looked up at call time so that a traced run sees the wrapped function
        loaded = reglab.load_trajectory(os.path.join(out_dir, "trajectory.rglb"))
    return code, loaded, console.getvalue()


def _measured(report, name):
    for check in report["checks"]:
        if check["name"] == name:
            return float(check["measured"])
    raise CheckFailed(f"report has no check '{name}'")


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _norms_table(traj):
    """The norms table exactly as the simulate experiment computes it."""
    norms = np.sqrt(np.sum(np.abs(traj.values) ** 2, axis=tuple(range(1, traj.values.ndim)))
                    * traj.y_grid.spacing)
    return [[float(t), float(n), float(np.max(np.abs(v)))]
            for t, n, v in zip(traj.times, norms, traj.values)]


def check(op: Op, code: int, loaded, out_dir: str) -> dict:
    """Verify one operation's outputs; returns its science outputs.

    Raises CheckFailed on a nonzero exit code, a failed report check, or a
    science output outside the tolerance the acceptance suite pins.
    """
    _require(code == 0, f"exit code {code}")
    with open(os.path.join(out_dir, f"{op.experiment}.json")) as fh:
        report = json.load(fh)
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    _require(report["passed"] and not failed, f"report checks failed: {failed}")
    alpha = float(report["config"]["alpha"])
    sci = {}
    if op.experiment == "duhamel-rate":
        sci["law_exponent"] = _measured(report, "divergence_law_exponent")
        sci["raw_fit_slope"] = float(report["raw_fit_slope"])
        sci["increment_exponent"] = _measured(report, "scan_rate_consistency")
        sci["synthetic_max_rel_err"] = _measured(report, "synthetic_slice_closed_form_max_rel_err")
        _require(abs(sci["law_exponent"] + (2.0 - alpha) / 2.0) <= 0.1, "law exponent")
        _require(abs(sci["increment_exponent"] - alpha) <= 0.1, "increment exponent")
        _require(sci["synthetic_max_rel_err"] <= 1e-6, "synthetic slice error")
    elif op.experiment == "simulate":
        sci["l2_drift"] = float(report["l2_drift"])
        _require(report["blowup_time"] is None, "blow-up")
        _require(math.isfinite(sci["l2_drift"]), "l2_drift not finite")
        _require(loaded is not None and _norms_table(loaded) == report["tables"]["norms"]["rows"],
                 "reloaded trajectory does not reproduce the norms table")
    elif op.experiment == "third-derivative-scan":
        sci["increment_exponent"] = _measured(report, "third_derivative_increment_exponent")
        _require(abs(sci["increment_exponent"] - alpha) <= 0.1, "increment exponent")
    elif op.experiment == "ode-defect":
        sci["defect_exponent"] = _measured(report, "defect_exponent_unforced")
        sci["defect_exponent_forced"] = _measured(report, "defect_exponent_smooth_forcing")
        sci["control_exponent"] = _measured(report, "linear_control_exponent")
        _require(abs(sci["defect_exponent"] - alpha) <= 0.05, "defect exponent")
        _require(abs(sci["defect_exponent_forced"] - alpha) <= 0.05, "forced defect exponent")
        _require(sci["control_exponent"] >= 0.99, "control exponent")
    elif op.experiment == "verify-kernel":
        sci["max_rel_err"] = _measured(report, "fifth_derivative_closed_form_max_rel_err")
        _require(sci["max_rel_err"] <= 1e-8, "verify-kernel relative error")
    elif op.experiment == "scaling-report":
        sci["verdict"] = report["verdict"]
        sci["exponent"] = float(report["exponent"])
    elif op.experiment == "inequality-suite":
        for c in report["checks"]:
            sci[c["name"]] = float(c["measured"])
            _require(c["measured"] <= c["tolerance"], f"{c['name']} above its threshold")
    return sci
