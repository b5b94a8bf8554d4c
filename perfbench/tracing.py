"""Spans around the public functions of every reglab module, from outside.

``Tracer.install`` replaces each public function of the layer modules by a
wrapper at every name it is bound to: ``from .x import f`` binds a separate
name in the importing module, and ``cli._RUNNERS`` holds the experiment
functions in a dict, so each binding is patched on its own.  Methods are
wrapped on their class, which every caller shares.  One Tracer per process.

A span is ``(id, parent id, "repetition.operation", name, start, end, ok,
detail, overhead)``, where overhead is the wrapper's own time outside the
wrapped call; spans stay in memory and are written out when the run ends.
``layer_metrics`` turns the spans of one workload repetition into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np

import reglab
import reglab.cli
import reglab.diagnostics
import reglab.evolution
import reglab.grids
import reglab.kernels
import reglab.numerics
import reglab.ode
import reglab.trajio

LAYERS = ("cli", "diagnostics", "kernels", "numerics", "grids", "evolution", "ode", "trajio")
METHODS = (
    (reglab.grids.TrigInterpolant, "__init__"),
    (reglab.grids.TrigInterpolant, "__call__"),
    (reglab.kernels.KernelProbe, "__post_init__"),
)


def public_functions():
    """{qualified name: function} for the public functions and wrapped methods."""
    out = {}
    for layer in LAYERS:
        module = sys.modules[f"reglab.{layer}"]
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == module.__name__):
                out[f"{layer}.{name}"] = obj
    for cls, attr in METHODS:
        layer = cls.__module__.rsplit(".", 1)[1]
        out[f"{layer}.{cls.__name__}.{attr}"] = vars(cls)[attr]
    return out


def _file_bytes(*paths):
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def _bind(fn):
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments


def _hooks(funcs):
    """Per-function details recorded with the span.

    A hook takes (args, kwargs) and returns (args, kwargs, done); ``done``
    maps the call's result to the span's detail tuple.
    """
    solve_args = _bind(funcs["evolution.solve"])
    save_args = _bind(funcs["trajio.save_trajectory"])
    load_args = _bind(funcs["trajio.load_trajectory"])
    report_args = _bind(funcs["trajio.write_report"])

    def interp_call(args, kwargs):
        modes = args[0].grid.n_points
        return args, kwargs, lambda r: (int(np.size(r)), modes)

    def quadrature(args, kwargs):
        panels = [0]
        integrand = args[0]

        def counted(x):
            panels[0] += 1
            return integrand(x)

        return (counted, *args[1:]), kwargs, lambda r: (panels[0],)

    def solve(args, kwargs):
        a = solve_args(args, kwargs)
        steps = int(round(a["T"] / a["dt"]))
        return args, kwargs, lambda r: (steps, len(r.times))

    def integrate(args, kwargs):
        return args, kwargs, lambda r: (len(r.times) - 1,)

    def save(args, kwargs):
        path = os.fspath(save_args(args, kwargs)["path"])
        return args, kwargs, lambda r: (_file_bytes(path, path + ".json"),)

    def load(args, kwargs):
        path = os.fspath(load_args(args, kwargs)["path"])
        return args, kwargs, lambda r: (_file_bytes(path),)

    def report(args, kwargs):
        a = report_args(args, kwargs)
        tables = a["report"].get("tables", {})

        def done(json_path):
            stem = json_path[: -len(".json")]
            return (_file_bytes(json_path, *(f"{stem}.{t}.csv" for t in tables)),)

        return args, kwargs, done

    def experiment(args, kwargs):
        name = args[0].experiment
        return args, kwargs, lambda r: (name,)

    return {
        "grids.TrigInterpolant.__call__": interp_call,
        "numerics.adaptive_quadrature": quadrature,
        "evolution.solve": solve,
        "ode.integrate_perturbed": integrate,
        "trajio.save_trajectory": save,
        "trajio.load_trajectory": load,
        "trajio.write_report": report,
        "cli.run": experiment,
    }


class Tracer:
    """Installs and removes the wrappers; collects spans while installed."""

    def __init__(self):
        self.spans = []
        self.op = ""
        self.funcs = public_functions()
        self._hooks = _hooks(self.funcs)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._wrappers = {fn: self._wrap(name, fn) for name, fn in self.funcs.items()}
        self._patches = []  # (owner, key, original)

    def _wrap(self, name, fn):
        spans, local, ids, clock = self.spans, self._local, self._ids, time.perf_counter
        hook = self._hooks.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = clock()
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = [0]
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            done = None
            if hook is not None:
                args, kwargs, done = hook(args, kwargs)
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = clock()
                stack.pop()
                detail = done(result) if ok and done is not None else None
                spans.append((sid, parent, tracer.op, name, t0, t1, ok, detail,
                              t0 - t_in + clock() - t1))

        return wrapper

    def _namespaces(self):
        """(owner, mapping) for every place reglab binds a function.

        Module namespaces and their module-level dicts are patched by item;
        the classes of METHODS by setattr.
        """
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "reglab" and not mod_name.startswith("reglab."):
                continue
            ns = vars(module)
            yield ns, ns
            for key, value in list(ns.items()):
                if isinstance(value, dict) and not key.startswith("__"):
                    yield value, value
        for cls, _ in METHODS:
            yield cls, cls.__dict__

    def install(self):
        if not self._patches:
            self._patches = [(owner, key, value)
                             for owner, mapping in self._namespaces()
                             for key, value in list(mapping.items())
                             if inspect.isfunction(value) and value in self._wrappers]
            for owner, key, value in self._patches:
                _assign(owner, key, self._wrappers[value])

    def uninstall(self):
        for owner, key, value in reversed(self._patches):
            _assign(owner, key, value)
        self._patches = []

    def write(self, path):
        """Write the spans as gzip'd tab-separated lines."""
        with gzip.open(path, "wt") as fh:
            fh.write("id\tparent\top\tname\tstart_s\tend_s\tok\tdetail\toverhead_s\n")
            for sid, parent, op, name, t0, t1, ok, detail, over in self.spans:
                d = "" if detail is None else ",".join(str(x) for x in detail)
                fh.write(f"{sid}\t{parent}\t{op}\t{name}\t{t0!r}\t{t1!r}\t{int(ok)}\t{d}"
                         f"\t{over!r}\n")


def _assign(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


# ---------------------------------------------------------------------------
# Per-layer metrics


def layer_metrics(spans) -> dict:
    """Per-layer counts and busy times of one workload repetition's spans.

    Busy time is the sum of span durations; ``_self_s`` subtracts the time
    covered by the span's wrapped children, their wrappers included.
    ``trace.overhead_s`` is the summed time spent in the wrappers themselves.
    """
    by_name = defaultdict(list)
    child_time = defaultdict(float)
    name_of, parent_of = {}, {}
    for span in spans:
        sid, parent, _, name, t0, t1, _, _, over = span
        by_name[name].append(span)
        child_time[parent] += t1 - t0 + over
        name_of[sid] = name
        parent_of[sid] = parent

    def count(name):
        return len(by_name[name])

    def busy(name):
        return sum(s[5] - s[4] for s in by_name[name])

    def self_time(name):
        return sum(s[5] - s[4] - child_time[s[0]] for s in by_name[name])

    def detail_sum(name, i=0):
        return sum(s[7][i] for s in by_name[name] if s[7] is not None)

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    interp = "grids.TrigInterpolant.__call__"
    quad = "numerics.adaptive_quadrature"
    d5 = "kernels.fifth_derivative_at_zero"
    rate = "diagnostics.duhamel_fifth_derivative_rate"
    m = {}
    m["grids.interp_calls"] = count(interp)
    m["grids.interp_points"] = detail_sum(interp)
    m["grids.interp_s"] = busy(interp)
    m["grids.interp_us_per_call"] = per(m["grids.interp_s"], m["grids.interp_calls"], 1e6)
    m["grids.interp_basis_bytes"] = sum(16 * s[7][0] * s[7][1] for s in by_name[interp] if s[7])
    m["grids.interp_builds"] = count("grids.TrigInterpolant.__init__")
    m["grids.interp_build_s"] = busy("grids.TrigInterpolant.__init__")
    m["grids.spectral_derivative_calls"] = count("grids.spectral_derivative")
    m["grids.spectral_derivative_s"] = busy("grids.spectral_derivative")

    m["numerics.quad_calls"] = count(quad)
    m["numerics.quad_panels"] = detail_sum(quad)
    m["numerics.quad_self_s"] = self_time(quad)
    m["numerics.quad_self_us_per_panel"] = per(m["numerics.quad_self_s"],
                                               m["numerics.quad_panels"], 1e6)
    m["numerics.quad_failures"] = sum(1 for s in by_name[quad] if not s[6])

    m["kernels.d5_calls"] = count(d5)
    m["kernels.d5_s"] = busy(d5)
    m["kernels.d5_ms_per_call"] = per(m["kernels.d5_s"], m["kernels.d5_calls"], 1e3)
    m["kernels.probe_checks"] = count("kernels.KernelProbe.__post_init__")
    m["kernels.probe_check_s"] = busy("kernels.KernelProbe.__post_init__")

    m["diagnostics.rate_s"] = busy(rate)
    m["diagnostics.rate_self_s"] = self_time(rate)
    m["diagnostics.slices"] = sum(1 for s in by_name[d5] if name_of.get(s[1]) == rate)
    m["diagnostics.slice_panels"] = sum(
        s[7][0] for s in by_name[quad]
        if s[7] is not None and name_of.get(parent_of.get(s[1])) == rate)
    m["diagnostics.scan_calls"] = count("diagnostics.third_derivative_holder_scan")
    m["diagnostics.scan_s"] = busy("diagnostics.third_derivative_holder_scan")
    m["diagnostics.scaling_transform_s"] = busy("diagnostics.scaling_transform")
    m["diagnostics.inequality_s"] = busy("diagnostics.appendix_inequality_checks")

    m["evolution.solve_calls"] = count("evolution.solve")
    m["evolution.solve_s"] = busy("evolution.solve")
    m["evolution.solve_self_s"] = self_time("evolution.solve")
    m["evolution.steps"] = detail_sum("evolution.solve", 0)
    m["evolution.step_us"] = per(m["evolution.solve_s"], m["evolution.steps"], 1e6)
    m["evolution.snapshots"] = detail_sum("evolution.solve", 1)
    m["evolution.eta_track_s"] = busy("evolution.eta_track")

    m["ode.exact_flow_calls"] = count("ode.exact_flow")
    m["ode.exact_flow_s"] = busy("ode.exact_flow")
    m["ode.integrate_calls"] = count("ode.integrate_perturbed")
    m["ode.integrate_s"] = busy("ode.integrate_perturbed")
    m["ode.rk4_steps"] = detail_sum("ode.integrate_perturbed")
    m["ode.rk4_step_us"] = per(m["ode.integrate_s"], m["ode.rk4_steps"], 1e6)
    m["ode.holder_defect_s"] = busy("ode.holder_defect")

    m["trajio.save_calls"] = count("trajio.save_trajectory")
    m["trajio.save_s"] = busy("trajio.save_trajectory")
    m["trajio.bytes_written"] = detail_sum("trajio.save_trajectory")
    m["trajio.load_calls"] = count("trajio.load_trajectory")
    m["trajio.load_s"] = busy("trajio.load_trajectory")
    m["trajio.bytes_read"] = detail_sum("trajio.load_trajectory")
    m["trajio.report_s"] = busy("trajio.write_report")
    m["trajio.report_bytes"] = detail_sum("trajio.write_report")

    run_s = defaultdict(float)
    for s in by_name["cli.run"]:
        if s[7] is not None:
            run_s[s[7][0]] += s[5] - s[4]
    for exp in reglab.cli.EXPERIMENTS:
        m[f"cli.run_s.{exp}"] = run_s[exp]
    m["trace.overhead_s"] = sum(s[8] for s in spans)
    return m
