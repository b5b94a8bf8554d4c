"""Every metric the benchmark emits, with its unit and what it should move.

``END_TO_END`` are printed by ``--trace 0`` and ``PER_LAYER`` by
``--trace 1``; BENCHMARK.json declares the same names, units and
directions (``selftest.py`` checks that it does).  ``feeds`` names the
end-to-end metric a layer metric should move and ``workloads`` the workloads
where that layer does most of its work.

``fail_frac`` (failed / attempted operations) is carried by the result's
``attempted`` and ``failed`` fields and printed as a line: it is 0 at the
seed code, and an end-to-end metric must never be 0.
"""

from __future__ import annotations

from typing import NamedTuple

ALL = ("duhamel", "evolve", "pointwise")


class Metric(NamedTuple):
    unit: str
    better: str
    bound: float | None = None            # end-to-end metrics only
    feeds: tuple = ()                     # per-layer metrics only
    workloads: tuple = ALL


END_TO_END = {
    "wall_s": Metric("s", "lower", 0.25),
    "setup_s": Metric("s", "lower", 0.25),
    "peak_rss_mb": Metric("MB", "lower", 0.1),
}


def _layer(unit, feeds, workloads, better="lower"):
    return Metric(unit, better, None, tuple(feeds), tuple(workloads))


_WALL = ("wall_s",)
_GRIDS = ("duhamel", "pointwise")
PER_LAYER = {
    "grids.interp_calls": _layer("count", _WALL, _GRIDS),
    "grids.interp_points": _layer("count", _WALL, _GRIDS),
    "grids.interp_s": _layer("s", _WALL, _GRIDS),
    "grids.interp_us_per_call": _layer("us", _WALL, _GRIDS),
    "grids.interp_basis_bytes": _layer("B", _WALL, _GRIDS),
    "grids.interp_builds": _layer("count", _WALL, _GRIDS),
    "grids.interp_build_s": _layer("s", _WALL, _GRIDS),
    "grids.spectral_derivative_calls": _layer("count", _WALL, _GRIDS),
    "grids.spectral_derivative_s": _layer("s", _WALL, _GRIDS),
    "numerics.quad_calls": _layer("count", _WALL, ("duhamel",)),
    "numerics.quad_panels": _layer("count", _WALL, ("duhamel",)),
    "numerics.quad_self_s": _layer("s", _WALL, ("duhamel",)),
    "numerics.quad_self_us_per_panel": _layer("us", _WALL, ("duhamel",)),
    "numerics.quad_failures": _layer("count", ("wall_s", "fail_frac"), ("duhamel",)),
    "kernels.d5_calls": _layer("count", _WALL, ("duhamel",)),
    "kernels.d5_s": _layer("s", _WALL, ("duhamel",)),
    "kernels.d5_ms_per_call": _layer("ms", _WALL, ("duhamel",)),
    "kernels.probe_checks": _layer("count", _WALL, ("duhamel",)),
    "kernels.probe_check_s": _layer("s", _WALL, ("duhamel",)),
    "diagnostics.rate_s": _layer("s", _WALL, ("duhamel",)),
    "diagnostics.rate_self_s": _layer("s", _WALL, ("duhamel",)),
    "diagnostics.slices": _layer("count", _WALL, ("duhamel",)),
    "diagnostics.slice_panels": _layer("count", _WALL, ("duhamel",)),
    "diagnostics.scan_calls": _layer("count", _WALL, ("duhamel", "evolve")),
    "diagnostics.scan_s": _layer("s", _WALL, ("duhamel", "evolve")),
    "diagnostics.scaling_transform_s": _layer("s", _WALL, ("pointwise",)),
    "diagnostics.inequality_s": _layer("s", _WALL, ("pointwise",)),
    "evolution.solve_calls": _layer("count", ("wall_s", "peak_rss_mb"), ("evolve",)),
    "evolution.solve_s": _layer("s", ("wall_s", "peak_rss_mb"), ("evolve",)),
    "evolution.solve_self_s": _layer("s", _WALL, ("evolve",)),
    "evolution.steps": _layer("count", _WALL, ("evolve",)),
    "evolution.step_us": _layer("us", _WALL, ("evolve",)),
    "evolution.snapshots": _layer("count", ("wall_s", "peak_rss_mb"), ("evolve",)),
    "evolution.eta_track_s": _layer("s", _WALL, ("duhamel",)),
    "ode.exact_flow_calls": _layer("count", _WALL, ("evolve",)),
    "ode.exact_flow_s": _layer("s", _WALL, ("evolve",)),
    "ode.integrate_calls": _layer("count", _WALL, ("pointwise",)),
    "ode.integrate_s": _layer("s", _WALL, ("pointwise",)),
    "ode.rk4_steps": _layer("count", _WALL, ("pointwise",)),
    "ode.rk4_step_us": _layer("us", _WALL, ("pointwise",)),
    "ode.holder_defect_s": _layer("s", _WALL, ("pointwise",)),
    "trajio.save_calls": _layer("count", ("wall_s", "peak_rss_mb"), ("evolve",)),
    "trajio.save_s": _layer("s", _WALL, ("evolve",)),
    "trajio.bytes_written": _layer("B", ("wall_s", "peak_rss_mb"), ("evolve",)),
    "trajio.load_calls": _layer("count", ("wall_s", "peak_rss_mb"), ("evolve",)),
    "trajio.load_s": _layer("s", _WALL, ("evolve",)),
    "trajio.bytes_read": _layer("B", ("wall_s", "peak_rss_mb"), ("evolve",)),
    "trajio.report_s": _layer("s", _WALL, ALL),
    "trajio.report_bytes": _layer("B", _WALL, ALL),
    "cli.run_s.duhamel-rate": _layer("s", _WALL, ("duhamel",)),
    "cli.run_s.simulate": _layer("s", _WALL, ("evolve",)),
    "cli.run_s.third-derivative-scan": _layer("s", _WALL, ("evolve",)),
    "cli.run_s.ode-defect": _layer("s", _WALL, ("pointwise",)),
    "cli.run_s.scaling-report": _layer("s", _WALL, ("pointwise",)),
    "cli.run_s.verify-kernel": _layer("s", _WALL, ("pointwise",)),
    "cli.run_s.inequality-suite": _layer("s", _WALL, ("pointwise",)),
    "trace.overhead_s": _layer("s", _WALL, ALL),
}
