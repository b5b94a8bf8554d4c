import json
import math
import re
import shlex
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import reglab.cli as cli
from reglab.cli import (
    EXPERIMENTS,
    ExperimentConfig,
    build_config,
    main,
    make_parser,
    run_simulate,
)
from reglab.diagnostics import InequalityCheck, InequalityReport
from reglab.errors import ConfigError
from reglab.grids import Grid1D
from reglab.ode import NonlinearityParams, holder_defect, integrate_perturbed
from reglab.trajio import load_trajectory, validate_report


ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def run_cli(args):
    return main(args)


def readme_commands():
    """The ``reglab ...`` lines of README's "Command line" block, joined at
    backslash continuations."""
    text = README.read_text()
    block = re.search(r"## Command line\s+```sh\n(.*?)```", text, re.S).group(1)
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("reglab ")]


class TestConfigHandling:
    def test_malformed_alpha_exits_2_and_writes_nothing(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli([
            "--experiment", "verify-kernel", "--alpha", "-1.0",
            "--out-dir", str(out),
        ])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", [f.name for f in fields(ExperimentConfig)
                                     if f.type in (float, "float")])
    def test_non_finite_float_exits_2_and_writes_nothing(self, tmp_path, capsys, key, value):
        out = tmp_path / "out"
        flag = "--" + key.replace("_", "-")
        # each on an experiment that reads it, so the finiteness check is what fails
        experiment = "scaling-report" if key == "sobolev_s" else "simulate"
        code = run_cli(["--experiment", experiment, f"{flag}={value}", "--out-dir", str(out)])
        assert code == 2
        assert not out.exists()
        assert f"{key} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment", ["verify-kernel", "inequality-suite"])
    def test_negative_seed_exits_2_and_writes_nothing(self, tmp_path, experiment):
        out = tmp_path / "out"
        code = run_cli(["--experiment", experiment, "--seed", "-1", "--out-dir", str(out)])
        assert code == 2
        assert not out.exists()

    def test_missing_experiment(self):
        assert run_cli([]) == 2

    def test_config_file_with_sections(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            "[run]\nexperiment = scaling-report\ngrid_n = 512\n"
            "[params]\nalpha = 1.0\nsobolev_s = 5.5\ndimension_n = 16\n"
        )
        parser = make_parser()
        args = parser.parse_args(["--config", str(cfg_file)])
        cfg = build_config(args)
        assert cfg.experiment == "scaling-report"
        assert cfg.alpha == 1.0
        assert cfg.sobolev_s == 5.5
        assert cfg.dimension_n == 16
        assert cfg.grid_n == 512

    def test_flag_overrides_config(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("experiment = scaling-report\nalpha = 1.0\n")
        args = make_parser().parse_args(
            ["--config", str(cfg_file), "--alpha", "0.75"]
        )
        cfg = build_config(args)
        assert cfg.alpha == 0.75

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("experiment = verify-kernel\nwibble = 3\n")
        args = make_parser().parse_args(["--config", str(cfg_file)])
        with pytest.raises(ConfigError):
            build_config(args)

    def test_one_flag_per_config_field(self):
        dests = {a.dest for a in make_parser()._actions} - {"help"}
        assert dests == {f.name for f in fields(ExperimentConfig)} | {"config"}
        assert len(fields(ExperimentConfig)) == 16

    def test_config_value_takes_field_type(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("experiment = verify-kernel\ngrid_n = 1e3\n")
        args = make_parser().parse_args(["--config", str(cfg_file)])
        with pytest.raises(ConfigError, match="grid_n"):
            build_config(args)

    @pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[2])
    def test_readme_command_parses_and_validates(self, argv):
        cfg = build_config(make_parser().parse_args(argv[1:]))
        assert cfg.experiment == argv[2]

    def test_readme_lists_every_experiment(self):
        assert sorted(argv[2] for argv in readme_commands()) == sorted(EXPERIMENTS)

    def test_validation_catches_bad_grid(self):
        cfg = ExperimentConfig(experiment="simulate", grid_n=100)
        with pytest.raises(ConfigError, match="power of two"):
            cfg.validate()

    def test_non_integral_horizon_exits_2_and_writes_nothing(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli([
            "--experiment", "simulate", "--grid-n", "256", "--t-final", "0.01",
            "--dt", "3e-4", "--amplitude", "1.0", "--support-radius", "1.0",
            "--out-dir", str(out),
        ])
        assert code == 2
        assert not out.exists()
        with pytest.raises(ConfigError, match="integer multiple"):
            ExperimentConfig(experiment="simulate", t_final=1.04e-3, dt=1e-4).validate()

    def test_tolerance_scale_flag_is_gone(self, tmp_path):
        # every check runs at its pinned tolerance; no option loosens it
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            run_cli(["--experiment", "verify-kernel", "--tolerance-scale", "2",
                     "--out-dir", str(out)])
        assert err.value.code == 2
        assert not out.exists()

    def test_tolerance_scale_config_key_is_unknown(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("experiment = verify-kernel\ntolerance_scale = 2\n")
        args = make_parser().parse_args(["--config", str(cfg_file)])
        with pytest.raises(ConfigError, match="unknown config key 'tolerance_scale'"):
            build_config(args)

    def test_percent_in_config_value_is_literal(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("experiment = inequality-suite\nout_dir = out%x\n")
        assert run_cli(["--config", str(cfg_file)]) == 0
        assert (tmp_path / "out%x" / "inequality-suite.json").exists()

    @pytest.mark.parametrize("argv", [
        ["--experiment", "simulate", "--support-radius", "5", "--domain-l", "4"],
        ["--experiment", "simulate", "--grid-n", "64"],
        ["--experiment", "duhamel-rate", "--support-radius", "5", "--domain-l", "4"],
    ], ids=["simulate_support_exceeds_torus", "simulate_under_resolved",
            "duhamel_rate_support_exceeds_torus"])
    def test_bump_that_cannot_fit_the_grid_exits_2_and_writes_nothing(self, tmp_path, capsys,
                                                                      argv):
        out = tmp_path / "out"
        assert run_cli(argv + ["--out-dir", str(out)]) == 2
        assert not out.exists()
        assert re.search("exceeds the torus|under-resolved", capsys.readouterr().err)

    def test_bump_geometry_binds_only_experiments_with_a_bump(self):
        # scaling-report reads --domain-l but no --support-radius
        ExperimentConfig(experiment="scaling-report", domain_l=1.0).validate()


MODEL = {"alpha", "lambda_re", "lambda_im", "theta"}
SOLVED = MODEL | {"grid_n", "domain_l", "dt", "t_final", "amplitude", "support_radius"}
# the options each experiment reads; every other one must keep its default.  The ODE of
# ode-defect has no diffusion term, so it reads no theta
READS = {
    "verify-kernel": {"alpha", "seed"},
    "ode-defect": {"alpha", "lambda_re", "lambda_im", "grid_n", "dt", "t_final"},
    "simulate": SOLVED | {"snapshot_every"},
    "third-derivative-scan": SOLVED,
    "duhamel-rate": SOLVED,
    "scaling-report": {"alpha", "grid_n", "domain_l", "sobolev_s", "dimension_n"},
    "inequality-suite": {"seed"},
}
# a valid value away from the default, for each of the 14 options
OTHER_VALUE = {
    "alpha": "1.0", "lambda_re": "0.5", "lambda_im": "0.5", "theta": "0.5",
    "grid_n": "512", "domain_l": "8", "dt": "1e-5", "t_final": "0.01", "seed": "7",
    "amplitude": "8", "support_radius": "1.5", "snapshot_every": "5",
    "sobolev_s": "2.0", "dimension_n": "2",
}
PAIRS = [(e, key) for e in READS for key in OTHER_VALUE]
READ_PAIRS = [(e, key) for e, key in PAIRS if key in READS[e]]
UNREAD_PAIRS = [(e, key) for e, key in PAIRS if key not in READS[e]]


def flag(key):
    return "--" + key.replace("_", "-")


class TestOptionContract:
    def test_the_declared_table_is_the_contract(self):
        assert set(OTHER_VALUE) == {f.name for f in fields(ExperimentConfig)} - {
            "experiment", "out_dir"}
        assert cli._READS == READS
        assert (len(READ_PAIRS), len(UNREAD_PAIRS)) == (45, 53)

    def test_readme_table_states_the_contract(self):
        # each row of README's option table lists its experiment's flags, "model"
        # standing for the four model options
        rows = re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", README.read_text(), re.M)
        table = {}
        for experiment, cell in rows:
            items = cell.split(", ")
            table[experiment] = {item.strip("`-").replace("-", "_") for item in items
                                 if item != "model"} | (MODEL if "model" in items else set())
        assert table == cli._READS

    @pytest.mark.parametrize("experiment, key", READ_PAIRS)
    def test_read_option_is_accepted(self, experiment, key):
        args = ["--experiment", experiment, flag(key), OTHER_VALUE[key]]
        cfg = build_config(make_parser().parse_args(args))
        assert getattr(cfg, key) != getattr(ExperimentConfig, key)

    @pytest.mark.parametrize("experiment, key", UNREAD_PAIRS)
    def test_unread_option_exits_2_and_writes_nothing(self, tmp_path, capsys, experiment, key):
        out = tmp_path / "out"
        code = run_cli(["--experiment", experiment, flag(key), OTHER_VALUE[key],
                        "--out-dir", str(out)])
        assert code == 2
        assert not out.exists()
        assert f"does not read {flag(key)} " in capsys.readouterr().err

    def test_unread_option_is_named_before_cross_field_checks(self, capsys):
        # scaling-report reads no dt, so T/dt is never its problem
        assert run_cli(["--experiment", "scaling-report", "--dt", "0.3"]) == 2
        err = capsys.readouterr().err
        assert "does not read --dt (got 0.3)" in err
        assert "integer multiple" not in err

    # configs small enough to run every experiment in a few seconds
    CENSUS = {
        "verify-kernel": {},
        "ode-defect": {"grid_n": 256},
        "simulate": {"grid_n": 256, "t_final": 2e-3},
        "third-derivative-scan": {"grid_n": 512},
        "duhamel-rate": {"grid_n": 512, "t_final": 2e-3},
        "scaling-report": {},
        "inequality-suite": {},
    }

    @pytest.mark.parametrize("experiment", list(CENSUS))
    def test_each_experiment_reads_exactly_its_options(self, tmp_path, monkeypatch, experiment):
        # record every option read during the run, except the copy into the
        # report's config block
        reads, copying = set(), []

        class Recording(ExperimentConfig):
            def __getattribute__(self, name):
                if name in OTHER_VALUE and not copying:
                    reads.add(name)
                return object.__getattribute__(self, name)

        skeleton = cli._report_skeleton

        def copy_config(cfg):
            copying.append(True)
            try:
                return skeleton(cfg)
            finally:
                copying.pop()

        monkeypatch.setattr(cli, "_report_skeleton", copy_config)
        cfg = Recording(experiment=experiment, out_dir=str(tmp_path),
                        **self.CENSUS[experiment])
        cli._RUNNERS[experiment](cfg)
        assert reads == READS[experiment]

    # where OTHER_VALUE is the CENSUS value or one the experiment refuses: ode-defect needs
    # dt <= t_final/1000, and the scans need 4 ladder points below support_radius/4
    MOVED = {
        ("ode-defect", "t_final"): "0.04",
        ("third-derivative-scan", "grid_n"): "1024",
        ("third-derivative-scan", "domain_l"): "3",
        ("third-derivative-scan", "support_radius"): "3",
        ("duhamel-rate", "grid_n"): "1024",
        ("duhamel-rate", "domain_l"): "3",
        ("duhamel-rate", "support_radius"): "3",
    }

    def census_report(self, out_dir, experiment, changes=()):
        """The report of a CENSUS-sized run, without the values that restate its
        config or name its directory or its clock."""
        argv = ["--experiment", experiment, "--out-dir", str(out_dir)]
        for key, value in [*self.CENSUS[experiment].items(), *changes]:
            argv += [flag(key), str(value)]
        report = cli.run(build_config(make_parser().parse_args(argv)))
        for key in ("config", "timing", "trajectory_path"):
            report.pop(key, None)
        return json.dumps(report, sort_keys=True)

    @pytest.fixture(scope="class")
    def default_report(self, tmp_path_factory):
        reports = {}

        def get(experiment):
            if experiment not in reports:
                reports[experiment] = self.census_report(tmp_path_factory.mktemp("default"),
                                                         experiment)
            return reports[experiment]
        return get

    @pytest.mark.parametrize("experiment, key", READ_PAIRS)
    def test_read_option_moves_the_report(self, tmp_path, default_report, experiment, key):
        # an option that is read but moves no number would be reported but ignored
        value = self.MOVED.get((experiment, key), OTHER_VALUE[key])
        assert self.census_report(tmp_path, experiment, [(key, value)]) \
            != default_report(experiment)

    @pytest.mark.parametrize("experiment", ["verify-kernel", "simulate"])
    def test_unwritable_out_dir_exits_3(self, tmp_path, capsys, experiment):
        blocker = tmp_path / "f"
        blocker.write_text("")
        out = blocker / "out"
        # simulate creates the directory for its trajectory before it solves
        assert run_cli(["--experiment", experiment, "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert str(out) in err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1


class TestExperiments:
    def test_verify_kernel_alpha_one(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli([
            "--experiment", "verify-kernel", "--alpha", "1.0",
            "--out-dir", str(out), "--seed", "3",
        ])
        assert code == 0
        report = json.loads((out / "verify-kernel.json").read_text())
        validate_report(report)
        byname = {c["name"]: c for c in report["checks"]}
        assert "seed" not in report and report["config"]["seed"] == 3  # stated once
        c1 = byname["c_alpha_at_one"]
        assert c1["passed"]
        assert abs(c1["measured"] - 8.0 / np.sqrt(np.pi)) <= 1e-9
        assert report["passed"]
        captured = capsys.readouterr()
        assert "[PASS]" in captured.out
        assert (out / "verify-kernel.sigma_scan.csv").exists()

    def test_scaling_report_mechanism_applies(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli([
            "--experiment", "scaling-report", "--alpha", "1.0",
            "--sobolev-s", "5.5", "--dimension-n", "16",
            "--grid-n", "1024", "--out-dir", str(out),
        ])
        assert code == 0
        report = json.loads((out / "scaling-report.json").read_text())
        assert report["verdict"] == "applies"
        assert report["exponent"] == -0.5

    def test_simulate_writes_loadable_trajectory(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli([
            "--experiment", "simulate", "--alpha", "0.5",
            "--grid-n", "256", "--t-final", "0.01", "--dt", "5e-4",
            "--amplitude", "1.0", "--support-radius", "1.0",
            "--snapshot-every", "5", "--out-dir", str(out),
        ])
        assert code == 0
        traj = load_trajectory(out / "trajectory.rglb")
        assert len(traj.times) >= 2
        assert traj.times[-1] == pytest.approx(0.01)
        # the norms table equals the row-by-row reference exactly
        report = json.loads((out / "simulate.json").read_text())
        l2 = np.sqrt(np.sum(np.abs(traj.values) ** 2, axis=1) * traj.y_grid.spacing)
        expect = [[float(t), float(n), float(np.max(np.abs(v)))]
                  for t, n, v in zip(traj.times, l2, traj.values)]
        assert report["tables"]["norms"]["rows"] == expect

    @pytest.mark.parametrize("theta, lam_re, lam_im", [
        (0.0, 1.0, 0.0), (math.pi / 4, 1.0, 0.0), (math.pi / 2, 0.0, 1.0),
    ], ids=["heat", "cgl", "nls"])
    def test_simulate_norms_equal_the_benchmark_expression(self, tmp_path, monkeypatch,
                                                           theta, lam_re, lam_im):
        # the benchmark compares the norms table with == against its own expression
        # on the reloaded trajectory; 201 rows span three full 64-row blocks of the
        # table's reduction and a partial one
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        import workloads

        out = tmp_path / "out"
        code = run_cli([
            "--experiment", "simulate", "--alpha", "0.5", "--grid-n", "256",
            "--t-final", "0.01", "--dt", "5e-5", "--amplitude", "16", "--support-radius", "2",
            "--theta", repr(theta), "--lambda-re", repr(lam_re), "--lambda-im", repr(lam_im),
            "--out-dir", str(out),
        ])
        assert code == 0
        traj = load_trajectory(out / "trajectory.rglb")
        assert len(traj.times) == 201
        report = json.loads((out / "simulate.json").read_text())
        assert report["tables"]["norms"]["rows"] == workloads._norms_table(traj)

    def test_simulate_holds_no_copy_of_the_trajectory(self, tmp_path):
        # the norms table reduces |u| a block of rows at a time: beside the
        # trajectory itself, run_simulate holds only small temporaries
        def config(out, t_final):
            return build_config(make_parser().parse_args([
                "--experiment", "simulate", "--alpha", "0.5", "--grid-n", "1024",
                "--domain-l", "4", "--dt", "2e-5", "--t-final", t_final,
                "--amplitude", "16", "--support-radius", "2", "--out-dir", str(out),
            ]))

        run_simulate(config(tmp_path / "warm", "2e-4"))  # first-call set-up outside the trace
        cfg = config(tmp_path / "out", "0.02")
        tracemalloc.start()
        try:
            run_simulate(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        traj = load_trajectory(tmp_path / "out" / "trajectory.rglb")
        assert len(traj.times) == 1001
        assert peak <= 1.15 * traj.values.nbytes

    def test_ode_defect_quick(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli([
            "--experiment", "ode-defect", "--alpha", "0.5",
            "--grid-n", "512", "--t-final", "0.05", "--dt", "5e-5",
            "--out-dir", str(out),
        ])
        assert code == 0
        report = json.loads((out / "ode-defect.json").read_text())
        byname = {c["name"]: c for c in report["checks"]}
        assert byname["defect_exponent_unforced"]["passed"]
        assert byname["linear_control_exponent"]["passed"]

    def test_ode_defect_tables_match_full_width_runs(self, tmp_path):
        # the experiment integrates only the ladder's columns and keeps only the
        # rows it reads; its tables must equal holder_defect on full-width runs
        # that keep every step
        out = tmp_path / "out"
        assert run_cli(["--experiment", "ode-defect", "--grid-n", "256",
                        "--out-dir", str(out)]) == 0
        report = json.loads((out / "ode-defect.json").read_text())
        cfg = ExperimentConfig()
        T, grid = cfg.t_final, Grid1D(256, 1.0)

        def full_run(lam, h=None, h_y=None):
            return integrate_perturbed(
                NonlinearityParams(cfg.alpha, lam), lambda y: y.astype(complex), h,
                T=T, grid=grid, dt=cfg.dt,
                phi0_prime=lambda y: np.ones_like(y, dtype=complex), h_y=h_y,
            )

        smooth = (lambda t, y: t * (y * y * y), lambda t, y: 3.0 * t * y**2)
        unforced = full_run(1.0)
        sweep = [holder_defect(unforced, f * T) for f in (0.2, 0.4, 0.6, 0.8, 1.0)]
        forced = holder_defect(full_run(1.0, *smooth), T)
        control = holder_defect(full_run(0.0, *smooth), T)
        ladder = [[float(y), float(a), float(b), float(c)] for y, a, b, c in zip(
            sweep[-1].ys, sweep[-1].increments, forced.increments, control.increments)]
        t_sweep = [[float(r.t), float(r.increment_fit.slope), float(r.liminf_proxy),
                    float(r.theory_lower_bound)] for r in sweep]
        assert report["tables"]["ladder"]["rows"] == ladder
        assert report["tables"]["t_sweep"]["rows"] == t_sweep
        # y = 0 and the five ladder points y = 4h ... 0.5 of 256 columns, shared by all runs
        assert report["numerics"] == {
            "columns_integrated": 6,
            "rows_kept": {"unforced": 6, "forced": 2, "control": 2},
        }

    def test_ode_defect_alpha_above_one(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli([
            "--experiment", "ode-defect", "--alpha", "1.5",
            "--grid-n", "512", "--t-final", "0.05", "--dt", "5e-5",
            "--out-dir", str(out),
        ])
        assert code == 0
        report = json.loads((out / "ode-defect.json").read_text())
        byname = {c["name"]: c for c in report["checks"]}
        for name in ("defect_exponent_unforced", "defect_exponent_smooth_forcing"):
            assert abs(byname[name]["measured"] - 1.5) <= 0.05

    def test_ode_defect_coarse_step_exits_2_and_writes_nothing(self, tmp_path):
        # the RK4 track needs dt <= t_final/1000; a coarser dt is rejected,
        # never replaced by a finer one behind the report's back
        out = tmp_path / "out"
        code = run_cli([
            "--experiment", "ode-defect", "--grid-n", "256", "--dt", "1e-4",
            "--out-dir", str(out),
        ])
        assert code == 2
        assert not out.exists()

    def test_ode_defect_rejects_domain_l_and_writes_nothing(self, tmp_path):
        # y is pinned to [-1, 1), so a --domain-l would be reported but ignored
        out = tmp_path / "out"
        code = run_cli([
            "--experiment", "ode-defect", "--grid-n", "256", "--domain-l", "8",
            "--out-dir", str(out),
        ])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("experiment", ["duhamel-rate", "third-derivative-scan",
                                            "ode-defect"])
    def test_fixed_stride_experiments_reject_snapshot_every(self, tmp_path, experiment):
        # each fixes its own snapshot stride, so a --snapshot-every would be
        # reported but ignored
        out = tmp_path / "out"
        code = run_cli([
            "--experiment", experiment, "--grid-n", "256", "--snapshot-every", "5",
            "--out-dir", str(out),
        ])
        assert code == 2
        assert not out.exists()

    def test_inequality_suite(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli([
            "--experiment", "inequality-suite", "--seed", "11",
            "--out-dir", str(out),
        ])
        assert code == 0
        report = json.loads((out / "inequality-suite.json").read_text())
        assert report["passed"]
        assert len(report["checks"]) == 3

    def test_inequality_suite_fails_a_ratio_over_its_threshold(self, tmp_path, monkeypatch):
        checks = [InequalityCheck("held", 10, 1.0, 1.0), InequalityCheck("broken", 10, 3.0, 2.0)]
        monkeypatch.setattr(cli, "appendix_inequality_checks",
                            lambda seed: InequalityReport(checks))
        out = tmp_path / "out"
        assert run_cli(["--experiment", "inequality-suite", "--out-dir", str(out)]) == 1
        report = json.loads((out / "inequality-suite.json").read_text())
        assert [c["passed"] for c in report["checks"]] == [True, False]
        assert [row[-1] for row in report["tables"]["ratios"]["rows"]] == [True, False]

    def test_duhamel_rate_with_consistency_record(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli([
            "--experiment", "duhamel-rate", "--alpha", "0.5",
            "--grid-n", "512", "--dt", "2.5e-5", "--t-final", "0.02",
            "--snapshot-every", "1", "--out-dir", str(out),
        ])
        assert code == 0
        report = json.loads((out / "duhamel-rate.json").read_text())
        byname = {c["name"]: c for c in report["checks"]}
        assert byname["divergence_law_exponent"]["passed"]
        assert byname["synthetic_slice_closed_form_max_rel_err"]["passed"]
        assert byname["scan_rate_consistency"]["passed"]
        assert "raw_fit_slope" in report
        assert report["law_fit_at_edge"] is False
        assert report["empirical_a"] > 0
        assert (out / "duhamel-rate.rate.csv").exists()

    def test_duhamel_rate_edge_flag_fails_the_verdict(self, tmp_path, monkeypatch):
        import reglab.diagnostics as diagnostics

        fit = diagnostics._fit_divergence_law
        monkeypatch.setattr(diagnostics, "_fit_divergence_law",
                            lambda *args: (fit(*args)[0], True))
        out = tmp_path / "out"
        code = run_cli(["--experiment", "duhamel-rate", "--grid-n", "512",
                        "--out-dir", str(out)])
        assert code == 1
        report = json.loads((out / "duhamel-rate.json").read_text())
        byname = {c["name"]: c for c in report["checks"]}
        law = byname["divergence_law_exponent"]
        # the exponent is inside its tolerance, so only the flag can fail it
        assert abs(law["measured"] - law["expected"]) <= law["tolerance"]
        assert not law["passed"]
        assert not byname["scan_rate_consistency"]["passed"]
        assert byname["synthetic_slice_closed_form_max_rel_err"]["passed"]
        assert report["law_fit_at_edge"] is True

    def test_third_derivative_scan_sweep_ends_at_the_checked_scan(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["--experiment", "third-derivative-scan", "--grid-n", "512",
                        "--out-dir", str(out)]) == 0
        report = json.loads((out / "third-derivative-scan.json").read_text())
        byname = {c["name"]: c for c in report["checks"]}
        t_last, slope_last = report["tables"]["t_sweep"]["rows"][-1]
        assert t_last == report["config"]["t_final"]
        assert slope_last == byname["third_derivative_increment_exponent"]["measured"]

    def test_blowup_exits_4(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli([
            "--experiment", "simulate", "--alpha", "0.5",
            "--grid-n", "512", "--t-final", "2.0", "--dt", "1e-3",
            "--amplitude", "1e4", "--support-radius", "1.0",
            "--snapshot-every", "10", "--out-dir", str(out),
        ])
        assert code == 4
        report = json.loads((out / "simulate.json").read_text())
        assert report["blowup_time"] is not None
        # truncated trajectory still persisted and loadable
        traj = load_trajectory(out / "trajectory.rglb")
        assert len(traj.times) >= 1

    def test_blowup_records_fewer_rows_than_scheduled(self, tmp_path):
        # 400 steps recorded every 10th ask for 41 rows; the run blows up at
        # t = 1.285 with 27 of them, and the check says so
        out = tmp_path / "out"
        code = run_cli([
            "--experiment", "simulate", "--alpha", "0.2", "--amplitude", "10000",
            "--support-radius", "2", "--domain-l", "4", "--grid-n", "512",
            "--dt", "5e-3", "--t-final", "2", "--snapshot-every", "10",
            "--out-dir", str(out),
        ])
        assert code == 4
        report = json.loads((out / "simulate.json").read_text())
        (check,) = [c for c in report["checks"] if c["name"] == "trajectory_recorded"]
        assert (check["measured"], check["expected"], check["passed"]) == (27.0, 41.0, False)

    def test_numerical_failure_exits_3(self, tmp_path):
        # snapshots far too sparse for the tau ladder
        out = tmp_path / "out"
        code = run_cli([
            "--experiment", "duhamel-rate", "--alpha", "0.5",
            "--grid-n", "512", "--dt", "1e-3", "--t-final", "0.02",
            "--snapshot-every", "1", "--out-dir", str(out),
        ])
        assert code == 3


class TestDeterminism:
    def test_same_config_same_bytes(self, tmp_path):
        # identical config (including out_dir) and seed: byte-identical
        # modulo the isolated timing key
        out = tmp_path / "out"
        blobs = []
        for _ in range(2):
            code = run_cli([
                "--experiment", "verify-kernel", "--alpha", "0.5",
                "--seed", "42", "--out-dir", str(out),
            ])
            assert code == 0
            blobs.append((out / "verify-kernel.json").read_text())
        def strip_timing(text):
            d = json.loads(text)
            d.pop("timing")
            return json.dumps(d, indent=2, sort_keys=True, separators=(",", ": "))
        assert strip_timing(blobs[0]) == strip_timing(blobs[1])

    def test_ode_defect_numerics_are_reproducible(self, tmp_path):
        out = tmp_path / "out"
        blobs = []
        for _ in range(2):
            assert run_cli(["--experiment", "ode-defect", "--grid-n", "256",
                            "--out-dir", str(out)]) == 0
            blobs.append(json.loads((out / "ode-defect.json").read_text()))
        for blob in blobs:
            blob.pop("timing")
        assert blobs[0] == blobs[1]
        assert set(blobs[0]["numerics"]["rows_kept"]) == {"unforced", "forced", "control"}

    @pytest.mark.parametrize("experiment, flags, expected", [
        ("simulate", ["--grid-n", "256", "--snapshot-every", "10"],
         {"trajectory": {"snapshots": 101}}),
        ("third-derivative-scan", ["--grid-n", "512"],
         {"nonlinear": {"snapshots": 5}, "control": {"snapshots": 2}}),
    ], ids=["simulate", "third-derivative-scan"])
    def test_solver_numerics_are_reproducible(self, tmp_path, experiment, flags, expected):
        out = tmp_path / "out"
        blobs = []
        for _ in range(2):
            assert run_cli(["--experiment", experiment, "--out-dir", str(out)] + flags) == 0
            blobs.append(json.loads((out / f"{experiment}.json").read_text()))
        for blob in blobs:
            blob.pop("timing")
        assert blobs[0] == blobs[1]
        assert blobs[0]["numerics"] == expected

    def test_duhamel_rate_numerics_are_reproducible(self, tmp_path):
        # the numerics block is deterministic, so it sits outside "timing"
        out = tmp_path / "out"
        blobs = []
        for _ in range(2):
            run_cli([
                "--experiment", "duhamel-rate", "--alpha", "0.5",
                "--grid-n", "512", "--dt", "2.5e-5", "--t-final", "0.02",
                "--snapshot-every", "1", "--out-dir", str(out),
            ])
            blobs.append(json.loads((out / "duhamel-rate.json").read_text()))
        for blob in blobs:
            blob.pop("timing")
        assert blobs[0] == blobs[1]
        numerics = blobs[0]["numerics"]
        strides = numerics["snapshot_strides"]
        gaps = [row[0] for row in blobs[0]["tables"]["rate"]["rows"]]
        assert len(strides) == len(gaps)
        # the stride grows with tau - t; 800 steps to t, and the slice s = t is always kept
        by_gap = [k for _, k in sorted(zip(gaps, strides))]
        assert by_gap == sorted(by_gap) and by_gap[0] >= 1
        assert numerics["slices"] == sum(-(-800 // k) + 1 for k in strides)
        # the spectral cross-check transforms each stored snapshot once, not once per tau
        assert 1 in strides and numerics["spectral_transforms"] == 801
        assert numerics["trajectory"] == {"snapshots": 801}
