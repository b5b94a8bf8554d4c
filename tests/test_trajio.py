import json
import math
import os
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reglab.errors import BlowUpError, FormatError, IoError, RegLabError, VersionError
from reglab.evolution import Trajectory, make_odd_bump, solve
from reglab.grids import Grid1D
from reglab.ode import NonlinearityParams, integrate_perturbed
from reglab.trajio import (
    FORMAT_VERSION,
    load_trajectory,
    save_trajectory,
    validate_report,
    write_report,
)


def make_trajectory(n=256, with_blowup=False):
    params = NonlinearityParams(alpha=0.5, lam=1.0, theta=0.0)
    g = Grid1D(n, 4.0)
    bump = make_odd_bump(1.0, 1.0)
    traj = solve(params, bump, g, T=0.01, dt=1e-3, snapshot_every=2)
    if with_blowup:
        traj.blowup_time = 0.012  # after the last time stamp, 0.01, as solve puts it
    return traj


def tiny_trajectory():
    """Three time stamps on an 8-point grid."""
    params = NonlinearityParams(alpha=0.5, lam=1.0 - 0.5j, theta=0.3)
    rng = np.random.default_rng(5)
    return Trajectory(params, Grid1D(8, 1.0), np.array([0.0, 0.1, 0.2]),
                      rng.standard_normal((3, 8)) + 0j, dt=0.1)


HEADER_LENGTH = 20 + 12 + 40 + 8 + 24 + 8
GRID_COUNT_OFFSET = 12
N_POINTS_OFFSET = 20
HALF_LENGTH_OFFSET = 24


def header_offset(field):
    """Byte offset of a header field after the grid block."""
    return 32 + {"dt": 0, "alpha": 8, "scheme": 40, "flags": 44, "blowup_t": 48,
                 "z0_re": 56, "z0_im": 64}[field]


def two_grid_file():
    """A trajectory on a pair of grids (8, 16) in the layout the format once wrote
    for it: a 124-byte header with grid count 2, two time stamps, their snapshots."""
    header = b"RGLB" + struct.pack("<IIII", FORMAT_VERSION, 0, 2, 1)
    header += struct.pack("<2I", 8, 16) + struct.pack("<2d", 1.0, 2.0)
    header += struct.pack("<5d", 0.1, 0.5, 1.0, -0.5, 0.3)
    header += struct.pack("<II", 0, 2) + struct.pack("<3d", 0.15, 0.0, 0.0)
    header += struct.pack("<Q", 2)
    assert len(header) == 124
    snapshots = np.random.default_rng(5).standard_normal((2, 8, 16)) + 0j
    return header + np.array([0.0, 0.1], dtype="<f8").tobytes() + snapshots.astype("<c16").tobytes()


def ode_run_file():
    """An ODE run as the format once wrote it: kind 1, two channels (w and v),
    the RK4 scheme code 1, the forcing flag and z0 = 1, two time stamps."""
    header = b"RGLB" + struct.pack("<IIIIId", FORMAT_VERSION, 1, 1, 2, 8, 1.0)
    header += struct.pack("<5d", 0.1, 0.5, 1.0, -0.5, 0.3)
    header += struct.pack("<II", 1, 4) + struct.pack("<3d", math.nan, 1.0, 0.0)
    header += struct.pack("<Q", 2)
    assert len(header) == HEADER_LENGTH
    tracks = np.random.default_rng(5).standard_normal((2, 2, 8)) + 0j
    return header + np.array([0.0, 0.1], dtype="<f8").tobytes() + tracks.astype("<c16").tobytes()


class TestRoundTrip:
    def test_trajectory_bit_exact(self, tmp_path):
        traj = make_trajectory()
        path = tmp_path / "run.rglb"
        save_trajectory(traj, path)
        back = load_trajectory(path)
        assert isinstance(back, Trajectory)
        assert back.values.tobytes() == traj.values.tobytes()
        assert back.times.tobytes() == traj.times.tobytes()
        assert back.params == traj.params
        assert back.dt == traj.dt
        assert back.blowup_time is None
        assert back.y_grid == traj.y_grid
        # flags: bit 1 (odd projection) always set, bit 0 (blow-up) clear
        assert struct.unpack_from("<I", path.read_bytes(), header_offset("flags")) == (2,)

    def test_blowup_flag_round_trip(self, tmp_path):
        traj = make_trajectory(with_blowup=True)
        path = tmp_path / "run.rglb"
        save_trajectory(traj, path)
        back = load_trajectory(path)
        assert back.blowup_time == 0.012

    def test_sidecar_metadata(self, tmp_path):
        traj = make_trajectory()
        path = tmp_path / "run.rglb"
        save_trajectory(traj, path)
        meta = json.loads((tmp_path / "run.rglb.json").read_text())
        assert meta["kind"] == "trajectory"
        assert meta["scheme"] == "strang_exact_nl"
        assert meta["n_points"] == [256]
        assert meta["alpha"] == 0.5
        assert meta["format_version"] == FORMAT_VERSION

    @settings(deadline=None, database=None, max_examples=40,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        n_points=st.sampled_from([8, 16, 32]),
        n_times=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_shapes_bit_exact(self, tmp_path, n_points, n_times, seed):
        rng = np.random.default_rng(seed)
        grid = Grid1D(n_points, float(rng.uniform(0.5, 8.0)))
        shape = (n_times, n_points)
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        times = np.cumsum(rng.uniform(0.01, 0.1, n_times))
        params = NonlinearityParams(alpha=float(rng.uniform(0.1, 1.9)), lam=1.0 - 0.5j, theta=0.3)
        traj = Trajectory(params, grid, times, values, dt=0.01)
        path = tmp_path / "random.rglb"
        save_trajectory(traj, path)
        back = load_trajectory(path)
        assert back.values.shape == values.shape
        assert back.values.tobytes() == values.tobytes()
        assert back.times.tobytes() == times.tobytes()
        assert back.grid == grid
        assert back.params == params

    def test_stale_temp_name_does_not_block_save(self, tmp_path):
        # a directory where the old fixed temp name <path>.tmp.<pid> would go
        path = tmp_path / "run.rglb"
        os.mkdir(f"{path}.tmp.{os.getpid()}")
        traj = make_trajectory()
        save_trajectory(traj, path)
        assert load_trajectory(path).values.tobytes() == traj.values.tobytes()

    def test_write_is_fsynced_before_rename(self, tmp_path, monkeypatch):
        events = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(os, "fsync", lambda fd: (events.append("fsync"), real_fsync(fd))[1])
        monkeypatch.setattr(os, "replace",
                            lambda src, dst: (events.append("replace"), real_replace(src, dst))[1])
        save_trajectory(make_trajectory(), tmp_path / "run.rglb")
        assert events == ["fsync", "replace"] * 2

    def test_new_files_follow_umask(self, tmp_path):
        save_trajectory(make_trajectory(), tmp_path / "run.rglb")
        plain = tmp_path / "plain"
        plain.write_bytes(b"")
        assert (tmp_path / "run.rglb").stat().st_mode == plain.stat().st_mode

    def test_failed_write_is_io_error(self, tmp_path):
        with pytest.raises(IoError):
            save_trajectory(make_trajectory(), tmp_path / "missing" / "run.rglb")
        with pytest.raises(IoError):
            save_trajectory(make_trajectory(), tmp_path)

    def test_ode_run_is_refused_before_any_write(self, tmp_path):
        # a file holds one record kind, the trajectory: an ODE run has no file form
        run = integrate_perturbed(
            NonlinearityParams(alpha=0.5, lam=1.0), lambda y: y.astype(complex), None,
            T=0.01, grid=Grid1D(64, 1.0), dt=1e-5,
            phi0_prime=lambda y: np.ones_like(y, dtype=complex),
        )
        with pytest.raises(IoError, match="OdeRun"):
            save_trajectory(run, tmp_path / "run.rglb")
        assert list(tmp_path.iterdir()) == []

    def test_no_temp_files_left(self, tmp_path):
        save_trajectory(make_trajectory(), tmp_path / "run.rglb")
        leftovers = [p for p in tmp_path.iterdir() if ".tmp." in p.name]
        assert leftovers == []


class TestMemory:
    def test_snapshot_block_is_held_once(self, tmp_path):
        # the save writes a view of the block; the load reads the file once
        # and views the snapshots in that buffer
        rng = np.random.default_rng(2)
        values = rng.standard_normal((1001, 1024)) + 1j * rng.standard_normal((1001, 1024))
        traj = Trajectory(NonlinearityParams(alpha=0.5, lam=1.0), Grid1D(1024, 4.0),
                          np.arange(1001) * 1e-3, values, dt=1e-3)
        path = tmp_path / "big.rglb"
        tracemalloc.start()
        try:
            save_trajectory(traj, path)
            save_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            back = load_trajectory(path)
            load_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert save_peak <= 0.1 * values.nbytes
        assert load_peak <= 1.1 * values.nbytes
        assert back.values.flags.writeable
        assert back.values.tobytes() == values.tobytes()
        assert back.times.tobytes() == traj.times.tobytes()

    def test_loaded_arrays_are_aligned(self, tmp_path):
        # three time stamps start the trajectory's snapshots at byte 136, off a
        # 16-byte boundary: the reader, not the layout, aligns
        path = tmp_path / "run.rglb"
        save_trajectory(tiny_trajectory(), path)
        back = load_trajectory(path)
        for arr in (back.values, back.times):
            assert arr.flags.aligned and arr.flags.writeable

    def test_short_read_is_io_error(self, tmp_path, monkeypatch):
        # a file that shrinks between stat and read
        path = tmp_path / "run.rglb"
        save_trajectory(make_trajectory(), path)
        real_fstat = os.fstat
        size = path.stat().st_size

        class StaleStat:
            def __init__(self, st):
                self.st = st

            def __getattr__(self, name):
                return size + 64 if name == "st_size" else getattr(self.st, name)

        monkeypatch.setattr(os, "fstat", lambda fd: StaleStat(real_fstat(fd)))
        with pytest.raises(IoError, match="bytes"):
            load_trajectory(path)


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rglb"
        path.write_bytes(b"XXXX" + b"\x00" * 100)
        with pytest.raises(FormatError) as err:
            load_trajectory(path)
        assert err.value.offset == 0

    def test_version_mismatch(self, tmp_path):
        traj = make_trajectory()
        path = tmp_path / "run.rglb"
        save_trajectory(traj, path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionError):
            load_trajectory(path)

    def test_truncated_times(self, tmp_path):
        traj = make_trajectory()
        path = tmp_path / "run.rglb"
        save_trajectory(traj, path)
        blob = path.read_bytes()
        header_len = len(blob) - traj.values.size * 16 - traj.times.size * 8
        path.write_bytes(blob[: header_len + 8])  # one time stamp only
        with pytest.raises(FormatError) as err:
            load_trajectory(path)
        assert "times" in str(err.value)

    def test_truncated_snapshots(self, tmp_path):
        traj = make_trajectory()
        path = tmp_path / "run.rglb"
        save_trajectory(traj, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(FormatError) as err:
            load_trajectory(path)
        assert "snapshots" in str(err.value)

    @pytest.mark.parametrize("at, patch, offset", [
        (header_offset("alpha"), struct.pack("<d", 5.0), 40),
        (8, struct.pack("<I", 1), 8),  # the kind field of a trajectory reads 1
        (N_POINTS_OFFSET, struct.pack("<I", 2**32 - 1), 20),
        # a valid Grid1D whose snapshots the file is far too short to hold: the
        # size comes from the file, never from the header
        (N_POINTS_OFFSET, struct.pack("<I", 2**30), HEADER_LENGTH + 24),
        (HALF_LENGTH_OFFSET, struct.pack("<d", math.inf), 20),
        (GRID_COUNT_OFFSET, struct.pack("<I", 2), 8),
        (header_offset("scheme"), struct.pack("<I", 7), 72),
        (header_offset("scheme"), struct.pack("<I", 1), 72),  # the RK4 code of the ODE runs
        (header_offset("flags"), struct.pack("<I", 0), 76),  # every run is odd-projected
        (header_offset("flags"), struct.pack("<I", 6), 76),  # no bit but 0 and 1 is defined
        (header_offset("flags"), struct.pack("<I", 3), 80),  # blow-up bit with blowup_t NaN
        (header_offset("blowup_t"), struct.pack("<d", 0.15), 80),  # blowup_t without the bit
        # a NaN, but not the one save writes, so the file would not save back as it is
        (header_offset("blowup_t"), struct.pack("<Q", 0x7FF8000000000001), 80),
        (header_offset("z0_re"), struct.pack("<d", 1.0), 88),
        (header_offset("z0_im"), struct.pack("<d", -0.0), 96),  # zero, but not its bytes
        (header_offset("dt"), struct.pack("<d", math.nan), 32),
        (header_offset("dt"), struct.pack("<d", math.inf), 32),
        (header_offset("dt"), struct.pack("<d", 0.0), 32),
        (header_offset("dt"), struct.pack("<d", -1.0), 32),
        (header_offset("alpha") + 8, struct.pack("<d", math.nan), 40),  # lambda_re
        (header_offset("alpha") + 8, struct.pack("<d", math.inf), 40),
        (HEADER_LENGTH, struct.pack("<d", math.nan), 112),  # the first time stamp
        (HEADER_LENGTH + 8, struct.pack("<d", 0.0), 112),  # times 0, 0, 0.2
    ], ids=["alpha_out_of_domain", "kind_vs_channels", "huge_grid", "huge_power_of_two_grid",
            "infinite_half_length", "two_grids", "unknown_scheme", "trajectory_with_rk4_scheme",
            "no_odd_projection_flag", "unknown_flag", "blowup_flag_without_time",
            "blowup_time_without_flag", "other_nan_blowup_time", "nonzero_z0_re",
            "negative_zero_z0_im", "nan_dt", "infinite_dt", "zero_dt", "negative_dt",
            "nan_lambda_re", "infinite_lambda_re",
            "nan_time_stamp", "repeated_time_stamp"])
    def test_bad_header_field_is_format_error(self, tmp_path, at, patch, offset):
        # the error points at the field that failed
        path = tmp_path / "run.rglb"
        save_trajectory(tiny_trajectory(), path)
        blob = bytearray(path.read_bytes())
        blob[at:at + len(patch)] = patch
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as err:
            load_trajectory(path)
        assert err.value.offset == offset

    @pytest.mark.parametrize("blowup, loads", [
        (-1.0, False), (0.15, False), (0.2, True), (0.25, True),
    ], ids=["negative", "before_the_last_stamp", "at_the_last_stamp", "after_the_last_stamp"])
    def test_blowup_time_before_the_last_stamp_is_format_error(self, tmp_path, blowup, loads):
        # solve records no row after the blow-up time; the last stamp here is 0.2
        path = tmp_path / "run.rglb"
        save_trajectory(tiny_trajectory(), path)
        blob = bytearray(path.read_bytes())
        blob[header_offset("flags"):header_offset("flags") + 4] = struct.pack("<I", 3)
        blob[header_offset("blowup_t"):header_offset("blowup_t") + 8] = struct.pack("<d", blowup)
        path.write_bytes(bytes(blob))
        if not loads:
            with pytest.raises(FormatError, match="precedes the last time stamp") as err:
                load_trajectory(path)
            assert err.value.offset == 80
            return
        traj = load_trajectory(path)
        assert traj.blowup_time == blowup
        save_trajectory(traj, tmp_path / "back.rglb")
        assert (tmp_path / "back.rglb").read_bytes() == bytes(blob)

    def test_blown_up_solve_saves_a_file_that_loads(self, tmp_path):
        # the partial run of a blow-up between two steps ends before its blow-up time
        params = NonlinearityParams(alpha=1.0, lam=1.0)
        grid, bump = Grid1D(256, 4.0), make_odd_bump(1e4, 2.0)
        with pytest.raises(BlowUpError) as err:
            solve(params, bump, grid, T=0.01, dt=1e-3)
        partial = err.value.partial
        assert partial.blowup_time > partial.times[-1]
        save_trajectory(partial, tmp_path / "run.rglb")
        back = load_trajectory(tmp_path / "run.rglb")
        assert back.blowup_time == partial.blowup_time
        assert back.values.tobytes() == partial.values.tobytes()

    @pytest.mark.parametrize("n_times, value, part, patch", [
        (3, 13, 0, math.nan),
        (3, 21, 8, math.inf),
        (3, 0, 8, -math.inf),
        (130, 1030, 0, math.nan),  # row 128, the first of the third block of 64 rows
    ], ids=["nan_real_part", "infinite_imaginary_part", "first_value", "later_block"])
    def test_non_finite_snapshot_value_is_format_error(self, tmp_path, n_times, value, part,
                                                        patch):
        # the error points at the value, whichever of its parts is not finite
        rng = np.random.default_rng(3)
        traj = Trajectory(NonlinearityParams(alpha=0.5, lam=1.0), Grid1D(8, 1.0),
                          0.1 * np.arange(n_times), rng.standard_normal((n_times, 8)) + 0j,
                          dt=0.1)
        path = tmp_path / "run.rglb"
        save_trajectory(traj, path)
        offset = HEADER_LENGTH + 8 * n_times + 16 * value
        blob = bytearray(path.read_bytes())
        blob[offset + part:offset + part + 8] = struct.pack("<d", patch)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=f"snapshot value {value} ") as err:
            load_trajectory(path)
        assert err.value.offset == offset

    @settings(deadline=None, database=None, max_examples=500,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_header_corruption_fuzz(self, tmp_path, data):
        # a changed byte or a truncation anywhere in the header either raises one of
        # the documented errors or loads a file that saves back byte for byte
        path = tmp_path / "fuzz.rglb"
        save_trajectory(tiny_trajectory(), path)
        blob = bytearray(path.read_bytes())
        n_header = HEADER_LENGTH
        if data.draw(st.booleans(), label="truncate"):
            blob = blob[: data.draw(st.integers(0, n_header), label="length")]
        else:
            at = data.draw(st.integers(0, n_header - 1), label="position")
            blob[at] = data.draw(st.integers(0, 255), label="value")
        path.write_bytes(bytes(blob))
        try:
            traj = load_trajectory(path)
        except (FormatError, VersionError, IoError):
            return
        save_trajectory(traj, tmp_path / "back.rglb")
        assert (tmp_path / "back.rglb").read_bytes() == bytes(blob)

    def test_time_stamp_and_snapshot_corruption_fuzz(self, tmp_path, monkeypatch):
        # past the header: each time-stamp byte and every byte of a fixed sample of
        # snapshot values, each set to 0, 1, 0x7f, 0x80, 0xff and flipped in bit 0 and
        # bit 6, either raises or loads a file that saves back byte for byte
        monkeypatch.setattr(os, "fsync", lambda fd: None)  # bytes, not durability, matter here
        params = NonlinearityParams(alpha=0.5, lam=1.0, theta=0.0)
        traj = solve(params, make_odd_bump(16.0, 2.0), Grid1D(256, 4.0), T=0.01, dt=1e-3)
        path, back = tmp_path / "fuzz.rglb", tmp_path / "back.rglb"
        save_trajectory(traj, path)
        clean = path.read_bytes()
        block = HEADER_LENGTH + 8 * len(traj.times)
        assert (len(traj.times), block - HEADER_LENGTH) == (11, 88)
        n_values = traj.values.size
        # the first and last value and 6 drawn ones, all 16 bytes of each
        values = [0, n_values - 1, *np.random.default_rng(29).choice(n_values - 2, 6) + 1]
        regions = {"stamps": range(HEADER_LENGTH, block),
                   "snapshots": [block + 16 * i + k for i in values for k in range(16)]}
        raised = dict.fromkeys(regions, 0)
        mismatched = 0
        for region, where in regions.items():
            for at in where:
                byte = clean[at]
                for value in (0, 1, 0x7F, 0x80, 0xFF, byte ^ 1, byte ^ 0x40):
                    blob = bytearray(clean)
                    blob[at] = value
                    path.write_bytes(bytes(blob))
                    try:
                        loaded = load_trajectory(path)
                    except RegLabError:
                        raised[region] += 1
                        continue
                    save_trajectory(loaded, back)
                    mismatched += back.read_bytes() != bytes(blob)
        assert mismatched == 0
        # both regions reach the loader's checks: 118 and 3 of 616 and 896 changes raise
        assert raised == {"stamps": 118, "snapshots": 3}

    def test_two_grid_file_is_format_error(self, tmp_path):
        # the format once stored a pair of grids (x', y); a field now lives on one
        path = tmp_path / "pair.rglb"
        path.write_bytes(two_grid_file())
        with pytest.raises(FormatError, match="grid count 2"):
            load_trajectory(path)

    def test_ode_run_file_is_format_error(self, tmp_path):
        # the format once stored ODE runs as a second record kind; a file now holds
        # trajectories only
        path = tmp_path / "ode.rglb"
        path.write_bytes(ode_run_file())
        with pytest.raises(FormatError, match="kind 1"):
            load_trajectory(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            load_trajectory(tmp_path / "nope.rglb")


class TestReports:
    def good_report(self):
        return {
            "experiment": "verify-kernel",
            "tool_version": "0.1.0",
            "config": {"alpha": 1.0},
            "seed": 1,
            "passed": True,
            "checks": [
                {
                    "name": "c_alpha_at_one",
                    "measured": 4.51351666838205,
                    "expected": 4.513516668382045,
                    "tolerance": 1e-10,
                    "provenance": "derived-oracle",
                    "passed": True,
                }
            ],
            "tables": {
                "scan": {"columns": ["x", "y"], "rows": [[1.0, 2.0], [3.0, 4.0]]}
            },
            "timing": {"timestamp": "2026-01-01T00:00:00Z", "wall_clock_seconds": 0.1},
        }

    def test_validate_accepts_good(self):
        validate_report(self.good_report())

    def test_validate_rejects_missing_provenance(self):
        rep = self.good_report()
        del rep["checks"][0]["provenance"]
        with pytest.raises(FormatError):
            validate_report(rep)

    def test_validate_rejects_unknown_provenance(self):
        rep = self.good_report()
        rep["checks"][0]["provenance"] = "gut-feeling"
        with pytest.raises(FormatError):
            validate_report(rep)

    def test_write_emits_json_and_csv(self, tmp_path):
        path = write_report(self.good_report(), tmp_path, "verify-kernel")
        data = json.loads(Path(path).read_text())
        assert data["experiment"] == "verify-kernel"
        csv_text = (tmp_path / "verify-kernel.scan.csv").read_text()
        assert csv_text.splitlines()[0] == "x,y"
        assert csv_text.splitlines()[1] == "1.0,2.0"

    def test_byte_identical_modulo_timing(self, tmp_path):
        rep1 = self.good_report()
        rep2 = self.good_report()
        rep2["timing"] = {"timestamp": "2030-12-31T23:59:59Z", "wall_clock_seconds": 9.9}
        p1 = write_report(rep1, tmp_path / "a", "r")
        p2 = write_report(rep2, tmp_path / "b", "r")
        d1 = json.loads(Path(p1).read_text())
        d2 = json.loads(Path(p2).read_text())
        d1.pop("timing")
        d2.pop("timing")
        s1 = json.dumps(d1, sort_keys=True)
        s2 = json.dumps(d2, sort_keys=True)
        assert s1 == s2
