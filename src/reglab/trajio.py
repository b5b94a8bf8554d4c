"""Binary persistence for trajectories, plus report emission.

File layout (all little-endian):

    magic      4 bytes  b"RGLB"
    version    u32      currently 1
    kind       u32      always 0: a Strang-split evolution trajectory
    n_grids    u32      always 1: every field lives on one Grid1D
    n_channels u32      always 1
    n_points   u32
    half_len   f64
    dt         f64
    alpha, lambda_re, lambda_im, theta   f64 each
    scheme     u32      always 0 = strang_exact_nl
    flags      u32      bit0 blow-up present, bit1 odd rows (always set: the solver
                        stores each row as the odd reflection of its y > 0 samples)
    blowup_t   f64      NaN when absent
    z0_re,z0_im f64     always zero
    n_times    u64
    times      f64 * n_times             ("times" section)
    snapshots  c128 * n_times*n_points   ("snapshots" section)

A file whose kind, channel count or scheme differs from these values is a
FormatError, as is one whose flags are not 2 or 3, whose blowup_t is not
finite and at or after the last time stamp with bit 0 set or not the NaN
that save writes with it clear, whose z0 bytes are not all zero, whose
grid, dt, parameters or time stamps no Trajectory can hold, or one with a
NaN or infinite snapshot value; its offset is that of the failing field or
value.  So a file that loads saves back byte for byte.
Snapshot payloads are written with numpy's little-endian complex128 codec,
so a save/load round trip is bit-exact.  A JSON sidecar (<path>.json)
duplicates the metadata for humans.  Writes are atomic: a uniquely named
temp file in the target's directory is fsynced, then renamed over it.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
import tempfile

import numpy as np

from .errors import DomainError, FormatError, IoError, VersionError
from .evolution import Trajectory
from .grids import Grid1D
from .ode import NonlinearityParams

__all__ = [
    "save_trajectory",
    "load_trajectory",
    "write_report",
    "validate_report",
    "REPORT_PROVENANCES",
]

MAGIC = b"RGLB"
FORMAT_VERSION = 1
_KIND_TRAJECTORY = 0
_SCHEME_STRANG = 0

_FLAG_BLOWUP = 1
_FLAG_ODD_ROWS = 2

_HEADER = struct.Struct("<4s5Id5d2I3dQ")  # magic to n_times of the layout above: 112 bytes
_NO_BLOWUP = struct.pack("<d", math.nan)  # the blowup_t bytes of a run without blow-up


def _atomic_write(path: str, *parts) -> None:
    """Write the byte buffers ``parts`` in order, as one atomic file."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(prefix=os.path.basename(path) + ".tmp.",
                                   dir=os.path.dirname(path) or ".")
        with os.fdopen(fd, "wb") as fh:
            os.umask(umask := os.umask(0o022))  # read the umask
            os.chmod(tmp, 0o666 & ~umask)  # the mode open() would give, not 0600
            for part in parts:
                fh.write(part)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as err:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        raise IoError(f"cannot write {path}: {err}") from err


def _make_dir(path) -> None:
    """Create directory ``path`` and its parents if missing; IoError if that fails."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as err:
        raise IoError(f"cannot create directory {path}: {err}") from err


def _header_and_payload(traj) -> tuple[tuple, dict]:
    if not isinstance(traj, Trajectory):
        raise IoError(f"cannot serialize object of type {type(traj).__name__}")
    flags = _FLAG_ODD_ROWS | (_FLAG_BLOWUP if traj.blowup_time is not None else 0)
    blowup = traj.blowup_time if traj.blowup_time is not None else math.nan
    grid, params = traj.grid, traj.params

    header = _HEADER.pack(MAGIC, FORMAT_VERSION, _KIND_TRAJECTORY, 1, 1, grid.n_points,
                          grid.half_length, traj.dt, params.alpha, params.lam.real,
                          params.lam.imag, params.theta, _SCHEME_STRANG, flags, blowup,
                          0.0, 0.0, len(traj.times))

    # the snapshot block goes to the file as a view, never as a bytes copy
    snapshots = memoryview(np.ascontiguousarray(traj.values, dtype="<c16")).cast("B")
    payload = (header, np.asarray(traj.times, dtype="<f8").tobytes(), snapshots)

    meta = {
        "format_version": FORMAT_VERSION,
        "kind": "trajectory",
        "n_points": [int(grid.n_points)],
        "half_length": [float(grid.half_length)],
        "dt": float(traj.dt),
        "alpha": float(params.alpha),
        "lambda": [params.lam.real, params.lam.imag],
        "theta": float(params.theta),
        "scheme": "strang_exact_nl",
        "n_times": int(len(traj.times)),
        "blowup_time": None if math.isnan(blowup) else float(blowup),
    }
    return payload, meta


def save_trajectory(traj, path) -> None:
    """Persist a Trajectory with a JSON metadata sidecar; anything else is an
    IoError raised before any file is written."""
    path = os.fspath(path)
    payload, meta = _header_and_payload(traj)
    _atomic_write(path, *payload)
    _atomic_write(path + ".json",
                  (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def _read_aligned(path: str) -> np.ndarray:
    """The whole file as one uint8 array, read once with ``readinto``.

    Its size comes from the file, never from a header field.  The array
    ends on a 16-byte boundary, so the snapshot block of a valid file, which
    ends the file, can be viewed as aligned complex128."""
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            raw = np.empty(size + 15, dtype=np.uint8)
            start = -(raw.ctypes.data + size) % 16
            blob = raw[start:start + size]
            n_read = fh.readinto(blob)
    except OSError as err:
        raise IoError(f"cannot read {path}: {err}") from err
    if n_read != size:
        raise IoError(f"cannot read {path}: got {n_read} of {size} bytes")
    return blob


def load_trajectory(path):
    """Load a file written by :func:`save_trajectory` (bit-exact round trip).

    The file is read once; times and snapshots are writable views of that
    buffer.  Raises FormatError or VersionError on a corrupt file (a NaN or
    infinite snapshot value included), IoError if unreadable."""
    path = os.fspath(path)
    blob = _read_aligned(path)

    magic = blob[:4].tobytes()
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}", offset=0)
    if len(blob) < _HEADER.size:
        raise FormatError(f"truncated file: missing section 'header' ({len(blob)} of "
                          f"{_HEADER.size} bytes)", offset=0)
    (_, version, kind, n_grids, n_channels, n_points, half_len, dt, alpha, lam_re, lam_im,
     theta, scheme_code, flags, blowup, _, _, n_times) = _HEADER.unpack_from(blob)
    if version != FORMAT_VERSION:
        raise VersionError(
            f"unsupported format version {version} (expected {FORMAT_VERSION})"
        )
    if (kind, n_grids, n_channels) != (_KIND_TRAJECTORY, 1, 1):
        raise FormatError(f"kind {kind}, grid count {n_grids}, channel count {n_channels} "
                          "is not a trajectory on one grid", offset=8)
    if scheme_code != _SCHEME_STRANG:
        raise FormatError(f"scheme code {scheme_code} is not Strang splitting", offset=72)
    if flags not in (_FLAG_ODD_ROWS, _FLAG_ODD_ROWS | _FLAG_BLOWUP):
        raise FormatError(f"flags {flags:#x} are not the odd-rows bit with or without "
                          "the blow-up bit", offset=76)
    if flags & _FLAG_BLOWUP:
        if not math.isfinite(blowup):
            raise FormatError(f"blowup_t {blowup} of a blown-up run is not finite", offset=80)
        blowup_time = blowup
    elif blob[80:88].tobytes() != _NO_BLOWUP:
        raise FormatError(f"blowup_t {blowup} of a run without blow-up is not the NaN that "
                          "save writes", offset=80)
    else:
        blowup_time = None
    for offset in (88, 96):
        if blob[offset:offset + 8].any():
            raise FormatError("z0 is not zero", offset=offset)

    def checked(offset, build):
        """build(), with a DomainError reported as a FormatError at ``offset``."""
        try:
            return build()
        except DomainError as err:
            raise FormatError(f"invalid header or time stamps: {err}", offset=offset) from None

    grid = checked(20, lambda: Grid1D(n_points, half_len))
    if not (0.0 < dt < math.inf):
        raise FormatError(f"invalid header: dt must be finite and positive, got {dt}", offset=32)
    params = checked(40, lambda: NonlinearityParams(alpha, complex(lam_re, lam_im), theta))
    mid = _HEADER.size + 8 * n_times  # where the times end and the snapshots start
    end = mid + 16 * n_times * n_points
    for section, start, stop in (("times", _HEADER.size, mid), ("snapshots", mid, end)):
        if stop > len(blob):
            raise FormatError(f"truncated file: missing section '{section}'", offset=start)
    if end != len(blob):
        raise FormatError("trailing bytes after snapshots", offset=end)
    times = blob[_HEADER.size:mid].view("<f8")
    if blowup_time is not None and n_times and blowup_time < times[-1]:
        raise FormatError(f"blowup_t {blowup_time} precedes the last time stamp {times[-1]}",
                          offset=80)
    snaps = blob[mid:end].view("<c16")
    traj = checked(112, lambda: Trajectory(params, grid, times, snaps.reshape(n_times, n_points),
                                           dt, blowup_time))
    for k in range(0, n_times, 64):  # 64 rows at a time: no mask the size of the block
        finite = np.isfinite(traj.values[k:k + 64])
        if not finite.all():
            i = k * n_points + int(np.argmin(finite))
            raise FormatError(f"snapshot value {i} is not finite", offset=mid + 16 * i)
    return traj


# ---------------------------------------------------------------------------
# Reports

REPORT_PROVENANCES = ("paper-eq", "trivial", "derived-oracle")


def validate_report(report: dict) -> None:
    """Schema check: every expected-value entry must carry its provenance."""
    for key in ("experiment", "config", "checks", "passed", "tool_version"):
        if key not in report:
            raise FormatError(f"report missing required key '{key}'")
    for i, check in enumerate(report["checks"]):
        for key in ("name", "passed", "measured", "expected", "provenance", "tolerance"):
            if key not in check:
                raise FormatError(f"check #{i} missing key '{key}'")
        if check["provenance"] not in REPORT_PROVENANCES:
            raise FormatError(
                f"check #{i} has unknown provenance '{check['provenance']}'"
            )


def write_report(report: dict, out_dir, name: str) -> str:
    """Write the JSON report and CSV tables; returns the JSON path.

    The JSON is serialized with sorted keys and fixed separators so that
    identical configs and seeds produce byte-identical files; wall-clock
    data lives under the isolated top-level "timing" key.
    """
    validate_report(report)
    _make_dir(out_dir)
    json_path = os.path.join(os.fspath(out_dir), f"{name}.json")
    text = json.dumps(report, indent=2, sort_keys=True, separators=(",", ": ")) + "\n"
    _atomic_write(json_path, text.encode("utf-8"))
    for table_name, table in report.get("tables", {}).items():
        rows = [",".join(str(c) for c in table["columns"])]
        for row in table["rows"]:
            rows.append(",".join(repr(c) if isinstance(c, float) else str(c)
                                 for c in row))
        csv_path = os.path.join(os.fspath(out_dir), f"{name}.{table_name}.csv")
        _atomic_write(csv_path, ("\n".join(rows) + "\n").encode("utf-8"))
    return json_path
