"""JSON and CSV serialization for matrices, states, tomograms, and channels.

Matrix schema: {"dim": n, "dims": [n1, ...], "re": [...], "im": [...]} with
row-major flat entry lists.  Tomogram schema carries either "j_twice" with
Euler-angle frames or "dims" with unitary/product frames.  All writers are
deterministic: fixed key order, repr-based floats, 17 significant digits in
CSV.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .channels import CHANNEL_KINDS, KrausChannel, build_channel
from .halfint import HalfInt
from .linalg import DensityMatrix
from .symbols import EulerAngles, SpinFrame, Tomogram


def fmt_float(x: float) -> str:
    """Locale-independent decimal form with 17 significant digits."""
    return format(float(x), ".17g")


def matrix_to_obj(m, dims=None) -> dict:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("only square matrices are serialized")
    obj = {
        "dim": int(m.shape[0]),
        "re": [float(x) for x in m.real.reshape(-1)],
        "im": [float(x) for x in m.imag.reshape(-1)],
    }
    if dims is not None:
        obj["dims"] = [int(d) for d in dims]
    return obj


def _require_finite(values: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} must be finite numbers (found NaN or infinity)")


def matrix_from_obj(obj) -> tuple[np.ndarray, tuple[int, ...] | None]:
    if not isinstance(obj, dict) or "dim" not in obj:
        raise ValueError("matrix object must be a dict with a 'dim' field")
    n = int(obj["dim"])
    re = np.asarray(obj.get("re", []), dtype=float)
    im = np.asarray(obj.get("im", np.zeros(n * n)), dtype=float)
    if re.size != n * n or im.size != n * n:
        raise ValueError(f"matrix entry lists must have length dim^2 = {n * n}")
    _require_finite(np.stack([re, im]), "matrix entries")
    mat = (re + 1j * im).reshape(n, n)
    dims = tuple(int(d) for d in obj["dims"]) if "dims" in obj else None
    if dims is not None and int(np.prod(dims)) != n:
        raise ValueError(f"dims {dims} do not multiply to dim {n}")
    return mat, dims


def density_to_obj(rho: DensityMatrix) -> dict:
    return matrix_to_obj(rho.mat, rho.dims)


def density_from_obj(obj, dims=None) -> DensityMatrix:
    mat, file_dims = matrix_from_obj(obj)
    return DensityMatrix(mat, dims or file_dims or (mat.shape[0],))


def _frame_to_obj(frame) -> dict:
    if isinstance(frame, SpinFrame):
        a = frame.angles
        return {"alpha": a.alpha, "beta": a.beta, "gamma": a.gamma}
    if isinstance(frame, tuple):
        return {"factors": [matrix_to_obj(f) for f in frame]}
    return {"unitary": matrix_to_obj(frame)}


def frame_from_obj(obj, j: HalfInt | None = None):
    if "beta" in obj:
        if j is None:
            raise ValueError("angle frames require j_twice in the tomogram object")
        return SpinFrame(
            j, EulerAngles(float(obj.get("alpha", 0.0)), float(obj["beta"]), float(obj["gamma"]))
        )
    if "factors" in obj:
        return tuple(matrix_from_obj(f)[0] for f in obj["factors"])
    if "unitary" in obj:
        return matrix_from_obj(obj["unitary"])[0]
    raise ValueError(f"unrecognized frame object: {sorted(obj)}")


def tomogram_to_obj(t: Tomogram) -> dict:
    obj: dict = {"kind": t.kind}
    if t.kind == "spin":
        obj["j_twice"] = t.j.twice
        obj["outcomes"] = [m.twice for m in t.outcomes]
    else:
        obj["dims"] = list(t.dims)
        obj["outcomes"] = [list(o) for o in t.outcomes]
    obj["frames"] = [_frame_to_obj(f) for f in t.frames]
    obj["values"] = [[float(v) for v in row] for row in t.table.real]
    if np.max(np.abs(t.table.imag)) > 1e-12:
        obj["values_im"] = [[float(v) for v in row] for row in t.table.imag]
    return obj


def tomogram_from_obj(obj) -> Tomogram:
    kind = obj.get("kind")
    if kind not in ("spin", "unitary"):
        raise ValueError("tomogram kind must be 'spin' or 'unitary'")
    values = np.asarray(obj["values"], dtype=float)
    _require_finite(values, "tomogram values")
    if "values_im" in obj:
        imag = np.asarray(obj["values_im"], dtype=float)
        _require_finite(imag, "tomogram values")
        values = values + 1j * imag
    if kind == "spin":
        j = HalfInt(int(obj["j_twice"]))
        outcomes = [HalfInt(int(m)) for m in obj["outcomes"]]
        frames = [frame_from_obj(f, j) for f in obj["frames"]]
        return Tomogram(kind="spin", outcomes=outcomes, frames=frames, table=values, j=j)
    dims = tuple(int(d) for d in obj["dims"])
    outcomes = [tuple(int(i) for i in o) for o in obj["outcomes"]]
    frames = [frame_from_obj(f, None) for f in obj["frames"]]
    return Tomogram(kind="unitary", outcomes=outcomes, frames=frames, table=values, dims=dims)


def channel_from_obj(obj) -> KrausChannel:
    kind = obj.get("kind")
    if kind == "kraus":
        ops = [matrix_from_obj(o)[0] for o in obj.get("ops", [])]
        return KrausChannel(ops)
    if kind in CHANNEL_KINDS:
        if "p" not in obj:
            raise ValueError(f"channel kind {kind!r} requires a 'p' field")
        return build_channel(kind, float(obj["p"]))
    raise ValueError(f"unknown channel kind {kind!r}")


def channel_to_obj(channel: KrausChannel) -> dict:
    return {"kind": "kraus", "ops": [matrix_to_obj(v) for v in channel.ops]}


def dumps(obj) -> str:
    """Deterministic JSON text; NaN and infinities, which JSON has no form for,
    are refused (ValueError)."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_text_atomic(path: str, text: str) -> None:
    """Write the fully rendered output, or nothing at all."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".spintomo-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        # mkstemp files are 0600; give the output ordinary umask-derived bits
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def csv_text(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt_float(x) if isinstance(x, (int, float, np.floating)) else str(x) for x in row))
    return "\n".join(lines) + "\n"


def simplex_sample_csv(sample) -> str:
    """One row per sampled point: flattened group parameters, then probabilities."""
    header = []
    for f_idx, factor in enumerate(sample.params):
        d = factor.shape[-1]
        for r in range(d):
            for c in range(d):
                header.append(f"u{f_idx}_{r}{c}_re")
                header.append(f"u{f_idx}_{r}{c}_im")
    header.extend(f"p_{k}" for k in range(sample.points.shape[1]))
    n = sample.points.shape[0]
    columns = [np.stack([f.real, f.imag], axis=-1).reshape(n, -1) for f in sample.params]
    return csv_text(header, np.hstack(columns + [sample.points]).tolist())
