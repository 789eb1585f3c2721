"""JSON and CSV serialization for matrices, states, tomograms, and channels.

Matrix schema: {"dim": n, "dims": [n1, ...], "re": [...], "im": [...]} with
row-major flat entry lists.  Tomogram schema carries either "j_twice" with
Euler-angle frames or "dims" with unitary/product frames, and "outcomes" that
must be the labels these imply.  All writers are
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
from .symbols import SpinFrames, Tomogram


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


def frame_from_obj(obj):
    """A unitary frame: a ``"unitary"`` matrix, or a tuple of product-frame ``"factors"``."""
    if not isinstance(obj, dict):
        raise ValueError(f"a frame entry must be a JSON object, got {type(obj).__name__}")
    if "factors" in obj:
        return tuple(matrix_from_obj(f)[0] for f in obj["factors"])
    if "unitary" in obj:
        return matrix_from_obj(obj["unitary"])[0]
    raise ValueError(f"unrecognized frame object: {sorted(obj)}")


def _frames_to_obj(frames) -> list[dict]:
    if isinstance(frames, SpinFrames):
        angles = zip(frames.alphas.tolist(), frames.betas.tolist(), frames.gammas.tolist())
        return [{"alpha": a, "beta": b, "gamma": g} for a, b, g in angles]
    if frames.factors is None:
        return [{"unitary": matrix_to_obj(u)} for u in frames.stack]
    return [{"factors": [matrix_to_obj(f) for f in fs]} for fs in zip(*frames.factors)]


def _spin_frames_from_obj(j: HalfInt, objs: list) -> SpinFrames:
    """Spin frames from angle objects, read as alpha, beta and gamma columns."""
    if not all(isinstance(f, dict) and "beta" in f and "gamma" in f for f in objs):
        raise ValueError("spin frame entries must be JSON objects with 'beta' and 'gamma' angles")
    rows = [(f.get("alpha", 0.0), f["beta"], f["gamma"]) for f in objs]
    alphas, betas, gammas = np.array(rows, dtype=float).reshape(-1, 3).T
    return SpinFrames(j, betas, gammas, alphas)


def _outcome_labels(t: Tomogram) -> list:
    """Outcomes as written: twice-m for spin, index lists for unitary."""
    return [m.twice for m in t.outcomes] if t.kind == "spin" else [list(o) for o in t.outcomes]


def tomogram_to_obj(t: Tomogram) -> dict:
    labels = {"j_twice": t.j.twice} if t.kind == "spin" else {"dims": list(t.dims)}
    obj = {"kind": t.kind, **labels, "outcomes": _outcome_labels(t), "frames": _frames_to_obj(t.frames)}
    obj["values"] = t.table.real.tolist()
    if np.max(np.abs(t.table.imag)) > 1e-12:
        obj["values_im"] = t.table.imag.tolist()
    return obj


def tomogram_from_obj(obj) -> Tomogram:
    """Tomogram from its JSON object; the ``outcomes`` must be the labels that
    ``j_twice`` (spin) or ``dims`` (unitary) imply."""
    if not isinstance(obj, dict):
        raise ValueError(f"a tomogram must be a JSON object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind not in ("spin", "unitary"):
        raise ValueError("tomogram kind must be 'spin' or 'unitary'")
    values = np.asarray(obj["values"], dtype=float)
    _require_finite(values, "tomogram values")
    if "values_im" in obj:
        imag = np.asarray(obj["values_im"], dtype=float)
        _require_finite(imag, "tomogram values")
        values = values + 1j * imag
    frames = obj["frames"]
    if not isinstance(frames, list):
        raise ValueError(f"tomogram frames must be a JSON list of frame objects, got {type(frames).__name__}")
    if kind == "spin":
        t = Tomogram(_spin_frames_from_obj(HalfInt(int(obj["j_twice"])), frames), values)
    else:
        t = Tomogram([frame_from_obj(f) for f in frames], values, dims=[int(d) for d in obj["dims"]])
    if obj.get("outcomes") != _outcome_labels(t):
        source = "j_twice" if kind == "spin" else "dims"
        raise ValueError(f"tomogram outcomes do not match the labels that its {source} implies")
    return t


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
