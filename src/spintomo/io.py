"""JSON and CSV serialization for matrices, states and tomograms.

Matrix schema: {"dim": n, "dims": [n1, ...], "re": [...], "im": [...]} with
row-major flat entry lists; "dims" is read by ``linalg._subsystem_dims``, so
its product is exact and each size at least 1.  Tomogram schema carries
either "j_twice" with Euler-angle frames or "dims" with unitary/product
frames, and "outcomes" that must be the labels these imply.  All writers are
deterministic: fixed key order, repr-based floats, 17 significant digits in
CSV.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .errors import LIMITS
from .halfint import HalfInt
from .linalg import DensityMatrix, _check_bytes, _require_finite, _subsystem_dims
from .symbols import SpinFrames, Tomogram, _real_table


def fmt_float(x: float) -> str:
    """Locale-independent decimal form with 17 significant digits."""
    return format(float(x), ".17g")


def matrix_to_obj(m, dims=None) -> dict:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("only square matrices are serialized")
    obj = {
        "dim": int(m.shape[0]),
        "re": m.real.reshape(-1).tolist(),
        "im": m.imag.reshape(-1).tolist(),
    }
    if dims is not None:
        obj["dims"] = [int(d) for d in dims]
    return obj


_KINDS = {int: ("integer", {int}), float: ("number", {int, float}), dict: ("object", {dict})}


def _present(obj: dict, key: str):
    """``obj[key]``, or a ValueError naming the missing field."""
    if key not in obj:
        raise ValueError(f"field '{key}' is missing")
    return obj[key]


def _field(obj: dict, key: str, of: type = int, listed: int = 0):
    """``obj[key]`` checked to hold a JSON ``of`` (integer, number or object),
    or lists of them nested ``listed`` deep; any other JSON type is a
    ValueError naming the field, and so is an integer beyond the double range.
    Numbers come back as a float, lists of them as a float array."""
    value = _present(obj, key)
    kind, types = _KINDS[of]
    items, depth = [value], 0
    while depth < listed and all(type(v) is list for v in items):
        items, depth = [x for v in items for x in v], depth + 1
    if depth < listed or not set(map(type, items)) <= types:
        want = f"a JSON list of {'lists of ' * (listed - 1)}{kind}s" if listed else f"a JSON {kind}"
        raise ValueError(f"field '{key}' must be {want}, got {type(value).__name__} {value!r:.40}")
    if of is not float:
        return value
    try:
        return np.asarray(value, dtype=float) if listed else float(value)
    except OverflowError:
        raise ValueError(f"field '{key}' holds an integer beyond the double range") from None


def matrix_from_obj(obj) -> tuple[np.ndarray, tuple[int, ...] | None]:
    if not isinstance(obj, dict) or "dim" not in obj:
        raise ValueError("matrix object must be a dict with a 'dim' field")
    n = _field(obj, "dim")
    if n < 1:
        raise ValueError(f"field 'dim' must be at least 1, got {n}")
    re = _field(obj, "re", float, listed=1) if "re" in obj else np.zeros(0)
    im = _field(obj, "im", float, listed=1) if "im" in obj else np.zeros(n * n)
    if re.size != n * n or im.size != n * n:
        raise ValueError(f"matrix entry lists must have length dim^2 = {n * n}")
    _require_finite(np.stack([re, im]), "matrix entries")
    mat = (re + 1j * im).reshape(n, n)
    dims = _subsystem_dims(_field(obj, "dims", listed=1), n, "dim") if "dims" in obj else None
    return mat, dims


def density_to_obj(rho: DensityMatrix) -> dict:
    return matrix_to_obj(rho.mat, rho.dims)


def density_from_obj(obj, dims=None) -> DensityMatrix:
    mat, file_dims = matrix_from_obj(obj)
    return DensityMatrix(mat, dims or file_dims)


def frame_from_obj(obj):
    """A unitary frame: a ``"unitary"`` matrix, or a tuple of product-frame ``"factors"``."""
    if not isinstance(obj, dict):
        raise ValueError(f"a frame entry must be a JSON object, got {type(obj).__name__}")
    if "factors" in obj:
        return tuple(matrix_from_obj(f)[0] for f in _field(obj, "factors", dict, listed=1))
    if "unitary" in obj:
        return matrix_from_obj(obj["unitary"])[0]
    raise ValueError(f"unrecognized frame object: {sorted(obj)}")


def _frames_to_obj(frames) -> list[dict]:
    if frames.kind == "spin":
        # a spin frame is R(0, beta, gamma), so its alpha is written as 0
        angles = zip(frames.betas.tolist(), frames.gammas.tolist())
        return [{"alpha": 0.0, "beta": b, "gamma": g} for b, g in angles]
    if frames.factors is None:
        return [{"unitary": matrix_to_obj(u)} for u in frames.stacks[0]]
    return [{"factors": [matrix_to_obj(f) for f in fs]} for fs in zip(*frames.factors)]


def _spin_frames_from_obj(j: HalfInt, objs: list) -> SpinFrames:
    """Spin frames from angle objects.  An ``"alpha"`` angle is optional; it is
    checked like beta and gamma, then dropped, as no spin symbol depends on it."""
    if not all(isinstance(f, dict) and "beta" in f and "gamma" in f for f in objs):
        raise ValueError("spin frame entries must be JSON objects with 'beta' and 'gamma' angles")
    angles = ("alpha", "beta", "gamma")
    rows = np.array([[_field(f, a, float) if a in f else 0.0 for a in angles] for f in objs], dtype=float)
    _require_finite(rows, "frame angles")
    _, betas, gammas = rows.reshape(-1, 3).T
    return SpinFrames(j, betas, gammas)


def _outcome_labels(t: Tomogram) -> list:
    """Outcomes as written: twice-m for spin, index lists for unitary."""
    return [m.twice for m in t.outcomes] if t.kind == "spin" else [list(o) for o in t.outcomes]


def tomogram_to_obj(t: Tomogram) -> dict:
    labels = {"j_twice": t.j.twice} if t.kind == "spin" else {"dims": list(t.dims)}
    obj = {"kind": t.kind, **labels, "outcomes": _outcome_labels(t), "frames": _frames_to_obj(t.frames)}
    obj["values"] = t.table.real.tolist()
    if np.max(np.abs(t.table.imag)) > LIMITS["values_im"]:
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
    values = _field(obj, "values", float, listed=2)
    if "values_im" in obj:
        values = values.astype(complex)
        values.imag = _field(obj, "values_im", float, listed=2)
    frames = _present(obj, "frames")
    if not isinstance(frames, list):
        raise ValueError(f"tomogram frames must be a JSON list of frame objects, got {type(frames).__name__}")
    if kind == "spin":
        t = Tomogram(_spin_frames_from_obj(HalfInt(_field(obj, "j_twice")), frames), values)
    else:
        t = Tomogram([frame_from_obj(f) for f in frames], values, dims=_field(obj, "dims", listed=1))
    if obj.get("outcomes") != _outcome_labels(t):
        source = "j_twice" if kind == "spin" else "dims"
        raise ValueError(f"tomogram outcomes do not match the labels that its {source} implies")
    return t


def dumps(obj) -> str:
    """Deterministic JSON text; NaN and infinities, which JSON has no form for,
    are refused (ValueError)."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


_PARSE_BYTES = 32  # peak bytes of ``json.load`` per byte of file, see ``read_json``


def read_json(path: str):
    """The JSON value in a file, refused (ValueError) before it is parsed when
    the file's size times ``_PARSE_BYTES`` exceeds the byte budget, so above 32 MiB.

    ``json.load`` takes this peak per byte of file, the text included
    (tracemalloc, CPython 3.11, 2e5-entry lists): 25 B for a list of {}, 22 B
    for a list of [], 31 B for [[]], 5 to 9 B for lists of short numbers and
    2.7 B for the floats ``dumps`` writes.  Only empty containers nested four
    or more deep take more, up to about 45 B.  A number that ``dumps`` writes
    takes 10 to 30 B of indented text, so reading it back is estimated at 320
    to 960 B, against the 352 B (``cli._NUMBER_BYTES["json"]``) counted when it
    was written: a JSON output near the byte budget can be too large to read.
    """
    with open(path, "r", encoding="utf-8") as fh:
        size = os.fstat(fh.fileno()).st_size
        _check_bytes(size * _PARSE_BYTES, "parsing the {}-byte JSON file {}", size, path)
        return json.load(fh)


def write_text_atomic(path: str, text: str) -> None:
    """Write the fully rendered output, or nothing at all.

    An OSError with a system reason is raised again, of its class, naming
    ``path`` and not the temporary file: "cannot write {path}: {reason}".
    """
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".spintomo-")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        # mkstemp files are 0600; give the output ordinary umask-derived bits
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.strerror:
            raise type(exc)(f"cannot write {path}: {exc.strerror}") from exc
        raise


def csv_text(header: list[str], rows) -> str:
    """The header line, then each row of numbers in one 17-significant-digit template."""
    template = ",".join(["%.17g"] * len(header))
    return "\n".join([",".join(header), *(template % tuple(row) for row in rows)]) + "\n"


def tomogram_csv(t: Tomogram) -> str:
    """One row per frame: its angles (alpha 0, as in ``_frames_to_obj``) or its
    index, then the real symbols over the outcomes; a complex table is refused."""
    if t.kind == "spin":
        header = ["alpha", "beta", "gamma"] + [f"w_m{m.twice}" for m in t.outcomes]
        labels = [np.zeros(t.n_frames), t.frames.betas, t.frames.gammas]
    else:
        header = ["frame_index"] + ["w_" + "".join(str(i) for i in o) for o in t.outcomes]
        labels = [np.arange(t.n_frames)]
    return csv_text(header, np.column_stack([*labels, _real_table(t).T]).tolist())


def simplex_sample_csv(sample) -> str:
    """One row per sampled point: flattened group parameters, then probabilities."""
    params = sample.params  # drawn again from the sample's generator: read once
    header = []
    for f_idx, factor in enumerate(params):
        d = factor.shape[-1]
        for r in range(d):
            for c in range(d):
                header.append(f"u{f_idx}_{r}{c}_re")
                header.append(f"u{f_idx}_{r}{c}_im")
    header.extend(f"p_{k}" for k in range(sample.points.shape[1]))
    n = sample.points.shape[0]
    columns = [np.stack([f.real, f.imag], axis=-1).reshape(n, -1) for f in params]
    return csv_text(header, np.hstack(columns + [sample.points]).tolist())
