"""Span recording around calls into spintomo's public functions.

``Tracer.install`` replaces each function in ``LAYERS`` with a wrapper in
every ``spintomo`` module that holds a reference to it, so calls made from
inside the library are recorded too; nothing under ``src/`` is edited.  A span
is (layer, start, end, parent span, op tag, extra count).  A layer's self time
is its span's duration minus the durations of its direct child spans.

Only the standard library is imported here, so the CLI child driver can load
this module before timing the import of ``spintomo``.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import sys
from time import perf_counter


def _n_frames(args, kwargs, out):
    return out.n_frames


def _draws(args, kwargs, out):
    return out.shape[0]


def _stack_mb(args, kwargs, out):
    return (out.us.nbytes + out.ds.nbytes) / 1e6


def _bytes_written(args, kwargs, out):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return len(text.encode("utf-8"))


# (module, attribute path, extra metric name, extra function, how extras combine)
LAYERS = [
    ("su2", "rotation_matrix", None, None, None),
    ("su2", "wigner_small_d", None, None, None),
    ("su2", "clebsch_gordan", None, None, None),
    ("quadrature", "make_grid", None, None, None),
    ("symbols", "grid_frames", None, None, None),
    ("symbols", "spin_tomogram", "symbols.spin_tomogram.frames", _n_frames, "sum"),
    ("symbols", "QuantizerPair.spin", "symbols.QuantizerPair.spin.stack_mb", _stack_mb, "max"),
    ("symbols", "QuantizerPair.synthesize", None, None, None),
    ("reconstruction", "reconstruct_operator", None, None, None),
    ("star", "star_compose", None, None, None),
    ("star", "symbol_trace", None, None, None),
    ("star", "trace_power", None, None, None),
    ("channels", "channel_propagator", None, None, None),
    ("symbols", "unitary_tomogram", "symbols.unitary_tomogram.frames", _n_frames, "sum"),
    ("reconstruction", "reconstruct_from_unitary_frame", None, None, None),
    ("reconstruction", "reconstruction_residual", None, None, None),
    ("reconstruction", "infer_grid", None, None, None),
    ("simplex", "image_sample", None, None, None),
    ("simplex", "image_dimension_report", None, None, None),
    ("simplex", "peres_scan", None, None, None),
    ("entropy", "min_entropy_over_group", None, None, None),
    ("dynamics", "evolve_tomogram", None, None, None),
    ("linalg", "haar_unitaries", "linalg.haar_unitaries.draws", _draws, "sum"),
    ("linalg", "DensityMatrix", None, None, None),
    ("io", "read_json", None, None, None),
    ("io", "tomogram_from_obj", None, None, None),
    ("io", "tomogram_to_obj", None, None, None),
    ("io", "dumps", None, None, None),
    ("io", "csv_text", None, None, None),
    ("io", "write_text_atomic", "io.bytes_written", _bytes_written, "sum"),
    ("cli", "main", None, None, None),
]

EXTRA_UNITS = {"frames": "count", "draws": "count", "stack_mb": "MB", "bytes_written": "B"}


def layer_name(module: str, attr: str) -> str:
    return f"{module}.{attr}"


def metric_specs() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""
    specs = []
    for module, attr, extra, _, _ in LAYERS:
        name = layer_name(module, attr)
        specs.append((f"{name}.calls", "count"))
        specs.append((f"{name}.self_s", "s"))
        if extra:
            specs.append((extra, EXTRA_UNITS[extra.rsplit(".", 1)[1]]))
    specs.append(("cli.import_s", "s"))
    return specs


class Tracer:
    """In-memory span store; wrappers record only while ``active`` is set."""

    def __init__(self):
        self.active = False
        self.tag = ""
        self.names: list[str] = []
        self.t0: list[float] = []
        self.t1: list[float] = []
        self.parent: list[int] = []
        self.tags: list[str] = []
        self.extra: list[float] = []
        self.import_s: list[float] = []
        self.pending: list[str] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn, extra_fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.tags.append(tracer.tag)
            tracer.extra.append(0.0)
            tracer.t0.append(0.0)
            tracer.t1.append(0.0)
            tracer._stack.append(idx)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.t0[idx] = start
                tracer.t1[idx] = end
            if extra_fn is not None:
                tracer.extra[idx] = float(extra_fn(args, kwargs, out))
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every function in LAYERS wherever spintomo modules refer to it."""
        import importlib

        for module, _, _, _, _ in LAYERS:
            importlib.import_module(f"spintomo.{module}")
        holders = [m for k, m in sys.modules.items() if k == "spintomo" or k.startswith("spintomo.")]
        for module, attr, _, extra_fn, _ in LAYERS:
            name = layer_name(module, attr)
            mod = sys.modules[f"spintomo.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self._wrap(name, raw.__func__, extra_fn)))
                else:
                    setattr(cls, meth, self._wrap(name, raw, extra_fn))
                continue
            orig = getattr(mod, attr)
            if isinstance(orig, type):
                # class construction: time __init__ (dataclass validation included)
                orig.__init__ = self._wrap(name, orig.__init__, extra_fn)
                continue
            wrapped = self._wrap(name, orig, extra_fn)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        setattr(holder, key, wrapped)

    # -- spans from CLI child processes ---------------------------------

    def dump_child(self, path: str, import_s: float) -> None:
        """Write this process's spans for the parent benchmark to absorb."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": self._rows()}, fh)

    def absorb_pending(self) -> None:
        """Merge spans written by CLI children under the current op tag."""
        for path in self.pending:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            base = len(self.names)
            for name, t0, t1, parent, _, extra in doc["spans"]:
                self.names.append(name)
                self.t0.append(t0)
                self.t1.append(t1)
                self.parent.append(parent + base if parent >= 0 else -1)
                self.tags.append(self.tag)
                self.extra.append(extra)
            self.import_s.append(doc["import_s"])
        self.pending.clear()

    # -- aggregation -----------------------------------------------------

    def _totals(self):
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.t1[i] - self.t0[i]
        by_name: dict[str, list[float]] = {}
        by_tag: dict[tuple[str, str], list[float]] = {}
        combine = {layer_name(m, a): how for m, a, _, _, how in LAYERS}
        for i in range(n):
            dur = self.t1[i] - self.t0[i]
            for key, table in ((self.names[i], by_name), ((self.names[i], self.tags[i]), by_tag)):
                row = table.setdefault(key, [0, 0.0, 0.0, 0.0])
                row[0] += 1
                row[1] += dur - child[i]
                row[2] += dur
                if combine.get(self.names[i]) == "max":
                    row[3] = max(row[3], self.extra[i])
                else:
                    row[3] += self.extra[i]
        return by_name, by_tag

    def metrics(self, passes: int) -> dict[str, dict]:
        """Per-layer metrics per pass of the op stream (stack sizes as maxima)."""
        by_name, _ = self._totals()
        out = {}
        for module, attr, extra, _, how in LAYERS:
            name = layer_name(module, attr)
            calls, self_s, _, ext = by_name.get(name, [0, 0.0, 0.0, 0.0])
            out[f"{name}.calls"] = calls / passes
            out[f"{name}.self_s"] = self_s / passes
            if extra:
                out[extra] = ext if how == "max" else ext / passes
        out["cli.import_s"] = statistics.median(self.import_s) if self.import_s else 0.0
        units = dict(metric_specs())
        return {k: {"value": v, "unit": units[k]} for k, v in out.items()}

    def report(self, op_counts: dict[str, int]) -> list[str]:
        """Time per op for each layer and op tag.

        Op tags carry the scaling axis (spin j, or state dimension d and frame
        count F), so spin layers come out by j and unitary layers by F.
        """
        _, by_tag = self._totals()
        lines = ["layer | op tag | calls/op | total ms/op | self ms/op | extra"]
        for module, attr, extra, _, how in LAYERS:
            name = layer_name(module, attr)
            rows = [(tag, v) for (n, tag), v in by_tag.items() if n == name]
            for tag, (calls, self_s, total, ext) in rows:
                ops = op_counts.get(tag, 1)
                ext_txt = ""
                if extra:
                    short = extra.rsplit(".", 1)[1]
                    ext_txt = f"{short}={ext:.4g}" if how == "max" else f"{short}/op={ext / ops:.4g}"
                lines.append(
                    f"{name} | {tag} | {calls / ops:.4g} | {1e3 * total / ops:.4g} | "
                    f"{1e3 * self_s / ops:.4g} | {ext_txt}"
                )
        return lines

    def _rows(self) -> list[list]:
        return [
            [self.names[i], self.t0[i], self.t1[i], self.parent[i], self.tags[i], self.extra[i]]
            for i in range(len(self.names))
        ]

    def write_spans(self, path: str) -> None:
        doc = {"columns": ["layer", "start_s", "end_s", "parent", "tag", "extra"], "spans": self._rows()}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)
