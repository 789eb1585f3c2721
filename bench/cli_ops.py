"""The ``cli_files`` workload: one fresh ``python -m spintomo.cli`` process per op.

Inputs are the repository's ``data/`` files plus spin states, a qubit frame
list and a state with a NaN entry that this module writes from the workload
seed.  Every op writes its output file and the check reads it back.  The last
three ops of a pass are refusals that must exit with code 2.  While traced,
each op runs ``cli_child.py`` instead, which installs the span wrappers in the
child and calls ``spintomo.cli.main``.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

from library import Op, Workload, _full_rank_state, _rng

CHILD_TIMEOUT_S = 120
DATA_FILES = ("two_qubit_mixed.json", "werner_q08.json", "bell_state.json",
              "qubit_state.json", "hamiltonian_z.json")


def _matrix_obj(m, dims=None) -> dict:
    obj = {"dim": int(m.shape[0]), "re": [float(x) for x in m.real.reshape(-1)],
           "im": [float(x) for x in m.imag.reshape(-1)]}
    if dims is not None:
        obj["dims"] = list(dims)
    return obj


def _matrix(np, obj):
    n = obj["dim"]
    return (np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)).reshape(n, n)


def _run_child(argv, env, cwd):
    """Run one child to completion; return (exit code, peak RSS in kB)."""
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


class CliFiles(Workload):
    """Each op is a separate CLI process, run one after another."""

    in_process = False
    # Ops differ little in latency (the import dominates), so four passes
    # (56 ops) are enough for the tail to sit among the heavier kinds.
    min_passes = 4

    def __init__(self, seed: int, root: Path, tracer=None):
        import numpy as np

        self.np = np
        self.seed = seed
        self.root = root
        self.tracer = tracer
        self.peak_rss_kb = 0
        self.data = root / "data"
        missing = [f for f in DATA_FILES if not (self.data / f).is_file()]
        if missing:
            raise FileNotFoundError(f"data files missing from {self.data}: {missing}")
        self.work = root / "bench" / "out" / f"cli-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.child_driver = str(Path(__file__).with_name("cli_child.py"))

        self.spin_states = {}
        for jt in (3, 6):
            m = _full_rank_state(np, _rng(np, seed, 6, jt), jt + 1)
            self.spin_states[jt] = m
            self._write(f"spin{jt}.json", _matrix_obj(m))
        frames = _haar(np, _rng(np, seed, 7), 2, 50)
        self.qubit_frames = frames
        self._write("qframes.json", [{"unitary": _matrix_obj(u)} for u in frames])
        bad = json.loads((self.data / "two_qubit_mixed.json").read_text())
        bad["re"][1] = float("nan")
        self._write("nan_state.json", bad)
        self.two_qubit = _matrix(np, json.loads((self.data / "two_qubit_mixed.json").read_text()))
        # warm-up: one child compiles the package's bytecode and fills the file cache
        self._cli("channel", "--kind", "depolarizing", "--out", self._path("warm.csv"), "--format", "csv")()

    def _path(self, name: str) -> str:
        return str(self.work / name)

    def _write(self, name: str, obj) -> None:
        Path(self._path(name)).write_text(json.dumps(obj), encoding="utf-8")

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def _cli(self, *args):
        args = [str(a) for a in args]

        def work():
            out = args[args.index("--out") + 1]
            if os.path.exists(out):
                os.unlink(out)
            if self.tracer is not None and self.tracer.active:
                spans = self._path("spans.json")
                argv = [sys.executable, self.child_driver, spans, *args]
                self.tracer.pending.append(spans)
            else:
                argv = [sys.executable, "-m", "spintomo.cli", *args]
            rc, rss = _run_child(argv, self.env, str(self.root))
            self.peak_rss_kb = max(self.peak_rss_kb, rss)
            return rc, out

        return work

    def ops(self, p: int) -> list[Op]:
        d = str(self.data)
        s = int(_rng(self.np, self.seed, 8, p).integers(0, 2**31))
        cli, path = self._cli, self._path
        wu, w15, w3 = path("wu.json"), path("ws15.json"), path("ws3.json")
        return [
            Op("tomogram,d=4,F=200", cli("tomogram", "--state", f"{d}/two_qubit_mixed.json", "--n-frames", 200,
                                "--seed", s, "--out", wu), self._check_unitary_tomogram),
            Op("reconstruct,d=4,F=200", cli("reconstruct", "--tomogram", wu, "--out", path("ru.json")),
               self._check_state(self.two_qubit)),
            Op("tomogram,j=1.5", cli("tomogram", "--state", path("spin3.json"), "--j", 1.5, "--out", w15),
               self._check_spin_tomogram(3)),
            Op("reconstruct,j=1.5", cli("reconstruct", "--tomogram", w15, "--out", path("rs15.json")),
               self._check_state(self.spin_states[3])),
            Op("tomogram,j=3", cli("tomogram", "--state", path("spin6.json"), "--j", 3, "--out", w3),
               self._check_spin_tomogram(6)),
            Op("star,j=3", cli("star", "--tomogram", w3, "--tomogram", w3, "--out", path("sq3.json")),
               self._check_square(self.spin_states[6])),
            Op("simplex-image,d=4,F=2000", cli("simplex-image", "--state", f"{d}/werner_q08.json", "--group", "product",
                                 "--samples", 2000, "--seed", s, "--format", "csv",
                                 "--out", path("points.csv")), self._check_points(2000)),
            Op("entropy,d=4,F=10000", cli("entropy", "--state", f"{d}/two_qubit_mixed.json", "--samples", 10000,
                                  "--seed", s, "--out", path("entropy.json")), self._check_entropy),
            Op("peres,d=4,F=1000", cli("peres", "--state", f"{d}/bell_state.json", "--samples", 1000,
                                 "--seed", s, "--out", path("peres.json")), self._check_peres),
            Op("evolve,d=2,F=50", cli("evolve", "--state", f"{d}/qubit_state.json", "--hamiltonian",
                               f"{d}/hamiltonian_z.json", "--t", 0.7, "--frames", path("qframes.json"),
                               "--out", path("evolved.json")), self._check_evolved),
            Op("channel", cli("channel", "--kind", "depolarizing", "--format", "csv",
                              "--out", path("sweep.csv")), self._check_sweep),
            Op("refuse_j", cli("tomogram", "--state", path("spin3.json"), "--j", 3,
                             "--out", path("refused_j.json")), self._check_refused, True),
            Op("refuse_kind", cli("star", "--tomogram", wu, "--tomogram", wu,
                             "--out", path("refused_kind.json")), self._check_refused, True),
            Op("refuse_nan", cli("tomogram", "--state", path("nan_state.json"), "--n-frames", 10,
                             "--seed", s, "--out", path("refused_nan.json")), self._check_refused, True),
        ]

    # -- checks: exit code, then the output file read back ---------------

    @staticmethod
    def _load(r):
        rc, out = r
        if rc != 0:
            return None
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)

    def _check_unitary_tomogram(self, r) -> bool:
        obj = self._load(r)
        if obj is None or obj["kind"] != "unitary":
            return False
        v = self.np.asarray(obj["values"])
        return v.shape == (4, 200) and bool(self.np.max(self.np.abs(v.sum(axis=0) - 1.0)) <= 1e-10)

    def _check_spin_tomogram(self, j_twice):
        def check(r) -> bool:
            obj = self._load(r)
            return obj is not None and obj["kind"] == "spin" and obj["j_twice"] == j_twice

        return check

    def _check_state(self, expected):
        def check(r) -> bool:
            obj = self._load(r)
            if obj is None:
                return False
            return bool(self.np.max(self.np.abs(_matrix(self.np, obj) - expected)) <= 1e-9)

        return check

    def _check_square(self, mat):
        np = self.np

        def check(r) -> bool:
            # the symbol of rho^2 sums to Tr rho^2 in every frame
            obj = self._load(r)
            if obj is None:
                return False
            sums = np.asarray(obj["values"]).sum(axis=0)
            return bool(np.max(np.abs(sums - np.trace(mat @ mat).real)) <= 1e-9)

        return check

    def _check_points(self, n):
        np = self.np

        def check(r) -> bool:
            rc, out = r
            if rc != 0:
                return False
            with open(out, encoding="utf-8", newline="") as fh:
                rows = list(csv.reader(fh))
            header, body = rows[0], np.asarray(rows[1:], dtype=float)
            probs = body[:, [i for i, h in enumerate(header) if h.startswith("p_")]]
            return body.shape[0] == n and bool(np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-10)

        return check

    def _check_entropy(self, r) -> bool:
        obj = self._load(r)
        return obj is not None and len(obj["per_frame"]) == 10000 and \
            obj["min_value"] <= min(obj["per_frame"]) + 1e-12

    def _check_peres(self, r) -> bool:
        obj = self._load(r)
        return obj is not None and obj["entangled"] is True

    def _check_evolved(self, r) -> bool:
        obj = self._load(r)
        if obj is None:
            return False
        return len(obj["tomogram"]["frames"]) == len(self.qubit_frames) and "state" in obj

    def _check_sweep(self, r) -> bool:
        rc, out = r
        if rc != 0:
            return False
        with open(out, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        return len(rows) == 21 and all(abs(float(a) + float(b) - 1.0) <= 1e-12 for _, a, b in rows)

    @staticmethod
    def _check_refused(r) -> bool:
        rc, out = r
        return rc == 2 and not os.path.exists(out)


def _haar(np, rng, n: int, count: int):
    z = (rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]
