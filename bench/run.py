"""spintomo benchmark: closed-loop workloads with one client, optional span tracing.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` and the CLI children get ``PYTHONPATH=src``.  Workloads are listed in
``BENCHMARK.json``.  Ops run one after another in whole passes over a fixed
op stream until ``--seconds`` have passed and the workload's minimum pass
count is reached.  Each op's output is checked after its timing stops; a
failed check is counted, never raised.

Times in the end-to-end metrics are scaled to a fixed machine speed by a
reference kernel timed before every op (``SpeedProbe``); the unscaled values
are printed in the report.  ``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced runs of each pass, and prints per-layer metrics per
traced pass, the tracing overhead and a by-j / by-frame-count report.  The last stdout line is the JSON result; the
full record (environment included) goes to ``bench/out/``.
"""

from __future__ import annotations

import os

# One BLAS thread for every process the benchmark starts (fixed before numpy loads).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("spin_symbols", "unitary_frames", "cli_files")
SETUP_SAMPLES = 3
TAIL_BEYOND = 10
# Times are reported at a fixed machine speed: the one at which SpeedProbe
# takes REF_NOMINAL_S (its typical time on a 2.0 GHz Xeon vCPU).
REF_NOMINAL_S = 0.007
REF_WINDOW = 5  # probes on each side of an op in the rolling median


class Rec(NamedTuple):
    tag: str
    latency: float
    ok: bool
    refusal: bool
    ref: float  # SpeedProbe time measured just before the op


class SpeedProbe:
    """A fixed kernel that does not use spintomo: a Python loop, small matmuls
    and a strided write over a 4 MB buffer.

    The speed of a shared machine drifts by tens of percent over minutes, as
    the kernel's own time shows.  Scaling each op by REF_NOMINAL_S over the
    kernel's rolling median time around it takes most of that drift out of the
    end-to-end times; the unscaled times go to the report.
    """

    def __init__(self):
        import numpy as np

        self.a = np.random.default_rng(0).standard_normal((120, 120))
        self.buf = np.zeros(500_000)

    def __call__(self) -> float:
        t0 = perf_counter()
        s = 0.0
        for i in range(60_000):
            s += i * 0.5
        for _ in range(10):
            self.a @ self.a
        self.buf[::8] += 1.0
        return perf_counter() - t0

    def scale_now(self) -> float:
        return REF_NOMINAL_S / statistics.median(self() for _ in range(2 * REF_WINDOW + 1))


def scaled_latencies(recs: list[Rec]) -> list[float]:
    refs = [r.ref for r in recs]
    return [
        r.latency * REF_NOMINAL_S / statistics.median(refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 1])
        for i, r in enumerate(recs)
    ]


def setup(workload: str, seed: int, tracer: Tracer | None):
    """Import, input generation and warm-up; returns (workload object, seconds)."""
    start = perf_counter()
    src = ROOT / "src"
    if not (src / "spintomo" / "cli.py").is_file():
        raise FileNotFoundError(f"no spintomo sources under {src}")
    sys.path.insert(0, str(src))
    if workload == "cli_files":
        from cli_ops import CliFiles

        wl = CliFiles(seed, ROOT, tracer)
    else:
        import spintomo
        from library import WORKLOADS as LIBRARY

        if Path(spintomo.__file__).resolve().parent != (src / "spintomo").resolve():
            raise ImportError(f"spintomo imported from {spintomo.__file__}, not from {src}")
        wl = LIBRARY[workload](seed)
        for op in wl.ops(0):  # fills the library's caches; failures show in the timed passes
            try:
                op.work()
            except Exception:
                pass
    return wl, perf_counter() - start


def run_passes(wl, seconds: float, min_passes: int, probe: SpeedProbe,
               tracer: Tracer | None, first_pass: int = 0) -> tuple[list[Rec], int]:
    recs: list[Rec] = []
    start = perf_counter()
    p = first_pass
    while p - first_pass < min_passes or perf_counter() - start < seconds:
        for op in wl.ops(p):
            ref = probe()
            if tracer is not None:
                tracer.tag = op.tag
                tracer.active = True
            t0 = perf_counter()
            try:
                out, raised = op.work(), False
            except Exception:
                out, raised = traceback.format_exc(limit=2), True
            latency = perf_counter() - t0
            if tracer is not None:
                tracer.active = False
                tracer.absorb_pending()
            ok = not raised and _checked(op.check, out)
            if raised:
                print(f"# op {op.tag} raised: {out.strip().splitlines()[-1]}", file=sys.stderr)
            del out  # the next op's peak memory must not include this result
            recs.append(Rec(op.tag, latency, ok, op.refusal, ref))
        p += 1
    return recs, p - first_pass


def _checked(check, out) -> bool:
    try:
        return bool(check(out))
    except Exception:
        return False


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND ops beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def peak_rss_mb(wl) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if wl.in_process else wl.peak_rss_kb
    return kb * 1024 / 1e6


def child_setup_s(workload: str, seed: int) -> tuple[float, float]:
    """(scaled, unscaled) set-up time of the workload in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", workload,
         "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return doc["setup_s"], doc["setup_unscaled_s"]


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "spintomo").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def summarize(recs: list[Rec]) -> dict:
    return {
        "correct": not any(not r.ok and not r.refusal for r in recs),
        "attempted": len(recs),
        "failed": sum(not r.ok for r in recs),
    }


def end_to_end(args, wl, setup_main: tuple[float, float], probe: SpeedProbe) -> tuple[dict, list[str], dict]:
    recs, passes = run_passes(wl, args.seconds, wl.min_passes, probe, None)
    rss = peak_rss_mb(wl)
    wl.close()
    setups = [setup_main] + [child_setup_s(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    head = summarize(recs)
    metrics, raw = {}, {}
    for table, latencies, setup_values in (
        (metrics, scaled_latencies(recs), [s for s, _ in setups]),
        (raw, [r.latency for r in recs], [s for _, s in setups]),
    ):
        tail_s, tail_pct = tail(latencies)
        table.update({
            "ops_per_s": (len(recs) / sum(latencies), "1/s"),
            "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
            "op_tail_ms": (1e3 * tail_s, "ms"),
            "setup_s": (statistics.median(setup_values), "s"),
        })
    metrics["peak_rss_mb"] = (rss, "MB")
    metrics["pass_frac"] = ((len(recs) - head["failed"]) / len(recs), "fraction")
    failed_tags = sorted({r.tag for r in recs if not r.ok})
    report = [
        f"passes={passes} ops={len(recs)} failed={head['failed']} failed_frac={head['failed'] / len(recs):.4g}"
        f" failing op tags={failed_tags}",
        f"op_tail_ms is p{tail_pct:.2f} of {len(recs)} ops ({TAIL_BEYOND} ops beyond it)",
        f"times are scaled to SpeedProbe = {1e3 * REF_NOMINAL_S:g} ms; its median here was "
        f"{1e3 * statistics.median(r.ref for r in recs):.4g} ms",
        "unscaled: " + ", ".join(f"{k}={v:.5g} {u}" for k, (v, u) in raw.items()),
        "setup samples (scaled s, unscaled s): " + ", ".join(f"({a:.4f}, {b:.4f})" for a, b in setups),
        "op p50 ms by tag (unscaled): " + ", ".join(
            f"{tag}={1e3 * statistics.median(r.latency for r in recs if r.tag == tag):.4g}"
            for tag in dict.fromkeys(r.tag for r in recs)),
    ]
    order = ("ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb", "setup_s", "pass_frac")
    head["metrics"] = {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in order}
    detail = {
        "latencies_ms": {tag: [round(1e3 * r.latency, 3) for r in recs if r.tag == tag]
                         for tag in dict.fromkeys(r.tag for r in recs)},
        "probe_ms": [round(1e3 * r.ref, 3) for r in recs],
    }
    return head, report, detail


def traced(args, wl, probe: SpeedProbe, tracer: Tracer) -> tuple[dict, list[str], dict]:
    # Untraced and traced runs of the same pass alternate, so drift in machine
    # speed reaches both alike.  In process, untraced passes go through the
    # installed wrappers with recording off.
    if wl.in_process:  # CLI children install their own wrappers
        tracer.install()
    base: list[Rec] = []
    recs: list[Rec] = []
    passes = 0
    start = perf_counter()
    while passes < 1 or perf_counter() - start < args.seconds:
        base += run_passes(wl, 0, 1, probe, None, passes)[0]
        recs += run_passes(wl, 0, 1, probe, tracer, passes)[0]
        passes += 1
    wl.close()
    untraced_s = sum(scaled_latencies(base)) / passes
    traced_s = sum(scaled_latencies(recs)) / passes
    head = summarize(base + recs)
    head["metrics"] = tracer.metrics(passes)
    report = [
        f"tracing overhead: {traced_s - untraced_s:.4f} s per pass "
        f"({100 * (traced_s / untraced_s - 1):.1f}% of {untraced_s:.4f} s untraced), {passes} passes each,"
        " times scaled to the speed probe",
        "per-layer metrics are per pass of the op stream; stack_mb is the largest stack",
        *tracer.report(Counter(r.tag for r in recs)),
    ]
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(str(OUT / f"{args.workload}-seed{args.seed}-spans.json.gz"))
    return head, report, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="time one set-up and exit")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    try:
        wl, setup_main = setup(args.workload, args.seed, tracer)
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: cannot set up {args.workload}: {exc}", file=sys.stderr)
        return 1
    probe = SpeedProbe()
    setup_scaled = setup_main * probe.scale_now()
    if args.setup_only:
        wl.close()
        print(json.dumps({"setup_s": setup_scaled, "setup_unscaled_s": setup_main}))
        return 0

    if args.trace:
        result, report, detail = traced(args, wl, probe, tracer)
    else:
        result, report, detail = end_to_end(args, wl, (setup_scaled, setup_main), probe)
    env = environment()
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "report": report, "result": result, **detail}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print("# env " + json.dumps(env))
    for line in report:
        print("# " + line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
