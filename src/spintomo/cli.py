"""Command-line interface.

Subcommands: tomogram, reconstruct, star, channel, simplex-image, entropy,
peres, evolve.  Inputs are validated before any computation runs; handlers
return CSV text or a JSON object, which ``main`` serializes (refusing NaN and
infinities) and writes atomically, so failed runs never leave partial files.
Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import io
from .channels import CHANNEL_KINDS, channel_tomogram_closed_form
from .dynamics import evolve_state, evolve_tomogram
from .entropy import min_entropy_over_group
from .errors import InformationallyIncompleteError
from .halfint import HalfInt
from .linalg import haar_unitaries
from .quadrature import make_grid
from .reconstruction import (
    infer_grid,
    reconstruct_from_unitary_frame,
    reconstruct_operator,
    reconstruction_residual,
)
from .simplex import GroupSpec, image_dimension_report, image_sample, peres_scan
from .star import star_compose
from .symbols import grid_frames, spin_tomogram, unitary_tomogram


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", required=True, help="output file path")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spintomo",
        description="Tomographic symbols of finite-dimensional quantum states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tomogram", help="compute a spin or unitary tomogram")
    p.add_argument("--state", required=True)
    p.add_argument("--frames", help="JSON file with a list of frame objects")
    p.add_argument("--n-frames", type=int, help="number of Haar-random frames")
    p.add_argument("--j", type=float, help="use spin grid frames for this j")
    p.add_argument("--oversample", type=float, default=1.5)
    _add_common(p)

    p = sub.add_parser("reconstruct", help="rebuild an operator or state from a tomogram")
    p.add_argument("--tomogram", required=True)
    _add_common(p)

    p = sub.add_parser("star", help="star-compose two spin symbols")
    p.add_argument("--tomogram", action="append", required=True,
                   help="give twice: the two symbol files")
    _add_common(p)

    p = sub.add_parser("channel", help="closed-form channel tomogram sweep")
    p.add_argument("--kind", choices=CHANNEL_KINDS, required=True)
    p.add_argument("--p", type=float, help="single parameter value (default: 21-point sweep)")
    _add_common(p)

    p = sub.add_parser("simplex-image", help="sample the unitary-group image of a state")
    p.add_argument("--state", required=True)
    p.add_argument("--dims", help="comma-separated subsystem dimensions, e.g. 2,2")
    p.add_argument("--group", choices=("full", "product"), default="full")
    p.add_argument("--factors", help="comma-separated factor dims for the product group")
    p.add_argument("--active", help="comma-separated active factor indices")
    p.add_argument("--samples", type=int, default=1000)
    _add_common(p)

    p = sub.add_parser("entropy", help="frame entropies, group minimum, Haar average")
    p.add_argument("--state", required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--q", type=float, default=1.0, help="Renyi order (default: 1, Shannon)")
    _add_common(p)

    p = sub.add_parser("peres", help="partial-transpose tomographic scan")
    p.add_argument("--state", required=True)
    p.add_argument("--dims", help="comma-separated subsystem dimensions")
    p.add_argument("--samples", type=int, default=1000)
    _add_common(p)

    p = sub.add_parser("evolve", help="unitary evolution of a state (and tomogram)")
    p.add_argument("--state", required=True)
    p.add_argument("--hamiltonian", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--frames", help="JSON frame list: also emit the evolved tomogram")
    _add_common(p)

    return parser


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}")


def _load_state(path: str, dims_flag=None):
    obj = io.read_json(path)
    dims = _parse_int_list(dims_flag) if dims_flag else None
    return io.density_from_obj(obj, dims=dims)


def _load_frames(path: str):
    obj = io.read_json(path)
    if not isinstance(obj, list):
        raise ValueError("frames file must contain a JSON list of frame objects")
    return [io.frame_from_obj(f) for f in obj]


def _cmd_tomogram(args) -> str | dict:
    rho = _load_state(args.state)
    if args.j is not None:
        j = HalfInt.of(args.j)
        if rho.dim != j.twice + 1:
            raise ValueError(f"state dimension {rho.dim} does not match 2j+1")
        grid = make_grid(j, oversample=args.oversample)
        t = spin_tomogram(rho, grid_frames(j, grid))
    else:
        if args.frames:
            frames = _load_frames(args.frames)
        elif args.n_frames:
            if args.n_frames < 1:
                raise ValueError("--n-frames must be positive")
            frames = list(haar_unitaries(rho.dim, args.n_frames, np.random.default_rng(args.seed)))
        else:
            raise ValueError("tomogram needs --frames, --n-frames, or --j")
        t = unitary_tomogram(rho, frames)
    if args.format == "csv":
        return _tomogram_csv(t)
    return io.tomogram_to_obj(t)


def _tomogram_csv(t) -> str:
    if t.kind == "spin":
        header = ["alpha", "beta", "gamma"] + [f"w_m{m.twice}" for m in t.outcomes]
        fr = t.frames
        rows = np.column_stack([fr.alphas, fr.betas, fr.gammas, t.table.real.T]).tolist()
    else:
        header = ["frame_index"] + ["w_" + "".join(str(i) for i in o) for o in t.outcomes]
        rows = [[col] + list(t.table[:, col].real) for col in range(t.n_frames)]
    return io.csv_text(header, rows)


def _cmd_reconstruct(args) -> str | dict:
    t = io.tomogram_from_obj(io.read_json(args.tomogram))
    if t.kind == "spin":
        grid = infer_grid(t)
        op = reconstruct_operator(t, t.j, grid)
        check = spin_tomogram(op, grid_frames(t.j, grid))
        err = float(np.max(np.abs(check.table - t.table)))
        print(f"round-trip max abs error: {io.fmt_float(err)}")
        return io.matrix_to_obj(op)
    rho = reconstruct_from_unitary_frame(t)
    err = reconstruction_residual(t, rho)
    print(f"round-trip max abs error: {io.fmt_float(err)}")
    return io.density_to_obj(rho)


def _cmd_star(args) -> str | dict:
    if len(args.tomogram) != 2:
        raise ValueError("star needs exactly two --tomogram files")
    fa = io.tomogram_from_obj(io.read_json(args.tomogram[0]))
    fb = io.tomogram_from_obj(io.read_json(args.tomogram[1]))
    if fa.kind != "spin" or fb.kind != "spin":
        raise ValueError("star composition is defined for spin symbols")
    if fa.j != fb.j:
        raise ValueError("symbols have different spins")
    grid = infer_grid(fa)
    out = star_compose(fa, fb, fa.j, grid)
    return io.tomogram_to_obj(out)


def _cmd_channel(args) -> str | dict:
    ps = [args.p] if args.p is not None else [k / 20.0 for k in range(21)]
    for p in ps:
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
    # identity frame: theta = 0, axis z
    rows = []
    for p in ps:
        w_plus, w_minus = channel_tomogram_closed_form(args.kind, p, 0.0, (0.0, 0.0, 1.0))
        rows.append([p, w_plus, w_minus])
    if args.format == "csv":
        return io.csv_text(["p", "w_plus", "w_minus"], rows)
    return {"kind": args.kind, "rows": [[float(x) for x in row] for row in rows]}


def _cmd_simplex(args) -> str | dict:
    rho = _load_state(args.state, args.dims)
    factors = _parse_int_list(args.factors) if args.factors else rho.dims
    active = _parse_int_list(args.active) if args.active else None
    if args.group == "full":
        group = GroupSpec("full")
    else:
        group = GroupSpec("product", factors, active=active)
    if args.samples < 1:
        raise ValueError("--samples must be positive")
    sample = image_sample(rho, group, args.samples, args.seed)
    report = image_dimension_report(rho, group, seed=args.seed)
    print(f"image dimension: {report.rank} (rel_tol {report.rel_tol:g})")
    if args.format == "csv":
        return io.simplex_sample_csv(sample)
    return {
        "dimension": report.rank,
        "rel_tol": report.rel_tol,
        "singular_values": [float(s) for s in report.singular_values],
        "points": [[float(x) for x in row] for row in sample.points],
    }


def _cmd_entropy(args) -> str | dict:
    rho = _load_state(args.state)
    if args.samples < 2:
        raise ValueError("--samples must be at least 2")
    report = min_entropy_over_group(rho, args.samples, args.seed, q=args.q)
    mc = report.monte_carlo
    return {
        "q": args.q,
        "min_value": report.min_value,
        "argmin_frame": io.matrix_to_obj(report.argmin_frame),
        "per_frame": [float(x) for x in report.per_frame],
        "monte_carlo": {
            "mean": mc.mean,
            "stderr": mc.stderr,
            "n": mc.n,
            "seed": mc.seed,
        },
    }


def _cmd_peres(args) -> str | dict:
    rho = _load_state(args.state, args.dims)
    if len(rho.dims) < 2:
        raise ValueError("peres needs a multipartite state (give dims in the file or --dims)")
    if args.samples < 1:
        raise ValueError("--samples must be positive")
    result = peres_scan(rho, args.samples, args.seed)
    obj = {
        "max_violation": result.max_violation,
        "min_eigenvalue": result.min_eigenvalue,
        "trace_norm_minus_one": result.trace_norm_minus_one,
        "entangled": result.witness is not None,
    }
    if result.witness is not None:
        obj["witness"] = io.matrix_to_obj(result.witness)
    return obj


def _cmd_evolve(args) -> str | dict:
    rho = _load_state(args.state)
    h, _ = io.matrix_from_obj(io.read_json(args.hamiltonian))
    evolved = evolve_state(rho, h, args.t)
    obj = {"state": io.density_to_obj(evolved)}
    if args.frames:
        frames = _load_frames(args.frames)
        t0 = unitary_tomogram(rho, frames)
        obj["tomogram"] = io.tomogram_to_obj(evolve_tomogram(t0, h, args.t))
    return obj


_HANDLERS = {
    "tomogram": _cmd_tomogram,
    "reconstruct": _cmd_reconstruct,
    "star": _cmd_star,
    "channel": _cmd_channel,
    "simplex-image": _cmd_simplex,
    "entropy": _cmd_entropy,
    "peres": _cmd_peres,
    "evolve": _cmd_evolve,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.command]
    try:
        out = handler(args)
        # JSON has no NaN or infinity, so io.dumps refuses them (exit 2)
        text = out if isinstance(out, str) else io.dumps(out)
    except InformationallyIncompleteError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, MemoryError) as exc:
        # json.JSONDecodeError is a ValueError, so malformed inputs land here;
        # a MemoryError is a size flag too large for this machine (its text may be empty)
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    io.write_text_atomic(args.out, text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
