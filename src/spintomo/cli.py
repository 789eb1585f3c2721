"""Command-line interface.

Subcommands: tomogram, reconstruct, star, channel, simplex-image, entropy,
peres, evolve.  Inputs are validated before any computation runs; handlers
return CSV text or a JSON object, which ``main`` serializes (refusing NaN and
infinities) and writes atomically, so failed runs never leave partial files.
Exit codes: 0 success, 2 validation error or an ``--out`` that cannot be
written (the message names that path), 3 numerical failure.

Size flags (``--samples``, ``--n-frames``, ``--j`` with ``--oversample``) and
the length of a ``--frames`` list are checked before any work: the bytes of
their main arrays and of the output text are estimated and refused (exit 2)
above the 1 GiB budget of ``errors.LIMITS["bytes"]``.  numpy overcommits memory,
so without the estimate a size far beyond the machine would be killed.

A process loads only the modules its subcommand runs.  The top of this module
imports what every subcommand uses (``io``, ``symbols``, ``linalg``,
``quadrature``, ``halfint``, ``errors``); each handler imports its own kernels
from ``reconstruction``, ``star``, ``simplex``, ``entropy``, ``dynamics`` or
``channels``.  So ``tomogram`` compiles none of those six, and ``reconstruct``
only ``reconstruction``.  ``--kind`` has one reader, the ``channels`` table of
kinds: an unknown kind is refused there (exit 2) with the list of kinds.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import io
from .errors import InformationallyIncompleteError
from .halfint import HalfInt, spin
from .linalg import _check_bytes, haar_unitaries
from .quadrature import DEFAULT_OVERSAMPLE, make_grid, node_counts
from .symbols import Tomogram, _transform_bytes, grid_frames, spin_tomogram, unitary_tomogram


def _add_common(p: argparse.ArgumentParser, fmt: bool = False, seed: bool = False) -> None:
    p.add_argument("--out", required=True, help="output file path")
    if fmt:
        p.add_argument("--format", choices=("json", "csv"), default="json")
    if seed:
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
    p.add_argument("--oversample", type=float,
                   help="spin grid size relative to the smallest exact rule, with --j "
                        f"(default {DEFAULT_OVERSAMPLE}; below 1 aliases)")
    _add_common(p, fmt=True, seed=True)

    p = sub.add_parser("reconstruct", help="rebuild an operator or state from a tomogram")
    p.add_argument("--tomogram", required=True)
    _add_common(p)

    p = sub.add_parser("star", help="star-compose two spin symbols")
    p.add_argument("--tomogram", action="append", required=True,
                   help="give twice: the two symbol files")
    _add_common(p)

    p = sub.add_parser("channel", help="closed-form channel tomogram sweep")
    p.add_argument("--kind", required=True,
                   help="channel kind; an unknown kind is refused (exit 2) with the list of kinds")
    p.add_argument("--p", type=float, help="single parameter value (default: 21-point sweep)")
    _add_common(p, fmt=True)

    p = sub.add_parser("simplex-image", help="sample the unitary-group image of a state")
    p.add_argument("--state", required=True)
    p.add_argument("--dims", help="comma-separated subsystem dimensions, e.g. 2,2")
    p.add_argument("--group", choices=("full", "product"), default="full")
    p.add_argument("--factors", help="comma-separated factor dims for the product group")
    p.add_argument("--active", help="comma-separated active factor indices for the product group")
    p.add_argument("--samples", type=int, default=1000)
    _add_common(p, fmt=True, seed=True)

    p = sub.add_parser("entropy", help="frame entropies, group minimum, Haar average")
    p.add_argument("--state", required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--q", type=float, default=1.0, help="Renyi order (default: 1, Shannon)")
    _add_common(p, seed=True)

    p = sub.add_parser("peres", help="partial-transpose tomographic scan")
    p.add_argument("--state", required=True)
    p.add_argument("--dims", help="comma-separated subsystem dimensions")
    p.add_argument("--samples", type=int, default=1000)
    _add_common(p, seed=True)

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


def _frames_tomogram(rho, path: str, fmt: str = "json") -> Tomogram:
    """The tomogram of rho on the frames of a JSON list, whose length is checked
    as ``--n-frames`` before any is decoded.

    A list that opens with a spin angle object (``"beta"``, as ``tomogram --j``
    writes them) is read as spin frames of j = (d - 1)/2, and every other list
    as unitary frames; either reader refuses an entry of the other kind.
    """
    obj = io.read_json(path)
    if not isinstance(obj, list):
        raise ValueError("frames file must contain a JSON list of frame objects")
    _check_tomogram_frames("--frames", len(obj), rho.dim, fmt)
    if obj and isinstance(obj[0], dict) and "beta" in obj[0]:
        return spin_tomogram(rho, io._spin_frames_from_obj(HalfInt(rho.dim - 1), obj))
    return unitary_tomogram(rho, [io.frame_from_obj(f) for f in obj])


# Bytes an output number takes while the text is built.  JSON: a Python float and
# its list slot, its share of the enclosing lists and dicts, and its indented text,
# held both in the encoder's pieces and in the joined string (unitary-frame
# tomograms measured 220 to 310 B a number).  CSV rows cost less.  Both carry about
# 10% over the measured cost, which from about 5e4 frames on also covers the 8 MB
# above the import that even a 10-frame run measures.
_NUMBER_BYTES = {"json": 352, "csv": 110}


def _check_frames(flag: str, count: int, d: int, matrices: int, numbers: int, fmt: str = "json") -> None:
    """Refuse ``count`` unitary frames of size d above the byte budget.

    Per frame: ``matrices`` complex d x d arrays at the peak, the frame's
    complex diagonal, and ``numbers`` output numbers.  1 for the entropy and
    Peres scans, which reduce each block of Haar draws as it is drawn and
    hold only the sampler's Gaussian draw x, half a matrix per frame; the
    other half is room for the block scratch.  4 for tomogram frames, which may be read
    from a file as a list of small arrays (a 2 x 2 array's 128 B header
    outweighs its 64 B of entries) beside their stacked copy, and for
    ``simplex-image``: its full group reduces the draws as the scans do, but
    a CSV run draws the factor stacks again for its rows, and a product
    group holds its factor stacks beside the product blocks formed from
    them.  The unitarity check adds no full-size temporaries: it walks the
    stack one block at a time.
    """
    per_frame = 16 * d * d * matrices + 16 * d + _NUMBER_BYTES[fmt] * numbers
    _check_bytes(count * per_frame, "{} {} at dimension {}", flag, count, d)


def _check_tomogram_frames(flag: str, count: int, d: int, fmt: str) -> None:
    """``_check_frames`` for the frames of a unitary tomogram: a JSON frame is
    written as its matrix (re, im) with its d symbols, a CSV row as d + 1 numbers."""
    _check_frames(flag, count, d, 4, 2 * d * d + d if fmt == "json" else d + 1, fmt)


def _check_spin_grid(j: HalfInt, oversample: float, fmt: str) -> None:
    """Refuse a ``tomogram --j`` grid above the byte budget: the Gauss-Legendre
    companion matrix of N_beta nodes, the spin transform's table and cos/sin
    tables, and per node the complex symbols and the output's outcomes and angles
    (a JSON frame object counts as three more numbers)."""
    n = j.twice + 1
    n_beta, n_gamma = node_counts(j, oversample)
    nbytes = 8 * n_beta * n_beta + _transform_bytes(n, n_beta, n_gamma)
    nbytes += n_beta * n_gamma * (16 * n + _NUMBER_BYTES[fmt] * (n + (6 if fmt == "json" else 3)))
    _check_bytes(nbytes, "--j {} --oversample {:g} ({} x {} nodes)", j, oversample, n_beta, n_gamma)


def _cmd_tomogram(args) -> str | dict:
    sources = {"--frames": args.frames, "--n-frames": args.n_frames, "--j": args.j}
    given = [flag for flag, value in sources.items() if value is not None]
    if len(given) > 1:
        raise ValueError(f"tomogram takes one of --frames, --n-frames and --j, got {' and '.join(given)}")
    if args.oversample is not None and args.j is None:
        raise ValueError("--oversample applies to spin grids only (with --j)")
    rho = _load_state(args.state)
    if args.j is not None:
        j = spin(args.j)
        if rho.dim != j.twice + 1:
            raise ValueError(f"state dimension {rho.dim} does not match 2j+1")
        oversample = DEFAULT_OVERSAMPLE if args.oversample is None else args.oversample
        _check_spin_grid(j, oversample, args.format)
        grid = make_grid(j, oversample=oversample)
        t = spin_tomogram(rho, grid_frames(j, grid))
    elif args.frames is not None:
        t = _frames_tomogram(rho, args.frames, args.format)
    elif args.n_frames is not None:
        if args.n_frames < 1:
            raise ValueError("--n-frames must be positive")
        _check_tomogram_frames("--n-frames", args.n_frames, rho.dim, args.format)
        t = unitary_tomogram(rho, haar_unitaries(rho.dim, args.n_frames, np.random.default_rng(args.seed)))
    else:
        raise ValueError("tomogram needs --frames, --n-frames, or --j")
    if args.format == "csv":
        return io.tomogram_csv(t)
    return io.tomogram_to_obj(t)


def _cmd_reconstruct(args) -> str | dict:
    """Grid frames write the frame set's ``inverse``; any other set's table is read as a state's.

    A grid table may be an observable's symbol, so its synthesis is written as
    the operator it is, with no positivity step: a noisy grid table can give
    a matrix that ``--state`` refuses for its negative eigenvalue.  Off a grid
    the estimate written is ``reconstruct_from_unitary_frame``'s density
    matrix, the state step on top of the same ``inverse``.
    """
    from .reconstruction import reconstruct_from_unitary_frame, reconstruction_residual

    t = io.tomogram_from_obj(io.read_json(args.tomogram))
    if t.frames.grid is not None:
        op = t.frames.inverse(t.table)
        err, obj = float(np.max(np.abs(t.frames.symbols(op) - t.table))), io.matrix_to_obj(op)
    else:
        rho = reconstruct_from_unitary_frame(t)
        err, obj = reconstruction_residual(t, rho), io.density_to_obj(rho)
    print(f"round-trip max abs error: {io.fmt_float(err)}")
    return obj


def _cmd_star(args) -> str | dict:
    """Both files must be spin-j symbols on the first one's grid, which ``infer_grid``
    and ``star_compose`` check."""
    from .reconstruction import infer_grid
    from .star import star_compose

    if len(args.tomogram) != 2:
        raise ValueError("star needs exactly two --tomogram files")
    fa, fb = (io.tomogram_from_obj(io.read_json(path)) for path in args.tomogram)
    return io.tomogram_to_obj(star_compose(fa, fb, fa.j, infer_grid(fa)))


def _cmd_channel(args) -> str | dict:
    from .channels import channel_tomogram_closed_form

    ps = [args.p] if args.p is not None else [k / 20.0 for k in range(21)]
    # identity frame: theta = 0, axis z
    rows = [[p, *channel_tomogram_closed_form(args.kind, p, 0.0, (0.0, 0.0, 1.0))] for p in ps]
    if args.format == "csv":
        return io.csv_text(["p", "w_plus", "w_minus"], rows)
    return {"kind": args.kind, "rows": rows}


def _cmd_simplex(args) -> str | dict:
    from .simplex import GroupSpec, image_dimension_report, image_sample

    rho = _load_state(args.state, args.dims)
    if args.group == "full":
        given = [flag for flag, value in (("--factors", args.factors), ("--active", args.active)) if value]
        if given:
            raise ValueError(f"{' and '.join(given)} apply to --group product only")
        group = GroupSpec("full")
    else:
        factors = _parse_int_list(args.factors) if args.factors else rho.dims
        active = _parse_int_list(args.active) if args.active else None
        group = GroupSpec("product", factors, active=active)
    if args.samples < 1:
        raise ValueError("--samples must be positive")
    # a CSV row holds the factor unitaries (re, im) and the point
    numbers = rho.dim + (2 * rho.dim**2 if args.format == "csv" else 0)
    _check_frames("--samples", args.samples, rho.dim, 4, numbers, args.format)
    report = image_dimension_report(rho, group, seed=args.seed)  # checks the Jacobian's bytes first
    sample = image_sample(rho, group, args.samples, args.seed)
    print(f"image dimension: {report.rank} (rel_tol {report.rel_tol:g})")
    if args.format == "csv":
        return io.simplex_sample_csv(sample)
    return {
        "dimension": report.rank,
        "rel_tol": report.rel_tol,
        "singular_values": report.singular_values.tolist(),
        "points": sample.points.tolist(),
    }


def _cmd_entropy(args) -> str | dict:
    from .entropy import min_entropy_over_group

    rho = _load_state(args.state)
    if args.samples < 2:
        raise ValueError("--samples must be at least 2")
    _check_frames("--samples", args.samples, rho.dim, 1, 1)
    report = min_entropy_over_group(rho, args.samples, args.seed, q=args.q)
    return {
        "q": args.q,
        "min_value": report.min_value,
        "argmin_frame": io.matrix_to_obj(report.argmin_frame),
        "per_frame": report.per_frame.tolist(),
        "monte_carlo": dataclasses.asdict(report.monte_carlo),
    }


def _cmd_peres(args) -> str | dict:
    from .simplex import peres_scan

    rho = _load_state(args.state, args.dims)
    if len(rho.dims) < 2:
        raise ValueError("peres needs a multipartite state (give dims in the file or --dims)")
    if args.samples < 1:
        raise ValueError("--samples must be positive")
    _check_frames("--samples", args.samples, rho.dim, 1, 0)
    result = peres_scan(rho, args.samples, args.seed)
    obj = {
        "max_violation": result.max_violation,
        "min_eigenvalue": result.min_eigenvalue,
        "trace_norm_minus_one": result.trace_norm_minus_one,
        "entangled": result.witness is not None,
        "detection": dataclasses.asdict(result.detection),
    }
    if result.witness is not None:
        obj["witness"] = io.matrix_to_obj(result.witness)
    return obj


def _cmd_evolve(args) -> str | dict:
    from .dynamics import evolve_state

    rho = _load_state(args.state)
    h, _ = io.matrix_from_obj(io.read_json(args.hamiltonian))
    evolved = evolve_state(rho, h, args.t)
    obj = {"state": io.density_to_obj(evolved)}
    if args.frames:
        obj["tomogram"] = io.tomogram_to_obj(_frames_tomogram(evolved, args.frames))
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
        io.write_text_atomic(args.out, text)
    except InformationallyIncompleteError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, MemoryError) as exc:
        # json.JSONDecodeError is a ValueError, so malformed inputs land here;
        # a MemoryError is a size flag too large for this machine (its text may be empty)
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
