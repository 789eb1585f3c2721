"""The byte budget sweep of the frame-set maps and the frame kernels.

Each entry point runs at two patched budgets, 4 MiB and 16 MiB, at one size on
each side of its threshold, the largest size that its byte counts admit and
the next.  At the first it must pass, at a tracemalloc peak within
``PEAK_MULTIPLE`` times the budget; at the second it must be refused with its
own text before anything of the size it counts exists, at a peak below
``REFUSED_PEAK`` of the budget.  Operators, tables and frames are built
outside the traced call, at the default budget.  Matrix and factor stacks are
read-only broadcasts of one unitary, so a set of a million frames costs one
matrix, and the spin transforms are built in a cache of their own, so the
sweep neither reads nor fills the process-wide one.  The larger budget is
16 MiB because the solve's normal equations cost O(F d^5): at 64 MiB its
threshold, d = 45, takes seconds a call.
"""

import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from spintomo import symbols
from spintomo.entropy import min_entropy_over_group
from spintomo.errors import LIMITS
from spintomo.linalg import frame_diagonals, random_density, unitarity_residual
from spintomo.quadrature import make_grid
from spintomo.simplex import GroupSpec, image_sample, peres_scan
from spintomo.symbols import SpinFrames, UnitaryFrames, grid_frames

pytestmark = pytest.mark.memory

MiB = 2**20
PEAK_MULTIPLE = 2.0  # a call that passes peaks within this many budgets
REFUSED_PEAK = 0.01  # a refused call peaks below this share of the budget


def unitary(n: int, seed: int) -> np.ndarray:
    """An n x n unitary, the Q of a complex Gaussian matrix."""
    rng = np.random.default_rng(seed)
    return np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]


def stack(n: int, count: int, seed: int = 1) -> np.ndarray:
    """``count`` copies of one n x n unitary, a read-only broadcast that holds one matrix."""
    return np.broadcast_to(unitary(n, seed), (count, n, n))


def operator(n: int) -> np.ndarray:
    return random_density(n, n, seed=n).mat


def spin_frames(jt: int, count: int) -> SpinFrames:
    rng = np.random.default_rng(jt)
    return SpinFrames(jt / 2, rng.uniform(0, np.pi, count), rng.uniform(0, 2 * np.pi, count))


def product_frames(dims, count: int) -> UnitaryFrames:
    return UnitaryFrames(*(stack(k, count, seed) for seed, k in enumerate(dims)))


def complete_product_frames(dims) -> UnitaryFrames:
    """Twice the generic complete count of distinct product frames, whose G is well conditioned."""
    count = 2 * math.prod(k + 1 for k in dims)
    rng = np.random.default_rng(len(dims))
    return UnitaryFrames(*(np.stack([unitary(k, s) for s in rng.integers(2**32, size=count)]) for k in dims))


def inverse_call(frames):
    return partial(frames.inverse, frames.symbols(operator(frames.dim)))


def grid_inverse_call(jt: int):
    call = inverse_call(grid_frames(jt / 2, make_grid(jt / 2)))
    symbols._TRANSFORMS.clear()  # the traced call builds its transform again
    return call


def scan_state(n: int, dims=None):
    return random_density(n, n, seed=n, dims=dims)


# name: (build(size) -> the call to trace, its inputs built, the refusal's text,
#        {budget in MiB: (largest size passed, next size)})
ENTRIES = {
    "symbols, matrix frames": (
        lambda count: partial(UnitaryFrames(stack(4, count)).symbols, operator(4)),
        r"the diagonals of \d+ frames at dimension 4 ",
        {4: (65536, 65537), 16: (262144, 262145)},
    ),
    "symbols, product frames": (
        lambda count: partial(product_frames((2,) * 4, count).symbols, operator(16)),
        r"the diagonals of \d+ frames at dimension 16 ",
        {4: (16384, 16385), 16: (65536, 65537)},
    ),
    "symbols, off-grid spin frames": (
        lambda count: partial(spin_frames(7, count).symbols, operator(8)),
        r"the rotation stack of \d+ frames at j = 7/2 ",
        {4: (744, 745), 16: (11772, 11773)},
    ),
    "symbols, grid frames": (
        lambda jt: partial(grid_frames(jt / 2, make_grid(jt / 2)).symbols, operator(jt + 1)),
        r"the spin transform at j = \S+ on QuadratureGrid\(.*\) ",
        {4: (29, 30), 16: (43, 44)},
    ),
    "inverse, matrix frames": (
        lambda d: inverse_call(UnitaryFrames(np.stack([unitary(d, s) for s in range(2 * d)]))),
        r"the frame operator of the least-squares solve at dimension \d+ ",
        {4: (22, 23), 16: (32, 33)},
    ),
    "inverse, product frames": (
        lambda dims: inverse_call(complete_product_frames(dims)),
        r"the frame operator of the least-squares solve at dimension \d+ ",
        {4: ((2, 11), (2, 3, 4)), 16: ((4, 8), (3, 11))},
    ),
    "inverse, off-grid spin frames": (
        lambda jt: inverse_call(spin_frames(jt, 2 * (2 * jt + 1))),
        r"the frame operator of the least-squares solve at dimension \d+ ",
        {4: (21, 22), 16: (31, 32)},
    ),
    "inverse, grid frames": (
        grid_inverse_call,
        r"the spin transform at j = \S+ on QuadratureGrid\(.*\) ",
        {4: (29, 30), 16: (43, 44)},
    ),
    "frame_diagonals, a stack": (
        lambda n: partial(frame_diagonals, operator(n), stack(n, 8)),
        r"the scratch of one block of frames at dimension \d+ ",
        {4: (104, 105), 16: (209, 210)},
    ),
    "frame_diagonals, factor stacks": (
        lambda dims: partial(frame_diagonals, operator(math.prod(dims)), *product_frames(dims, 8).stacks),
        r"the scratch of one block of frames at dimension \d+ ",
        {4: ((2, 2, 2, 2, 2, 3), (2, 2, 2, 2, 7)), 16: ((2, 2, 2, 2, 13), (2, 3, 5, 7))},
    ),
    "unitarity_residual": (
        lambda n: partial(unitarity_residual, stack(n, 8)),
        r"the scratch of one block of frames at dimension \d+ ",
        {4: (104, 105), 16: (209, 210)},
    ),
    "min_entropy_over_group": (
        lambda count: partial(min_entropy_over_group, scan_state(4), count, 3),
        r"a scan of \d+ Haar frames at dimension 4 ",
        {4: (30840, 30841), 16: (123361, 123362)},
    ),
    "peres_scan": (
        lambda count: partial(peres_scan, scan_state(4, (2, 2)), count, 3),
        r"a scan of \d+ Haar frames at dimension 4 ",
        {4: (30840, 30841), 16: (123361, 123362)},
    ),
    "image_sample, full group": (
        lambda count: partial(image_sample, scan_state(4, (2, 2)), GroupSpec("full"), count, 3),
        r"the full group's image of \d+ points at dimension 4 ",
        {4: (26214, 26215), 16: (104857, 104858)},
    ),
    "image_sample, product group": (
        lambda count: partial(image_sample, scan_state(4, (2, 2)), GroupSpec("product"), count, 3),
        r"the product group's image of \d+ points at dimension 4 ",
        {4: (18724, 18725), 16: (74898, 74899)},
    ),
}


@pytest.fixture
def own_transform_cache(monkeypatch):
    monkeypatch.setattr(symbols, "_TRANSFORMS", symbols._TransformCache())


@pytest.mark.parametrize("budget", [4, 16], ids=lambda mib: f"{mib}MiB")
@pytest.mark.parametrize("side", ["below", "above"])
@pytest.mark.parametrize("entry", list(ENTRIES))
def test_each_call_passes_within_or_is_refused_before_its_bytes(entry, side, budget, monkeypatch, own_transform_cache):
    build, text, sizes = ENTRIES[entry]
    call = build(sizes[budget][side == "above"])
    monkeypatch.setitem(LIMITS, "bytes", budget * MiB)
    tracemalloc.start()
    try:
        if side == "below":
            call()
        else:
            with pytest.raises(ValueError, match=rf"^{text}would allocate about .* GB, above the budget"):
                call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if side == "below":
        assert peak <= PEAK_MULTIPLE * budget * MiB
    else:
        assert peak < REFUSED_PEAK * budget * MiB
