"""The image of unitary (sub)groups on the probability simplex.

For a fixed state rho, each unitary u maps to the point diag(u^dag rho u).
Sweeping u over the full group or a product subgroup traces out a subset of
the simplex whose dimension and shape characterize the state: spectra bound
the image by hyperplanes, factorized states give additive dimensions, and
certain entangled or symmetric states collapse it further.

Both images reduce blocks of frames in the column layout q[k, i, b] = u_b[i, k]
of ``linalg.column_diagonals``: the full group's as the Haar sampler draws
them, and a product group's through ``linalg.frame_diagonals`` of its factor
stacks, which forms each block's products in that layout, with no product
stack to hold.

The same map applied to the partial transpose rho^TB reads Peres' criterion
off the simplex: a frame whose diagonal has absolute values summing above 1
witnesses a negative partial transpose.  The largest such sum is the trace
norm of rho^TB, reached at its eigenbasis, so ``peres_scan`` takes it in
closed form and its Haar draws measure the share of frames that detect.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .entropy import MonteCarlo
from .errors import LIMITS, DegeneratePointError, check
from .linalg import (
    DensityMatrix,
    _check_bytes,
    _check_draw,
    _haar_scan,
    _hermitian_entries,
    _integers,
    _require_finite,
    _resolve_keep,
    frame_diagonals,
    haar_unitaries,
    kron_all,
    partial_transpose,
)


@dataclass(frozen=True)
class GroupSpec:
    """Which unitary (sub)group sweeps the frames.

    kind "full" uses U(N) on the whole space; kind "product" uses independent
    factors u_1 (x) ... (x) u_k on the declared dims.  ``active`` restricts the
    product action to a subset of factors (identity elsewhere), e.g.
    U(2) (x) 1 on a two-qubit space.  A full group takes neither field.
    """

    kind: str
    factor_dims: tuple[int, ...] = ()
    active: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("full", "product"):
            raise ValueError("group kind must be 'full' or 'product'")
        object.__setattr__(self, "factor_dims", _integers(self.factor_dims, "factor dims", 1))
        if self.kind == "full" and (self.factor_dims or self.active is not None):
            raise ValueError("factor_dims and active apply to product groups only, not to kind 'full'")
        if self.active is not None:
            object.__setattr__(self, "active", tuple(sorted(set(_integers(self.active, "active factor indices")))))
            if not self.active:
                raise ValueError("active factor set must be nonempty")

    def resolve(self, dims: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(factor_dims, active indices) validated against the state dims."""
        if self.kind == "full":
            n = math.prod(dims)
            return (n,), (0,)
        factors = self.factor_dims or dims
        if math.prod(factors) != math.prod(dims):
            raise ValueError(f"factor dims {factors} do not match state dimension")
        return factors, _resolve_keep(factors, range(len(factors)) if self.active is None else self.active)


@dataclass(eq=False)
class SimplexSample:
    """Sampled simplex points, with the generator state that draws their group elements again."""

    points: np.ndarray  # (n, N) rows summing to 1
    seed: int
    group: GroupSpec
    dims: tuple[int, ...]  # the state's, which resolve the group's factors
    rng: np.random.Generator = field(repr=False)  # a copy of the sampler's generator, taken before its draws

    def validate(self) -> None:
        check("simplex", -np.min(self.points), "sample contains a negative probability")
        check("simplex", np.max(np.abs(self.points.sum(axis=1) - 1.0)), "sample rows do not sum to 1")

    @cached_property
    def params(self) -> tuple[np.ndarray, ...]:
        """Per factor, the (n, d_k, d_k) stack of the sampled factor unitaries.

        Drawn on first access from a copy of ``rng``, so they are the draws
        that produced the points, bit for bit, and ``rng`` stays as it was.
        """
        return _draw_elements(self.group, self.dims, len(self.points), copy.deepcopy(self.rng))


def _draw_elements(
    g: GroupSpec, dims: tuple[int, ...], count: int, rng: np.random.Generator
) -> tuple[np.ndarray, ...]:
    """Per-factor (count, d_k, d_k) stacks: Haar draws on the active factors
    (drawn in factor order), the identity on the others."""
    factors, active = g.resolve(dims)
    draws = {a: haar_unitaries(factors[a], count, rng) for a in active}
    return tuple(
        draws[k] if k in draws else np.broadcast_to(np.eye(d, dtype=complex), (count, d, d))
        for k, d in enumerate(factors)
    )


def image_sample(rho: DensityMatrix, g: GroupSpec, n: int, seed: int) -> SimplexSample:
    """n points diag(u^dag rho u) with u Haar on the specified (sub)group.

    The sample keeps no group elements: ``params`` draws them again from a
    copy of the generator taken before the draws.  The full group's points
    come from ``linalg._haar_scan``, which reduces each block of draws as it
    is drawn, so no frame stack is held.  A product group's points are
    ``frame_diagonals`` of its factor stacks, which forms the joint frames one
    block at a time in the column layout, so every point equals
    ``frame_diagonals`` of ``kron_all(params)`` bit for bit and no (n, N, N)
    product stack is held; the factor stacks are dropped on return.  The
    points and the sampler's x, or the active factor stacks, are checked
    against the byte budget before any of them exists; the block copies are
    scratch beside them.
    """
    _, n = _check_draw(rho.dim, n)  # before anything is allocated for the draws
    if n < 1:
        raise ValueError("sample size must be positive")
    factors, active = g.resolve(rho.dims)
    held = 8 * rho.dim**2 if g.kind == "full" else sum(16 * factors[a] ** 2 for a in active)  # x or factor stacks
    _check_bytes(n * (held + 8 * rho.dim), "the {} group's image of {} points at dimension {}", g.kind, n, rho.dim)
    rng = np.random.default_rng(seed)
    before = copy.deepcopy(rng)
    if g.kind == "full":
        points = _haar_scan(rho.mat, n, rng, np.real, (rho.dim,))
    else:
        points = frame_diagonals(rho.mat, *_draw_elements(g, rho.dims, n, rng)).real
    sample = SimplexSample(points=points, seed=seed, group=g, dims=rho.dims, rng=before)
    sample.validate()
    return sample


# random base points; the rank can drop only on a measure-zero set, so the
# largest rank found among them is the generic one
_BASE_POINTS = 5


def _jacobian(sigma: np.ndarray, factors: tuple[int, ...], active: tuple[int, ...]) -> np.ndarray:
    """The image Jacobian at each base point, (P, N, K), from its sigma = u0^dag rho u0.

    Entry (m, k) is -2 Im (sigma G_k)_mm, for the generator G_k = 1 (x) g_k (x) 1
    of an active factor.  Where g_k has the entry (row, col, value), G_k has it
    in column m = (l, col, r) at row (l, row, r), and nowhere else in that
    column, so the entry is -2 Im(sigma[(l, col, r), (l, row, r)] value); every
    other entry is zero.  One einsum diagonal of sigma, reshaped by the
    factors, gives these d x d blocks whose indices agree outside the factor.
    The one nonzero product of the dense einsum against the embedded
    generators is this one, and the zeros take its signs (LAPACK's
    reflections read the sign of a zero), so the Jacobian and its singular
    values equal that einsum's bit for bit.
    """
    p, n = sigma.shape[:2]
    sizes = [factors[a] ** 2 for a in active]
    jac = np.full((sum(sizes), p, n), -0.0)
    for a, part in zip(active, np.split(jac, np.cumsum(sizes)[:-1])):
        d, left, right = factors[a], math.prod(factors[:a]), math.prod(factors[a + 1 :])
        blocks = np.einsum("plxrlyr->plrxy", sigma.reshape(p, left, d, right, left, d, right))
        k, row, col, value = _hermitian_entries(d)
        part = part.reshape(d * d, p, left, d, right)
        part[k, :, :, col] = np.moveaxis(-2.0 * ((blocks[..., col, row] * value).imag + 0.0), -1, 0)
    return jac.transpose(1, 2, 0)


@dataclass(eq=False)
class DimensionReport:
    rank: int
    singular_values: np.ndarray
    rel_tol: float


def image_dimension_report(
    rho: DensityMatrix, g: GroupSpec, rel_tol: float = 1e-8, seed: int = 0
) -> DimensionReport:
    """Numerical rank of the map u -> diag(u^dag rho u) restricted to the subgroup.

    Along the curve u0 exp(i s G_k), for the subgroup's generators G_k (the
    ``hermitian_basis`` of each active factor), the exact derivative at s = 0
    is diag(i [sigma, G_k]) = -2 Im diag(sigma G_k) with sigma = u0^dag rho u0,
    read off sigma's entries (``_jacobian``).  The rank is the count of
    singular values above max(rel_tol * sigma_max, 4 N eps ||rho||_2),
    maximized over random base points; the second bound is the roundoff of
    sigma, so rho proportional to the identity, whose image is one point,
    has rank 0.  On the full group the image is the permutohedron of the
    spectrum (Schur-Horn), of dimension N - 1 for every other state.
    rel_tol lies in (0, 1).  The Jacobian's P N K doubles, with the SVD's
    copy of one base point's, are checked against the byte budget before the
    base points are drawn.
    """
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    factors, active = g.resolve(rho.dims)
    k = sum(factors[a] ** 2 for a in active)
    _check_bytes(8.0 * (_BASE_POINTS + 1) * rho.dim * k, "the image Jacobian of {} generators at dimension {}", k, rho.dim)
    u0 = kron_all(_draw_elements(g, rho.dims, _BASE_POINTS, np.random.default_rng(seed)))
    sigma = u0.conj().swapaxes(-1, -2) @ rho.mat @ u0
    sv = np.linalg.svd(_jacobian(sigma, factors, active), compute_uv=False)
    floor = 4 * rho.dim * np.finfo(float).eps * np.linalg.norm(rho.mat, 2)
    ranks = np.sum(sv > np.maximum(rel_tol * sv[:, :1], floor), axis=1)
    return DimensionReport(rank=int(ranks.max()), singular_values=sv[np.argmax(ranks)], rel_tol=rel_tol)


def image_dimension(rho: DensityMatrix, g: GroupSpec, **kwargs) -> int:
    return image_dimension_report(rho, g, **kwargs).rank


def _two_qubit_point(point) -> np.ndarray:
    """``point`` as a float array, once it is 4 finite outcome probabilities."""
    w = np.asarray(point, dtype=float)
    if w.shape != (4,):
        raise ValueError("expected a 4-outcome simplex point")
    _require_finite(w, "simplex point entries")
    return w


def factorized_surface_residual(point) -> float:
    """Defect of the two-qubit factorized-surface relation.

    For outcome order (00, 01, 10, 11) the product-group image of a
    factorized state satisfies w10 = w00/(w01 + w00) - w00; returns the
    absolute deviation.
    """
    w = _two_qubit_point(point)
    denom = w[0] + w[1]
    if denom <= 0.0:
        raise DegeneratePointError("w(00) + w(01) vanishes; relation undefined")
    return float(abs(w[2] - w[0] / denom + w[0]))


def entangled_ray_check(point, c0: complex, c1: complex) -> float:
    """Max deviation of the ray identities for c0|00> + c1|11>.

    Checks w00/|c0|^2 = w11/|c1|^2 and (the equal-moduli reduction of the
    cross identity) w10 = w01.
    """
    w = _two_qubit_point(point)
    a0, a1 = abs(c0) ** 2, abs(c1) ** 2
    check("ray_norm", abs(a0 + a1 - 1.0), "coefficients must satisfy |c0|^2 + |c1|^2 = 1")
    if min(a0, a1) < LIMITS["ray_degenerate"]:
        raise DegeneratePointError("a vanishing coefficient degenerates the ray identities")
    return float(max(abs(w[0] / a0 - w[3] / a1), abs(w[2] - w[1])))


def eigenvalue_bounds_check(sample: SimplexSample, rho: DensityMatrix) -> bool:
    """True iff every sampled coordinate lies in [lambda_min, lambda_max]."""
    eigs = np.linalg.eigvalsh(rho.mat)
    lo, hi = float(eigs[0]) - LIMITS["simplex"], float(eigs[-1]) + LIMITS["simplex"]
    return bool(np.all(sample.points >= lo) and np.all(sample.points <= hi))


@dataclass(eq=False)
class PeresScan:
    """Result of a partial-transpose tomographic scan.

    A frame's violation is sum_m |<m|u^dag rho^TB u|m>| - 1.  Its maximum over
    all unitaries is the trace norm of rho^TB minus one, attained by the
    eigenbasis frame of rho^TB, so ``max_violation`` is that frame's value
    ``eigenbasis_value``, and ``witness`` is that frame when the value exceeds
    ``LIMITS["witness"]`` (None otherwise).  ``detection`` is the share of Haar
    frames whose violation exceeds the limit, with its binomial standard
    error; None when no frame was drawn.
    """

    max_violation: float
    witness: np.ndarray | None
    min_eigenvalue: float
    trace_norm_minus_one: float
    eigenbasis_value: float
    detection: MonteCarlo | None


def _violations(diagonals: np.ndarray) -> np.ndarray:
    return np.sum(np.abs(diagonals.real), axis=1) - 1.0


def peres_scan(rho12: DensityMatrix, n: int, seed: int) -> PeresScan:
    """Tomographic detection of a negative partial transpose.

    For Hermitian X and any unitary u, sum_m |(u^dag X u)_mm| <= ||X||_1, with
    equality at the eigenbasis of X, so the largest violation is read off
    that one frame and no frame is searched.  The n Haar draws measure how
    often a random frame of the joint space detects the state: each block is
    reduced to its detections as it is drawn (``linalg._haar_scan``), so the
    scan holds the sampler's Gaussian draw, half a frame stack, and no frames.
    """
    if len(rho12.dims) < 2:
        raise ValueError("the scan needs a declared bipartition")
    rho_tb = partial_transpose(rho12, subsystem=len(rho12.dims) - 1)
    eigs, vecs = np.linalg.eigh(rho_tb)
    hits = _haar_scan(rho_tb, n, seed, lambda d: _violations(d) > LIMITS["witness"])
    value = float(_violations(frame_diagonals(rho_tb, vecs[None]))[0])
    return PeresScan(
        max_violation=value,
        witness=vecs if value > LIMITS["witness"] else None,
        min_eigenvalue=float(eigs[0]),
        trace_norm_minus_one=float(np.sum(np.abs(eigs)) - 1.0),
        eigenbasis_value=value,
        detection=MonteCarlo.of(hits, seed),
    )
