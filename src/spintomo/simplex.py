"""The image of unitary (sub)groups on the probability simplex.

For a fixed state rho, each unitary u maps to the point diag(u^dag rho u).
Sweeping u over the full group or a product subgroup traces out a subset of
the simplex whose dimension and shape characterize the state: spectra bound
the image by hyperplanes, factorized states give additive dimensions, and
certain entangled or symmetric states collapse it further.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePointError
from .linalg import (
    DensityMatrix,
    frame_diagonals,
    haar_unitaries,
    hermitian_basis,
    kron_all,
    partial_transpose,
)

SIMPLEX_TOL = 1e-10


@dataclass(frozen=True)
class GroupSpec:
    """Which unitary (sub)group sweeps the frames.

    kind "full" uses U(N) on the whole space; kind "product" uses independent
    factors u_1 (x) ... (x) u_k on the declared dims.  ``active`` restricts the
    product action to a subset of factors (identity elsewhere), e.g.
    U(2) (x) 1 on a two-qubit space.
    """

    kind: str
    factor_dims: tuple[int, ...] = ()
    active: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("full", "product"):
            raise ValueError("group kind must be 'full' or 'product'")
        object.__setattr__(self, "factor_dims", tuple(int(d) for d in self.factor_dims))
        if self.active is not None:
            object.__setattr__(self, "active", tuple(sorted(set(self.active))))

    def resolve(self, dims: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(factor_dims, active indices) validated against the state dims."""
        if self.kind == "full":
            n = int(np.prod(dims))
            return (n,), (0,)
        factors = self.factor_dims or dims
        if int(np.prod(factors)) != int(np.prod(dims)):
            raise ValueError(f"factor dims {factors} do not match state dimension")
        active = self.active if self.active is not None else tuple(range(len(factors)))
        if any(a < 0 or a >= len(factors) for a in active):
            raise ValueError("active factor index out of range")
        return factors, active


@dataclass
class SimplexSample:
    """Sampled simplex points with the group elements that produced them."""

    points: np.ndarray  # (n, N) rows summing to 1
    params: tuple  # per factor: (n, d_k, d_k) stack of the sampled factor unitaries
    seed: int
    group: GroupSpec

    def validate(self) -> None:
        if np.min(self.points) < -SIMPLEX_TOL:
            raise ValueError("sample contains a negative probability")
        if np.max(np.abs(self.points.sum(axis=1) - 1.0)) > SIMPLEX_TOL:
            raise ValueError("sample rows do not sum to 1")


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
    """n points diag(u^dag rho u) with u Haar on the specified (sub)group."""
    if n < 1:
        raise ValueError("sample size must be positive")
    rng = np.random.default_rng(seed)
    elements = _draw_elements(g, rho.dims, n, rng)
    points = frame_diagonals(rho.mat, kron_all(elements)).real
    sample = SimplexSample(points=points, params=elements, seed=seed, group=g)
    sample.validate()
    return sample


def _lie_basis(factors: tuple[int, ...], active: tuple[int, ...]) -> np.ndarray:
    """Hermitian generators of the subgroup, embedded into the joint space, (K, N, N)."""
    return np.concatenate([
        kron_all([hermitian_basis(d) if k == a else np.eye(d) for k, d in enumerate(factors)])
        for a in active
    ])


# random base points; the rank can drop only on a measure-zero set, so the
# largest rank found among them is the generic one
_BASE_POINTS = 5


@dataclass
class DimensionReport:
    rank: int
    singular_values: np.ndarray
    rel_tol: float


def image_dimension_report(
    rho: DensityMatrix, g: GroupSpec, rel_tol: float = 1e-8, seed: int = 0
) -> DimensionReport:
    """Numerical rank of the map u -> diag(u^dag rho u) restricted to the subgroup.

    Along the curve u0 exp(i s G_k), for a Lie-algebra basis {G_k}, the exact
    derivative at s = 0 is diag(i [sigma, G_k]) = -2 Im diag(sigma G_k) with
    sigma = u0^dag rho u0.  The Jacobians at all random base points come from
    one batched product; the rank is the count of singular values above
    rel_tol * sigma_max, maximized over base points; rel_tol lies in (0, 1).
    """
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    factors, active = g.resolve(rho.dims)
    u0 = kron_all(_draw_elements(g, rho.dims, _BASE_POINTS, np.random.default_rng(seed)))
    sigma = u0.conj().swapaxes(-1, -2) @ rho.mat @ u0
    jac = -2.0 * np.einsum("pab,kba->pak", sigma, _lie_basis(factors, active)).imag
    sv = np.linalg.svd(jac, compute_uv=False)
    ranks = np.where(sv[:, 0] > 0.0, np.sum(sv > rel_tol * sv[:, :1], axis=1), 0)
    best = int(np.argmax(ranks))
    return DimensionReport(rank=int(ranks[best]), singular_values=sv[best], rel_tol=rel_tol)


def image_dimension(rho: DensityMatrix, g: GroupSpec, **kwargs) -> int:
    return image_dimension_report(rho, g, **kwargs).rank


def _two_qubit_point(point) -> np.ndarray:
    """``point`` as a float array, once it is 4 finite outcome probabilities."""
    w = np.asarray(point, dtype=float)
    if w.shape != (4,):
        raise ValueError("expected a 4-outcome simplex point")
    if not np.all(np.isfinite(w)):
        raise ValueError("simplex point entries must be finite numbers (found NaN or infinity)")
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
    if not abs(a0 + a1 - 1.0) <= 1e-10:
        raise ValueError("coefficients must satisfy |c0|^2 + |c1|^2 = 1")
    if a0 < 1e-12 or a1 < 1e-12:
        raise DegeneratePointError("a vanishing coefficient degenerates the ray identities")
    return float(max(abs(w[0] / a0 - w[3] / a1), abs(w[2] - w[1])))


def eigenvalue_bounds_check(sample: SimplexSample, rho: DensityMatrix) -> bool:
    """True iff every sampled coordinate lies in [lambda_min, lambda_max]."""
    eigs = np.linalg.eigvalsh(rho.mat)
    lo, hi = float(eigs[0]), float(eigs[-1])
    return bool(
        np.all(sample.points >= lo - SIMPLEX_TOL) and np.all(sample.points <= hi + SIMPLEX_TOL)
    )


@dataclass
class PeresScan:
    """Result of a partial-transpose tomographic scan.

    ``max_violation`` is the largest sum_m |<m|u^dag rho^TB u|m>| - 1 over the
    scanned frames (the eigenbasis frame of rho^TB is always included, where
    the value equals the trace norm minus one exactly).
    """

    max_violation: float
    witness: np.ndarray | None
    min_eigenvalue: float
    trace_norm_minus_one: float
    eigenbasis_value: float


def peres_scan(rho12: DensityMatrix, n: int, seed: int) -> PeresScan:
    """Search for tomographic detections of a negative partial transpose."""
    if len(rho12.dims) < 2:
        raise ValueError("the scan needs a declared bipartition")
    rho_tb = partial_transpose(rho12, subsystem=len(rho12.dims) - 1)
    eigs, vecs = np.linalg.eigh(rho_tb)

    def violations(frames):
        return np.sum(np.abs(frame_diagonals(rho_tb, frames).real), axis=1) - 1.0

    haar = haar_unitaries(rho12.dim, n, np.random.default_rng(seed))
    values, eigenbasis_value = violations(haar), float(violations(vecs[None])[0])
    # the eigenbasis frame is scanned after the Haar frames, so a Haar frame wins a tie
    if values.size and values.max() >= eigenbasis_value:
        best = int(np.argmax(values))
        frame, value = haar[best].copy(), float(values[best])
    else:
        frame, value = vecs, eigenbasis_value
    return PeresScan(
        max_violation=value,
        witness=frame if value > 1e-8 else None,
        min_eigenvalue=float(eigs[0]),
        trace_norm_minus_one=float(np.sum(np.abs(eigs)) - 1.0),
        eigenbasis_value=eigenbasis_value,
    )
