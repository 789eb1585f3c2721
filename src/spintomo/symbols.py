"""Tomographic operator symbols for spin systems.

A spin tomogram evaluates an operator against rotated spin projectors,
w(m, beta, gamma) = Tr[A R(g)^dag |j m><j m| R(g)]; a unitary tomogram is the
diagonal of u^dag rho u.  For density operators both are genuine probability
tables, one distribution per frame.

The dual operator families (dequantizer ``U`` and quantizer ``D``) invert the
symbol map: A = sum_x w(x) f_A(x) D(x) over a quadrature grid.  Both families
are rotation covariant, U(m, g) = R(g)^dag |j m><j m| R(g) and
D(m, g) = R(g)^dag D(m, e) R(g), so ``SpinTransform`` runs the spin symbol map
and its inverse on a stack of rotation matrices without forming either family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .halfint import HalfInt, spin_range
from .linalg import DensityMatrix, frame_diagonals, kron_all, partial_trace, unitarity_residual
from .quadrature import GROUP_VOLUME, QuadratureGrid
from .su2 import (
    clebsch_gordan,
    irreducible_tensor,
    rotation_matrix,
    rotation_stack,
    tensor_index_pairs,
    wigner_small_d,
)

REALITY_TOL = 1e-10
CLAMP_TOL = 1e-12


@dataclass(frozen=True)
class EulerAngles:
    alpha: float
    beta: float
    gamma: float

    def normalized(self) -> "EulerAngles":
        """Reduce alpha, gamma mod 2pi and require beta in [0, pi]."""
        two_pi = 2.0 * np.pi
        beta = float(self.beta)
        if not 0.0 <= beta <= np.pi + 1e-12:
            raise ValueError(f"beta must lie in [0, pi], got {beta}")
        return EulerAngles(float(self.alpha) % two_pi, min(beta, np.pi), float(self.gamma) % two_pi)


@dataclass(frozen=True)
class SpinFrame:
    """A rotation frame for spin-j tomography; alpha does not affect values."""

    j: HalfInt
    angles: EulerAngles


def grid_frames(j, grid: QuadratureGrid) -> list[SpinFrame]:
    """Spin frames at the grid nodes (alpha = 0), in grid node order."""
    j = HalfInt.of(j)
    betas, gammas = grid.node_angles()
    return [SpinFrame(j, EulerAngles(0.0, float(b), float(g))) for b, g in zip(betas, gammas)]


def frame_angles(frames: list[SpinFrame]) -> tuple[np.ndarray, np.ndarray]:
    """(beta, gamma) arrays of a frame list, in frame order."""
    angles = np.array([(fr.angles.beta, fr.angles.gamma) for fr in frames], dtype=float)
    return angles[:, 0], angles[:, 1]


@lru_cache(maxsize=64)
def _identity_quantizer(jt: int) -> np.ndarray:
    """Q[m', m], the diagonal of the quantizer D(m, e) at the identity rotation.

    Q[m', m] = sum_L (2L+1)/(8 pi^2) (-1)^(2j-m-m') <j m; j -m|L 0><j m'; j -m'|L 0>,
    the tensor series of ``quantizer_D`` at omega = e, where only M = 0 survives.
    """
    j = HalfInt(jt)
    ms = spin_range(j)
    ls = [HalfInt(lt) for lt in range(0, 2 * jt + 1, 2)]
    cg = np.array([[clebsch_gordan(j, m, j, -m, L, 0) for m in ms] for L in ls])
    sign = np.array([(-1.0) ** ((jt - m.twice) // 2) for m in ms])
    scale = np.array([(L.twice + 1) / GROUP_VOLUME for L in ls])
    q = np.outer(sign, sign) * ((cg * scale[:, None]).T @ cg)
    q.setflags(write=False)
    return q


class SpinTransform:
    """The spin symbol map and its inverse on a stack of rotations.

    With R[x] = d(beta_x) diag(exp(-i gamma_x m)):

    * ``analyze(A)`` is the spin symbol w[m, x] = (R_x A R_x^dag)_{mm};
    * ``synthesize(w)`` is the quadrature A = sum_x W_x R_x^dag diag(Q w[:, x]) R_x
      of the quantizer family, by the covariance D(m, g) = R(g)^dag D(m, e) R(g).

    Each is one matrix product over the (frames * (2j+1), 2j+1) stack, so the
    memory cost is O((2j+1)^2 * frames); no per-label operator is formed.
    ``weights`` are the quadrature weights W_x, needed only to synthesize.
    """

    def __init__(self, j, betas, gammas, weights=None):
        self.j = HalfInt.of(j)
        self.rotations = rotation_stack(self.j, betas, gammas)
        self.weights = None if weights is None else np.asarray(weights, dtype=float)
        # row (x, m) of the stack is R_x[m, :]; the conjugate is kept because
        # both products below need it and conjugating per call costs as much
        n = self.j.twice + 1
        self._rows = self.rotations.reshape(-1, n)
        self._rows_conj = self._rows.conj()

    @classmethod
    def on_grid(cls, j, grid: QuadratureGrid) -> "SpinTransform":
        """Transform at the grid nodes, in grid node order; memoized on the grid."""
        j = HalfInt.of(j)
        key = ("transform", j.twice)
        if key not in grid._memo:
            grid._memo[key] = cls(j, *grid.node_angles(), grid.group_weights())
        return grid._memo[key]

    def analyze(self, a) -> np.ndarray:
        """Symbol table w[m, x] of the operator ``a``, shape (2j+1, frames)."""
        w = np.einsum("ij,ij->i", self._rows @ a, self._rows_conj)
        return w.reshape(-1, self.j.twice + 1).T

    def synthesize(self, w) -> np.ndarray:
        """Operator with symbol table ``w`` of shape (2j+1, frames)."""
        if self.weights is None:
            raise ValueError("synthesis needs quadrature weights")
        c = (_identity_quantizer(self.j.twice) @ w) * self.weights
        return self._rows_conj.T @ (self._rows * c.T.reshape(-1, 1))

    def operator_stacks(self) -> tuple[np.ndarray, np.ndarray]:
        """Dequantizers U(m, x) and quantizers D(m, x), each (2j+1) * frames
        matrices ordered m-major, built from the rotations by covariance."""
        r = self.rotations
        rc = self._rows_conj.reshape(r.shape)
        f, n, _ = r.shape
        us = rc.transpose(1, 0, 2)[:, :, :, None] * r.transpose(1, 0, 2)[:, :, None, :]
        q = _identity_quantizer(self.j.twice)
        ds = (rc.transpose(0, 2, 1)[:, None] * q.T[None, :, None, :]) @ r[:, None]
        return us.reshape(n * f, n, n), ds.transpose(1, 0, 2, 3).reshape(n * f, n, n)


@dataclass
class Tomogram:
    """Symbol table over outcomes x frames.

    ``kind`` is "spin" (rotation frames, outcomes are magnetic numbers) or
    "unitary" (unitary-matrix frames, outcomes are basis index tuples).  The
    table is stored complex so symbols of arbitrary observables are
    representable; ``values`` exposes the probability view and raises if the
    data is not a clean probability table, while ``observable_values`` returns
    the raw complex table.
    """

    kind: str
    outcomes: list
    frames: list
    table: np.ndarray
    j: HalfInt | None = None
    dims: tuple[int, ...] | None = None
    source_state: DensityMatrix | None = field(default=None, repr=False)

    def __post_init__(self):
        self.table = np.asarray(self.table, dtype=complex)
        if self.table.shape != (len(self.outcomes), len(self.frames)):
            raise ValueError(
                f"table shape {self.table.shape} does not match "
                f"{len(self.outcomes)} outcomes x {len(self.frames)} frames"
            )

    @property
    def n_outcomes(self) -> int:
        return len(self.outcomes)

    @property
    def n_frames(self) -> int:
        return len(self.frames)

    @property
    def values(self) -> np.ndarray:
        """Real probability table; clamps roundoff negatives within -1e-12 to 0."""
        if np.max(np.abs(self.table.imag), initial=0.0) > REALITY_TOL:
            raise ValueError("tomogram has significantly complex entries; use observable_values")
        re = self.table.real.copy()
        if np.min(re, initial=0.0) < -CLAMP_TOL:
            raise ValueError("tomogram has negative entries beyond -1e-12 (non-PSD input?)")
        re[re < 0.0] = 0.0
        return re

    @property
    def observable_values(self) -> np.ndarray:
        """Raw complex symbol table (observables need not be positive)."""
        return self.table.copy()

    def normalization_residual(self) -> float:
        """Max over frames of |sum_m w(m, frame) - 1|."""
        sums = self.table.sum(axis=0)
        return float(np.max(np.abs(sums - 1.0)))

    def check_normalized(self, tol: float = 1e-10) -> None:
        res = self.normalization_residual()
        if res > tol:
            raise ValueError(f"tomogram not normalized per frame (residual {res:.3e})")


def dequantizer_U(j, m, omega: EulerAngles) -> np.ndarray:
    """Rotated projector R(g)^dag |j m><j m| R(g); rank one, unit trace."""
    j, m = HalfInt.of(j), HalfInt.of(m)
    _check_m(j, m)
    r = rotation_matrix(j, omega.alpha, omega.beta, omega.gamma)
    k = (j.twice - m.twice) // 2
    row = r[k, :]
    return np.outer(row.conj(), row)


def dequantizer_series(j, m, omega: EulerAngles) -> np.ndarray:
    """Equivalent tensor-operator series for the dequantizer.

    sum_{L,M} (-1)^(j-m+M) <j m; j -m|L 0> D^L_{0,-M}(omega) T_LM; used as a
    cross-check of the rotated-projector construction.
    """
    j, m = HalfInt.of(j), HalfInt.of(m)
    _check_m(j, m)
    n = j.twice + 1
    out = np.zeros((n, n), dtype=complex)
    for (L, M), coeff in _series_coefficients(j, m, omega):
        out += coeff * irreducible_tensor(j, L, M)
    return out


def quantizer_D(j, m, omega: EulerAngles) -> np.ndarray:
    """Dual operator with weights (2L+1)/(8 pi^2) on the same series."""
    j, m = HalfInt.of(j), HalfInt.of(m)
    _check_m(j, m)
    n = j.twice + 1
    out = np.zeros((n, n), dtype=complex)
    for (L, M), coeff in _series_coefficients(j, m, omega):
        out += coeff * (L.twice + 1) / GROUP_VOLUME * irreducible_tensor(j, L, M)
    return out


def _check_m(j: HalfInt, m: HalfInt) -> None:
    if (j.twice - m.twice) % 2 != 0 or abs(m.twice) > j.twice:
        raise ValueError(f"m={m} invalid for j={j}")


def _series_coefficients(j: HalfInt, m: HalfInt, omega: EulerAngles):
    """(L, M) -> (-1)^(j-m+M) <j m; j -m|L 0> D^L_{0,-M}(omega) for all labels."""
    for L, M in tensor_index_pairs(j):
        cg = clebsch_gordan(j, m, j, -m, L, 0)
        if cg == 0.0:
            continue
        # D^L_{0,-M} has no alpha dependence (first index zero)
        d = wigner_small_d(L, 0, -M, omega.beta) * np.exp(1j * float(M) * omega.gamma)
        exponent = (j.twice - m.twice) // 2 + M.twice // 2
        yield (L, M), (-1.0) ** exponent * cg * d


def spin_tomogram(a, frames: list[SpinFrame]) -> Tomogram:
    """Spin symbol w(m, frame) = Tr[A U(m, frame)] for every m and frame.

    ``a`` may be a plain matrix (observable) or a DensityMatrix, in which case
    per-frame normalization is verified.
    """
    is_state = isinstance(a, DensityMatrix)
    mat = a.mat if is_state else np.asarray(a, dtype=complex)
    if not frames:
        raise ValueError("at least one frame is required")
    j = frames[0].j
    n = j.twice + 1
    if mat.shape != (n, n):
        raise ValueError(f"operator shape {mat.shape} does not match 2j+1={n}")
    if any(fr.j != j for fr in frames):
        raise ValueError("all frames must share the same spin j")
    table = SpinTransform(j, *frame_angles(frames)).analyze(mat)
    t = Tomogram(
        kind="spin",
        outcomes=spin_range(j),
        frames=list(frames),
        table=table,
        j=j,
        source_state=a if is_state else None,
    )
    if is_state:
        t.check_normalized()
    return t


def frame_stack(frames, n: int) -> np.ndarray:
    """Unitary frames as one validated (F, n, n) complex stack.

    ``frames`` is an (F, n, n) array, a sequence of n x n matrices, or a
    sequence of tuples of per-factor unitaries, whose Kronecker products are
    the frames.  An empty set, a frame that is not n x n and a frame whose
    unitarity residual exceeds 1e-8 are refused.
    """
    if not isinstance(frames, np.ndarray):
        frames = list(frames)
        if frames and all(isinstance(fr, tuple) for fr in frames):
            frames = kron_all([np.stack(factor) for factor in zip(*frames, strict=True)])
        elif any(isinstance(fr, tuple) for fr in frames):
            raise ValueError("frames must be all matrices or all tuples of per-factor unitaries")
    if len(frames) == 0:
        raise ValueError("at least one frame is required")
    stack = np.asarray(frames, dtype=complex)
    if stack.ndim != 3 or stack.shape[1:] != (n, n):
        raise ValueError(f"frame shape {stack.shape[1:]} does not match state dimension {n}")
    if not unitarity_residual(stack) <= 1e-8:
        raise ValueError("frame is not unitary within 1e-8")
    return stack


def unitary_tomogram(rho: DensityMatrix, frames) -> Tomogram:
    """Unitary symbol w(mvec, u) = <mvec| u^dag rho u |mvec|>.

    Frames may be unitary matrices or tuples of per-factor unitaries (their
    Kronecker product is used); tuple frames keep enough structure for
    marginals over subsystems.
    """
    if not isinstance(rho, DensityMatrix):
        raise ValueError("unitary_tomogram expects a DensityMatrix")
    frames = list(frames)
    n = rho.dim
    table = frame_diagonals(rho.mat, frame_stack(frames, n)).T
    outcomes = [tuple(int(i) for i in np.unravel_index(k, rho.dims)) for k in range(n)]
    t = Tomogram(
        kind="unitary",
        outcomes=outcomes,
        frames=frames,
        table=table,
        dims=rho.dims,
        source_state=rho,
    )
    t.check_normalized()
    return t


def tomogram_marginal(t: Tomogram, keep) -> Tomogram:
    """Sum out the outcomes of discarded subsystems.

    Requires the tomogram to have been computed with product (tuple) frames;
    the marginal then equals the tomogram of the partially traced state on
    the kept factors.
    """
    if t.kind != "unitary" or t.dims is None:
        raise ValueError("marginals are defined for unitary tomograms with declared dims")
    if isinstance(keep, (int, np.integer)):
        keep = (int(keep),)
    keep = tuple(sorted(set(int(k) for k in keep)))
    n_sub = len(t.dims)
    if not keep or any(k < 0 or k >= n_sub for k in keep):
        raise ValueError(f"keep={keep} invalid for dims {t.dims}")
    for fr in t.frames:
        if not (isinstance(fr, tuple) and len(fr) == n_sub):
            raise ValueError("marginal requires product-form (tuple) frames")
    block = t.table.reshape(t.dims + (t.n_frames,))
    drop_axes = tuple(k for k in range(n_sub) if k not in keep)
    reduced = block.sum(axis=drop_axes)
    kept_dims = tuple(t.dims[k] for k in keep)
    n_keep = int(np.prod(kept_dims))
    reduced = reduced.reshape(n_keep, t.n_frames)
    outcomes = [tuple(int(i) for i in np.unravel_index(k, kept_dims)) for k in range(n_keep)]
    if len(keep) == 1:
        new_frames = [fr[keep[0]] for fr in t.frames]
    else:
        new_frames = [tuple(fr[k] for k in keep) for fr in t.frames]
    source = partial_trace(t.source_state, keep) if t.source_state is not None else None
    return Tomogram(
        kind="unitary",
        outcomes=outcomes,
        frames=new_frames,
        table=reduced,
        dims=kept_dims,
        source_state=source,
    )


@dataclass
class QuantizerPair:
    """Dual families U(x), D(x) on a discrete label set with quadrature weights.

    The defining identity is A = sum_x weights[x] * Tr[A U(x)] * D(x) for every
    operator A on the carrier space; ``duality_residual`` in the
    reconstruction module measures how well a pair satisfies it.
    """

    labels: list
    us: np.ndarray
    ds: np.ndarray
    weights: np.ndarray
    dim: int

    @classmethod
    def spin(cls, j, grid: QuadratureGrid) -> "QuantizerPair":
        """Spin-j pair on a rotation-group grid; labels are (m, node) pairs.

        Both families are materialized from the grid's rotation stack by
        covariance (``SpinTransform.operator_stacks``), (2j+1)^3 * nodes
        entries each; the transform itself never needs them.
        """
        j = HalfInt.of(j)
        memo_key = ("pair", j.twice)
        cached = grid._memo.get(memo_key)
        if cached is not None:
            return cached
        us, ds = SpinTransform.on_grid(j, grid).operator_stacks()
        pair = cls(
            labels=[(m, node) for m in spin_range(j) for node in range(grid.n_nodes)],
            us=us,
            ds=ds,
            weights=np.tile(grid.group_weights(), j.twice + 1),
            dim=j.twice + 1,
        )
        grid._memo[memo_key] = pair
        return pair

    @classmethod
    def matrix_units(cls, dim: int) -> "QuantizerPair":
        """Matrix-element symbol family: U(a,b) = |a><b|, D(a,b) = |b><a|."""
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        labels, us, ds = [], [], []
        for a in range(dim):
            for b in range(dim):
                u = np.zeros((dim, dim), dtype=complex)
                u[a, b] = 1.0
                us.append(u)
                ds.append(u.conj().T.copy())
                labels.append((a, b))
        return cls(
            labels=labels,
            us=np.stack(us),
            ds=np.stack(ds),
            weights=np.ones(dim * dim),
            dim=dim,
        )

    def symbol_of(self, a) -> np.ndarray:
        """f_A(x) = Tr[A U(x)] over all labels."""
        mat = a.mat if isinstance(a, DensityMatrix) else np.asarray(a, dtype=complex)
        if mat.shape != (self.dim, self.dim):
            raise ValueError("operator dimension mismatch")
        return np.einsum("xij,ji->x", self.us, mat)

    def synthesize(self, values: np.ndarray) -> np.ndarray:
        """sum_x weights[x] f(x) D(x) - the inverse map applied to a symbol table."""
        values = np.asarray(values)
        if values.shape != (len(self.labels),):
            raise ValueError("symbol table length mismatch")
        return np.einsum("x,xij->ij", values * self.weights, self.ds)
