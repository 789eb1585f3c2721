"""Tomographic operator symbols for spin systems.

A spin tomogram evaluates an operator against rotated spin projectors,
w(m, beta, gamma) = Tr[A R(g)^dag |j m><j m| R(g)]; a unitary tomogram is the
diagonal of u^dag rho u.  For density operators both are genuine probability
tables, one distribution per frame.

The dual operator families (dequantizer ``U`` and quantizer ``D``) invert the
symbol map: A = sum_x w(x) f_A(x) D(x) over a quadrature grid.  Both families
are rotation covariant, U(m, g) = R(g)^dag |j m><j m| R(g) and
D(m, g) = R(g)^dag D(m, e) R(g), so a grid's ``SpinTransform`` runs the spin
symbol map and its inverse from the d-matrices at its beta nodes and a gamma
phase table, without forming either family or a rotation per node; frames off
a grid are the unitary frames R(g)^dag of ``frame_diagonals``.

A set of spin frames is one ``SpinFrames`` object of Euler-angle arrays, from
file to kernel; ``EulerAngles`` is the single rotation that the reference
operators ``dequantizer_U`` and ``quantizer_D`` take, each one rotation
matrix applied by covariance to its operator at the identity.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .halfint import HalfInt, spin_range
from .linalg import (
    DensityMatrix,
    _resolve_keep,
    frame_diagonals,
    kron_all,
    partial_trace,
    unitarity_residual,
)
from .quadrature import GROUP_VOLUME, QuadratureGrid
from .su2 import _check_jm_pair, rotation_matrix, rotation_stack, wigner_d_stack

REALITY_TOL = 1e-10
CLAMP_TOL = 1e-12


@dataclass(frozen=True)
class EulerAngles:
    alpha: float
    beta: float
    gamma: float


class SpinFrames:
    """Spin-j frames held as Euler-angle arrays, in frame order.

    ``grid`` is the quadrature grid whose nodes the frames are, None until
    ``grid_frames`` or a passing ``infer_grid`` sets it; ``spin_tomogram`` then
    uses the grid's memoized ``SpinTransform``, and runs frames with no grid
    through ``frame_diagonals``.
    """

    def __init__(self, j, betas, gammas, alphas=None):
        self.j = HalfInt.of(j)
        if self.j.twice < 0:
            raise ValueError("spin j must be nonnegative")
        self.betas = np.asarray(betas, dtype=float)
        self.gammas = np.asarray(gammas, dtype=float)
        self.alphas = np.zeros_like(self.betas) if alphas is None else np.asarray(alphas, dtype=float)
        if not self.betas.ndim == 1 or not self.betas.shape == self.gammas.shape == self.alphas.shape:
            raise ValueError("frame angle arrays must be 1-d and of equal length")
        if not np.all(np.isfinite([self.alphas, self.betas, self.gammas])):
            raise ValueError("frame angles must be finite numbers (found NaN or infinity)")
        self.grid: QuadratureGrid | None = None

    def __len__(self) -> int:
        return self.betas.size


def grid_frames(j, grid: QuadratureGrid) -> SpinFrames:
    """Spin frames at the grid nodes (alpha = 0), in grid node order."""
    frames = SpinFrames(j, *grid.node_angles())
    frames.grid = grid
    return frames


def _frames_match_grid(frames: SpinFrames, j: HalfInt, grid: QuadratureGrid) -> bool:
    """Whether ``frames`` are spin-j frames at the grid nodes, in node order (to 1e-12)."""
    if len(frames) != grid.n_nodes or frames.j != j:
        return False
    if frames.grid is grid:
        return True
    deviation = np.abs(np.stack([frames.betas, frames.gammas]) - np.stack(grid.node_angles()))
    return bool(np.all(deviation <= 1e-12))


class UnitaryFrames(Sequence):
    """Unitary frames as one validated (F, n, n) complex ``stack``, in frame order.

    Tuple frames also keep ``factors``, their per-factor (F, d_k, d_k) stacks
    (None for matrix frames).  Indexing yields each frame as it was given: a
    matrix, or a tuple of factor matrices.
    """

    def __init__(self, stack, factors=None):
        self.stack, self.factors = np.asarray(stack, dtype=complex), factors
        if not unitarity_residual(self.stack) <= 1e-8:
            raise ValueError("frame is not unitary within 1e-8")

    @classmethod
    def of(cls, frames, n: int) -> "UnitaryFrames":
        """``frames`` itself if n x n, else an (F, n, n) array, n x n matrices or
        tuples of per-factor unitaries as one set.  An empty set, a frame not
        n x n and a unitarity residual above 1e-8 (or NaN) are refused."""
        if isinstance(frames, cls) and frames.stack.shape[1:] == (n, n):
            return frames
        items, factors = frames, None
        if not isinstance(items, np.ndarray):
            items = list(items)
            if items and all(isinstance(fr, tuple) for fr in items):
                factors = [np.stack(factor) for factor in zip(*items, strict=True)]
                items = kron_all(factors)
            elif any(isinstance(fr, tuple) for fr in items):
                raise ValueError("frames must be all matrices or all tuples of per-factor unitaries")
        if len(items) == 0:
            raise ValueError("at least one frame is required")
        stack = np.asarray(items, dtype=complex)
        if stack.ndim != 3 or stack.shape[1:] != (n, n):
            raise ValueError(f"frame shape {stack.shape[1:]} does not match state dimension {n}")
        return cls(stack, factors)

    def __len__(self) -> int:
        return len(self.stack)

    def __getitem__(self, i: int):
        return self.stack[i] if self.factors is None else tuple(f[i] for f in self.factors)


def _coupled_m0_block(jt: int) -> np.ndarray:
    """(J_1 + J_2)^2 of two spin-j copies on its M = 0 block, basis |m, -m>, m = j .. -j.

    Tridiagonal: 2j(j+1) - 2m^2 on the diagonal, j(j+1) - m(m+1) between m and m+1.
    Eigenvalues L(L+1), L = 0 .. 2j; eigenvectors <j m; j -m|L 0> over m, up to sign.
    """
    ms = jt / 2 - np.arange(jt + 1)
    jj = jt / 2 * (jt / 2 + 1)
    off = jj - ms[1:] * (ms[1:] + 1)
    return np.diag(2 * jj - 2 * ms**2) + np.diag(off, 1) + np.diag(off, -1)


@lru_cache(maxsize=64)
def _identity_quantizer(jt: int) -> np.ndarray:
    """Q[m', m], the diagonal of the quantizer D(m, e) at the identity rotation.

    Q[m', m] = sum_L (2L+1)/(8 pi^2) (-1)^(2j-m-m') <j m; j -m|L 0><j m'; j -m'|L 0>,
    the tensor series of the quantizer at omega = e, where only M = 0 survives.
    The coefficients are the eigenvectors of ``_coupled_m0_block`` (one ``eigh``,
    L ascending), whose signs cancel in Q = S V diag((2L+1)/(8 pi^2)) V^T S.
    """
    _, v = np.linalg.eigh(_coupled_m0_block(jt))
    v *= (-1.0) ** np.arange(jt + 1)[:, None]
    q = (v * ((2 * np.arange(jt + 1) + 1) / GROUP_VOLUME)) @ v.T
    q.setflags(write=False)
    return q


class SpinTransform:
    """The spin symbol map and its inverse on a quadrature grid, factored through its beta nodes.

    With R_x = d(beta_x) diag(exp(-i gamma_x m)), the symbol at node x = (beta, y) is

        w[m, x] = (R_x A R_x^dag)_{mm} = sum_{a,b} d_ma(beta) d_mb(beta) A_ab P[(a, b), y],
        P[(a, b), y] = exp(-i gamma_y (b - a)),

    so ``analyze(A)`` is one real matrix product of the table d_ma d_mb at the
    grid's beta nodes with the phased entries A_ab P (Kostelec & Rockmore,
    "FFTs on the rotation group", J. Fourier Anal. Appl. 14, 2008).
    ``synthesize(w)`` is the quadrature A = sum_x W_x R_x^dag diag(Q w[:, x]) R_x
    of the quantizer family (the covariance D(m, g) = R(g)^dag D(m, e) R(g))
    with the grid's weights W_x: the transposed table, then a sum over y
    against conj(P).  Tables run over the grid nodes in node order; ``on_grid``
    memoizes one transform per grid.
    """

    def __init__(self, j, grid: QuadratureGrid):
        self.j = HalfInt.of(j)
        self.weights = grid.group_weights()
        n = self.j.twice + 1
        d = wigner_d_stack(self.j, grid.beta_nodes)
        # row (beta, m), column (a, b): d_ma(beta) d_mb(beta)
        self._table = (d[:, :, :, None] * d[:, :, None, :]).reshape(-1, n * n)
        # P[(a, b), y], gathered from its 4j+1 distinct rows rather than n^2 n_gamma exp calls
        a, b = np.divmod(np.arange(n * n), n)
        distinct = np.exp(-1j * np.multiply.outer(np.arange(1 - n, n), grid.gamma_nodes))
        self._phases = distinct[b - a + n - 1]

    @classmethod
    def on_grid(cls, j, grid: QuadratureGrid) -> "SpinTransform":
        """The grid's transform, built once and memoized on the grid."""
        j = HalfInt.of(j)
        key = ("transform", j.twice)
        if key not in grid._memo:
            grid._memo[key] = cls(j, grid)
        return grid._memo[key]

    def analyze(self, a) -> np.ndarray:
        """Symbol table w[m, x] of the operator ``a``, shape (2j+1, nodes).

        A stack of operators (..., 2j+1, 2j+1) gives a stack of tables.
        """
        a = np.asarray(a, dtype=complex)
        n, n_gamma = self.j.twice + 1, self._phases.shape[1]
        if a.shape[-2:] != (n, n):
            raise ValueError(f"operator shape {a.shape} is not (..., {n}, {n}) for spin j={self.j}")
        lead = a.shape[:-2]
        phased = a.reshape(lead + (n * n, 1)) * self._phases
        # real table times the (re, im) pairs of the phased entries: one real product
        w = (self._table @ phased.view(float)).view(complex).reshape(lead + (-1, n, n_gamma))
        return np.moveaxis(w, -3, -2).reshape(lead + (n, -1))

    def synthesize(self, w) -> np.ndarray:
        """Operator with symbol table ``w`` of shape (2j+1, nodes)."""
        n, n_gamma = self.j.twice + 1, self._phases.shape[1]
        if np.shape(w) != (n, self.weights.size):
            raise ValueError(f"symbol table shape {np.shape(w)} is not ({n}, {self.weights.size}) outcomes x nodes")
        c = (_identity_quantizer(self.j.twice) @ w) * self.weights
        # rows (beta, m), complex so that the (re, im) view below exists
        c = np.ascontiguousarray(c.reshape(n, -1, n_gamma).swapaxes(0, 1), dtype=complex).reshape(-1, n_gamma)
        s = (self._table.T @ c.view(float)).view(complex)
        return np.einsum("ry,ry->r", s, self._phases.conj()).reshape(n, n)


def _grid_transform(t: Tomogram, j: HalfInt, grid: QuadratureGrid) -> SpinTransform:
    """The grid's ``SpinTransform``, once ``t`` is checked to be a spin-j tomogram at its nodes."""
    if t.kind != "spin":
        raise ValueError("expected a spin tomogram")
    if not _frames_match_grid(t.frames, j, grid):
        raise ValueError("tomogram frames do not coincide with the grid nodes")
    return SpinTransform.on_grid(j, grid)


@dataclass
class Tomogram:
    """Symbol table over outcomes x frames; its labels are read off the frames.

    ``SpinFrames`` make a "spin" tomogram over the magnetic numbers of j;
    ``UnitaryFrames`` a "unitary" one over the index tuples of ``dims``, which
    default to the frame size and must multiply to it.  Any other ``frames``
    are read as unitary frames by ``UnitaryFrames.of``, once on construction.
    The table must be finite; it is stored complex so symbols of arbitrary
    observables are representable.  ``values`` exposes the probability view
    and raises if the data is not a clean probability table, while
    ``observable_values`` returns the raw complex table.
    """

    frames: SpinFrames | UnitaryFrames
    table: np.ndarray
    dims: tuple[int, ...] | None = None
    source_state: DensityMatrix | None = field(default=None, repr=False)

    def __post_init__(self):
        self.table = np.asarray(self.table, dtype=complex)
        if self.table.ndim != 2:
            raise ValueError(f"tomogram table must be 2-d (outcomes x frames), got shape {self.table.shape}")
        if not np.all(np.isfinite(self.table)):
            raise ValueError("tomogram table entries must be finite numbers (found NaN or infinity)")
        if not isinstance(self.frames, (SpinFrames, UnitaryFrames)):
            self.frames = UnitaryFrames.of(self.frames, self.table.shape[0])
        if not len(self.frames):
            raise ValueError("at least one frame is required")
        if isinstance(self.frames, SpinFrames):
            if self.dims is not None:
                raise ValueError("dims apply to unitary tomograms only")
            n = self.frames.j.twice + 1
        else:
            n = self.frames.stack.shape[1]
            self.dims = (n,) if self.dims is None else tuple(int(d) for d in self.dims)
            if math.prod(self.dims) != n:
                raise ValueError(f"dims {self.dims} do not multiply to the frame size {n}")
        if self.table.shape != (n, len(self.frames)):
            raise ValueError(
                f"table shape {self.table.shape} does not match {n} outcomes x {len(self.frames)} frames"
            )

    @property
    def kind(self) -> str:
        return "spin" if isinstance(self.frames, SpinFrames) else "unitary"

    @property
    def j(self) -> HalfInt | None:
        return self.frames.j if self.kind == "spin" else None

    @property
    def outcomes(self) -> list:
        """Magnetic numbers j .. -j, or the index tuples of ``dims`` in row-major order."""
        return spin_range(self.frames.j) if self.kind == "spin" else list(np.ndindex(*self.dims))

    @property
    def n_outcomes(self) -> int:
        return self.table.shape[0]

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

    def check_normalized(self) -> None:
        res = self.normalization_residual()
        if res > 1e-10:
            raise ValueError(f"tomogram not normalized per frame (residual {res:.3e})")


def dequantizer_U(j, m, omega: EulerAngles) -> np.ndarray:
    """Rotated projector R(g)^dag |j m><j m| R(g); rank one, unit trace."""
    j, m = HalfInt.of(j), HalfInt.of(m)
    _check_jm_pair(j, m)
    r = rotation_matrix(j, omega.alpha, omega.beta, omega.gamma)
    k = (j.twice - m.twice) // 2
    row = r[k, :]
    return np.outer(row.conj(), row)


def quantizer_D(j, m, omega: EulerAngles) -> np.ndarray:
    """Quantizer R(g)^dag diag(Q[:, m]) R(g), the covariant image of D(m, e)."""
    j, m = HalfInt.of(j), HalfInt.of(m)
    _check_jm_pair(j, m)
    r = rotation_matrix(j, omega.alpha, omega.beta, omega.gamma)
    k = (j.twice - m.twice) // 2
    return r.conj().T @ (_identity_quantizer(j.twice)[:, k, None] * r)


def spin_tomogram(a, frames) -> Tomogram:
    """Spin symbol w(m, frame) = Tr[A U(m, frame)] for every m and frame.

    ``frames`` is a ``SpinFrames`` set.  Grid frames run on the grid's
    ``SpinTransform``; other frames are unitary frames u = R(g)^dag, run on
    ``frame_diagonals`` like every unitary tomogram.  ``a`` may be a plain
    finite matrix (observable) or a DensityMatrix, in which case per-frame
    normalization is verified.
    """
    is_state = isinstance(a, DensityMatrix)
    mat = a.mat if is_state else np.asarray(a, dtype=complex)
    if not np.all(np.isfinite(mat)):
        raise ValueError("operator entries must be finite numbers (found NaN or infinity)")
    if not isinstance(frames, SpinFrames):
        raise ValueError(f"spin frames must be a SpinFrames set of angle arrays, got {type(frames).__name__}")
    n = frames.j.twice + 1
    if mat.shape != (n, n):
        raise ValueError(f"operator shape {mat.shape} does not match 2j+1={n}")
    if frames.grid is not None:
        table = SpinTransform.on_grid(frames.j, frames.grid).analyze(mat)
    else:
        rotations = rotation_stack(frames.j, frames.betas, frames.gammas)
        table = frame_diagonals(mat, rotations.conj().swapaxes(-1, -2)).T
    t = Tomogram(frames, table, source_state=a if is_state else None)
    if is_state:
        t.check_normalized()
    return t


def unitary_tomogram(rho: DensityMatrix, frames) -> Tomogram:
    """Unitary symbol w(mvec, u) = <mvec| u^dag rho u |mvec|>.

    ``frames`` is any input of ``UnitaryFrames.of``, checked once here and kept
    as that set; tuple frames (Kronecker products of per-factor unitaries) keep
    their ``factors``, which marginals over subsystems need.
    """
    if not isinstance(rho, DensityMatrix):
        raise ValueError("unitary_tomogram expects a DensityMatrix")
    frames = UnitaryFrames.of(frames, rho.dim)
    t = Tomogram(frames, frame_diagonals(rho.mat, frames.stack).T, dims=rho.dims, source_state=rho)
    t.check_normalized()
    return t


def tomogram_marginal(t: Tomogram, keep) -> Tomogram:
    """Sum out the outcomes of discarded subsystems.

    Requires the tomogram to have been computed with product (tuple) frames
    whose factors are d x d for the declared dims d; the marginal then equals
    the tomogram of the partially traced state on the kept factors, over the
    kept ``factors`` (matrix frames when one subsystem is kept).
    """
    if t.kind != "unitary":
        raise ValueError("marginals are defined for unitary tomograms")
    keep = _resolve_keep(t.dims, keep)
    factors = t.frames.factors
    if factors is None or [f.shape[1:] for f in factors] != [(d, d) for d in t.dims]:
        raise ValueError(f"marginal requires product (tuple) frames with factor dims {t.dims}")
    drop_axes = tuple(k for k in range(len(t.dims)) if k not in keep)
    reduced = t.table.reshape(t.dims + (-1,)).sum(axis=drop_axes).reshape(-1, t.n_frames)
    kept = [factors[k] for k in keep]
    new_frames = UnitaryFrames(kept[0]) if len(keep) == 1 else UnitaryFrames(kron_all(kept), kept)
    source = partial_trace(t.source_state, keep) if t.source_state is not None else None
    return Tomogram(new_frames, reduced, dims=tuple(t.dims[k] for k in keep), source_state=source)


@dataclass
class QuantizerPair:
    """Dequantizer U(x) and quantizer D(x) on a label set, held as two maps.

    The defining identity A = synthesize(symbol_of(A)) holds for every operator A
    on the carrier space (``duality_residual`` measures it).  A spin pair runs
    both maps on its grid's ``SpinTransform``, never forming U or D; the matrix-unit
    pair (``transform`` None) works by transposes.
    """

    labels: list
    weights: np.ndarray
    dim: int
    transform: SpinTransform | None = None

    @classmethod
    def spin(cls, j, grid: QuadratureGrid) -> "QuantizerPair":
        """Spin-j pair on a rotation-group grid; labels are (m, node) pairs, m-major."""
        j = HalfInt.of(j)
        return cls(
            labels=[(m, node) for m in spin_range(j) for node in range(grid.n_nodes)],
            weights=np.tile(grid.group_weights(), j.twice + 1),
            dim=j.twice + 1,
            transform=SpinTransform.on_grid(j, grid),
        )

    @classmethod
    def matrix_units(cls, dim: int) -> "QuantizerPair":
        """Matrix-element symbol family: U(a,b) = |a><b|, D(a,b) = |b><a|; f_A(a,b) = A[b, a]."""
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        labels = [(a, b) for a in range(dim) for b in range(dim)]
        return cls(labels=labels, weights=np.ones(dim * dim), dim=dim)

    def symbol_of(self, a) -> np.ndarray:
        """f_A(x) = Tr[A U(x)] over all labels."""
        mat = a.mat if isinstance(a, DensityMatrix) else np.asarray(a, dtype=complex)
        if mat.shape != (self.dim, self.dim):
            raise ValueError("operator dimension mismatch")
        return mat.T.flatten() if self.transform is None else self.transform.analyze(mat).reshape(-1)

    def synthesize(self, values: np.ndarray) -> np.ndarray:
        """sum_x weights[x] f(x) D(x) - the inverse map applied to a symbol table."""
        values = np.asarray(values)
        if values.shape != (len(self.labels),):
            raise ValueError("symbol table length mismatch")
        if self.transform is None:
            return values.reshape(self.dim, self.dim).T.astype(complex)
        return self.transform.synthesize(values.reshape(self.dim, -1))
