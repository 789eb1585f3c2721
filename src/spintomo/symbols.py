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
phase table, without forming either family or a rotation per node.  A frame
set has one forward and one inverse map, each over the set's own arrays,
and each refuses a NaN or an infinity in what it is given before its route
runs.  Every table on it comes from its ``symbols(a)``: the grid's transform
for grid frames, and ``frame_diagonals`` on the unitary frames R(g)^dag off
a grid and on the stacks of a ``UnitaryFrames`` set, whose product frames
are held as their factor stacks and never multiplied out here; only spin
frames form their frame stack, ``unitaries()``.  Every operator back from a
table comes from its ``inverse(table)``: the synthesis of a grid exact to
degree 2j, or the least-squares solve of ``reconstruction._solve`` on every
other set.

A set of spin frames is one ``SpinFrames`` object of Euler-angle arrays, from
file to kernel, and, like a ``UnitaryFrames`` set, never empty.  Every map on
grid symbols checks all of its tomograms in one ``_grid_transform`` call.
``EulerAngles`` is the single rotation that the reference operators
``dequantizer_U`` and ``quantizer_D`` take, each one rotation matrix applied
by covariance to its operator at the identity.

A ``Tomogram`` built from a state (``source_state`` set) checks its frame
sums on construction, so every builder from a state ends in ``Tomogram``.
Beside it sit the two readers of real tables: ``_real_if_real`` takes a
table with no imaginary part as real, and ``_real_table`` refuses a complex
one.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import LIMITS, check
from .halfint import HalfInt, spin, spin_range
from .linalg import (
    DensityMatrix,
    _check_bytes,
    _integers,
    _require_finite,
    _resolve_keep,
    _subsystem_dims,
    frame_diagonals,
    hermitian_basis,
    partial_trace,
    unitarity_residual,
)
from .quadrature import GROUP_VOLUME, QuadratureGrid, _product_grid
from .su2 import _row, rotation_matrix, rotation_stack, wigner_d_stack


@dataclass(frozen=True)
class EulerAngles:
    alpha: float
    beta: float
    gamma: float


class SpinFrames:
    """Spin-j frames held as Euler-angle arrays, in frame order.

    A frame is the rotation R(0, beta, gamma): alpha never enters a spin symbol,
    as the phase exp(-i alpha J_z) of R(alpha, beta, gamma) commutes with |j m><j m|.
    The angle arrays are read-only copies, and an empty set is refused, as
    ``UnitaryFrames`` refuses one.  ``grid`` is the quadrature grid
    whose nodes the angles are, in node order and to within 1e-12, and None
    for any other angles and for the nodes of a grid past the byte budget
    (``_grid_of`` decides it).

    The frame-set interface, shared with ``UnitaryFrames``: ``kind``, ``j``,
    ``grid``, ``dim``, ``symbols(a)``, the forward map that every table on a
    frame set comes from, and ``inverse(table)``, the linear map back from a
    table to its operator.  Spin frames also form their rotation stack,
    ``unitaries()``, which their off-grid maps and ``UnitaryFrames.of`` read.
    """

    kind = "spin"

    def __init__(self, j, betas, gammas):
        self.j = spin(j)
        self.betas, self.gammas = np.array(betas, dtype=float), np.array(gammas, dtype=float)
        if not self.betas.ndim == 1 or not self.betas.shape == self.gammas.shape:
            raise ValueError("frame angle arrays must be 1-d and of equal length")
        _require_finite([self.betas, self.gammas], "frame angles")
        if not self.betas.size:
            raise ValueError("at least one frame is required")
        for angles in (self.betas, self.gammas):
            angles.setflags(write=False)
        self._grid = _grid_of(self.betas, self.gammas)

    def __len__(self) -> int:
        return self.betas.size

    @property
    def grid(self) -> QuadratureGrid | None:
        return self._grid

    @property
    def dim(self) -> int:
        return self.j.twice + 1

    def unitaries(self) -> np.ndarray:
        """The (F, 2j+1, 2j+1) frame stack u = R(0, beta, gamma)^dag, conjugated in place."""
        stack = rotation_stack(self.j, self.betas, self.gammas)
        return np.conjugate(stack, out=stack).swapaxes(-1, -2)

    def symbols(self, a) -> np.ndarray:
        """The (2j+1, F) table Tr[a U(m, frame)] of the n x n operator ``a``: on the
        grid's cached ``SpinTransform`` for grid frames, with no rotation formed,
        and through ``frame_diagonals`` on ``unitaries()`` for all others.  A NaN or
        an infinite entry of ``a`` is refused first."""
        _require_finite(a, "operator entries")
        if self._grid is not None:
            return SpinTransform.on_grid(self.j, self._grid).analyze(a)
        return frame_diagonals(a, self.unitaries()).T

    def inverse(self, table) -> np.ndarray:
        """The n x n operator whose ``symbols`` are the (2j+1, F) ``table``: the grid's cached
        ``SpinTransform.synthesize`` for the frames of a grid exact to degree 2j, and
        ``reconstruction._solve`` for all others, where a coarser grid's synthesis would alias.
        A NaN or an infinite entry of ``table`` is refused first."""
        _require_finite(table, "symbol table entries")
        if self._grid is not None and self._grid.exactness_degree >= self.j.twice:
            return SpinTransform.on_grid(self.j, self._grid).synthesize(table)
        from .reconstruction import _solve

        return _solve(self, table)


def _grid_of(betas: np.ndarray, gammas: np.ndarray) -> QuadratureGrid | None:
    """The grid whose nodes the nonempty angle arrays are, in node order and to within 1e-12, or None.

    Grid nodes are a beta-major product, so the first beta that moves gives
    n_gamma, and the count n.  The grid is built only when its n x n
    Gauss-Legendre companion matrix fits the byte budget and the n betas are
    its nodes: the k-th smallest lies in Szego's bound on the k-th node alone,
    ((k - 1/2) pi, k pi) / (n + 1/2), and one Newton step of the three-term
    recurrence puts it within 1e-8 of a root of P_n(cos beta).
    """
    moved = np.flatnonzero(np.abs(betas - betas[0]) > 1e-12)
    n_gamma = int(moved[0]) if moved.size else betas.size
    (n, rest), nodes = divmod(betas.size, n_gamma), betas[::-n_gamma]
    if rest or 8 * n * n > LIMITS["bytes"]:
        return None
    if not np.all(np.abs(nodes * (n + 0.5) / np.pi - np.arange(n) - 0.75) < 0.25):
        return None
    with np.errstate(divide="ignore", invalid="ignore"):
        for beta in (nodes[0], nodes):  # one beta first refuses most other lists in O(n) time
            x, p_prev, p = np.cos(beta), 1.0, np.cos(beta)
            for m in range(2, n + 1):
                p_prev, p = p, ((2 * m - 1) * x * p - (m - 1) * p_prev) / m
            # the step in beta, P_n / P_n' / sin(beta) with P_n'(x) = n (x P_n - P_{n-1}) / (x^2 - 1)
            if not np.all(np.abs(p * (x * x - 1) / (n * (x * p - p_prev) * np.sin(beta))) <= 1e-8):
                return None
    grid = _product_grid(n, n_gamma)
    deviation = np.abs(np.stack([betas, gammas]) - np.stack(grid.node_angles()))
    return grid if np.all(deviation <= 1e-12) else None


def grid_frames(j, grid: QuadratureGrid) -> SpinFrames:
    """Spin frames at the grid nodes, in grid node order.

    The frames hold the grid's own read-only node angles and the caller's
    ``grid``, with no copy and no angle comparison; ``SpinFrames`` at the
    same angles carry an equal grid.
    """
    frames = SpinFrames.__new__(SpinFrames)
    frames.j = spin(j)
    frames.betas, frames.gammas = grid.node_angles()
    frames._grid = grid
    return frames


class UnitaryFrames(Sequence):
    """Unitary frames as their validated ``stacks``, in frame order.

    Matrix frames are one (F, n, n) stack.  Product frames, given as tuples of
    per-factor unitaries, are their (F, d_k, d_k) factor stacks, which
    ``factors`` names too (None for matrix frames); their (F, n, n) product
    stack is never formed whole.  ``symbols(a)`` reads the stacks through
    ``frame_diagonals``, so no tomogram, marginal or residual holds a product
    stack, and ``inverse(table)`` solves on them one chunk of frames at a
    time.  Indexing yields each frame as it was given: a matrix, or a tuple
    of factor matrices; a one-factor tuple is its matrix.  The set belongs to
    no spin and no grid (``j`` and ``grid`` are None).
    """

    kind, j, grid = "unitary", None, None

    def __init__(self, *stacks, n: int | None = None):
        """One stack of matrix frames, or the factor stacks of product frames, whose frame
        shape is the product of the factor shapes.  Refuses an empty set, a frame not
        n x n (n defaults to the frame size) and a unitarity residual above 1e-8 (or
        NaN), which is measured on each stack, factor by factor."""
        self.stacks = tuple(np.asarray(s, dtype=complex) for s in stacks)
        self.factors = self.stacks if len(self.stacks) > 1 else None
        shape = tuple(map(math.prod, zip(*(s.shape[1:] for s in self.stacks))))
        n = shape[-1] if n is None and shape else n
        if not self.stacks or self.stacks[0].shape[:1] == (0,):
            raise ValueError("at least one frame is required")
        if shape != (n, n) or {s.ndim for s in self.stacks} != {3}:
            raise ValueError(f"frame shape {shape} does not match state dimension {n}")
        if len({len(s) for s in self.stacks}) > 1:
            raise ValueError(f"factor stacks hold unequal frame counts {[len(s) for s in self.stacks]}")
        check("unitary", np.max([unitarity_residual(s) for s in self.stacks]), "frame is not unitary within 1e-8")
        self.dim = n

    @classmethod
    def of(cls, frames, n: int) -> "UnitaryFrames":
        """``frames`` itself if n x n, else the ``unitaries()`` of a spin frame set, an
        (F, n, n) array, n x n matrices or tuples of per-factor unitaries as one
        set, checked as on construction; tuples give their factor stacks."""
        if isinstance(frames, cls):
            return frames if frames.dim == n else cls(*frames.stacks, n=n)
        items = frames.unitaries() if isinstance(frames, SpinFrames) else frames
        if not isinstance(items, np.ndarray):
            items = list(items)
            if items and all(isinstance(fr, tuple) for fr in items):
                return cls(*(np.stack(factor) for factor in zip(*items, strict=True)), n=n)
            if any(isinstance(fr, tuple) for fr in items):
                raise ValueError("frames must be all matrices or all tuples of per-factor unitaries")
        return cls(items, n=n)

    def __len__(self) -> int:
        return len(self.stacks[0])

    def symbols(self, a) -> np.ndarray:
        """The (n, F) table diag(u^dag a u) of the n x n operator ``a`` over the frames u, read off
        the stacks once a NaN or an infinite entry of ``a`` is refused."""
        _require_finite(a, "operator entries")
        return frame_diagonals(a, *self.stacks).T

    def inverse(self, table) -> np.ndarray:
        """The n x n operator whose ``symbols`` are the (n, F) ``table``, by ``reconstruction._solve``
        once a NaN or an infinite entry of ``table`` is refused."""
        _require_finite(table, "symbol table entries")
        from .reconstruction import _solve

        return _solve(self, table)

    def __getitem__(self, i: int):
        return self.stacks[0][i] if self.factors is None else tuple(f[i] for f in self.factors)


def _coupled_m0_block(jt: int) -> np.ndarray:
    """(J_1 + J_2)^2 of two spin-j copies on its M = 0 block, basis |m, -m>, m = j .. -j.

    Tridiagonal: 2j(j+1) - 2m^2 on the diagonal, j(j+1) - m(m+1) between m and m+1.
    Eigenvalues L(L+1), L = 0 .. 2j; eigenvectors <j m; j -m|L 0> over m, up to sign.
    """
    ms = jt / 2 - np.arange(jt + 1)
    jj = jt / 2 * (jt / 2 + 1)
    off = jj - ms[1:] * (ms[1:] + 1)
    return np.diag(2 * jj - 2 * ms**2) + np.diag(off, 1) + np.diag(off, -1)


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


def _entry_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the entries A_ab and A_ba of an n x n operator, over the
    pairs a <= b ordered by k = b - a (the n diagonal pairs first), read-only."""
    a = np.concatenate([np.arange(n - k) for k in range(n)])
    b = a + np.repeat(np.arange(n), np.arange(n, 0, -1))
    pairs = (a * n + b, b * n + a)
    for index in pairs:
        index.setflags(write=False)
    return pairs


def _transform_bytes(n: int, n_beta: int, n_gamma: int) -> int:
    """Bytes of a ``SpinTransform``'s real table and cos/sin tables for 2j + 1 = n on an
    n_beta x n_gamma grid: (n_beta n) x n(n+1)/2 and two n(n+1)/2 x n_gamma floats."""
    return 8 * (n * (n + 1) // 2) * (n_beta * n + 2 * n_gamma)


class SpinTransform:
    """The spin symbol map and its inverse on a quadrature grid, factored through its beta nodes.

    With R_x = d(beta_x) diag(exp(-i gamma_x m)), the symbol at node x = (beta, y) is

        w[m, x] = (R_x A R_x^dag)_{mm}
                = sum_{a <= b} d_ma(beta) d_mb(beta) (sym_ab cos(gamma_y k) - i anti_ab sin(gamma_y k)),

    k = b - a, sym_ab = A_ab + A_ba (A_aa on the diagonal), anti_ab = A_ab - A_ba:
    the conjugate-pair entries enter through one symmetric weight.  So the
    transform keeps the real table d_ma d_mb at the grid's beta nodes over the
    n(n+1)/2 pairs a <= b, and the real (pairs, n_gamma) tables cos(gamma_y k)
    and sin(gamma_y k) (Kostelec & Rockmore, "FFTs on the rotation group",
    J. Fourier Anal. Appl. 14, 2008).  ``analyze(A)`` is one real matrix
    product of the table with Re sym cos + Im anti sin, and with
    Im sym cos - Re anti sin beside it as more columns only when that is not
    identically zero.  It is zero for a Hermitian A (sym real, anti
    imaginary), which costs n_gamma columns and gets an exactly real table.

    ``synthesize(w)`` is the quadrature A = sum_x W_x R_x^dag diag(Q w[:, x]) R_x
    of the quantizer family (the covariance D(m, g) = R(g)^dag D(m, e) R(g))
    with the grid's weights W_x: the transposed table takes the weighted Q w
    to sums s[(a, b), y], and A_ab = U + iV, A_ba = U - iV with
    U = sum_y s cos and V = sum_y s sin, so a real table gives an exactly
    Hermitian operator.  Tables run over the grid nodes in node order;
    ``on_grid`` shares one transform among equal grids.
    Its arrays are read-only, and a transform whose tables exceed the byte
    budget is refused before any is built.
    """

    def __init__(self, j, grid: QuadratureGrid):
        self.j = spin(j)
        n = self.j.twice + 1
        _check_bytes(_transform_bytes(n, grid.n_beta, grid.n_gamma),
                     "the spin transform at j = {} on {}", self.j, grid)
        self.weights = grid.group_weights()
        d = wigner_d_stack(self.j, grid.beta_nodes)
        # row (beta, m), column (a, b) with a <= b in the order of _entry_pairs:
        # d_ma(beta) d_mb(beta), one block of n - k columns per k = b - a
        table = np.empty(d.shape[:2] + (n * (n + 1) // 2,))
        start = 0
        for k in range(n):
            np.multiply(d[:, :, : n - k], d[:, :, k:], out=table[:, :, start : start + n - k])
            start += n - k
        self._table = table.reshape(-1, table.shape[-1])
        # row (a, b): the row of k = b - a, repeated for its n - k pairs
        angles = np.multiply.outer(np.arange(n), grid.gamma_nodes)
        self._cos, self._sin = (np.repeat(f(angles), np.arange(n, 0, -1), axis=0) for f in (np.cos, np.sin))
        for array in (self.weights, self._table, self._cos, self._sin):
            array.setflags(write=False)
        self._quantizer, self._pairs = _identity_quantizer(self.j.twice), _entry_pairs(n)
        self._basis_maps = None

    @classmethod
    def on_grid(cls, j, grid: QuadratureGrid) -> "SpinTransform":
        """The spin-j transform of the grid, from the process-wide cache.

        The cache is keyed on 2j and the grid's node counts, so equal grids
        share one transform.
        """
        key = (spin(j).twice, grid.n_beta, grid.n_gamma)
        if key not in _TRANSFORMS:
            _TRANSFORMS[key] = cls(j, grid)
            _TRANSFORMS.trim()
        _TRANSFORMS.move_to_end(key)
        return _TRANSFORMS[key]

    @property
    def nbytes(self) -> int:
        """Bytes held by the transform's arrays, basis maps included once built."""
        arrays = (self.weights, self._table, self._cos, self._sin) + (self._basis_maps or ())
        return sum(array.nbytes for array in arrays)

    def basis_maps(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Both maps in the coordinates of an orthonormal Hermitian basis H_k, where they are real.

        Returns the basis H, shape (n^2, n, n); A[k, (m, x)] = Tr[U(m, x) H_k],
        the symbols of the basis, ``analyze(H)``; and S[k, (m, x)] = (Q^T A)[k, (m, x)] W_x,
        the weighted basis coefficients Tr[H_k D(m, x)] W_x of the quantizers.
        A and S are (n^2, n * nodes).  All three are read-only, built on first use.
        """
        if self._basis_maps is None:
            n = self.j.twice + 1
            basis = hermitian_basis(n)
            basis[n:] /= np.sqrt(2.0)
            # the real parts copied out, so that the cache holds the bytes it counts
            analysis = self.analyze(basis).real.reshape(n * n, -1).copy()
            synthesis = self._quantizer.T @ analysis.reshape(n * n, n, -1) * self.weights
            self._basis_maps = (basis, analysis, synthesis.reshape(n * n, -1))
            for array in self._basis_maps:
                array.setflags(write=False)
            _TRANSFORMS.trim()
        return self._basis_maps

    def analyze(self, a) -> np.ndarray:
        """Symbol table w[m, x] of the operator ``a``, shape (2j+1, nodes).

        A stack of operators (..., 2j+1, 2j+1) gives a stack of tables.
        """
        a = np.asarray(a, dtype=complex)
        n, n_gamma = self.j.twice + 1, self._cos.shape[1]
        if a.shape[-2:] != (n, n):
            raise ValueError(f"operator shape {a.shape} is not (..., {n}, {n}) for spin j={self.j}")
        lead = a.shape[:-2]
        upper, lower = self._pairs
        flat = a.reshape(lead + (n * n,))
        above, below = flat.take(upper, axis=-1), flat.take(lower, axis=-1)
        sym, anti = above + below, above - below
        sym[..., :n] *= 0.5
        if np.count_nonzero(sym.imag) or np.count_nonzero(anti.real):
            # (re, im) pairs of the complex right-hand side as columns of one real product
            rhs = sym[..., None] * self._cos - (1j * anti)[..., None] * self._sin
            w = (self._table @ rhs.view(float)).view(complex)
        else:
            w = self._table @ (sym.real[..., None] * self._cos + anti.imag[..., None] * self._sin)
        w = w.reshape(lead + (-1, n, n_gamma)).swapaxes(-3, -2)
        return w.astype(complex, order="C").reshape(lead + (n, -1))

    def synthesize(self, w) -> np.ndarray:
        """Operator with symbol table ``w`` of shape (2j+1, nodes)."""
        n, n_gamma = self.j.twice + 1, self._cos.shape[1]
        w = np.asarray(w)
        if w.shape != (n, self.weights.size):
            raise ValueError(f"symbol table shape {w.shape} is not ({n}, {self.weights.size}) outcomes x nodes")
        w = _real_if_real(w)
        is_complex = w.dtype.kind == "c"
        c = (self._quantizer @ w) * self.weights
        # rows (beta, m); a complex table enters as (re, im) pairs of columns
        c = np.ascontiguousarray(c.reshape(n, -1, n_gamma).swapaxes(0, 1)).reshape(-1, n_gamma)
        s = (self._table.T @ (c.view(float) if is_complex else c)).reshape(len(self._cos), n_gamma, -1)
        # U = sum_y s cos and V = sum_y s sin, one row product per pair
        u, v = ((trig[:, None] @ s).reshape(len(s), -1) for trig in (self._cos, self._sin))
        if is_complex:
            u, v = u.view(complex), v.view(complex)
        u, iv = u[:, 0], 1j * v[:, 0]
        upper, lower = self._pairs
        out = np.empty(n * n, dtype=complex)
        out[lower] = u - iv
        out[upper] = u + iv
        return out.reshape(n, n)


class _TransformCache(OrderedDict):
    """Spin transforms by 2j and grid node counts, least recently used first.

    ``nbytes`` counts the arrays of the cached transforms.  Past
    ``_CACHE_BUDGET`` ``trim`` drops the oldest, but never the most recently
    used one, so one large transform is still built once per session.
    """

    @property
    def nbytes(self) -> int:
        return sum(t.nbytes for t in self.values())

    def trim(self) -> None:
        while self.nbytes > _CACHE_BUDGET and len(self) > 1:
            self.popitem(last=False)


# Bytes of transforms the cache keeps beside the most recently used one (64 MiB:
# a 2j = 16 transform is 0.44 MB, a 2j = 40 table 12 MB, a 2j = 80 table 174 MB).
_CACHE_BUDGET = 64 * 2**20
_TRANSFORMS = _TransformCache()


def _grid_transform(j, grid: QuadratureGrid, *tomograms: Tomogram) -> SpinTransform:
    """The grid's spin-j ``SpinTransform``, once every tomogram, in argument order,
    is checked to be a spin-j tomogram at its nodes."""
    for t in tomograms:
        if t.kind != "spin":
            raise ValueError("expected a spin tomogram")
        if not (t.frames.j == spin(j) and t.frames.grid == grid):
            raise ValueError("tomogram frames do not coincide with the grid nodes")
    return SpinTransform.on_grid(j, grid)


@dataclass(eq=False)
class Tomogram:
    """Symbol table over outcomes x frames; its labels are read off the frames.

    ``SpinFrames`` make a "spin" tomogram over the magnetic numbers of j;
    ``UnitaryFrames`` a "unitary" one over the index tuples of ``dims``, which
    default to the frame size and must multiply to it.  Any other ``frames``
    are read as unitary frames by ``UnitaryFrames.of``, once on construction.
    The table must be finite, and must sum to 1 per frame when a
    ``source_state`` is given; it is stored complex so symbols of arbitrary
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
        _require_finite(self.table, "tomogram table entries")
        if not isinstance(self.frames, (SpinFrames, UnitaryFrames)):
            self.frames = UnitaryFrames.of(self.frames, self.table.shape[0])
        n = self.frames.dim
        if self.kind == "spin" and self.dims is not None:
            raise ValueError("dims apply to unitary tomograms only")
        elif self.kind == "unitary":
            self.dims = _subsystem_dims(self.dims, n, "the frame size")
        if self.table.shape != (n, len(self.frames)):
            raise ValueError(
                f"table shape {self.table.shape} does not match {n} outcomes x {len(self.frames)} frames"
            )
        if self.source_state is not None:
            self.check_normalized()

    @property
    def kind(self) -> str:
        return self.frames.kind

    @property
    def j(self) -> HalfInt | None:
        return self.frames.j

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
        re = _real_table(self).copy()
        check("tomogram_negative", -np.min(re, initial=0.0),
              "tomogram has negative entries beyond -1e-12 (non-PSD input?)")
        re[re < 0.0] = 0.0
        return re

    @property
    def observable_values(self) -> np.ndarray:
        """Raw complex symbol table (observables need not be positive)."""
        return self.table.copy()

    def normalization_residual(self) -> float:
        """Max over frames of |sum_m w(m, frame) - 1|."""
        sums = self.table.sum(axis=0)
        return float(np.abs(sums - 1.0).max())

    def check_normalized(self) -> None:
        res = self.normalization_residual()
        check("tomogram_sum", res, "tomogram not normalized per frame (residual {:.3e})", res)


def _real_if_real(table: np.ndarray) -> np.ndarray:
    """``table`` itself when it is not complex or an entry has a nonzero imaginary part, else its real view.

    A real table is returned as it is: its ``.imag`` would be a new array of zeros.
    """
    return table if table.dtype.kind != "c" or np.count_nonzero(table.imag) else table.real


def _real_table(t: Tomogram) -> np.ndarray:
    """A tomogram's table, refused if complex beyond ``LIMITS["tomogram_real"]``; negative entries pass.

    The largest |imaginary part| is read from its max and min, with no array of absolute values.
    """
    imag = float(max(t.table.imag.max(), -t.table.imag.min()))
    check("tomogram_real", imag, "tomogram has imaginary entries up to {:.3e}; a probability table is real", imag)
    return t.table.real


def dequantizer_U(j, m, omega: EulerAngles) -> np.ndarray:
    """Rotated projector R(g)^dag |j m><j m| R(g); rank one, unit trace."""
    k = _row(spin(j), m)
    r = rotation_matrix(j, omega.alpha, omega.beta, omega.gamma)
    return np.outer(r[k].conj(), r[k])


def quantizer_D(j, m, omega: EulerAngles) -> np.ndarray:
    """Quantizer R(g)^dag diag(Q[:, m]) R(g), the covariant image of D(m, e)."""
    j = spin(j)
    k = _row(j, m)
    r = rotation_matrix(j, omega.alpha, omega.beta, omega.gamma)
    return r.conj().T @ (_identity_quantizer(j.twice)[:, k, None] * r)


def spin_tomogram(a, frames) -> Tomogram:
    """Spin symbol w(m, frame) = Tr[A U(m, frame)] for every m and frame.

    ``frames`` is a ``SpinFrames`` set, and the table is its ``symbols(a)``,
    which refuses an ``a`` with a NaN or an infinite entry.  ``a`` may be a
    plain matrix (observable) or a DensityMatrix, in which case the
    ``Tomogram`` verifies per-frame normalization.
    """
    is_state = isinstance(a, DensityMatrix)
    mat = a.mat if is_state else np.asarray(a, dtype=complex)
    if not isinstance(frames, SpinFrames):
        raise ValueError(f"spin frames must be a SpinFrames set of angle arrays, got {type(frames).__name__}")
    n = frames.dim
    if mat.shape != (n, n):
        raise ValueError(f"operator shape {mat.shape} does not match 2j+1={n}")
    return Tomogram(frames, frames.symbols(mat), source_state=a if is_state else None)


def unitary_tomogram(rho: DensityMatrix, frames) -> Tomogram:
    """Unitary symbol w(mvec, u) = <mvec| u^dag rho u |mvec|>.

    ``frames`` is any input of ``UnitaryFrames.of``, checked once here and kept
    as that set; tuple frames (Kronecker products of per-factor unitaries) are
    held as their ``factors``, which marginals over subsystems need, and the
    table is read off them with no product stack.
    """
    if not isinstance(rho, DensityMatrix):
        raise ValueError("unitary_tomogram expects a DensityMatrix")
    frames = UnitaryFrames.of(frames, rho.dim)
    return Tomogram(frames, frames.symbols(rho.mat), dims=rho.dims, source_state=rho)


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
    new_frames = UnitaryFrames(*(factors[k] for k in keep))
    source = partial_trace(t.source_state, keep) if t.source_state is not None else None
    return Tomogram(new_frames, reduced, dims=tuple(t.dims[k] for k in keep), source_state=source)


@dataclass
class QuantizerPair:
    """Dequantizer U(x) and quantizer D(x) on ``size`` labels x, held as two maps.

    The defining identity A = synthesize(symbol_of(A)) holds for every operator A
    on the carrier space (``duality_residual`` measures it).  A spin pair runs
    both maps on its grid's ``SpinTransform``, never forming U or D, over the
    labels (m, node), m-major; the matrix-unit pair (``transform`` None) works
    by transposes over the labels (a, b), row-major.
    """

    dim: int
    transform: SpinTransform | None = None

    @classmethod
    def spin(cls, j, grid: QuadratureGrid) -> "QuantizerPair":
        """Spin-j pair on a rotation-group grid."""
        j = spin(j)
        return cls(dim=j.twice + 1, transform=SpinTransform.on_grid(j, grid))

    @classmethod
    def matrix_units(cls, dim: int) -> "QuantizerPair":
        """Matrix-element symbol family: U(a,b) = |a><b|, D(a,b) = |b><a|; f_A(a,b) = A[b, a]."""
        (dim,) = _integers((dim,), "dimensions", 1)
        return cls(dim=dim)

    @property
    def size(self) -> int:
        """Number of labels: dim * nodes for a spin pair, dim^2 for matrix units."""
        return self.dim * (self.dim if self.transform is None else self.transform.weights.size)

    def symbol_of(self, a) -> np.ndarray:
        """f_A(x) = Tr[A U(x)] over all labels."""
        mat = a.mat if isinstance(a, DensityMatrix) else np.asarray(a, dtype=complex)
        if mat.shape != (self.dim, self.dim):
            raise ValueError("operator dimension mismatch")
        return mat.T.flatten() if self.transform is None else self.transform.analyze(mat).reshape(-1)

    def synthesize(self, values: np.ndarray) -> np.ndarray:
        """sum_x W_x f(x) D(x), W_x the weight of the label's node (1 for matrix units)."""
        values = np.asarray(values)
        if values.shape != (self.size,):
            raise ValueError("symbol table length mismatch")
        if self.transform is None:
            return values.reshape(self.dim, self.dim).T.astype(complex)
        return self.transform.synthesize(values.reshape(self.dim, -1))
