"""Inverse maps: from tomograms back to operators.

Every frame set has one inverse beside its forward map ``symbols(a)``:
``frames.inverse(table)``, a linear map that returns whatever operator the
table is the symbols of, an observable's included.  On a quadrature grid
exact to degree 2j it is the covariant synthesis of ``SpinTransform``; on
every other set, unitary or spin, it is ``_solve``, least squares on the
frame operator of the set's ``unitaries()``, the canonical dual frame of an
informationally complete set.  ``reconstruct_operator`` is the grid
synthesis with its operand checked in the same ``_grid_transform`` call as
the star maps'.  The state estimate ``reconstruct_from_unitary_frame`` reads
the table as a state's: the inverse, its Hermitian part over its trace,
moved to the nearest density matrix when noise leaves it with a negative
eigenvalue.  A symbol table moves between quantizer pairs by one pair's
synthesis followed by the other's symbol map.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import LIMITS, InformationallyIncompleteError
from .linalg import DensityMatrix, hermitian_basis
from .quadrature import QuadratureGrid
from .symbols import QuantizerPair, Tomogram, _grid_transform, _real_if_real, _real_table

__all__ = [
    "infer_grid",
    "reconstruct_operator",
    "reconstruct_from_unitary_frame",
    "reconstruction_residual",
    "intertwine",
    "duality_residual",
]


def infer_grid(t: Tomogram) -> QuadratureGrid:
    """The grid at whose nodes a spin tomogram's frames lie, ``t.frames.grid``, which frames
    read from a file carry as any ``SpinFrames`` do; frames off every grid are refused."""
    if t.j is None:
        raise ValueError("grid inference needs a spin tomogram")
    if t.frames.grid is None:
        raise ValueError("tomogram frames do not coincide with the nodes of any standard grid")
    return t.frames.grid


def reconstruct_operator(t: Tomogram, j, grid: QuadratureGrid) -> np.ndarray:
    """Rebuild the operator from its spin tomogram on the grid frames.

    A = sum_x W_x R_x^dag diag(Q w[:, x]) R_x, the quadrature of the quantizer
    family over the grid nodes (see ``SpinTransform.synthesize``).
    """
    return _grid_transform(j, grid, t).synthesize(t.table)


def reconstruct_from_unitary_frame(t: Tomogram) -> DensityMatrix:
    """Projected state estimate from a tomogram on any frame set ``t.frames``.

    A complex table is refused, and so is a table not normalized per frame,
    which is no state's.  ``t.frames.inverse`` gives the operator, whose
    Hermitian part over its trace is the estimate; off a grid the inverse
    refuses a rank below d^2 with the generic complete set of
    ``_complete_set`` named (d + 1 unitary frames).  A consistent table's
    estimate is returned as solved.  When noise leaves an eigenvalue below
    -``LIMITS["state_psd"]``, the estimate is the density matrix nearest the
    solution in the Frobenius norm (``_nearest_state``), which is never
    further from the true state in that norm.
    """
    table = _real_table(t)
    t.check_normalized()
    rho = t.frames.inverse(table)
    rho = (rho + rho.conj().T) / (2 * np.trace(rho).real)
    if np.linalg.eigvalsh(rho)[0] < -LIMITS["state_psd"]:
        rho = _nearest_state(rho)
    return DensityMatrix(rho, t.dims)


def _complete_set(frames) -> str:
    """The smallest generic informationally complete set of frames of the kind of ``frames``.

    A generic frame adds d - 1 independent rows to the trace row, so
    unitary frames need d + 1; a spin direction reads the multipoles of rank
    L <= 2j along one axis, and rank 2j needs 4j + 1 axes; a product frame
    measures each factor in one basis, and every factor needs d_k + 1 of them.
    """
    if frames.kind == "spin":
        return f"4j + 1 = {2 * frames.j.twice + 1} directions"
    if frames.factors is None:
        return f"d + 1 = {frames.dim + 1} frames"
    return f"prod(d_k + 1) = {math.prod(f.shape[-1] + 1 for f in frames.factors)} product frames"


def _nearest_state(rho: np.ndarray) -> np.ndarray:
    """The unit-trace PSD matrix nearest the unit-trace Hermitian ``rho`` in the Frobenius norm.

    rho's eigenvectors keep their places and its eigenvalues are projected
    onto the probability simplex: sorted, shifted by the one constant that
    restores the unit trace once the shifted values below 0 are clipped to 0
    (Smolin, Gambetta & Smith, Phys. Rev. Lett. 108, 070502, 2012).
    """
    w, v = np.linalg.eigh(rho)
    desc = w[::-1]
    shifts = (np.cumsum(desc) - 1.0) / np.arange(1, w.size + 1)
    shift = shifts[np.flatnonzero(desc > shifts)[-1]]
    return (v * np.maximum(w - shift, 0.0)) @ v.conj().T


# Largest cond(G) of the frame operator G = A^T A solved by ``eigh``: the normal
# equations lose about eps * cond(G), which stays below 1e-12 up to this limit
# (about 4.5e3).  On Haar frame sets cond(G) is 3 to 36 at F = 100 for d <= 16,
# and at F = 2 d its median is 15 to 171 (worst 5.8e3, at d = 2).  Minimal sets
# of d + 1 frames reach 2.5e6 at d = 2, 4.9e7 at d = 8 and 1.8e10 at d = 16; of
# 50 such Haar sets, 3 take the ``lstsq`` path at d = 2, 23 at d = 4 and all at d = 8.
_GRAM_COND_LIMIT = 1e-12 / np.finfo(float).eps


# Bytes of design-matrix rows formed at a time by ``_normal_equations``: a
# frame's d rows take 8 d^3 bytes, so a chunk is 256 frames at d = 8 and 2048
# at d = 4, and the sums' scratch is 1 MiB whatever the number of frames.
_CHUNK_BYTES = 2**20


def _chunk_frames(d: int) -> int:
    """Frames per chunk of ``_normal_equations`` at dimension d."""
    return max(1, _CHUNK_BYTES // (8 * d**3))


def _normal_equations(us: np.ndarray, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """G = A^T A and A^T b for the design matrix A of the (F, d, d) frames ``us``
    and b, the real (d, F) ``table`` (or a (d, F, k) stack of k tables) read
    frame by frame, then the trace row's right-hand side, the table's mean
    frame sum, which is Tr a for the table of any operator a.

    Both are summed over chunks of ``_chunk_frames(d)`` frames, starting from
    the trace row's terms, so A is never formed whole.
    """
    d = us.shape[-1]
    g, h = np.zeros((d * d, d * d)), np.zeros((d * d,) + table.shape[2:])
    g[:d, :d], h[:d] = 1.0, table.sum(0).mean(0)
    step = _chunk_frames(d)
    scratch = np.empty((d * d, d * min(len(us), step)))
    for start in range(0, len(us), step):
        chunk = us[start : start + step]
        at = _design_columns(chunk, scratch[:, : d * len(chunk)])
        g += at @ at.T
        h += at @ table[:, start : start + step].swapaxes(0, 1).reshape((-1,) + table.shape[2:])
    return g, h


def _solve(frames, table) -> np.ndarray:
    """The least-squares operator whose ``frames.symbols`` are the (d, F) ``table``, a linear map.

    The coefficients over ``hermitian_basis(d)`` are solved on the frames
    ``frames.unitaries()`` through the frame operator G = A^T A (d^2 x d^2)
    of the design matrix A, with one ``eigh`` when cond(G) <=
    ``_GRAM_COND_LIMIT``; G and A^T b come from ``_normal_equations`` without
    A.  Otherwise ``lstsq`` runs on the full A, and a rank below d^2 raises
    ``InformationallyIncompleteError``, which names the ``_complete_set`` of
    the frames.  A's last row is the trace, whose right-hand side is the
    table's mean frame sum, so the constraint holds for every operator's
    table, a state's or not.  The real and imaginary parts of a complex
    table are solved on the one G, so a real table gives a Hermitian
    operator.  A table of any other shape is refused.
    """
    table = _real_if_real(np.asarray(table))
    if table.shape != (frames.dim, len(frames)):
        raise ValueError(f"table shape {table.shape} does not match {frames.dim} outcomes x {len(frames)} frames")
    table = np.stack([table.real, table.imag], axis=-1) if table.dtype.kind == "c" else table
    us, d = frames.unitaries(), frames.dim
    g, h = _normal_equations(us, table)
    w, v = np.linalg.eigh(g)
    if w[0] * _GRAM_COND_LIMIT >= w[-1]:
        x = v @ ((v.T @ h).T / w).T
    else:
        b = table.swapaxes(0, 1).reshape((-1,) + table.shape[2:])
        x, _, found, _ = np.linalg.lstsq(_design_matrix(us), np.concatenate([b, [table.sum(0).mean(0)]]), rcond=None)
        if found < d * d:
            raise InformationallyIncompleteError(rank=int(found), needed=d * d, complete=_complete_set(frames))
    return np.tensordot(x if x.ndim == 1 else x @ (1, 1j), hermitian_basis(d), axes=1)


def _design_columns(us: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The transposed design rows of an (F, d, d) frame stack, written into ``at`` (d^2, F*d) and returned.

    Column (frame, m), row k: diag(u^dag B_k u)[m] for the ``hermitian_basis``
    element B_k.  With c = u[:, m] that is |c_a|^2 for the diagonal units, then
    2 Re and 2 Im of conj(c_a) c_b for each pair a < b.  The pair rows of one
    a are written straight into ``at`` from one product of row c_a with the
    rows b > a.
    """
    d = us.shape[-1]
    c = us.transpose(1, 0, 2).reshape(d, -1)  # c[a, (frame, m)] = u[a, m]
    at[:d] = c.real**2 + c.imag**2
    row = d
    for a in range(d - 1):
        pairs, stop = c[a].conj() * c[a + 1 :], row + 2 * (d - 1 - a)
        np.multiply(pairs.real, 2.0, out=at[row:stop:2])
        np.multiply(pairs.imag, 2.0, out=at[row + 1 : stop : 2])
        row = stop
    return at


def _design_matrix(us: np.ndarray) -> np.ndarray:
    """Real least-squares matrix of an (F, d, d) frame stack, shape (F*d + 1, d^2).

    The rows of ``_design_columns``, then the trace row as an extra
    (well-scaled) equation.  The matrix is built column-major, the
    layout LAPACK's least-squares solver reads.
    """
    d = us.shape[-1]
    at = np.empty((d * d, len(us) * d + 1))
    _design_columns(us, at[:, :-1])
    at[:d, -1], at[d:, -1] = 1.0, 0.0
    return at.T


def reconstruction_residual(t: Tomogram, rho: DensityMatrix) -> float:
    """Max abs mismatch between a (real) tomogram and the state's table ``t.frames.symbols``."""
    table, n = _real_table(t), t.frames.dim
    if n != rho.dim:
        raise ValueError(f"frame shape {(n, n)} does not match state dimension {rho.dim}")
    return float(np.max(np.abs(t.frames.symbols(rho.mat).real - table)))


def intertwine(values, pair_from: QuantizerPair, pair_to: QuantizerPair) -> np.ndarray:
    """Convert a symbol table between quantizer pairs.

    phi(y) = Tr[A U_to(y)] with A = synthesize_from(f), the discrete form of the
    invertible transform linking two symbol families on one space: the source
    pair's synthesis, then the target pair's symbol map.
    """
    if pair_from.dim != pair_to.dim:
        raise ValueError("quantizer pairs act on different dimensions")
    values = np.asarray(values)
    if values.shape != (pair_from.size,):
        raise ValueError("symbol table length does not match the source pair")
    return pair_to.symbol_of(pair_from.synthesize(values))


def duality_residual(pair: QuantizerPair) -> float:
    """Worst-case reconstruction defect of a quantizer pair.

    max over the matrix units P, which span the operator space, of
    ||sum_x w_x Tr[P U(x)] D(x) - P||_inf.
    """
    probes = np.eye(pair.dim * pair.dim, dtype=complex).reshape(-1, pair.dim, pair.dim)
    defects = (np.max(np.abs(pair.synthesize(pair.symbol_of(p)) - p)) for p in probes)
    return float(max(defects, default=0.0))

