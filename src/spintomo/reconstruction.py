"""Inverse maps: from tomograms back to operators.

Spin tomograms on a quadrature grid invert through the covariant synthesis of
``SpinTransform``; unitary-frame tomograms invert through a constrained
least-squares solve; a symbol table moves between quantizer pairs by one
pair's synthesis followed by the other's symbol map.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import InformationallyIncompleteError
from .halfint import HalfInt
from .linalg import DensityMatrix, frame_diagonals, hermitian_basis
from .quadrature import QuadratureGrid, _product_grid, make_grid
from .symbols import QuantizerPair, SpinTransform, Tomogram, UnitaryFrames, _frames_match_grid, _product_factors

__all__ = [
    "make_grid",
    "reconstruct_operator",
    "reconstruct_from_unitary_frame",
    "intertwine",
    "duality_residual",
]


def infer_grid(t: Tomogram) -> QuadratureGrid:
    """The quadrature grid a spin tomogram's frames were drawn from.

    Grid frames are the beta-major product of their beta and gamma nodes, so
    the node counts fix the grid; the Gauss-Legendre nodes are then reproduced
    from the beta count alone.  The grid is stored on ``t.frames.grid``, so
    later checks against it are identity checks.
    """
    if t.kind != "spin":
        raise ValueError("grid inference needs a spin tomogram")
    if t.frames.grid is None:
        factors = _product_factors(t.frames.betas, t.frames.gammas)
        if factors is None:
            raise ValueError("tomogram frames do not form a regular grid")
        grid = _product_grid(*(nodes.size for nodes in factors))
        if not _frames_match_grid(t.frames, t.j, grid):
            raise ValueError("tomogram frames do not coincide with any standard grid")
        t.frames.grid = grid
    return t.frames.grid


def reconstruct_operator(t: Tomogram, j, grid: QuadratureGrid) -> np.ndarray:
    """Rebuild the operator from its spin tomogram on the grid frames.

    A = sum_x W_x R_x^dag diag(Q w[:, x]) R_x, the quadrature of the quantizer
    family over the grid nodes (see ``SpinTransform.synthesize``).
    """
    j = HalfInt.of(j)
    if t.kind != "spin":
        raise ValueError("reconstruct_operator expects a spin tomogram")
    if not _frames_match_grid(t.frames, j, grid):
        raise ValueError("tomogram frames do not coincide with the grid nodes")
    return SpinTransform.on_grid(j, grid).synthesize(t.table)


def reconstruct_from_unitary_frame(t: Tomogram) -> DensityMatrix:
    """Least-squares state estimate from a unitary-frame tomogram.

    Solves for a Hermitian matrix under the unit-trace constraint; at least
    d+1 generically placed frames are needed for the linear map to have full
    column rank.  Positivity is verified afterwards, not enforced: violations
    beyond 1e-8 produce a warning, not an error.
    """
    if t.kind != "unitary":
        raise ValueError("expected a unitary-frame tomogram")
    d = t.n_outcomes
    a = _design_matrix(t.frames.stack)
    b = np.append(t.table.real.T.reshape(-1), 1.0)

    x, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank < d * d:
        raise InformationallyIncompleteError(rank=int(rank), needed=d * d)
    rho = np.tensordot(x, hermitian_basis(d), axes=1)
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.trace(rho).real

    min_eig = float(np.min(np.linalg.eigvalsh(rho)))
    if min_eig < -1e-8:
        warnings.warn(
            f"least-squares state has negative eigenvalue {min_eig:.3e}; "
            "input tomogram may be inconsistent",
            stacklevel=2,
        )
    return DensityMatrix(rho, t.dims, psd_slack=max(1e-10, 2.0 * abs(min_eig)))


def _design_matrix(us: np.ndarray) -> np.ndarray:
    """Real least-squares matrix of an (F, d, d) frame stack, shape (F*d + 1, d^2).

    Row (frame, m), column k: diag(u^dag B_k u)[m] for the ``hermitian_basis``
    element B_k.  With c = u[:, m] that is |c_a|^2 for the diagonal units, then
    2 Re and 2 Im of conj(c_a) c_b for each pair a < b.  The last row is the
    unit-trace constraint as an extra (well-scaled) equation.  The matrix is
    built column-major, the layout LAPACK's least-squares solver reads.
    """
    d = us.shape[-1]
    c = us.transpose(1, 0, 2).reshape(d, -1)  # c[a, (frame, m)] = u[a, m]
    lo, hi = np.triu_indices(d, 1)
    pairs = c[lo].conj() * c[hi]
    at = np.empty((d * d, c.shape[1] + 1))
    at[:d, :-1] = c.real**2 + c.imag**2
    at[d::2, :-1] = 2.0 * pairs.real
    at[d + 1 :: 2, :-1] = 2.0 * pairs.imag
    at[:d, -1], at[d:, -1] = 1.0, 0.0
    return at.T


def reconstruction_residual(t: Tomogram, rho: DensityMatrix) -> float:
    """Max abs mismatch between the tomogram and the state's forward symbol."""
    pred = frame_diagonals(rho.mat, UnitaryFrames.of(t.frames, rho.dim).stack).real
    return float(np.max(np.abs(pred.T - t.table.real)))


def intertwine(values, pair_from: QuantizerPair, pair_to: QuantizerPair) -> np.ndarray:
    """Convert a symbol table between quantizer pairs.

    phi(y) = sum_x weights[x] f(x) Tr[D_from(x) U_to(y)], the discrete form of
    the invertible transform linking two symbol families on one space: the
    source pair's synthesis, then the target pair's symbol map.
    """
    if pair_from.dim != pair_to.dim:
        raise ValueError("quantizer pairs act on different dimensions")
    values = np.asarray(values)
    if values.shape != (len(pair_from.labels),):
        raise ValueError("symbol table length does not match the source pair")
    return pair_to.symbol_of(pair_from.synthesize(values))


def duality_residual(pair: QuantizerPair, probes=None) -> float:
    """Worst-case reconstruction defect of a quantizer pair.

    max over probes of ||sum_x w_x Tr[P U(x)] D(x) - P||_inf; probes default
    to all matrix units, which span the operator space.
    """
    if probes is None:
        probes = np.eye(pair.dim * pair.dim, dtype=complex).reshape(-1, pair.dim, pair.dim)
    defects = (np.max(np.abs(pair.synthesize(pair.symbol_of(p)) - p)) for p in probes)
    return float(max(defects, default=0.0))

