"""Inverse maps: from tomograms back to operators.

Spin tomograms on a quadrature grid invert through the covariant synthesis of
``SpinTransform``; unitary-frame tomograms invert through a constrained
least-squares solve; symbol tables convert between quantizer pairs via
intertwining kernels.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import InformationallyIncompleteError
from .halfint import HalfInt
from .linalg import DensityMatrix, frame_diagonals, hermitian_basis
from .quadrature import QuadratureGrid, _product_grid, make_grid
from .symbols import QuantizerPair, SpinFrames, SpinTransform, Tomogram, frame_stack

__all__ = [
    "make_grid",
    "reconstruct_operator",
    "reconstruct_from_unitary_frame",
    "intertwine",
    "duality_residual",
]


def infer_grid(t: Tomogram) -> QuadratureGrid:
    """Rebuild the quadrature grid a spin tomogram's frames were drawn from.

    Grid frames are beta-major with gamma cycling fastest, so the gamma count
    is the run length of the leading beta value; the Gauss-Legendre nodes are
    then reproduced from the beta count alone.
    """
    if t.kind != "spin" or not t.frames:
        raise ValueError("grid inference needs a spin tomogram with frames")
    betas = SpinFrames.of(t.frames).betas
    n_gamma = 1
    while n_gamma < len(betas) and abs(betas[n_gamma] - betas[0]) < 1e-12:
        n_gamma += 1
    if len(betas) % n_gamma != 0:
        raise ValueError("tomogram frames do not form a regular grid")
    grid = _product_grid(len(betas) // n_gamma, n_gamma)
    if not _frames_match_grid(t.frames, t.j, grid):
        raise ValueError("tomogram frames do not coincide with any standard grid")
    return grid


def _frames_match_grid(frames, j: HalfInt, grid: QuadratureGrid) -> bool:
    frames = SpinFrames.of(frames)
    if len(frames) != grid.n_nodes or frames.j != j:
        return False
    if frames.grid is grid:
        return True
    deviation = np.abs(np.stack([frames.betas, frames.gammas]) - np.stack(grid.node_angles()))
    return bool(np.all(deviation <= 1e-12))


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


def reconstruct_from_unitary_frame(t: Tomogram, frames=None) -> DensityMatrix:
    """Least-squares state estimate from a unitary-frame tomogram.

    Solves for a Hermitian matrix under the unit-trace constraint; at least
    d+1 generically placed frames are needed for the linear map to have full
    column rank.  Positivity is verified afterwards, not enforced: violations
    beyond 1e-8 produce a warning, not an error.
    """
    if t.kind != "unitary":
        raise ValueError("expected a unitary-frame tomogram")
    d = t.n_outcomes
    us = frame_stack(t.frames if frames is None else frames, d)
    if len(us) != t.n_frames:
        raise ValueError("frame list length does not match the tomogram")
    basis = hermitian_basis(d)
    n_par = len(basis)

    # row (frame, m), column k: diag(u^dag B_k u)[m] = <conj(u[:, m]) u[:, m]^T, B_k>
    outer = us.conj()[:, :, None, :] * us[:, None, :, :]
    rows = outer.transpose(0, 3, 1, 2).reshape(-1, d * d) @ basis.reshape(n_par, -1).T
    # unit-trace constraint as an extra (well-scaled) equation
    a = np.vstack([rows.real, np.trace(basis, axis1=1, axis2=2).real])
    b = np.append(t.table.real.T.reshape(-1), 1.0)

    x, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank < n_par:
        raise InformationallyIncompleteError(rank=int(rank), needed=n_par)
    rho = np.tensordot(x, basis, axes=1)
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.trace(rho).real

    min_eig = float(np.min(np.linalg.eigvalsh(rho)))
    if min_eig < -1e-8:
        warnings.warn(
            f"least-squares state has negative eigenvalue {min_eig:.3e}; "
            "input tomogram may be inconsistent",
            stacklevel=2,
        )
    dims = t.dims if t.dims is not None else (d,)
    return DensityMatrix(rho, dims, psd_slack=max(1e-10, 2.0 * abs(min_eig)))


def reconstruction_residual(t: Tomogram, rho: DensityMatrix, frames=None) -> float:
    """Max abs mismatch between the tomogram and the state's forward symbol."""
    us = frame_stack(t.frames if frames is None else frames, rho.dim)
    pred = frame_diagonals(rho.mat, us).real
    return float(np.max(np.abs(pred.T - t.table.real)))


def intertwine(values, pair_from: QuantizerPair, pair_to: QuantizerPair) -> np.ndarray:
    """Convert a symbol table between quantizer pairs.

    phi(y) = sum_x weights[x] f(x) Tr[D_from(x) U_to(y)], the discrete form of
    the invertible transform linking two symbol families on one space.
    """
    if pair_from.dim != pair_to.dim:
        raise ValueError("quantizer pairs act on different dimensions")
    values = np.asarray(values)
    if values.shape != (len(pair_from.labels),):
        raise ValueError("symbol table length does not match the source pair")
    synthesized = pair_from.synthesize(values)
    return np.einsum("yij,ji->y", pair_to.us, synthesized)


def duality_residual(pair: QuantizerPair, probes=None) -> float:
    """Worst-case reconstruction defect of a quantizer pair.

    max over probes of ||sum_x w_x Tr[P U(x)] D(x) - P||_inf; probes default
    to all matrix units, which span the operator space.
    """
    d = pair.dim
    if probes is None:
        probes = []
        for a in range(d):
            for b in range(d):
                p = np.zeros((d, d), dtype=complex)
                p[a, b] = 1.0
                probes.append(p)
    worst = 0.0
    for p in probes:
        rebuilt = pair.synthesize(pair.symbol_of(p))
        worst = max(worst, float(np.max(np.abs(rebuilt - p))))
    return worst

