"""Unitary evolution and measurement maps, in matrix and symbol form.

Closed-system evolution: rho(t) = e^{-itH} rho e^{itH}.  The same evolution
acts on unitary tomograms purely through the frame argument,
w(m, u, t) = w(m, U(t)^dag u, 0), so a tomogram evolves by re-evaluation at
shifted frames without ever forming rho(t).

Projective/POVM updates: the unnormalized map rho -> P rho P is returned as a
normalized state plus its probability; its symbol-side form is the triple
star composition w_P * w * w_P.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ZeroProbabilityError
from .linalg import DensityMatrix, as_matrix, expm_hermitian_times, frame_diagonals, hermiticity_residual
from .quadrature import QuadratureGrid
from .star import star_compose
from .symbols import Tomogram


def evolve_state(rho: DensityMatrix, h, t: float) -> DensityMatrix:
    """e^{-itH} rho e^{itH}; the spectrum is untouched."""
    h = as_matrix(h)
    if h.shape != rho.mat.shape:
        raise ValueError("Hamiltonian and state dimensions differ")
    u = expm_hermitian_times(h, t)
    out = u @ rho.mat @ u.conj().T
    out = 0.5 * (out + out.conj().T)
    return DensityMatrix(out, rho.dims)


def evolve_tomogram(t0: Tomogram, h, t: float) -> Tomogram:
    """Evolve a unitary tomogram by the frame shift u -> U(t)^dag u.

    Requires the tomogram to have been built in-process from a state (the
    shifted frames need fresh evaluations of the time-zero symbol).
    """
    if t0.kind != "unitary":
        raise ValueError("frame-shift evolution applies to unitary tomograms")
    if t0.source_state is None:
        raise ValueError(
            "tomogram lacks its generating state; build it with unitary_tomogram"
        )
    h = as_matrix(h)
    u_t = expm_hermitian_times(h, t)
    shifted = u_t.conj().T @ t0.frames.stack
    evolved = Tomogram(
        t0.frames,
        frame_diagonals(t0.source_state.mat, shifted).T,
        dims=t0.dims,
        source_state=evolve_state(t0.source_state, h, t),
    )
    evolved.check_normalized()
    return evolved


def measure_update(rho: DensityMatrix, effect) -> tuple[DensityMatrix, float]:
    """Post-measurement state and probability for the update rho -> P rho P.

    The raw update P rho P is unnormalized; here the state is normalized and
    the weight Tr[P rho P] returned separately.
    """
    p = as_matrix(effect)
    if p.shape != rho.mat.shape:
        raise ValueError("effect and state dimensions differ")
    if hermiticity_residual(p) > 1e-10 or np.min(np.linalg.eigvalsh(p)) < -1e-10:
        raise ValueError("effect must be positive semidefinite")
    updated = p @ rho.mat @ p.conj().T
    prob = float(np.trace(updated).real)
    if prob < 1e-14:
        raise ZeroProbabilityError(f"outcome probability {prob:.3e} is numerically zero")
    updated = 0.5 * (updated + updated.conj().T) / prob
    return DensityMatrix(updated, rho.dims), prob


def measurement_star_map(w: Tomogram, w_effect: Tomogram, j, grid: QuadratureGrid) -> Tomogram:
    """Symbol-side measurement update w_P * w * w_P (unnormalized)."""
    inner = star_compose(w_effect, w, j, grid)
    return star_compose(inner, w_effect, j, grid)


@dataclass
class Povm:
    """Positive operator-valued measure: PSD effects summing to the identity."""

    effects: list

    def __post_init__(self):
        self.effects = [as_matrix(e) for e in self.effects]
        if not self.effects:
            raise ValueError("a POVM needs at least one effect")
        d = self.effects[0].shape[0]
        if any(e.shape != (d, d) for e in self.effects):
            raise ValueError("effects must share one dimension")


@dataclass
class PovmReport:
    ok: bool
    completeness_residual: float
    min_effect_eigenvalue: float


def povm_validate(p: Povm) -> PovmReport:
    """Completeness and positivity verdict with residuals."""
    d = p.effects[0].shape[0]
    total = sum(p.effects)
    completeness = float(np.max(np.abs(total - np.eye(d))))
    min_eig = min(
        float(np.min(np.linalg.eigvalsh(0.5 * (e + e.conj().T)))) for e in p.effects
    )
    herm = max(hermiticity_residual(e) for e in p.effects)
    ok = completeness <= 1e-10 and min_eig >= -1e-10 and herm <= 1e-10
    return PovmReport(ok=ok, completeness_residual=completeness, min_effect_eigenvalue=min_eig)


def measurement_probabilities(rho: DensityMatrix, p: Povm) -> np.ndarray:
    """Tr[E_k rho] for every effect; sums to 1 for a complete POVM."""
    return np.array([float(np.trace(e @ rho.mat).real) for e in p.effects])
