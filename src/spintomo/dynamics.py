"""Unitary evolution and measurement maps, in matrix and symbol form.

Closed-system evolution: rho(t) = e^{-itH} rho e^{itH}.  On a tomogram it
acts through the frame argument alone: w(m, u, t) = w(m, U(t)^dag u, 0) for
every frame u of the set, as
diag(u^dag rho(t) u) = diag((U(t)^dag u)^dag rho (U(t)^dag u)).  So
``evolve_tomogram`` forms rho(t) once, keeps it as the evolved tomogram's
state, and takes its table through the frame set's forward map ``symbols``:
no shifted frame stack, and on a grid no rotation at all.

Projective/POVM updates: the unnormalized map rho -> P rho P is returned as a
normalized state plus its probability; its symbol-side form is the triple
star composition w_P * w * w_P.  A ``Povm`` holds its effects as one
read-only (K, d, d) stack; its checks and outcome probabilities are array
reductions over the stack, with one batched ``eigvalsh`` for positivity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LIMITS, ZeroProbabilityError, check
from .linalg import DensityMatrix, as_matrix, expm_hermitian_times, hermiticity_residual
from .quadrature import QuadratureGrid
from .symbols import Tomogram, _grid_transform


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
    """The tomogram of rho(t) = ``evolve_state(t0.source_state, h, t)`` on ``t0.frames``.

    It equals the frame-shift table w(m, U(t)^dag u, 0), spin or unitary, on a
    grid or off one.  Requires the tomogram to have been built in-process
    from a state.
    """
    if t0.source_state is None:
        raise ValueError(
            "tomogram lacks its generating state; build it with unitary_tomogram or spin_tomogram"
        )
    state = evolve_state(t0.source_state, h, t)
    return Tomogram(t0.frames, t0.frames.symbols(state.mat), dims=t0.dims, source_state=state)


def measure_update(rho: DensityMatrix, effect) -> tuple[DensityMatrix, float]:
    """Post-measurement state and probability for the update rho -> P rho P.

    The raw update P rho P is unnormalized; here the state is normalized and
    the weight Tr[P rho P] returned separately.
    """
    p = as_matrix(effect)
    if p.shape != rho.mat.shape:
        raise ValueError("effect and state dimensions differ")
    check("effect", max(hermiticity_residual(p), -np.linalg.eigvalsh(p).min()), "effect must be positive semidefinite")
    updated = p @ rho.mat @ p.conj().T
    prob = float(np.trace(updated).real)
    if prob < LIMITS["zero_probability"]:
        raise ZeroProbabilityError(f"outcome probability {prob:.3e} is numerically zero")
    updated = 0.5 * (updated + updated.conj().T) / prob
    return DensityMatrix(updated, rho.dims), prob


def measurement_star_map(w: Tomogram, w_effect: Tomogram, j, grid: QuadratureGrid) -> Tomogram:
    """Symbol-side measurement update w_P * w * w_P (unnormalized): one synthesis each of P and rho."""
    transform = _grid_transform(j, grid, w_effect, w)
    p, rho = transform.synthesize(w_effect.table), transform.synthesize(w.table)
    return Tomogram(w_effect.frames, w_effect.frames.symbols(p @ rho @ p))


@dataclass(eq=False)
class Povm:
    """Positive operator-valued measure: PSD effects summing to the identity.

    ``effects`` is one read-only complex (K, d, d) stack, taken from a list, a
    tuple or an array; each effect is read as a finite square matrix before
    stacking.
    """

    effects: np.ndarray

    def __post_init__(self):
        effects = [as_matrix(e) for e in self.effects]
        if not effects:
            raise ValueError("a POVM needs at least one effect")
        if any(e.shape != effects[0].shape for e in effects):
            raise ValueError("effects must share one dimension")
        self.effects = np.array(effects)
        self.effects.setflags(write=False)


@dataclass
class PovmReport:
    ok: bool
    completeness_residual: float
    min_effect_eigenvalue: float


def povm_validate(p: Povm) -> PovmReport:
    """Completeness and positivity verdict with residuals, each one reduction over the effect stack."""
    e, e_dag = p.effects, p.effects.conj().swapaxes(1, 2)
    completeness = float(np.max(np.abs(e.sum(axis=0) - np.eye(e.shape[-1]))))
    min_eig = float(np.linalg.eigvalsh(0.5 * (e + e_dag)).min())
    herm = float(np.abs(e - e_dag).max())
    ok = completeness <= LIMITS["completeness"] and min_eig >= -LIMITS["effect"] and herm <= LIMITS["effect"]
    return PovmReport(ok=ok, completeness_residual=completeness, min_effect_eigenvalue=min_eig)


def measurement_probabilities(rho: DensityMatrix, p: Povm) -> np.ndarray:
    """Tr[E_k rho] for every effect, as an owned float64 array; sums to 1 for a complete POVM."""
    if p.effects.shape[1:] != rho.mat.shape:
        raise ValueError("POVM effect and state dimensions differ")
    return np.trace(p.effects @ rho.mat, axis1=1, axis2=2).real.copy()
