"""Symbol entropies and their relation to quantum entropies.

For each frame u the tomogram row w(., u) is an ordinary probability
distribution, so Shannon, Renyi, Tsallis, and relative q-entropies apply
frame by frame.  The von Neumann and quantum Renyi entropies are the minima
of those frame entropies over the unitary group, attained at the eigenbasis
of the state: the same functional applied to the spectrum.  Every Shannon
and Renyi value here is one kernel, ``_renyi``, over a frame row or over the
cleaned spectrum ``_spectrum``; group averages give the integral entropies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import DensityMatrix, frame_diagonals, haar_unitaries
from .symbols import frame_stack

NEG_TOL = 1e-10


def _clean_probs(w, name: str = "w") -> np.ndarray:
    w = np.asarray(w, dtype=float).ravel()
    if w.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if np.min(w) < -NEG_TOL:
        raise ValueError(f"{name} has negative entries beyond tolerance")
    w = np.clip(w, 0.0, None)
    if abs(w.sum() - 1.0) > 1e-10:
        raise ValueError(f"{name} does not sum to 1 (got {w.sum()})")
    return w


def _renyi(p: np.ndarray, q: float) -> np.ndarray:
    """Renyi entropy (1/(1-q)) ln sum p^q along the last axis; Shannon at q = 1.

    ``p`` holds nonnegative entries; 0 log 0 := 0, and 0^q = 0 for q > 0.
    """
    if q == 1.0:
        return -np.sum(p * np.log(np.where(p > 0.0, p, 1.0)), axis=-1) + 0.0
    return np.log(np.sum(p**q, axis=-1)) / (1.0 - q) + 0.0


def _spectrum(eigs) -> np.ndarray:
    """Eigenvalues as a distribution: those below n eps lambda_max are roundoff, set to 0."""
    eigs = np.asarray(eigs, dtype=float)
    return np.where(eigs > eigs.size * np.finfo(float).eps * np.max(eigs), eigs, 0.0)


def _check_order(q: float, what: str) -> None:
    # NaN fails every comparison, so test for the admissible range
    if not (math.isfinite(q) and q > 0.0):
        raise ValueError(f"{what} order q must be finite and positive, got {q}")


def symbol_entropy(w) -> float:
    """Shannon entropy -sum w ln w of one frame's distribution."""
    return float(_renyi(_clean_probs(w), 1.0))


def renyi_entropy(w, q: float) -> float:
    """(1/(1-q)) ln sum w^q; Shannon at q = 1."""
    _check_order(q, "Renyi")
    return float(_renyi(_clean_probs(w), q))


def tsallis_entropy(w, q: float) -> float:
    """(sum w^q - 1)/(1-q), the concave companion of the Renyi entropy."""
    _check_order(q, "Tsallis")
    w = _clean_probs(w)
    if q == 1.0:
        return float(_renyi(w, 1.0))
    return float((np.sum(w[w > 0.0] ** q) - 1.0) / (1.0 - q))


def relative_q_entropy(w1, w2, q: float) -> float:
    """-sum w1 ln_q(w2/w1); +inf when w1 has support where w2 vanishes."""
    _check_order(q, "relative entropy")
    w1 = _clean_probs(w1, "w1")
    w2 = _clean_probs(w2, "w2")
    if w1.shape != w2.shape:
        raise ValueError("distributions must have equal length")
    support = w1 > 0.0
    if np.any(w2[support] == 0.0):
        return math.inf
    ratios = w2[support] / w1[support]
    if q == 1.0:
        return float(-np.sum(w1[support] * np.log(ratios)))
    return float(-np.sum(w1[support] * (ratios ** (1.0 - q) - 1.0) / (1.0 - q)))


def von_neumann(rho: DensityMatrix) -> float:
    """-Tr rho ln rho from the eigenvalues."""
    return quantum_renyi(rho, 1.0)


def quantum_renyi(rho: DensityMatrix, q: float) -> float:
    """(1/(1-q)) ln Tr rho^q; q = 1 gives the von Neumann entropy."""
    _check_order(q, "Renyi")
    return float(_renyi(_spectrum(np.linalg.eigvalsh(rho.mat)), q))


@dataclass
class MonteCarlo:
    mean: float
    stderr: float
    n: int
    seed: int


@dataclass
class EntropyReport:
    """Frame entropies, their exact minimizer, and optional group average."""

    per_frame: np.ndarray
    min_value: float
    argmin_frame: np.ndarray
    monte_carlo: MonteCarlo | None = None


def frame_probabilities(rho: DensityMatrix, frames: np.ndarray) -> np.ndarray:
    """diag(u^dag rho u) for a stack of frames, clipped of roundoff negatives."""
    return np.clip(frame_diagonals(rho.mat, frames).real, 0.0, None)


def min_entropy_over_group(
    rho: DensityMatrix, n_verify: int, seed: int, q: float = 1.0
) -> EntropyReport:
    """Exact group minimum of the order-q frame entropy, with Monte Carlo verification.

    The minimizer is the eigenvector frame of rho (no search involved); the
    report carries n_verify Haar frame entropies so callers can confirm the
    bound H_u >= S, and their mean doubles as the integral entropy estimate.
    """
    _check_order(q, "Renyi")
    eigs, vecs = np.linalg.eigh(rho.mat)
    per_frame = np.array([])
    monte = None
    if n_verify > 0:
        frames = haar_unitaries(rho.dim, n_verify, seed)
        per_frame = _renyi(frame_probabilities(rho, frames), q)
        stderr = (
            float(np.std(per_frame, ddof=1) / math.sqrt(n_verify)) if n_verify > 1 else 0.0
        )
        monte = MonteCarlo(
            mean=float(np.mean(per_frame)), stderr=stderr, n=n_verify, seed=seed
        )
    return EntropyReport(
        per_frame=per_frame,
        min_value=float(_renyi(_spectrum(eigs), q)),
        argmin_frame=vecs,
        monte_carlo=monte,
    )


def integral_entropy(rho: DensityMatrix, n: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of the Haar average of the frame entropy."""
    if n < 2:
        raise ValueError("at least two samples are needed for a standard error")
    mc = min_entropy_over_group(rho, n, seed).monte_carlo
    return mc.mean, mc.stderr


class SubadditivityResult(NamedTuple):
    h12: float
    h1: float
    h2: float
    holds: bool
    slack: float


class StrongSubadditivityResult(NamedTuple):
    lhs: float
    rhs: float
    holds: bool
    slack: float


def _joint_probabilities(rho: DensityMatrix, u) -> np.ndarray:
    return frame_probabilities(rho, frame_stack([u], rho.dim))[0].reshape(rho.dims)


def subadditivity_check(rho12: DensityMatrix, u) -> SubadditivityResult:
    """Classical H(12) <= H(1) + H(2) for the joint frame distribution.

    Marginals are summed directly from the joint table, which matches the
    subsystem tomograms whenever the frame is of product form.
    """
    if len(rho12.dims) != 2:
        raise ValueError("subadditivity check needs a declared bipartition")
    w = _joint_probabilities(rho12, u)
    h12, h1, h2 = (float(_renyi(p.ravel(), 1.0)) for p in (w, w.sum(axis=1), w.sum(axis=0)))
    slack = h1 + h2 - h12
    return SubadditivityResult(h12, h1, h2, slack >= -1e-10, slack)


def strong_subadditivity_check(rho123: DensityMatrix, u) -> StrongSubadditivityResult:
    """Classical H(123) + H(2) <= H(12) + H(23) for the joint distribution.

    This is the symbol-side inequality only; it neither implies nor is
    implied by the operator strong subadditivity.
    """
    if len(rho123.dims) != 3:
        raise ValueError("strong subadditivity check needs a declared tripartition")
    w = _joint_probabilities(rho123, u)
    marginals = (w, w.sum(axis=(0, 2)), w.sum(axis=2), w.sum(axis=0))
    h123, h2, h12, h23 = (float(_renyi(p.ravel(), 1.0)) for p in marginals)
    lhs = h123 + h2
    rhs = h12 + h23
    slack = rhs - lhs
    return StrongSubadditivityResult(lhs, rhs, slack >= -1e-10, slack)
