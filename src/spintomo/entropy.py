"""Symbol entropies and their relation to quantum entropies.

For each frame u the tomogram row w(., u) is an ordinary probability
distribution, so Shannon, Renyi, Tsallis, and relative q-entropies apply
frame by frame.  The von Neumann and quantum Renyi entropies are the minima
of those frame entropies over the unitary group, attained at the eigenbasis
of the state; group averages give the integral entropies.
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


def _xlogx(w: np.ndarray) -> np.ndarray:
    # 0 log 0 := 0
    out = np.zeros_like(w)
    pos = w > 0.0
    out[pos] = w[pos] * np.log(w[pos])
    return out


def _check_order(q: float, what: str) -> None:
    # NaN fails every comparison, so test for the admissible range
    if not (math.isfinite(q) and q > 0.0):
        raise ValueError(f"{what} order q must be finite and positive, got {q}")


def symbol_entropy(w) -> float:
    """Shannon entropy -sum w ln w of one frame's distribution."""
    return float(-np.sum(_xlogx(_clean_probs(w)))) + 0.0


def renyi_entropy(w, q: float) -> float:
    """(1/(1-q)) ln sum w^q; dispatches to Shannon at q = 1."""
    _check_order(q, "Renyi")
    w = _clean_probs(w)
    if q == 1.0:
        return float(-np.sum(_xlogx(w)))
    return float(np.log(np.sum(w[w > 0.0] ** q)) / (1.0 - q))


def tsallis_entropy(w, q: float) -> float:
    """(sum w^q - 1)/(1-q), the concave companion of the Renyi entropy."""
    _check_order(q, "Tsallis")
    w = _clean_probs(w)
    if q == 1.0:
        return float(-np.sum(_xlogx(w)))
    return float((np.sum(w[w > 0.0] ** q) - 1.0) / (1.0 - q))


def q_log(x: float, q: float) -> float:
    """Deformed logarithm ln_q x = (x^(1-q) - 1)/(1-q), ln_1 = ln."""
    if x <= 0.0:
        raise ValueError("q_log needs a positive argument")
    if q == 1.0:
        return math.log(x)
    return (x ** (1.0 - q) - 1.0) / (1.0 - q)


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
    eigs = np.clip(np.linalg.eigvalsh(rho.mat), 0.0, None)
    return float(-np.sum(_xlogx(eigs))) + 0.0


def quantum_renyi(rho: DensityMatrix, q: float) -> float:
    """(1/(1-q)) ln Tr rho^q; q = 1 gives the von Neumann entropy."""
    _check_order(q, "Renyi")
    eigs = np.clip(np.linalg.eigvalsh(rho.mat), 0.0, None)
    if q == 1.0:
        return float(-np.sum(_xlogx(eigs)))
    return float(np.log(np.sum(eigs[eigs > 0.0] ** q)) / (1.0 - q))


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


def _frame_entropies(rho: DensityMatrix, frames: np.ndarray, q: float | None) -> np.ndarray:
    probs = frame_probabilities(rho, frames)
    if q is None or q == 1.0:
        return -np.sum(_xlogx(probs), axis=1)
    safe = np.where(probs > 0.0, probs, 1.0)
    return np.log(np.sum(safe**q * (probs > 0.0), axis=1)) / (1.0 - q)


def min_entropy_over_group(
    rho: DensityMatrix, n_verify: int, seed: int, q: float | None = None
) -> EntropyReport:
    """Exact group minimum of the frame entropy, with Monte Carlo verification.

    The minimizer is the eigenvector frame of rho (no search involved); the
    report carries n_verify Haar frame entropies so callers can confirm the
    bound H_u >= S, and their mean doubles as the integral entropy estimate.
    """
    eigs, vecs = np.linalg.eigh(rho.mat)
    if q is None or q == 1.0:
        min_value = float(-np.sum(_xlogx(np.clip(eigs, 0.0, None))))
    else:
        min_value = quantum_renyi(rho, q)
    per_frame = np.array([])
    monte = None
    if n_verify > 0:
        frames = haar_unitaries(rho.dim, n_verify, np.random.default_rng(seed))
        per_frame = _frame_entropies(rho, frames, q)
        stderr = (
            float(np.std(per_frame, ddof=1) / math.sqrt(n_verify)) if n_verify > 1 else 0.0
        )
        monte = MonteCarlo(
            mean=float(np.mean(per_frame)), stderr=stderr, n=n_verify, seed=seed
        )
    return EntropyReport(
        per_frame=per_frame, min_value=min_value, argmin_frame=vecs, monte_carlo=monte
    )


def integral_entropy(rho: DensityMatrix, n: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of the Haar average of the frame entropy."""
    if n < 2:
        raise ValueError("at least two samples are needed for a standard error")
    frames = haar_unitaries(rho.dim, n, np.random.default_rng(seed))
    values = _frame_entropies(rho, frames, None)
    return float(np.mean(values)), float(np.std(values, ddof=1) / math.sqrt(n))


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


def subadditivity_check(rho12: DensityMatrix, u, tol: float = 1e-10) -> SubadditivityResult:
    """Classical H(12) <= H(1) + H(2) for the joint frame distribution.

    Marginals are summed directly from the joint table, which matches the
    subsystem tomograms whenever the frame is of product form.
    """
    if len(rho12.dims) != 2:
        raise ValueError("subadditivity check needs a declared bipartition")
    w = _joint_probabilities(rho12, u)
    h12 = float(-np.sum(_xlogx(w)))
    h1 = float(-np.sum(_xlogx(w.sum(axis=1))))
    h2 = float(-np.sum(_xlogx(w.sum(axis=0))))
    slack = h1 + h2 - h12
    return SubadditivityResult(h12, h1, h2, slack >= -tol, slack)


def strong_subadditivity_check(
    rho123: DensityMatrix, u, tol: float = 1e-10
) -> StrongSubadditivityResult:
    """Classical H(123) + H(2) <= H(12) + H(23) for the joint distribution.

    This is the symbol-side inequality only; it neither implies nor is
    implied by the operator strong subadditivity.
    """
    if len(rho123.dims) != 3:
        raise ValueError("strong subadditivity check needs a declared tripartition")
    w = _joint_probabilities(rho123, u)
    h123 = float(-np.sum(_xlogx(w)))
    h2 = float(-np.sum(_xlogx(w.sum(axis=(0, 2)))))
    h12 = float(-np.sum(_xlogx(w.sum(axis=2))))
    h23 = float(-np.sum(_xlogx(w.sum(axis=0))))
    lhs = h123 + h2
    rhs = h12 + h23
    slack = rhs - lhs
    return StrongSubadditivityResult(lhs, rhs, slack >= -tol, slack)
