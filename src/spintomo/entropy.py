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

from .errors import LIMITS, check
from .linalg import DensityMatrix, _check_draw, _haar_scan, _require_finite, frame_diagonals
from .symbols import UnitaryFrames

# Below this |q - 1| the Renyi entropy is a sum of expm1((q - 1) ln p) terms of one
# sign: its closed form subtracts two numbers within O(|q - 1|) of each other and
# loses as many digits (1.8% of the Shannon value at q = 1 - 1e-14).  Above it the
# scaled closed form is the more accurate and keeps large orders from underflowing.
_NEAR_ONE = 0.25


def _clean_probs(w, name: str = "w") -> np.ndarray:
    w = np.asarray(w, dtype=float).ravel()
    if w.size == 0:
        raise ValueError(f"{name} must be nonempty")
    _require_finite(w, name)
    check("distribution_negative", -np.min(w), "{} has negative entries beyond tolerance", name)
    w = np.clip(w, 0.0, None)
    total = w.sum()
    check("distribution_sum", abs(total - 1.0), "{} does not sum to 1 (got {})", name, total)
    return w


def _renyi(p: np.ndarray, q: float) -> np.ndarray:
    """Renyi entropy (1/(1-q)) ln sum p^q along the last axis; Shannon at q = 1.

    ``p`` holds nonnegative entries; 0 log 0 := 0, and 0^q = 0 for q > 0.
    Near q = 1 it is ln(1 + sum p expm1((q-1) ln p) / sum p) / (1-q), whose
    terms all have one sign.
    """
    if abs(q - 1.0) < _NEAR_ONE:
        logs = np.log(np.where(p > 0.0, p, 1.0))
        if q == 1.0:
            return -np.sum(p * logs, axis=-1) + 0.0
        return np.log1p(np.sum(p * np.expm1((q - 1.0) * logs), axis=-1) / np.sum(p, axis=-1)) / (1.0 - q) + 0.0
    # scaled by the largest entry, so that no p^q underflows at large orders
    top = np.max(p, axis=-1, keepdims=True)
    return (np.log(np.sum((p / top) ** q, axis=-1)) + q * np.log(top[..., 0])) / (1.0 - q) + 0.0


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
    """(sum w^q - 1)/(1-q), the concave companion of the Renyi entropy.

    With sum w^q = exp((1-q) R_q) it is expm1((1-q) R_q)/(1-q) of the Renyi
    entropy R_q, which does not cancel near q = 1.
    """
    _check_order(q, "Tsallis")
    w = _clean_probs(w)
    if q == 1.0:
        return float(_renyi(w, 1.0))
    return float(np.expm1((1.0 - q) * _renyi(w, q)) / (1.0 - q))


def relative_q_entropy(w1, w2, q: float) -> float:
    """-sum w1 ln_q(w2/w1).

    Where w2 vanishes on the support of w1 this is +inf for q >= 1; for q < 1,
    ln_q(0) = -1/(1-q) is finite and so is the entropy.
    """
    _check_order(q, "relative entropy")
    w1 = _clean_probs(w1, "w1")
    w2 = _clean_probs(w2, "w2")
    if w1.shape != w2.shape:
        raise ValueError("distributions must have equal length")
    support = w1 > 0.0
    if q >= 1.0 and np.any(w2[support] == 0.0):
        return math.inf
    ratios = w2[support] / w1[support]
    # ln_q(r) = expm1((1-q) ln r)/(1-q), which does not cancel near q = 1; a
    # vanishing ratio (q < 1 only) takes expm1(-inf) = -1
    logs = np.log(ratios, out=np.full_like(ratios, -np.inf), where=ratios > 0.0)
    if q == 1.0:
        return float(-np.sum(w1[support] * logs))
    return float(-np.sum(w1[support] * np.expm1((1.0 - q) * logs)) / (1.0 - q))


def von_neumann(rho: DensityMatrix) -> float:
    """-Tr rho ln rho from the eigenvalues."""
    return quantum_renyi(rho, 1.0)


def quantum_renyi(rho: DensityMatrix, q: float) -> float:
    """(1/(1-q)) ln Tr rho^q; q = 1 gives the von Neumann entropy."""
    _check_order(q, "Renyi")
    return float(_renyi(_spectrum(np.linalg.eigvalsh(rho.mat)), q))


@dataclass
class MonteCarlo:
    """Sample mean of n Haar draws' values and its standard error, ddof 1."""

    mean: float
    stderr: float
    n: int
    seed: int

    @classmethod
    def of(cls, values: np.ndarray, seed) -> MonteCarlo | None:
        """The record of ``values`` drawn with ``seed``: None for no draws, stderr 0 for one."""
        n = values.size
        if n == 0:
            return None
        stderr = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        return cls(mean=float(np.mean(values)), stderr=stderr, n=n, seed=seed)


@dataclass(eq=False)
class EntropyReport:
    """Frame entropies, their exact minimizer, and optional group average."""

    per_frame: np.ndarray
    min_value: float
    argmin_frame: np.ndarray
    monte_carlo: MonteCarlo | None = None


def _probabilities(diagonals: np.ndarray) -> np.ndarray:
    """Frame diagonals as probabilities, clipped of roundoff negatives."""
    return np.clip(diagonals.real, 0.0, None)


def frame_probabilities(rho: DensityMatrix, frames) -> np.ndarray:
    """diag(u^dag rho u) for a set of frames, clipped of roundoff negatives, shape (F, n).

    The frames are read as ``UnitaryFrames.of(frames, rho.dim)`` reads them,
    so a frame set, an (F, n, n) array, n x n matrices or tuples of
    per-factor unitaries are taken, and a frame that is not n x n or not
    unitary is refused.
    """
    return _probabilities(frame_diagonals(rho.mat, UnitaryFrames.of(frames, rho.dim).stack))


def min_entropy_over_group(
    rho: DensityMatrix, n_verify: int, seed: int, q: float = 1.0
) -> EntropyReport:
    """Exact group minimum of the order-q frame entropy, with Monte Carlo verification.

    The minimizer is the eigenvector frame of rho (no search involved); the
    report carries n_verify Haar frame entropies so callers can confirm the
    bound H_u >= S, and their mean doubles as the integral entropy estimate.
    The entropies come from ``linalg._haar_scan``, which reduces each block of
    draws as it is drawn and holds no frames; they are those of
    ``frame_probabilities`` on ``haar_unitaries(rho.dim, n_verify, seed)``,
    bit for bit.
    """
    _check_order(q, "Renyi")
    eigs, vecs = np.linalg.eigh(rho.mat)
    per_frame = _haar_scan(rho.mat, n_verify, seed, lambda d: _renyi(_probabilities(d), q))
    return EntropyReport(
        per_frame=per_frame,
        min_value=float(_renyi(_spectrum(eigs), q)),
        argmin_frame=vecs,
        monte_carlo=MonteCarlo.of(per_frame, seed),
    )


def integral_entropy(rho: DensityMatrix, n: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of the Haar average of the frame entropy."""
    _check_draw(rho.dim, n)  # the sampler's count rule first, so a non-integer n is refused as such
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
    return frame_probabilities(rho, [u])[0].reshape(rho.dims)


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
    return SubadditivityResult(h12, h1, h2, slack >= -LIMITS["subadditivity"], slack)


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
    return StrongSubadditivityResult(lhs, rhs, slack >= -LIMITS["subadditivity"], slack)
