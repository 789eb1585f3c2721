"""SU(2) special functions.

Rotation matrix elements (Wigner d and D functions), Clebsch-Gordan
coefficients, 3j and 6j symbols, and the irreducible tensor operator basis
for spin-j matrices.

Conventions
-----------
* Rotations follow the active z-y-z Euler form
  ``R(alpha, beta, gamma) = exp(-i alpha J3) exp(-i beta J2) exp(-i gamma J3)``
  with ``D^j_{m1 m2} = exp(-i m1 alpha) d^j_{m1 m2}(beta) exp(-i m2 gamma)``.
* Coupling coefficients use the Condon-Shortley phase convention; 3j and 6j
  symbols are the standard Racah single-sum evaluations.
* Matrix bases are ordered m = j, j-1, ..., -j (row index i maps to m = j - i).

d-matrices come from one eigendecomposition of J2 (unitary to rounding at
any j); the scalar ``wigner_small_d`` is an entry of that matrix.  The
coupling coefficients evaluate factorial ratios through a shared
log-factorial table, so their alternating sums stay well scaled up to j of a
few tens.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .halfint import HalfInt, spin_range

_LOG_FACT = np.array([0.0])


def _logfact(n_max: int) -> np.ndarray:
    """Log-factorial table covering 0..n_max; grown (never shrunk) on demand."""
    global _LOG_FACT
    table = _LOG_FACT
    if n_max >= table.size:
        size = max(n_max + 1, 2 * table.size, 128)
        table = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, size)))))
        _LOG_FACT = table
    return table


def _check_spin(j: HalfInt, name: str = "j") -> None:
    if j.twice < 0:
        raise ValueError(f"{name} must be a nonnegative (half-)integer, got {j}")


def _check_jm_pair(j: HalfInt, m: HalfInt) -> None:
    _check_spin(j)
    if (j.twice - m.twice) % 2 != 0:
        raise ValueError(f"m={m} is not of the form j-k for j={j}")
    if abs(m.twice) > j.twice:
        raise ValueError(f"|m|={abs(m)} exceeds j={j}")


def _magnetic_numbers(j: HalfInt) -> np.ndarray:
    """m = j, j-1, ..., -j as floats, in basis order."""
    return (j.twice - 2.0 * np.arange(j.twice + 1)) / 2.0


def wigner_d_stack(j, betas) -> np.ndarray:
    """d-matrices for every beta at once, shape (len(betas), 2j+1, 2j+1).

    d(beta) = I + V expm1(-i beta Lambda) V^dag from one eigendecomposition
    J2 = V Lambda V^dag, which stays unitary to rounding at any j (exact
    diagonalization; Feng, Wang, Yang & Jin, Phys. Rev. E 92, 043307, 2015).
    The product does not depend on the phases of the eigenvectors, and
    d(0) is exactly the identity.
    """
    j = HalfInt.of(j)
    _check_spin(j)
    ms = _magnetic_numbers(j)
    jp = np.diag(np.sqrt(float(j) * (float(j) + 1.0) - ms[1:] * (ms[1:] + 1.0)), k=1)
    _, vecs = np.linalg.eigh((jp - jp.T) / 2j)
    # eigh sorts the eigenvalues ascending; they are exactly -j..j
    phases = np.expm1(-1j * np.multiply.outer(np.asarray(betas, dtype=float), ms[::-1]))
    return ((vecs * phases[:, None, :]) @ vecs.conj().T).real + np.eye(j.twice + 1)


def rotation_stack(j, betas, gammas) -> np.ndarray:
    """Matrices d(beta_x) diag(exp(-i gamma_x m)) for paired angle arrays.

    This is R(0, beta, gamma); alpha only multiplies rows by phases, which
    drop out of every spin symbol.  Repeated beta values share one d-matrix.
    """
    j = HalfInt.of(j)
    betas, gammas = np.asarray(betas, dtype=float), np.asarray(gammas, dtype=float)
    unique, index = np.unique(betas, return_inverse=True)
    phases = np.exp(-1j * np.multiply.outer(gammas, _magnetic_numbers(j)))
    return wigner_d_stack(j, unique)[index] * phases[:, None, :]


def wigner_d_matrix(j, beta: float) -> np.ndarray:
    """Full (2j+1)-dimensional d-matrix, rows/columns ordered m = j..-j."""
    return wigner_d_stack(j, [float(beta)])[0]


def wigner_small_d(j, m1, m2, beta: float) -> float:
    """Rotation matrix element d^j_{m1 m2}(beta) about the y axis, an entry of ``wigner_d_matrix``."""
    j, m1, m2 = HalfInt.of(j), HalfInt.of(m1), HalfInt.of(m2)
    _check_jm_pair(j, m1)
    _check_jm_pair(j, m2)
    return float(wigner_d_matrix(j, beta)[(j.twice - m1.twice) // 2, (j.twice - m2.twice) // 2])


def wigner_D(j, m1, m2, alpha: float, beta: float, gamma: float) -> complex:
    """D^j_{m1 m2}(alpha, beta, gamma) = e^{-i m1 alpha} d^j_{m1 m2}(beta) e^{-i m2 gamma}."""
    j, m1, m2 = HalfInt.of(j), HalfInt.of(m1), HalfInt.of(m2)
    d = wigner_small_d(j, m1, m2, beta)
    return np.exp(-1j * (float(m1) * alpha + float(m2) * gamma)) * d


def rotation_matrix(j, alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Matrix of R(alpha, beta, gamma) in the spin-j representation."""
    phases = np.exp(-1j * alpha * _magnetic_numbers(HalfInt.of(j)))
    return phases[:, None] * rotation_stack(j, [beta], [gamma])[0]


def _triangle_ok(at: int, bt: int, ct: int) -> bool:
    # twice-valued momenta: integer perimeter and triangle inequality
    return (at + bt + ct) % 2 == 0 and abs(at - bt) <= ct <= at + bt


@lru_cache(maxsize=65536)
def _cg(j1t: int, m1t: int, j2t: int, m2t: int, Jt: int, Mt: int) -> float:
    if m1t + m2t != Mt:
        return 0.0
    if not _triangle_ok(j1t, j2t, Jt):
        return 0.0
    if abs(m1t) > j1t or abs(m2t) > j2t or abs(Mt) > Jt:
        return 0.0
    lf = _logfact((j1t + j2t + Jt) // 2 + 2)
    a = (j1t + j2t - Jt) // 2
    b = (j1t - j2t + Jt) // 2
    c = (-j1t + j2t + Jt) // 2
    pref = 0.5 * (
        math.log(Jt + 1.0)
        + lf[a]
        + lf[b]
        + lf[c]
        - lf[(j1t + j2t + Jt) // 2 + 1]
        + lf[(Jt + Mt) // 2]
        + lf[(Jt - Mt) // 2]
        + lf[(j1t - m1t) // 2]
        + lf[(j1t + m1t) // 2]
        + lf[(j2t - m2t) // 2]
        + lf[(j2t + m2t) // 2]
    )
    k_min = max(0, (j2t - Jt - m1t) // 2, (j1t - Jt + m2t) // 2)
    k_max = min(a, (j1t - m1t) // 2, (j2t + m2t) // 2)
    total = 0.0
    for k in range(k_min, k_max + 1):
        logden = (
            lf[k]
            + lf[a - k]
            + lf[(j1t - m1t) // 2 - k]
            + lf[(j2t + m2t) // 2 - k]
            + lf[(Jt - j2t + m1t) // 2 + k]
            + lf[(Jt - j1t - m2t) // 2 + k]
        )
        total += (-1) ** k * math.exp(pref - logden)
    return total


def clebsch_gordan(j1, m1, j2, m2, J, M) -> float:
    """<j1 m1; j2 m2 | J M> in the Condon-Shortley convention.

    Selection-rule failures (M != m1+m2, triangle violations) return 0;
    malformed spins raise.  The alternating sum cancels digits as spins grow:
    the orthogonality defect of the M = 0 block <j m; j -m|L 0> is 6.5e-12 at
    j = 20, 9.6e-11 at 25, 9.8e-10 at 30 and 1.3e-7 at 40 (trusted: 2j <= 40).
    """
    j1, m1 = HalfInt.of(j1), HalfInt.of(m1)
    j2, m2 = HalfInt.of(j2), HalfInt.of(m2)
    J, M = HalfInt.of(J), HalfInt.of(M)
    for jj, mm in ((j1, m1), (j2, m2), (J, M)):
        _check_spin(jj)
        if (jj.twice - mm.twice) % 2 != 0:
            raise ValueError(f"m={mm} incompatible with j={jj}")
    return _cg(j1.twice, m1.twice, j2.twice, m2.twice, J.twice, M.twice)


@lru_cache(maxsize=65536)
def _w3j(j1t: int, j2t: int, j3t: int, m1t: int, m2t: int, m3t: int) -> float:
    if m1t + m2t + m3t != 0:
        return 0.0
    if not _triangle_ok(j1t, j2t, j3t):
        return 0.0
    if abs(m1t) > j1t or abs(m2t) > j2t or abs(m3t) > j3t:
        return 0.0
    if (j1t - m1t) % 2 or (j2t - m2t) % 2 or (j3t - m3t) % 2:
        return 0.0
    cg = _cg(j1t, m1t, j2t, m2t, j3t, -m3t)
    phase = -1.0 if ((j1t - j2t - m3t) // 2) % 2 else 1.0
    return phase * cg / math.sqrt(j3t + 1.0)


def wigner_3j(j1, j2, j3, m1, m2, m3) -> float:
    """3j symbol, a rescaled ``clebsch_gordan`` (1e-11 to spin 20); selection-rule violations yield 0."""
    js = [HalfInt.of(x) for x in (j1, j2, j3)]
    ms = [HalfInt.of(x) for x in (m1, m2, m3)]
    for jj in js:
        _check_spin(jj)
    return _w3j(*(jj.twice for jj in js), *(mm.twice for mm in ms))


def _log_delta(at: int, bt: int, ct: int, lf: np.ndarray) -> float:
    return 0.5 * (
        lf[(at + bt - ct) // 2]
        + lf[(at - bt + ct) // 2]
        + lf[(-at + bt + ct) // 2]
        - lf[(at + bt + ct) // 2 + 1]
    )


@lru_cache(maxsize=65536)
def _w6j(j1t: int, j2t: int, j3t: int, j4t: int, j5t: int, j6t: int) -> float:
    triads = (
        (j1t, j2t, j3t),
        (j1t, j5t, j6t),
        (j4t, j2t, j6t),
        (j4t, j5t, j3t),
    )
    for tri in triads:
        if not _triangle_ok(*tri):
            return 0.0
    lf = _logfact((j1t + j2t + j3t + j4t + j5t + j6t) // 2 + 2)
    logdelta = sum(_log_delta(*tri, lf) for tri in triads)
    p = [(sum(tri)) // 2 for tri in triads]
    q = [
        (j1t + j2t + j4t + j5t) // 2,
        (j2t + j3t + j5t + j6t) // 2,
        (j3t + j1t + j6t + j4t) // 2,
    ]
    total = 0.0
    for t in range(max(p), min(q) + 1):
        logden = sum(lf[t - pi] for pi in p) + sum(lf[qi - t] for qi in q)
        total += (-1) ** t * math.exp(logdelta + lf[t + 1] - logden)
    return total


def wigner_6j(j1, j2, j3, j4, j5, j6) -> float:
    """6j symbol {j1 j2 j3; j4 j5 j6}; triangle violations yield 0.

    Digits cancel as spins grow: the orthogonality defect over x, y of
    sqrt((2x+1)(2y+1)) {j j x; j j y} is 1.3e-12 at j = 20, 2.3e-9 at j = 40."""
    js = [HalfInt.of(x) for x in (j1, j2, j3, j4, j5, j6)]
    for jj in js:
        _check_spin(jj)
    return _w6j(*(jj.twice for jj in js))


@lru_cache(maxsize=8192)
def _tensor(jt: int, Lt: int, Mt: int) -> np.ndarray:
    j = HalfInt(jt)
    ms = spin_range(j)
    n = jt + 1
    t = np.zeros((n, n), dtype=complex)
    for i2, m2 in enumerate(ms):  # row: bra side |j m2>
        for i1, m1 in enumerate(ms):  # column: ket side <j m1|
            if m2.twice - m1.twice != Mt:
                continue
            phase = -1.0 if ((jt - m1.twice) // 2) % 2 else 1.0
            t[i2, i1] = phase * _cg(jt, m2.twice, jt, -m1.twice, Lt, Mt)
    t.setflags(write=False)
    return t


def irreducible_tensor(j, L, M) -> np.ndarray:
    """Irreducible tensor operator T^(j)_{LM} as a (2j+1)-dimensional matrix.

    T_{LM} = sum_{m1,m2} (-1)^(j-m1) <j m2; j -m1 | L M> |j m2><j m1|,
    the operator basis that is trace-orthonormal, Tr[T+_{L'M'} T_{LM}] =
    delta_{LL'} delta_{MM'}.
    """
    j, L, M = HalfInt.of(j), HalfInt.of(L), HalfInt.of(M)
    _check_spin(j)
    if not L.is_integer or not M.is_integer:
        raise ValueError(f"(L, M) must be integers, got ({L}, {M})")
    if L.twice < 0 or L.twice > 2 * j.twice:
        raise ValueError(f"L={L} outside 0..2j for j={j}")
    if abs(M.twice) > L.twice:
        raise ValueError(f"|M|={abs(M)} exceeds L={L}")
    return _tensor(j.twice, L.twice, M.twice).copy()


def tensor_index_pairs(j) -> list[tuple[HalfInt, HalfInt]]:
    """All admissible (L, M) labels for spin j, L-major, M = L..-L."""
    j = HalfInt.of(j)
    pairs = []
    for Lt in range(0, 2 * j.twice + 1, 2):
        for Mt in range(Lt, -Lt - 1, -2):
            pairs.append((HalfInt(Lt), HalfInt(Mt)))
    return pairs
