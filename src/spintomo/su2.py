"""SU(2) special functions.

Rotation matrix elements (Wigner d and D functions), Clebsch-Gordan
coefficients, and 3j and 6j symbols.

Conventions
-----------
* Rotations follow the active z-y-z Euler form
  ``R(alpha, beta, gamma) = exp(-i alpha J3) exp(-i beta J2) exp(-i gamma J3)``
  with ``D^j_{m1 m2} = exp(-i m1 alpha) d^j_{m1 m2}(beta) exp(-i m2 gamma)``.
* Coupling coefficients use the Condon-Shortley phase convention; 3j and 6j
  symbols are the standard Racah single-sum evaluations.
* Matrix bases are ordered m = j, j-1, ..., -j (row index i maps to m = j - i).

d-matrices come from one eigendecomposition of J2 (unitary to rounding at
any j); the scalar ``wigner_small_d`` is an entry of that matrix.  Every
kernel reads its spin through ``halfint.spin``, so a negative j is refused
before any array is sized, and its angles through ``linalg._require_finite``
("beta angles must be finite numbers (found NaN or infinity)").  A magnetic
number is read by ``halfint.magnetic``, and one that indexes a basis row by
``_row``, which adds the range |m| <= j; the coupling coefficients take an
|m| > j as a selection rule and return 0.  Racah's
alternating sums are evaluated in Python integers (Johansson & Forssen,
SIAM J. Sci. Comput. 38, A376, 2016), so each coupling coefficient is the
square root of its exact square rounded once, and no digits cancel at any
spin.
"""

from __future__ import annotations

import math
from functools import lru_cache
from math import factorial

import numpy as np

from .halfint import HalfInt, magnetic, spin
from .linalg import _check_bytes, _require_finite


def _row(j: HalfInt, m) -> int:
    """The basis row (2j - 2m)/2 of m = j, j-1, ..., -j, once ``magnetic`` reads m and |m| <= j."""
    m = magnetic(j, m)
    if abs(m.twice) > j.twice:
        raise ValueError(f"|m|={abs(m)} exceeds j={j}")
    return (j.twice - m.twice) // 2


def _magnetic_numbers(j: HalfInt) -> np.ndarray:
    """m = j, j-1, ..., -j as floats, in basis order."""
    return (j.twice - 2.0 * np.arange(j.twice + 1)) / 2.0


def _d_stack_bytes(n: int, angles: int) -> int:
    """Bytes of the d-matrix stack of ``angles`` angles at 2j + 1 = n: four complex n x n
    matrices for J2, its eigenvectors and their conjugate transpose, and two per angle
    (the scaled eigenvectors and their product) with the angle's row of phases."""
    return 16 * n * (2 * angles * (n + 1) + 4 * n)


def wigner_d_stack(j, betas) -> np.ndarray:
    """d-matrices for every beta at once, shape (len(betas), 2j+1, 2j+1).

    d(beta) = I + V expm1(-i beta Lambda) V^dag from one eigendecomposition
    J2 = V Lambda V^dag, which stays unitary to rounding at any j (exact
    diagonalization; Feng, Wang, Yang & Jin, Phys. Rev. E 92, 043307, 2015).
    The product does not depend on the phases of the eigenvectors, and
    d(0) is exactly the identity.  The byte budget check counts ``_d_stack_bytes``
    before any array of size 2j+1 is built.
    """
    j = spin(j)
    _require_finite(betas, "beta angles")
    n = j.twice + 1
    _check_bytes(_d_stack_bytes(n, np.size(betas)), "the d-matrix stack of {} angles at j = {}", np.size(betas), j)
    ms = _magnetic_numbers(j)
    jp = np.diag(np.sqrt(float(j) * (float(j) + 1.0) - ms[1:] * (ms[1:] + 1.0)), k=1)
    _, vecs = np.linalg.eigh((jp - jp.T) / 2j)
    # eigh sorts the eigenvalues ascending; they are exactly -j..j
    phases = np.expm1(-1j * np.multiply.outer(betas, ms[::-1]))
    return ((vecs * phases[:, None, :]) @ vecs.conj().T).real + np.eye(n)


def rotation_stack(j, betas, gammas) -> np.ndarray:
    """Matrices d(beta_x) diag(exp(-i gamma_x m)) for paired angle arrays.

    This is R(0, beta, gamma); alpha only multiplies rows by phases, which
    drop out of every spin symbol.  The two arrays pair up entry by entry, so
    they must be 1-d and of equal length, as in ``SpinFrames``.  The stack is
    filled one chunk of frames at a time, and repeated beta values in a chunk
    share one d-matrix, so only one chunk's d-matrices, their complex
    temporaries and its phases are held beside the stack.  The byte budget
    check counts the stack, the d-matrix stack of a whole chunk and as much
    again a frame for the chunk's real d-matrices, their gathered copy and its
    phases, before any d-matrix is built, so it refuses first whatever the
    chunk's own d-matrix check would.
    """
    j = spin(j)
    betas, gammas = np.asarray(betas, dtype=float), np.asarray(gammas, dtype=float)
    if betas.ndim != 1 or betas.shape != gammas.shape:
        raise ValueError("frame angle arrays must be 1-d and of equal length")
    # a chunk is 1 MiB of the stack, and at least 64 frames, since each chunk repeats
    # the eigendecomposition of J2 (about five frames' work)
    n = j.twice + 1
    step = max(64, 2**20 // (16 * n * n))
    chunk = min(betas.size, step)
    _check_bytes(16 * n * (n * betas.size + 2 * (n + 1) * chunk) + _d_stack_bytes(n, chunk),
                 "the rotation stack of {} frames at j = {}", betas.size, j)
    _require_finite(gammas, "gamma angles")
    stack = np.empty((betas.size, n, n), dtype=complex)
    for rows in (slice(start, start + step) for start in range(0, betas.size, step)):
        unique, index = np.unique(betas[rows], return_inverse=True)
        phases = np.exp(-1j * np.multiply.outer(gammas[rows], _magnetic_numbers(j)))
        np.multiply(wigner_d_stack(j, unique)[index], phases[:, None, :], out=stack[rows])
    return stack


def wigner_d_matrix(j, beta: float) -> np.ndarray:
    """Full (2j+1)-dimensional d-matrix, rows/columns ordered m = j..-j."""
    return wigner_d_stack(j, [float(beta)])[0]


def wigner_small_d(j, m1, m2, beta: float) -> float:
    """Rotation matrix element d^j_{m1 m2}(beta) about the y axis, an entry of ``wigner_d_matrix``."""
    j = spin(j)
    rows = _row(j, m1), _row(j, m2)
    return float(wigner_d_matrix(j, beta)[rows])


def wigner_D(j, m1, m2, alpha: float, beta: float, gamma: float) -> complex:
    """D^j_{m1 m2}(alpha, beta, gamma) = e^{-i m1 alpha} d^j_{m1 m2}(beta) e^{-i m2 gamma}."""
    m1, m2 = magnetic(j, m1), magnetic(j, m2)
    _require_finite((alpha, gamma), "alpha and gamma angles")
    d = wigner_small_d(j, m1, m2, beta)
    return np.exp(-1j * (float(m1) * alpha + float(m2) * gamma)) * d


def rotation_matrix(j, alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Matrix of R(alpha, beta, gamma) in the spin-j representation."""
    _require_finite(alpha, "alpha angles")
    phases = np.exp(-1j * alpha * _magnetic_numbers(spin(j)))
    return phases[:, None] * rotation_stack(j, [beta], [gamma])[0]


def _triangle_ok(at: int, bt: int, ct: int) -> bool:
    # twice-valued momenta: integer perimeter and triangle inequality
    return (at + bt + ct) % 2 == 0 and abs(at - bt) <= ct <= at + bt


def _twice_pairs(*pairs) -> list[int]:
    """Twice-values j1, m1, j2, m2, ... of (j, m) pairs, each j read by ``spin`` and its m by
    ``magnetic``; an |m| > j passes, for the selection rules to return 0."""
    out = []
    for j, m in pairs:
        out += [spin(j).twice, magnetic(j, m).twice]
    return out


def _racah_value(num: int, den: int, ratios: list[tuple[int, int]]) -> float:
    """sqrt(num / den) * sum_k (-1)^k t_k, where t_0 = 1 and t_{k+1} = t_k p_k / q_k
    for ``ratios`` = [(p_0, q_0), ...], all exact integers.

    The sum is nested as 1 - (p_0/q_0)(1 - (p_1/q_1)(...)) over the common
    denominator prod q_k, so it is one integer ratio s / L, and the result
    rounds num s^2 / (den L^2) once (int / int is correctly rounded) before
    one square root.  No other integer meets a float: s alone passes the
    float range from 2j of about 100.
    """
    s = big_l = 1
    for p, q in reversed(ratios):
        s, big_l = big_l * q - p * s, big_l * q
    root = math.sqrt(num * s * s / (den * big_l * big_l))
    return -root if s < 0 else root


@lru_cache(maxsize=65536)
def _cg(j1t: int, m1t: int, j2t: int, m2t: int, Jt: int, Mt: int) -> float:
    if m1t + m2t != Mt:
        return 0.0
    if not _triangle_ok(j1t, j2t, Jt):
        return 0.0
    if abs(m1t) > j1t or abs(m2t) > j2t or abs(Mt) > Jt:
        return 0.0
    a, b, c = (j1t + j2t - Jt) // 2, (j1t - j2t + Jt) // 2, (-j1t + j2t + Jt) // 2
    x, y = (j1t - m1t) // 2, (j2t + m2t) // 2
    z, w = (Jt - j2t + m1t) // 2, (Jt - j1t - m2t) // 2
    # the k-th term of Racah's sum is (-1)^k / [k! (a-k)! (x-k)! (y-k)! (z+k)! (w+k)!]
    k0, k1 = max(0, -z, -w), min(a, x, y)
    first = factorial(k0) * factorial(a - k0) * factorial(x - k0) * factorial(y - k0)
    first *= factorial(z + k0) * factorial(w + k0)
    num = (Jt + 1) * factorial(a) * factorial(b) * factorial(c) * factorial(x) * factorial(y)
    num *= factorial((Jt + Mt) // 2) * factorial((Jt - Mt) // 2)
    num *= factorial((j1t + m1t) // 2) * factorial((j2t - m2t) // 2)
    ratios = [((a - k) * (x - k) * (y - k), (k + 1) * (z + k + 1) * (w + k + 1)) for k in range(k0, k1)]
    value = _racah_value(num, factorial((j1t + j2t + Jt) // 2 + 1) * first * first, ratios)
    return -value if k0 % 2 else value


def clebsch_gordan(j1, m1, j2, m2, J, M) -> float:
    """<j1 m1; j2 m2 | J M> in the Condon-Shortley convention.

    Selection-rule failures (M != m1+m2, |m| > j, triangle violations)
    return 0; malformed spins raise.
    """
    return _cg(*_twice_pairs((j1, m1), (j2, m2), (J, M)))


@lru_cache(maxsize=65536)
def _w3j(j1t: int, m1t: int, j2t: int, m2t: int, j3t: int, m3t: int) -> float:
    cg = _cg(j1t, m1t, j2t, m2t, j3t, -m3t)
    phase = -1.0 if ((j1t - j2t - m3t) // 2) % 2 else 1.0
    return phase * cg / math.sqrt(j3t + 1.0)


def wigner_3j(j1, j2, j3, m1, m2, m3) -> float:
    """3j symbol, a rescaled ``clebsch_gordan``; selection-rule violations yield 0."""
    return _w3j(*_twice_pairs((j1, m1), (j2, m2), (j3, m3)))


@lru_cache(maxsize=65536)
def _w6j(j1t: int, j2t: int, j3t: int, j4t: int, j5t: int, j6t: int) -> float:
    triads = ((j1t, j2t, j3t), (j1t, j5t, j6t), (j4t, j2t, j6t), (j4t, j5t, j3t))
    if not all(_triangle_ok(*tri) for tri in triads):
        return 0.0
    # Delta(a b c)^2 = (a+b-c)! (a-b+c)! (-a+b+c)! / (a+b+c+1)! for each triad
    num = den = 1
    for at, bt, ct in triads:
        num *= factorial((at + bt - ct) // 2) * factorial((at - bt + ct) // 2) * factorial((bt + ct - at) // 2)
        den *= factorial((at + bt + ct) // 2 + 1)
    p = [sum(tri) // 2 for tri in triads]
    q = [(j1t + j2t + j4t + j5t) // 2, (j2t + j3t + j5t + j6t) // 2, (j3t + j1t + j6t + j4t) // 2]
    # the t-th term of Racah's sum is (-1)^t (t+1)! / [prod_i (t-p_i)! prod_k (q_k-t)!]
    t0, t1 = max(p), min(q)
    first = math.prod(factorial(t0 - pi) for pi in p) * math.prod(factorial(qk - t0) for qk in q)
    ratios = [
        ((t + 2) * math.prod(qk - t for qk in q), math.prod(t + 1 - pi for pi in p)) for t in range(t0, t1)
    ]
    value = _racah_value(num * factorial(t0 + 1) ** 2, den * first * first, ratios)
    return -value if t0 % 2 else value


def wigner_6j(j1, j2, j3, j4, j5, j6) -> float:
    """6j symbol {j1 j2 j3; j4 j5 j6}; triangle violations yield 0."""
    return _w6j(*(spin(jj).twice for jj in (j1, j2, j3, j4, j5, j6)))
