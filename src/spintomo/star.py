"""Star-product machinery for spin symbols.

The composition of two symbols is the double quadrature of the product
against the three-point kernel K(x2, x1, x) = Tr[D(x2) D(x1) U(x)].  Because
the kernel factors through operator space, ``star_compose`` evaluates it as
analyze(synthesize(f_A) @ synthesize(f_B)) with the grid's ``SpinTransform``:
two syntheses (one for a square), one (2j+1)-dimensional matrix product and
one analysis, with no kernel or quantizer stack formed.  Traces need no
synthesis.  ``symbol_trace``: Tr D(m, x) = sum_m' Q[m', m] = 1/(8 pi^2) for
every m and node, so the trace is the weighted sum of the symbol table's
column sums over the group volume.  ``trace_product``: the quantizer at a node
is D(m, x) = R_x^dag diag(Q[:, m]) R_x, so Tr[D(m, x) B] = (Q f_B)[m, x] and
Tr[A B] = sum_x W_x f_A(., x)^T Q f_B(., x), the pairing of one symbol with
the other's quantizer image.  ``trace_power`` composes n - 2 times and pairs.
Each map checks all of its operands in one ``_grid_transform(j, grid, *tomograms)``
call, in argument order, and runs on the cached transform that it returns.

The kernel itself is kept for reference, in two independent forms.  The trace
form is the definition, evaluated on the covariant quantizers and dequantizers
(one rotation matrix each, and the identity quantizer from one ``eigh``).  The
closed form expands the same trace through Clebsch-Gordan, 3j and 6j
symbols (Racah's sums in exact integers, one rounding each), with the
d-matrix rows D^L_{0,-M} built once per point and L, so agreement of the two
checks the coupling coefficients and their phase conventions against the
operators the transforms use.  Both forms read their three points through
``_point`` before any other work, so they refuse an m that is not a basis row
of j, or a NaN or infinite angle, with one text.

Closed-form phases follow the Condon-Shortley coupling order used throughout
this package: expanding D and U in irreducible tensors and applying the
triple-product trace identity gives

    K = (-1)^(j-m-m1-m2) sum_{L,L1,L2} (2L1+1)(2L2+1)/(64 pi^4)
        <j m;j -m|L 0><j m1;j -m1|L1 0><j m2;j -m2|L2 0>
        sum_M sqrt((2L+1)(2L1+1)(2L2+1)) {L1 L2 L; j j j}
        (L1 L2 L; M1 M2 M) D^L_{0,-M} D^L1_{0,-M1} D^L2_{0,-M2},

with no (-1)^(L+L1+L2) factor: displays that carry one couple the two spins
in the opposite order, which flips each coefficient by (-1)^(2j-L) and moves
that factor into the prefactor.  Agreement with the trace form is asserted
term-free (delta = +1) by the test suite.
"""

from __future__ import annotations

import numpy as np

from .errors import check
from .halfint import HalfInt, spin
from .linalg import _is_integer, _require_finite
from .quadrature import GROUP_VOLUME, QuadratureGrid, make_grid
from .su2 import _row, clebsch_gordan, wigner_3j, wigner_6j, wigner_d_matrix
from .symbols import (
    EulerAngles,
    Tomogram,
    _grid_transform,
    _real_if_real,
    dequantizer_U,
    quantizer_D,
)


def star_grid(j) -> QuadratureGrid:
    """Default composition grid: the default ``make_grid(j)``.

    ``star_compose`` synthesizes, multiplies and analyzes, so the product is
    a spin-j operator again and the grid that resolves one symbol resolves
    the composition.
    """
    return make_grid(j)


def _point(j: HalfInt, x) -> tuple[HalfInt, float, float]:
    """A kernel point (m, beta, gamma) of spin j, refused unless m is a basis row (``su2._row``)
    and beta and gamma are finite; both kernel forms read their three points here first."""
    m, beta, gamma = x
    m, beta, gamma = HalfInt(j.twice - 2 * _row(j, m)), float(beta), float(gamma)
    _require_finite((beta, gamma), "point angles")
    return m, beta, gamma


def kernel_trace_form(j, x2, x1, x) -> complex:
    """K(x2, x1, x) = Tr[D(x2) D(x1) U(x)]; points are (m, beta, gamma)."""
    j = spin(j)
    (m2, b2, g2), (m1, b1, g1), (m, b, g) = (_point(j, p) for p in (x2, x1, x))
    d2 = quantizer_D(j, m2, EulerAngles(0.0, b2, g2))
    d1 = quantizer_D(j, m1, EulerAngles(0.0, b1, g1))
    u = dequantizer_U(j, m, EulerAngles(0.0, b, g))
    return complex(np.trace(d2 @ d1 @ u))


def _d_rows(two_j: int, beta: float, gamma: float) -> list[np.ndarray]:
    """D^L_{0,-M}(0, beta, gamma) = d^L_{0,-M}(beta) e^{i M gamma} for L = 0..2j, indexed [L][L + M]."""
    return [wigner_d_matrix(L, beta)[L] * np.exp(1j * gamma * np.arange(-L, L + 1)) for L in range(two_j + 1)]


def kernel_closed_form(j, x2, x1, x) -> complex:
    """Coupling-coefficient expansion of the star kernel (cross-check form)."""
    j = spin(j)
    (m2, b2, g2), (m1, b1, g1), (m, b, g) = (_point(j, p) for p in (x2, x1, x))
    two_j = j.twice
    rows, rows1, rows2 = _d_rows(two_j, b, g), _d_rows(two_j, b1, g1), _d_rows(two_j, b2, g2)
    pref_exp = (two_j - m.twice - m1.twice - m2.twice) // 2
    prefactor = (-1.0) ** pref_exp
    total = 0.0 + 0.0j
    for Lt in range(0, 2 * two_j + 1, 2):
        L = HalfInt(Lt)
        cg = clebsch_gordan(j, m, j, -m, L, 0)
        if cg == 0.0:
            continue
        for L1t in range(0, 2 * two_j + 1, 2):
            L1 = HalfInt(L1t)
            cg1 = clebsch_gordan(j, m1, j, -m1, L1, 0)
            if cg1 == 0.0:
                continue
            for L2t in range(0, 2 * two_j + 1, 2):
                L2 = HalfInt(L2t)
                cg2 = clebsch_gordan(j, m2, j, -m2, L2, 0)
                if cg2 == 0.0:
                    continue
                six = wigner_6j(L1, L2, L, j, j, j)
                if six == 0.0:
                    continue
                scale = (
                    (L1t + 1)
                    * (L2t + 1)
                    / (64.0 * np.pi**4)
                    * cg
                    * cg1
                    * cg2
                    * np.sqrt((Lt + 1.0) * (L1t + 1.0) * (L2t + 1.0))
                    * six
                )
                acc = 0.0 + 0.0j
                for M1t in range(-L1t, L1t + 1, 2):
                    for M2t in range(-L2t, L2t + 1, 2):
                        Mt = -M1t - M2t
                        if abs(Mt) > Lt:
                            continue
                        three = wigner_3j(
                            L1, L2, L, HalfInt(M1t), HalfInt(M2t), HalfInt(Mt)
                        )
                        if three == 0.0:
                            continue
                        dfun = (
                            rows[Lt // 2][(Lt + Mt) // 2]
                            * rows1[L1t // 2][(L1t + M1t) // 2]
                            * rows2[L2t // 2][(L2t + M2t) // 2]
                        )
                        acc += three * dfun
                total += scale * acc
    return complex(prefactor * total)


def star_compose(fa: Tomogram, fb: Tomogram, j, grid: QuadratureGrid) -> Tomogram:
    """Symbol of the operator product, f_A * f_B, on the same grid.

    Evaluates the double quadrature sum against K = Tr[D D U] in the factored
    order: synthesize both operators (once when ``fb`` is ``fa``), multiply,
    and take the product's ``symbols`` on the grid frames of ``fa``.
    """
    transform = _grid_transform(j, grid, fa, fb)
    a = transform.synthesize(fa.table)
    b = a if fb is fa else transform.synthesize(fb.table)
    return Tomogram(fa.frames, fa.frames.symbols(a @ b))


def symbol_trace(t: Tomogram, j, grid: QuadratureGrid) -> complex:
    """Trace functional sum_x w_x f(x) Tr[D(x)] applied to a spin symbol."""
    transform = _grid_transform(j, grid, t)
    # Tr D(m, x) = sum_m' Q[m', m] = 1/(8 pi^2): of the couplings L, only L = 0 has a trace
    return complex(transform.weights @ t.table.sum(axis=0) / GROUP_VOLUME)


def trace_product(fa: Tomogram, fb: Tomogram, j, grid: QuadratureGrid) -> complex:
    """Tr[A B] from the spin symbols of A and B on one grid, by the pairing
    sum_x W_x f_A(., x)^T Q f_B(., x): no synthesis, product or analysis."""
    transform = _grid_transform(j, grid, fa, fb)
    # a table with no imaginary part enters as real, so Q f_B is a real product
    a = _real_if_real(fa.table)
    b = a if fb is fa else _real_if_real(fb.table)
    return complex(transform.weights @ (a * (transform._quantizer @ b)).sum(axis=0))


def trace_power(t: Tomogram, n: int, grid: QuadratureGrid) -> float:
    """Tr[rho^n] from the spin symbol of rho: ``symbol_trace`` at n = 1, else
    n - 2 star compositions f * t and one ``trace_product(f, t)``."""
    if not _is_integer(n) or n < 1:
        raise ValueError("power must be a positive integer")
    if n == 1:
        value = symbol_trace(t, t.j, grid)
    else:
        current = t
        for _ in range(n - 2):
            current = star_compose(current, t, t.j, grid)
        value = trace_product(current, t, t.j, grid)
    check("trace_real", abs(value.imag), "trace came out non-real ({}); non-Hermitian input?", value)
    return float(value.real)
