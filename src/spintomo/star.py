"""Star-product machinery for spin symbols.

The composition of two symbols is the double quadrature of the product
against the three-point kernel K(x2, x1, x) = Tr[D(x2) D(x1) U(x)].  Because
the kernel factors through operator space, ``star_compose`` evaluates it as
analyze(synthesize(f_A) @ synthesize(f_B)) with the grid's ``SpinTransform``:
two syntheses, one (2j+1)-dimensional matrix product and one analysis, with
no kernel or quantizer stack formed.  ``symbol_trace`` needs no synthesis:
Tr D(m, x) = sum_m' Q[m', m] is the same at every node, so the trace is the
weighted sum of the symbol table against the column sums of Q.

The kernel itself is kept for reference, in two independent forms.  The trace
form is the definition, evaluated on the covariant quantizers and dequantizers
(one rotation matrix each, and the identity quantizer from one ``eigh``).  The
closed form expands the same trace through the Clebsch-Gordan, 3j and 6j
alternating sums, with the d-matrix rows D^L_{0,-M} built once per point and
L, so agreement of the two checks the coupling coefficients and their phase
conventions against the operators the transforms use.

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

from .halfint import HalfInt
from .quadrature import QuadratureGrid, make_grid
from .su2 import clebsch_gordan, wigner_3j, wigner_6j, wigner_d_matrix
from .symbols import (
    EulerAngles,
    Tomogram,
    _grid_transform,
    _identity_quantizer,
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


def _point(x):
    m, beta, gamma = x
    return HalfInt.of(m), float(beta), float(gamma)


def kernel_trace_form(j, x2, x1, x) -> complex:
    """K(x2, x1, x) = Tr[D(x2) D(x1) U(x)]; points are (m, beta, gamma)."""
    j = HalfInt.of(j)
    m2, b2, g2 = _point(x2)
    m1, b1, g1 = _point(x1)
    m, b, g = _point(x)
    d2 = quantizer_D(j, m2, EulerAngles(0.0, b2, g2))
    d1 = quantizer_D(j, m1, EulerAngles(0.0, b1, g1))
    u = dequantizer_U(j, m, EulerAngles(0.0, b, g))
    return complex(np.trace(d2 @ d1 @ u))


def _d_rows(two_j: int, beta: float, gamma: float) -> list[np.ndarray]:
    """D^L_{0,-M}(0, beta, gamma) = d^L_{0,-M}(beta) e^{i M gamma} for L = 0..2j, indexed [L][L + M]."""
    return [wigner_d_matrix(L, beta)[L] * np.exp(1j * gamma * np.arange(-L, L + 1)) for L in range(two_j + 1)]


def kernel_closed_form(j, x2, x1, x) -> complex:
    """Coupling-coefficient expansion of the star kernel (cross-check form)."""
    j = HalfInt.of(j)
    m2, b2, g2 = _point(x2)
    m1, b1, g1 = _point(x1)
    m, b, g = _point(x)
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
    order: synthesize both operators, multiply, analyze the product.
    """
    j = HalfInt.of(j)
    transform = _grid_transform(fa, j, grid)
    _grid_transform(fb, j, grid)
    product = transform.synthesize(fa.table) @ transform.synthesize(fb.table)
    return Tomogram(fa.frames, transform.analyze(product))


def symbol_trace(t: Tomogram, j, grid: QuadratureGrid) -> complex:
    """Trace functional sum_x w_x f(x) Tr[D(x)] applied to a spin symbol."""
    j = HalfInt.of(j)
    weights = _grid_transform(t, j, grid).weights
    # Tr D(m, x) = Tr[R_x^dag diag(Q[:, m]) R_x] = sum_m' Q[m', m] at every node
    return complex(weights @ (_identity_quantizer(j.twice).sum(axis=0) @ t.table))


def trace_power(t: Tomogram, n: int, grid: QuadratureGrid) -> float:
    """Tr[rho^n] from the spin symbol of rho by iterated star composition."""
    if n < 1:
        raise ValueError("power must be a positive integer")
    j = t.j
    current = t
    for _ in range(n - 1):
        current = star_compose(current, t, j, grid)
    value = symbol_trace(current, j, grid)
    if abs(value.imag) > 1e-8:
        raise ValueError(f"trace came out non-real ({value}); non-Hermitian input?")
    return float(value.real)
