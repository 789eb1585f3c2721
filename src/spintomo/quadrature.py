"""Quadrature over the rotation group for band-limited integrands.

The integrands arising from spin symbols are trigonometric polynomials:
Gauss-Legendre in cos(beta) and a uniform periodic rule in gamma integrate
them exactly at finite node counts, and the alpha integral is carried
analytically (the weight functions carry no alpha dependence).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .halfint import HalfInt

GROUP_VOLUME = 8.0 * np.pi**2

# the smallest product rule that integrates every spin-j synthesis integrand exactly
DEFAULT_OVERSAMPLE = 1.0


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Product rule on (beta, gamma) with the alpha factor applied analytically.

    ``beta_nodes``/``beta_weights`` are Gauss-Legendre in x = cos(beta);
    ``gamma_nodes`` are uniform on [0, 2pi) with equal weights.  The total
    weight including ``alpha_factor`` equals the group volume 8 pi^2.

    A grid is a value: construction copies the three arrays into read-only
    float arrays and sets ``key``, its numbers (the arrays' bytes and the
    alpha factor) as one tuple, under which grids alike share a transform.
    """

    beta_nodes: np.ndarray
    beta_weights: np.ndarray
    gamma_nodes: np.ndarray
    alpha_factor: float
    exactness_degree: int
    key: tuple = field(init=False, repr=False)

    def __post_init__(self):
        names = ("beta_nodes", "beta_weights", "gamma_nodes")
        arrays = [np.array(getattr(self, name), dtype=float) for name in names]
        if arrays[0].shape != arrays[1].shape or any(a.ndim != 1 for a in arrays):
            raise ValueError("grid beta nodes and weights must be 1-d and of equal length, gamma nodes 1-d")
        if not np.all(np.isfinite(np.concatenate(arrays))) or not math.isfinite(self.alpha_factor):
            raise ValueError("grid nodes and weights must be finite numbers (found NaN or infinity)")
        for name, array in zip(names, arrays):
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        object.__setattr__(self, "key", (*(a.tobytes() for a in arrays), float(self.alpha_factor)))

    @property
    def n_beta(self) -> int:
        return self.beta_nodes.size

    @property
    def n_gamma(self) -> int:
        return self.gamma_nodes.size

    @property
    def n_nodes(self) -> int:
        return self.n_beta * self.n_gamma

    def node_angles(self) -> tuple[np.ndarray, np.ndarray]:
        """Flattened (beta, gamma) node lists, beta-major."""
        b = np.repeat(self.beta_nodes, self.n_gamma)
        g = np.tile(self.gamma_nodes, self.n_beta)
        return b, g

    def node_weights(self) -> np.ndarray:
        """Per-(beta, gamma) weights; sum equals 4 pi (no alpha factor)."""
        gamma_w = 2.0 * np.pi / self.n_gamma
        return np.repeat(self.beta_weights, self.n_gamma) * gamma_w

    def group_weights(self) -> np.ndarray:
        """Node weights including the alpha factor; sum equals 8 pi^2."""
        return self.node_weights() * self.alpha_factor


def make_grid(j, oversample: float = DEFAULT_OVERSAMPLE) -> QuadratureGrid:
    """Grid sized to integrate spin-j symbol products exactly.

    N_beta = ceil(oversample*(2j+1)) Gauss-Legendre nodes in cos(beta) and
    N_gamma = ceil(oversample*(4j+1)) uniform gamma nodes.  The default,
    oversample 1, is the smallest exact rule: it is exact to degree 2j, which
    is what the analysis and synthesis integrands of spin j need, so the
    round trip holds to rounding.  Larger values give finer grids; values
    below 1 are permitted but alias (useful for aliasing demonstrations).
    """
    j = HalfInt.of(j)
    if j.twice < 0:
        raise ValueError("spin j must be nonnegative")
    if not math.isfinite(oversample) or oversample <= 0:
        raise ValueError(f"oversample must be finite and positive, got {oversample}")
    two_j = j.twice
    counts = (oversample * (two_j + 1), oversample * (2 * two_j + 1))
    # an infinite count, or one past the largest array index, is no grid
    if not all(c < np.iinfo(np.intp).max for c in counts):
        raise ValueError(f"oversample {oversample} gives a node count beyond any array at j = {j}")
    n_beta, n_gamma = (max(1, math.ceil(c)) for c in counts)
    return _product_grid(n_beta, n_gamma)


@lru_cache(maxsize=128)
def _product_grid(n_beta: int, n_gamma: int) -> QuadratureGrid:
    """Gauss-Legendre in cos(beta) times the uniform gamma rule, with its exactness degree, kept per node count."""
    x, w = np.polynomial.legendre.leggauss(n_beta)
    return QuadratureGrid(
        beta_nodes=np.arccos(x),
        beta_weights=w,
        gamma_nodes=2.0 * np.pi * np.arange(n_gamma) / n_gamma,
        alpha_factor=2.0 * np.pi,
        exactness_degree=min((2 * n_beta - 1) // 2, (n_gamma - 1) // 2),
    )
