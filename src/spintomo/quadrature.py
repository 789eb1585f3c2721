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
from typing import ClassVar

import numpy as np

from .halfint import spin
from .linalg import _FLOAT_MAX, _is_integer

GROUP_VOLUME = 8.0 * np.pi**2

# the smallest product rule that integrates every spin-j synthesis integrand exactly
DEFAULT_OVERSAMPLE = 1.0
_INDEX_MAX = np.iinfo(np.intp).max


@dataclass(frozen=True)
class QuadratureGrid:
    """Product rule on (beta, gamma) with the alpha factor applied analytically.

    A grid is its two node counts: ``n_beta`` Gauss-Legendre nodes in
    x = cos(beta) (``beta_nodes``, ``beta_weights``) and ``n_gamma`` uniform
    nodes on [0, 2pi) with equal weights (``gamma_nodes``), computed from the
    counts as read-only arrays, as are the flattened node angles that
    ``node_angles`` returns.  Grids with equal counts are equal.  The total
    weight including ``alpha_factor`` equals the group volume 8 pi^2.
    """

    n_beta: int
    n_gamma: int
    beta_nodes: np.ndarray = field(init=False, repr=False, compare=False)
    beta_weights: np.ndarray = field(init=False, repr=False, compare=False)
    gamma_nodes: np.ndarray = field(init=False, repr=False, compare=False)
    _node_angles: tuple = field(init=False, repr=False, compare=False)

    alpha_factor: ClassVar[float] = 2.0 * np.pi

    def __post_init__(self):
        for count in (self.n_beta, self.n_gamma):
            if not (_is_integer(count) and count >= 1):
                raise ValueError(f"grid node counts must be positive integers, got {count!r}")
        x, w = np.polynomial.legendre.leggauss(self.n_beta)
        beta, gamma = np.arccos(x), 2.0 * np.pi * np.arange(self.n_gamma) / self.n_gamma
        angles = (np.repeat(beta, self.n_gamma), np.tile(gamma, self.n_beta))
        for array in (beta, w, gamma, *angles):
            array.setflags(write=False)
        values = {"beta_nodes": beta, "beta_weights": w, "gamma_nodes": gamma, "_node_angles": angles}
        for name, value in values.items():
            object.__setattr__(self, name, value)

    @property
    def exactness_degree(self) -> int:
        return min((2 * self.n_beta - 1) // 2, (self.n_gamma - 1) // 2)

    @property
    def n_nodes(self) -> int:
        return self.n_beta * self.n_gamma

    def node_angles(self) -> tuple[np.ndarray, np.ndarray]:
        """Flattened (beta, gamma) node lists, beta-major, read-only and made once per grid."""
        return self._node_angles

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
    return _product_grid(*node_counts(j, oversample))


def node_counts(j, oversample: float = DEFAULT_OVERSAMPLE) -> tuple[int, int]:
    """(N_beta, N_gamma) of ``make_grid(j, oversample)``, with its refusals, building no grid."""
    j = spin(j)
    if not 0 < oversample < math.inf:  # compared exactly: an integer oversample never overflows
        raise ValueError(f"oversample must be finite and positive, got {oversample}")
    two_j = j.twice
    # an infinite count, or one past the largest array index, is no grid; so is
    # a 2j past the double range, whose float product would overflow
    counts = (oversample * (two_j + 1), oversample * (2 * two_j + 1)) if two_j < _FLOAT_MAX / 2 else (math.inf,) * 2
    if not (counts[0] < _INDEX_MAX and counts[1] < _INDEX_MAX):
        raise ValueError(f"oversample {oversample} gives a node count beyond any array at j = {j}")
    return max(1, math.ceil(counts[0])), max(1, math.ceil(counts[1]))


# one grid object per pair of node counts
_product_grid = lru_cache(maxsize=128)(QuadratureGrid)
