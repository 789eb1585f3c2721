"""Reference states and operators used by tests, examples, and the CLI."""

from __future__ import annotations

import math

import numpy as np

from .errors import check
from .linalg import DensityMatrix, _check_bytes, _integers, kron_all

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)


def pure_state(vec, dims=None) -> DensityMatrix:
    """|psi><psi| from an (unnormalized) state vector."""
    v = np.asarray(vec, dtype=complex).ravel()
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ValueError("state vector must be nonzero")
    v = v / norm
    return DensityMatrix(np.outer(v, v.conj()), dims)


def maximally_mixed(dims) -> DensityMatrix:
    dims = _integers(dims, "dims", 1)
    n = math.prod(dims)
    _check_bytes(16 * n * n, "the maximally mixed state of dimension {}", n)
    return DensityMatrix(np.eye(n, dtype=complex) / n, dims)


def plus_state() -> DensityMatrix:
    return pure_state([1.0, 1.0])


def bell_state() -> DensityMatrix:
    """(|00> + |11>)/sqrt(2) as a two-qubit density matrix."""
    return pure_state([1.0, 0.0, 0.0, 1.0], dims=(2, 2))


def entangled_ray_state(c0: complex, c1: complex) -> DensityMatrix:
    """c0|00> + c1|11>; coefficients must satisfy |c0|^2 + |c1|^2 = 1."""
    check("ray_norm", abs(abs(c0) ** 2 + abs(c1) ** 2 - 1.0), "coefficients must be normalized")
    return pure_state([c0, 0.0, 0.0, c1], dims=(2, 2))


def ghz_state(n_qubits: int = 3) -> DensityMatrix:
    """(|0...0> + |1...1>)/sqrt(2) on n_qubits >= 1 qubits."""
    (n_qubits,) = _integers((n_qubits,), "n_qubits", 1)
    _check_bytes(16 * 4**n_qubits, "the GHZ state of {} qubits", n_qubits)
    v = np.zeros(2**n_qubits, dtype=complex)
    v[0] = v[-1] = 1.0
    return pure_state(v, dims=(2,) * n_qubits)


def product_state(*factors: DensityMatrix) -> DensityMatrix:
    if not factors:
        raise ValueError("a product state needs at least one factor")
    mats = [f.mat for f in factors]
    dims = sum((f.dims for f in factors), ())
    return DensityMatrix(kron_all(mats), dims)


def werner_state(q: float) -> DensityMatrix:
    """Two-qubit Werner family; entangled exactly for q > 1/3."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    m = 0.25 * np.array(
        [
            [1 - q, 0, 0, 0],
            [0, 1 + q, -2 * q, 0],
            [0, -2 * q, 1 + q, 0],
            [0, 0, 0, 1 - q],
        ],
        dtype=complex,
    )
    return DensityMatrix(m, (2, 2))
