import os

import numpy as np
import pytest
from hypothesis import settings

from spintomo.halfint import HalfInt
from spintomo.linalg import expm_hermitian_times, frame_diagonals, kron_all
from spintomo.simplex import _draw_elements, _lie_basis
from spintomo.su2 import rotation_stack
from spintomo.symbols import _identity_quantizer

# CI sets HYPOTHESIS_PROFILE=ci: fixed example sequences, and a failure
# prints the blob that replays it locally (@reproduce_failure)
settings.register_profile("ci", derandomize=True, print_blob=True, deadline=None)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


def frame_diagonals_oracle(a, frames) -> np.ndarray:
    """diag(u^dag a u) for every frame of an (F, n, n) stack, in extended precision."""
    a, u = np.asarray(a, dtype=np.clongdouble), np.asarray(frames, dtype=np.clongdouble)
    return np.sum(u.conj() * (a @ u), axis=-2)


def frame_diagonals_bound(a) -> float:
    """Error allowed to frame_diagonals in double precision: 2 n eps max|a|."""
    return 2 * a.shape[-1] * np.finfo(float).eps * float(np.max(np.abs(a)))


def finite_difference_dimension(rho, g, base_points=5, rel_tol=1e-8, seed=0):
    """(rank, singular values) of the simplex-image Jacobian by central finite
    differences (step 1e-5) along u0 exp(i s G_k), with the base points,
    Lie basis and rank rule of simplex.image_dimension_report."""
    factors, active = g.resolve(rho.dims)
    basis = _lie_basis(factors, active)
    step = 1e-5
    e_plus = np.stack([expm_hermitian_times(gen, -step) for gen in basis])  # exp(+i step G)
    e_minus = np.stack([expm_hermitian_times(gen, step) for gen in basis])
    rng = np.random.default_rng(seed)
    jac = []
    for u0 in kron_all(_draw_elements(g, rho.dims, base_points, rng)):
        sigma = u0.conj().T @ rho.mat @ u0
        forward = frame_diagonals(sigma, e_plus).real
        backward = frame_diagonals(sigma, e_minus).real
        jac.append(((forward - backward) / (2.0 * step)).T)
    sv = np.linalg.svd(np.stack(jac), compute_uv=False)
    ranks = np.where(sv[:, 0] > 0.0, np.sum(sv > rel_tol * sv[:, :1], axis=1), 0)
    best = int(np.argmax(ranks))
    return int(ranks[best]), sv[best]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def operator_stacks(j, betas, gammas) -> tuple[np.ndarray, np.ndarray]:
    """Dequantizers U(m, x) and quantizers D(m, x), each (2j+1) * frames
    matrices ordered m-major, built from a rotation stack by covariance."""
    j = HalfInt.of(j)
    r = rotation_stack(j, betas, gammas)
    rc = r.conj()
    f, n, _ = r.shape
    us = rc.transpose(1, 0, 2)[:, :, :, None] * r.transpose(1, 0, 2)[:, :, None, :]
    q = _identity_quantizer(j.twice)
    ds = (rc.transpose(0, 2, 1)[:, None] * q.T[None, :, None, :]) @ r[:, None]
    return us.reshape(n * f, n, n), ds.transpose(1, 0, 2, 3).reshape(n * f, n, n)
