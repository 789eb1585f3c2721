import os
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import settings

from spintomo.halfint import HalfInt, spin_range
from spintomo.linalg import expm_hermitian_times, frame_diagonals, haar_unitaries, hermitian_basis, kron_all
from spintomo.simplex import _BASE_POINTS, _draw_elements
from spintomo.quadrature import GROUP_VOLUME, make_grid
from spintomo.su2 import clebsch_gordan, rotation_stack, wigner_d_stack, wigner_small_d
from spintomo.symbols import SpinFrames, UnitaryFrames, _identity_quantizer, grid_frames

# CI sets HYPOTHESIS_PROFILE=ci: fixed example sequences, and a failure
# prints the blob that replays it locally (@reproduce_failure)
settings.register_profile("ci", derandomize=True, print_blob=True, deadline=None)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


def shot_frequencies(table, shots: int, rng: np.random.Generator) -> np.ndarray:
    """The (d, F) frequencies of ``shots`` multinomial draws per frame from a real
    (d, F) probability table, its roundoff negatives clipped to 0."""
    p = np.clip(np.asarray(table, dtype=float), 0.0, None)
    return rng.multinomial(shots, (p / p.sum(axis=0)).T).T / shots


def least_squares_solution(t) -> np.ndarray:
    """The frame set's inverse of a tomogram's real table, hermitized and trace-normalised,
    as ``reconstruct_from_unitary_frame`` forms it before any projection."""
    rho = t.frames.inverse(t.table.real)
    return (rho + rho.conj().T) / (2 * np.trace(rho).real)


FRAME_KINDS = ["grid", "off_grid", "unitary", "product"]


def frame_set(kind: str, n: int, rng: np.random.Generator):
    """A set of n x n frames of one of ``FRAME_KINDS``: spin frames on the default
    grid, 12 spin frames off a grid, 12 Haar unitaries, or 12 Haar products over
    the factors (2, n / 2)."""
    j = HalfInt(n - 1)
    if kind == "grid":
        return grid_frames(j, make_grid(j))
    if kind == "off_grid":
        return SpinFrames(j, rng.uniform(0, np.pi, 12), rng.uniform(0, 2 * np.pi, 12))
    if kind == "unitary":
        return UnitaryFrames.of(haar_unitaries(n, 12, rng), n)
    return UnitaryFrames.of(list(zip(haar_unitaries(2, 12, rng), haar_unitaries(n // 2, 12, rng))), n)


# frames per block of the frame kernels at dimension n: 512 KiB of complex n x n
# frames, in whole tiles of 8 frames (5 takes the tile rounding: 1310 -> 1304)
BLOCK_EDGES = {1: 32768, 2: 8192, 4: 2048, 5: 1304, 8: 512, 16: 128}


def straddling_counts(n: int) -> list[int]:
    """Frame counts about dimension n's block edge E: none, one, E - 1, E, E + 1
    (whose remainder joins the one block), 2E + 1 and 3E - 1 (three blocks)."""
    e = BLOCK_EDGES[n]
    return [0, 1, e - 1, e, e + 1, 2 * e + 1, 3 * e - 1]


# (n, count) pairs that straddle every listed dimension's block edge
STRADDLING = [(n, count) for n in BLOCK_EDGES for count in straddling_counts(n)]


def frame_diagonals_oracle(a, frames) -> np.ndarray:
    """diag(u^dag a u) for every frame of an (F, n, n) stack, in extended precision."""
    a, u = np.asarray(a, dtype=np.clongdouble), np.asarray(frames, dtype=np.clongdouble)
    return np.sum(u.conj() * (a @ u), axis=-2)


def frame_diagonals_bound(a) -> float:
    """Error allowed to frame_diagonals in double precision: 2 n eps max|a|."""
    return 2 * a.shape[-1] * np.finfo(float).eps * float(np.max(np.abs(a)))


def embedded_generators(factors, active) -> np.ndarray:
    """Hermitian generators of the subgroup, Kronecker-embedded in the joint space, (K, N, N) (oracle)."""
    return np.concatenate([
        kron_all([hermitian_basis(d) if k == a else np.eye(d) for k, d in enumerate(factors)])
        for a in active
    ])


def _base_points(rho, g, seed):
    """sigma = u0^dag rho u0 at the random base points of simplex.image_dimension_report."""
    u0 = kron_all(_draw_elements(g, rho.dims, _BASE_POINTS, np.random.default_rng(seed)))
    return u0.conj().swapaxes(-1, -2) @ rho.mat @ u0


def _best_rank(rho, sv, rel_tol):
    """(rank, singular values) at the base point of largest rank, by the rank rule of
    simplex.image_dimension_report."""
    floor = 4 * rho.dim * np.finfo(float).eps * np.linalg.norm(rho.mat, 2)
    ranks = np.sum(sv > np.maximum(rel_tol * sv[:, :1], floor), axis=1)
    return int(ranks.max()), sv[np.argmax(ranks)]


def einsum_dimension(rho, g, rel_tol=1e-8, seed=0):
    """(rank, singular values) of the simplex-image Jacobian by one dense einsum of
    the base points' sigma against the embedded generators (oracle)."""
    jac = -2.0 * np.einsum("pab,kba->pak", _base_points(rho, g, seed), embedded_generators(*g.resolve(rho.dims))).imag
    return _best_rank(rho, np.linalg.svd(jac, compute_uv=False), rel_tol)


def finite_difference_dimension(rho, g, rel_tol=1e-8, seed=0):
    """(rank, singular values) of the simplex-image Jacobian by central finite
    differences (step 1e-5) along u0 exp(i s G_k), with the base points,
    generators and rank rule of simplex.image_dimension_report."""
    basis = embedded_generators(*g.resolve(rho.dims))
    step = 1e-5
    e_plus = np.stack([expm_hermitian_times(gen, -step) for gen in basis])  # exp(+i step G)
    e_minus = np.stack([expm_hermitian_times(gen, step) for gen in basis])
    jac = []
    for sigma in _base_points(rho, g, seed):
        forward = frame_diagonals(sigma, e_plus).real
        backward = frame_diagonals(sigma, e_minus).real
        jac.append(((forward - backward) / (2.0 * step)).T)
    return _best_rank(rho, np.linalg.svd(np.stack(jac), compute_uv=False), rel_tol)


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


@lru_cache(maxsize=None)
def _tensor(jt: int, Lt: int, Mt: int) -> np.ndarray:
    ms = spin_range(HalfInt(jt))
    t = np.zeros((jt + 1, jt + 1), dtype=complex)
    for i2, m2 in enumerate(ms):  # row: bra side |j m2>
        for i1, m1 in enumerate(ms):  # column: ket side <j m1|
            if m2.twice - m1.twice == Mt:
                phase = -1.0 if ((jt - m1.twice) // 2) % 2 else 1.0
                t[i2, i1] = phase * clebsch_gordan(HalfInt(jt), m2, HalfInt(jt), -m1, HalfInt(Lt), HalfInt(Mt))
    t.setflags(write=False)
    return t


def irreducible_tensor(j, L, M) -> np.ndarray:
    """Irreducible tensor operator T^(j)_{LM} as a read-only (2j+1)-dimensional matrix (oracle).

    T_{LM} = sum_{m1,m2} (-1)^(j-m1) <j m2; j -m1 | L M> |j m2><j m1|,
    the operator basis that is trace-orthonormal, Tr[T+_{L'M'} T_{LM}] =
    delta_{LL'} delta_{MM'}.
    """
    return _tensor(HalfInt.of(j).twice, HalfInt.of(L).twice, HalfInt.of(M).twice)


def tensor_index_pairs(j) -> list[tuple[HalfInt, HalfInt]]:
    """All admissible (L, M) labels for spin j, L-major, M = L..-L."""
    jt = HalfInt.of(j).twice
    return [(HalfInt(Lt), HalfInt(Mt)) for Lt in range(0, 2 * jt + 1, 2) for Mt in range(Lt, -Lt - 1, -2)]


def _tensor_series(j, m, omega, weight) -> np.ndarray:
    """sum_{L,M} weight(L) (-1)^(j-m+M) <j m; j -m|L 0> D^L_{0,-M}(omega) T_LM."""
    j, m = HalfInt.of(j), HalfInt.of(m)
    n = j.twice + 1
    out = np.zeros((n, n), dtype=complex)
    for L, M in tensor_index_pairs(j):
        cg = clebsch_gordan(j, m, j, -m, L, 0)
        # D^L_{0,-M} has no alpha dependence (first index zero)
        d = wigner_small_d(L, 0, -M, omega.beta) * np.exp(1j * float(M) * omega.gamma)
        sign = (-1.0) ** ((j.twice - m.twice) // 2 + M.twice // 2)
        out += weight(L) * sign * cg * d * irreducible_tensor(j, L, M)
    return out


def dequantizer_series(j, m, omega) -> np.ndarray:
    """The dequantizer U(m, omega) as its irreducible-tensor series (oracle)."""
    return _tensor_series(j, m, omega, lambda L: 1.0)


def quantizer_series(j, m, omega) -> np.ndarray:
    """The quantizer D(m, omega): the same series with weights (2L+1)/(8 pi^2) (oracle)."""
    return _tensor_series(j, m, omega, lambda L: (L.twice + 1) / GROUP_VOLUME)


def _full_table(j, grid) -> tuple[np.ndarray, np.ndarray]:
    """The spin transform over all (2j+1)^2 entries A_ab: the (n_beta n, n^2) real
    table d_ma d_mb and the (n^2, n_gamma) phases exp(-i gamma_y (b - a))."""
    n = HalfInt.of(j).twice + 1
    d = wigner_d_stack(HalfInt.of(j), grid.beta_nodes)
    table = (d[:, :, :, None] * d[:, :, None, :]).reshape(-1, n * n)
    a, b = np.divmod(np.arange(n * n), n)
    return table, np.exp(-1j * np.multiply.outer(b - a, grid.gamma_nodes))


def full_table_analyze(j, grid, a) -> np.ndarray:
    """Spin symbol tables of an operator or a stack on the grid, from the full table (oracle)."""
    table, phases = _full_table(j, grid)
    n, n_gamma = HalfInt.of(j).twice + 1, grid.n_gamma
    a = np.asarray(a, dtype=complex)
    lead = a.shape[:-2]
    phased = a.reshape(lead + (n * n, 1)) * phases
    w = (table @ phased.view(float)).view(complex).reshape(lead + (-1, n, n_gamma))
    return np.moveaxis(w, -3, -2).reshape(lead + (n, -1))


def full_table_synthesize(j, grid, w) -> np.ndarray:
    """Operator with spin symbol table w on the grid, from the full table (oracle)."""
    table, phases = _full_table(j, grid)
    jt = HalfInt.of(j).twice
    n, n_gamma = jt + 1, grid.n_gamma
    c = (_identity_quantizer(jt) @ w) * grid.group_weights()
    c = np.ascontiguousarray(c.reshape(n, -1, n_gamma).swapaxes(0, 1), dtype=complex).reshape(-1, n_gamma)
    s = (table.T @ c.view(float)).view(complex)
    return np.einsum("ry,ry->r", s, phases.conj()).reshape(n, n)
