import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import frame_diagonals_bound, frame_diagonals_oracle, random_hermitian
from spintomo.linalg import (
    DensityMatrix,
    eig_hermitian,
    expm_hermitian_times,
    frame_diagonals,
    haar_unitaries,
    haar_unitary,
    hermitian_basis,
    kron_all,
    partial_trace,
    partial_transpose,
    random_density,
    unitarity_residual,
)
from spintomo.states import SIGMA_Z, bell_state, product_state, werner_state


class TestEigHermitian:
    def test_qubit_maximally_mixed(self):
        w, _ = eig_hermitian(np.eye(2) / 2)
        assert np.allclose(w, [0.5, 0.5])

    def test_diagonal_spectrum(self):
        w, _ = eig_hermitian(np.diag([0.4, 0.3, 0.2, 0.1]))
        assert np.allclose(w, [0.4, 0.3, 0.2, 0.1], atol=1e-14)

    def test_reconstruction_residual(self, rng):
        for _ in range(100):
            m = random_hermitian(8, rng)
            w, v = eig_hermitian(m)
            assert np.all(np.diff(w) <= 1e-12)
            assert np.max(np.abs((v * w) @ v.conj().T - m)) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestExpm:
    def test_zero_time_is_identity(self, rng):
        h = random_hermitian(4, rng)
        assert np.max(np.abs(expm_hermitian_times(h, 0.0) - np.eye(4))) < 1e-14

    def test_pauli_z_half_turn(self):
        u = expm_hermitian_times(SIGMA_Z, np.pi)
        assert np.max(np.abs(u + np.eye(2))) < 1e-14

    def test_group_property(self, rng):
        h = random_hermitian(5, rng)
        t1, t2 = 0.37, 1.21
        lhs = expm_hermitian_times(h, t1) @ expm_hermitian_times(h, t2)
        rhs = expm_hermitian_times(h, t1 + t2)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_unitarity(self, rng):
        u = expm_hermitian_times(random_hermitian(6, rng), 2.5)
        assert np.max(np.abs(u.conj().T @ u - np.eye(6))) < 1e-10


class TestHaar:
    def test_unitary_within_tolerance(self):
        u = haar_unitary(5, seed=3)
        assert np.max(np.abs(u.conj().T @ u - np.eye(5))) < 1e-12

    def test_seed_determinism(self):
        assert np.array_equal(haar_unitary(4, seed=11), haar_unitary(4, seed=11))
        assert not np.array_equal(haar_unitary(4, seed=11), haar_unitary(4, seed=12))

    def test_first_moment(self):
        # E|u_11|^2 = 1/n for Haar measure
        n = 2
        us = haar_unitaries(n, 100_000, 7)
        samples = np.abs(us[:, 0, 0]) ** 2
        mean = samples.mean()
        stderr = samples.std(ddof=1) / np.sqrt(samples.size)
        assert abs(mean - 1.0 / n) < 3.0 * stderr

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            haar_unitary(0, seed=1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16])
    @pytest.mark.parametrize("count", [1, 5, 1000])
    def test_equals_phase_fixed_qr_of_the_same_draw(self, n, count):
        # oracle: the QR factor of the Ginibre draw whose R has a positive diagonal
        rng = np.random.default_rng(n * 1000 + count)
        z = (rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n)))
        z /= np.sqrt(2.0)
        q, r = np.linalg.qr(z)
        d = np.diagonal(r, axis1=-2, axis2=-1)
        oracle = q * (d / np.abs(d))[:, None, :]
        us = haar_unitaries(n, count, n * 1000 + count)
        assert np.max(np.abs(us - oracle)) <= 1e-12
        assert unitarity_residual(us) <= 1e-14

    @pytest.mark.parametrize("n", [1, 4])
    def test_empty_batch(self, n):
        assert haar_unitaries(n, 0, 1).shape == (0, n, n)

    def test_single_draw_is_a_batch_of_one(self):
        assert np.array_equal(haar_unitary(3, seed=21), haar_unitaries(3, 1, 21)[0])

    def test_generator_or_seed(self):
        rng = np.random.default_rng(22)
        assert np.array_equal(haar_unitaries(3, 4, rng), haar_unitaries(3, 4, 22))
        # the caller's generator is advanced, not copied
        assert not np.array_equal(haar_unitaries(3, 4, rng), haar_unitaries(3, 4, 22))

    def test_output_is_c_contiguous(self):
        assert haar_unitaries(4, 100, 1).flags.c_contiguous
        assert haar_unitary(4, seed=1).flags.c_contiguous

    def test_second_moment(self):
        # E|u_11|^4 = 2 / (n (n + 1)) for Haar measure
        n = 4
        samples = np.abs(haar_unitaries(n, 100_000, 8)[:, 0, 0]) ** 4
        stderr = samples.std(ddof=1) / np.sqrt(samples.size)
        assert abs(samples.mean() - 2.0 / (n * (n + 1))) < 3.0 * stderr


class TestDensityMatrix:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([0.6, 0.6]))  # trace 1.2
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue

    def test_nan_slack_refused(self):
        with pytest.raises(ValueError, match="slack nan"):
            DensityMatrix(np.diag([1.5, -0.5]), psd_slack=float("nan"))
        with pytest.raises(ValueError, match="slack nan"):
            DensityMatrix(np.eye(2) / 2, psd_slack=float("nan"))

    def test_dims_product_checked(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(4) / 4, dims=(2, 3))

    @settings(max_examples=40, deadline=None)
    @given(
        bad=st.sampled_from([np.nan, np.inf, -np.inf]),
        n=st.integers(min_value=1, max_value=4),
        data=st.data(),
    )
    def test_non_finite_entries_rejected(self, bad, n, data):
        # NaN compares False everywhere, so only an explicit check refuses it
        mat = np.eye(n, dtype=complex) / n
        a = data.draw(st.integers(min_value=0, max_value=n - 1))
        b = data.draw(st.integers(min_value=0, max_value=n - 1))
        mat[a, b] += data.draw(st.sampled_from([1.0, 1j])) * bad
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(mat)

    def test_random_density_rank_one_is_pure(self):
        rho = random_density(4, 1, seed=0)
        assert rho.purity() == pytest.approx(1.0, abs=1e-10)

    def test_random_density_full_rank(self):
        rho = random_density(4, 4, seed=1)
        assert np.all(rho.eigenvalues() > 0)

    def test_random_density_trace(self):
        for seed in range(5):
            rho = random_density(6, 3, seed=seed)
            assert abs(np.trace(rho.mat) - 1.0) < 1e-12

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            random_density(3, 0, seed=0)
        with pytest.raises(ValueError):
            random_density(3, 4, seed=0)


class TestPartialTrace:
    def test_product_state_recovers_factor(self):
        r1 = random_density(2, 2, seed=5)
        r2 = random_density(3, 3, seed=6)
        joint = product_state(r1, r2)
        reduced = partial_trace(joint, keep=0)
        assert np.max(np.abs(reduced.mat - r1.mat)) < 1e-12

    def test_bell_state_marginal_is_mixed(self):
        reduced = partial_trace(bell_state(), keep=0)
        assert np.max(np.abs(reduced.mat - np.eye(2) / 2)) < 1e-12

    def test_trace_preserved(self):
        rho = random_density(8, 5, seed=7, dims=(2, 2, 2))
        reduced = partial_trace(rho, keep=(0, 2))
        assert abs(np.trace(reduced.mat) - 1.0) < 1e-12
        assert reduced.dims == (2, 2)

    def test_explicit_contraction_oracle(self, rng):
        rho = random_density(6, 4, seed=8, dims=(2, 3))
        reduced = partial_trace(rho, keep=0)
        manual = np.zeros((2, 2), dtype=complex)
        block = rho.mat.reshape(2, 3, 2, 3)
        for a in range(2):
            for b in range(2):
                manual[a, b] = sum(block[a, k, b, k] for k in range(3))
        assert np.max(np.abs(reduced.mat - manual)) < 1e-14

    def test_bad_index(self):
        rho = random_density(4, 4, seed=9, dims=(2, 2))
        with pytest.raises(ValueError):
            partial_trace(rho, keep=2)
        with pytest.raises(ValueError):
            partial_trace(rho, keep=())


class TestPartialTranspose:
    def test_werner_matches_closed_form(self):
        q = 0.7
        pt = partial_transpose(werner_state(q), subsystem=1)
        expected = 0.25 * np.array(
            [
                [1 - q, 0, 0, -2 * q],
                [0, 1 + q, 0, 0],
                [0, 0, 1 + q, 0],
                [-2 * q, 0, 0, 1 - q],
            ]
        )
        assert np.max(np.abs(pt - expected)) < 1e-14

    def test_product_state_stays_psd(self):
        joint = product_state(random_density(2, 2, seed=1), random_density(2, 2, seed=2))
        pt = partial_transpose(joint, subsystem=1)
        assert np.min(np.linalg.eigvalsh(pt)) > -1e-12

    def test_involution(self):
        rho = random_density(4, 4, seed=3, dims=(2, 2))
        twice = partial_transpose(
            DensityMatrix(partial_transpose(rho, 0), (2, 2), psd_slack=1.0), 0
        )
        assert np.max(np.abs(twice - rho.mat)) < 1e-14

    def test_requires_bipartition(self):
        with pytest.raises(ValueError):
            partial_transpose(random_density(4, 4, seed=4), subsystem=0)


class TestFrameStacks:
    def test_frame_diagonals_equal_per_frame_loop(self, rng):
        a = random_density(8, 8, seed=5).mat
        frames = haar_unitaries(8, 200, rng)
        loop = np.array([np.einsum("am,ab,bm->m", u.conj(), a, u) for u in frames])
        got = frame_diagonals(a, frames)
        assert np.max(np.abs(got - frame_diagonals_oracle(a, frames))) <= frame_diagonals_bound(a)
        assert np.max(np.abs(got - loop)) <= 1e-15

    def test_kron_all_stacks_equal_np_kron(self, rng):
        a, b, c = (haar_unitaries(2, 50, rng) for _ in range(3))
        joint = kron_all([a, b, c])
        assert joint.shape == (50, 8, 8)
        for i in range(50):
            assert np.array_equal(joint[i], np.kron(np.kron(a[i], b[i]), c[i]))

    def test_kron_all_broadcasts_a_plain_matrix(self, rng):
        a = haar_unitaries(2, 10, rng)
        joint = kron_all([np.eye(3), a])
        assert np.array_equal(joint, np.stack([np.kron(np.eye(3, dtype=complex), x) for x in a]))

    def test_unitarity_residual_takes_stacks(self, rng):
        frames = haar_unitaries(4, 20, rng)
        assert unitarity_residual(frames) < 1e-13
        frames[7] *= 1.01
        assert unitarity_residual(frames) == pytest.approx(1.01**2 - 1.0)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_hermitian_basis_is_orthogonal_and_ordered(self, d):
        basis = hermitian_basis(d)
        assert basis.shape == (d * d, d, d)
        assert np.array_equal(basis, basis.conj().transpose(0, 2, 1))
        gram = np.einsum("iab,jba->ij", basis, basis).real
        assert np.array_equal(gram, np.diag([1.0] * d + [2.0] * (d * d - d)))
        assert np.array_equal(basis[:d], np.stack([np.diag(e) for e in np.eye(d)]))
        if d > 1:
            assert basis[d, 0, 1] == basis[d, 1, 0] == 1.0
            assert basis[d + 1, 0, 1] == -1.0j and basis[d + 1, 1, 0] == 1.0j


def unblocked_haar_unitaries(n, count, seed):
    """The sampler before blocking: the whole batch in one (n, n, count) array."""
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n)))
    z /= np.sqrt(2.0)
    q = np.ascontiguousarray(z.transpose(2, 1, 0))
    for k in range(n):
        v, done = q[k], q[:k]
        for _ in range(2 if k else 0):
            coeffs = np.einsum("jib,ib->jb", done, v.conj()).conj()
            v -= np.einsum("jib,jb->ib", done, coeffs)
        v /= np.linalg.norm(v, axis=0)
    return np.ascontiguousarray(q.transpose(2, 1, 0))


class TestBlockedFrameKernels:
    # the kernels work in blocks of 512 frames; the counts straddle one and two blocks

    @pytest.mark.parametrize("n", [1, 2, 8])
    @pytest.mark.parametrize("count", [0, 1, 511, 512, 513, 1025])
    def test_haar_is_bit_identical_to_the_unblocked_sampler(self, n, count):
        seed = 1000 * n + count
        assert np.array_equal(haar_unitaries(n, count, seed), unblocked_haar_unitaries(n, count, seed))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16])
    @pytest.mark.parametrize(
        "case", ["non_hermitian", "real", "non_contiguous", "broadcast", "empty", "partial_block"]
    )
    def test_frame_diagonals_match_extended_precision(self, n, case, rng):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        frames = haar_unitaries(n, 40, rng)
        if case == "real":
            a = a.real
        elif case == "non_contiguous":
            frames = haar_unitaries(n, 1200, rng)[::2].swapaxes(1, 2)
        elif case == "broadcast":
            frames = np.broadcast_to(frames[0], (700, n, n))
        elif case == "empty":
            frames = frames[:0]
        elif case == "partial_block":
            frames = haar_unitaries(n, 1100, rng)
        got = frame_diagonals(a, frames)
        assert got.shape == (len(frames), n) and got.dtype == complex
        err = np.max(np.abs(got - frame_diagonals_oracle(a, frames)), initial=0.0)
        assert err <= frame_diagonals_bound(a)

    def test_frame_diagonals_scratch_does_not_grow_with_frames(self):
        frames = haar_unitaries(8, 20_000, 3)
        a = random_density(8, 8, seed=4).mat
        tracemalloc.start()
        try:
            out = frame_diagonals(a, frames)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the frame stack alone is 20 MB; the scratch is a few blocks of 512 frames
        assert peak <= out.nbytes + 4 * 2**20


class TestInvariants:
    def test_kron_partial_trace_adjointness(self, rng):
        # Tr[(A (x) B) rho] = Tr[A Tr_2((1 (x) B) rho)]
        a = random_hermitian(2, rng)
        b = random_hermitian(3, rng)
        rho = random_density(6, 6, seed=10, dims=(2, 3))
        lhs = np.trace(np.kron(a, b) @ rho.mat)
        weighted = np.kron(np.eye(2), b) @ rho.mat
        block = weighted.reshape(2, 3, 2, 3)
        reduced = np.einsum("akbk->ab", block)
        rhs = np.trace(a @ reduced)
        assert abs(lhs - rhs) < 1e-10
