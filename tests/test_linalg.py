import copy
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BLOCK_EDGES, STRADDLING, frame_diagonals_bound, frame_diagonals_oracle, random_hermitian
from spintomo.channels import depolarizing
from spintomo.dynamics import Povm, PovmReport
from spintomo.entropy import MonteCarlo, min_entropy_over_group
from spintomo.errors import LIMITS
from spintomo.halfint import HalfInt
from spintomo.linalg import (
    DensityMatrix,
    _blocks,
    _kron_columns,
    eig_hermitian,
    expm_hermitian_times,
    frame_diagonals,
    haar_blocks,
    haar_unitaries,
    haar_unitary,
    hermitian_basis,
    kron_all,
    partial_trace,
    partial_transpose,
    random_density,
    unitarity_residual,
)
from spintomo.quadrature import QuadratureGrid
from spintomo.simplex import GroupSpec, image_dimension_report, image_sample, peres_scan
from spintomo.states import SIGMA_Z, bell_state, ghz_state, maximally_mixed, product_state, werner_state
from spintomo.symbols import EulerAngles, Tomogram, unitary_tomogram


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

    @pytest.mark.parametrize(
        "mat, kwargs, message",
        [
            (np.ones((2, 3)), {}, "expected a square matrix, got shape (2, 3)"),
            (np.diag([np.nan, 1.0]), {}, "matrix entries must be finite numbers (found NaN or infinity)"),
            (np.eye(2) / 2, {"dims": (0,)}, "dims (0,) must each be at least 1"),
            (np.eye(4) / 4, {"dims": (2.9, 2)}, "dims must be integers, got 2.9"),
            (np.eye(4) / 4, {"dims": (True, 4)}, "dims must be integers, got True"),
            (np.eye(4) / 4, {"dims": 4}, "dims must be a sequence of integers, got 4"),
            (np.eye(4) / 4, {"dims": 0}, "dims must be a sequence of integers, got 0"),
            (np.eye(4) / 4, {"dims": False}, "dims must be a sequence of integers, got False"),
            (np.eye(2) / 2, {"dims": (2, 2)}, "dims (2, 2) do not multiply to dimension 2"),
            (np.array([[0.5, 0.5], [0.0, 0.5]]), {}, "density matrix is not Hermitian within 1e-12"),
            (np.diag([0.6, 0.6]), {}, "density matrix trace differs from 1 beyond 1e-12"),
            (np.diag([0.5 + 1e-9j, 0.5]), {}, "density matrix is not Hermitian within 1e-12"),
            (np.diag([1.0 + 1e-9, -1e-9]), {}, "density matrix has a negative eigenvalue beyond the slack 1e-10"),
            (np.diag([1.5, -0.5]), {}, "density matrix has a negative eigenvalue beyond the slack 1e-10"),
        ],
    )
    def test_refusal_messages(self, mat, kwargs, message):
        with pytest.raises(ValueError) as refused:
            DensityMatrix(mat, **kwargs)
        assert str(refused.value) == message

    def test_dims_product_checked(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(4) / 4, dims=(2, 3))

    @pytest.mark.parametrize("dims", [(-2, -2), (-1, -4), (0, 4)])
    def test_dims_below_1_refused(self, dims):
        # (-2, -2) multiplies to 4 and once passed, to fail later inside numpy
        with pytest.raises(ValueError, match=r"dims \(.*\) must each be at least 1"):
            DensityMatrix(np.eye(4) / 4, dims=dims)

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
        with pytest.raises(ValueError, match="matrix entries must be finite numbers"):
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

    @pytest.mark.parametrize(
        "n, rank, dims, message",
        [
            (2.5, 1, None, "n must be integers, got 2.5"),
            (True, 1, None, "n must be integers, got True"),
            (np.True_, 1, None, "n must be integers, got "),
            (3, 1.5, None, "rank must be integers, got 1.5"),
            (3, False, None, "rank must be integers, got False"),
            (3, "2", None, "rank must be integers, got '2'"),
            (4, 1, 4, "dims must be a sequence of integers, got 4"),
            (4, 1, 0, "dims must be a sequence of integers, got 0"),
        ],
    )
    def test_non_integral_sizes_refused(self, n, rank, dims, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            random_density(n, rank, seed=0, dims=dims)

    @pytest.mark.parametrize("dims", [None, ()])
    def test_none_and_empty_dims_declare_one_system(self, dims):
        assert random_density(4, 2, seed=5, dims=dims).dims == (4,)
        assert DensityMatrix(np.eye(4) / 4, dims=dims).dims == (4,)
        assert Tomogram(frames=[np.eye(4)], table=np.full((4, 1), 0.25), dims=dims).dims == (4,)

    @pytest.mark.parametrize("dims", [[], np.array([], dtype=int)], ids=["list", "array"])
    def test_an_empty_dims_sequence_is_refused(self, dims):
        # it would declare a state with no subsystem, on which partial_trace fails later
        message = r"dims must list at least one subsystem size, got (\[\]|array)"
        with pytest.raises(ValueError, match=message):
            DensityMatrix(np.eye(1), dims=dims)
        with pytest.raises(ValueError, match=message):
            random_density(1, 1, seed=0, dims=dims)
        with pytest.raises(ValueError, match=message):
            Tomogram(frames=[np.eye(1)], table=np.ones((1, 1)), dims=dims)

    def test_numpy_integer_sizes_accepted(self):
        rho = random_density(np.int64(3), np.int32(2), seed=4)
        assert np.array_equal(rho.mat, random_density(3, 2, seed=4).mat)


class TestReferenceStates:
    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: ghz_state(True), "n_qubits must be integers, got True"),
            (lambda: ghz_state(2.5), "n_qubits must be integers, got 2.5"),
            (lambda: ghz_state(-1), r"n_qubits \(-1,\) must each be at least 1"),
            (lambda: ghz_state(0), r"n_qubits \(0,\) must each be at least 1"),
            (lambda: product_state(), "a product state needs at least one factor"),
            (lambda: maximally_mixed(4), "dims must be a sequence of integers, got 4"),
        ],
        ids=["ghz-bool", "ghz-float", "ghz-negative", "ghz-zero", "product-empty", "mixed-int"],
    )
    def test_refused(self, make, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            make()

    def test_ghz_state_takes_numpy_integers(self):
        assert np.array_equal(ghz_state(np.int64(2)).mat, ghz_state(2).mat)
        assert ghz_state(1).dims == (2,)


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

    @pytest.mark.parametrize("keep", [(0, 0.9), True, "01", 0.7, (np.float64(1.0),)])
    def test_an_index_that_is_no_integer_is_refused(self, keep):
        # none is truncated to an index: (0, 0.9) once kept (0,), True kept 1 and "01" both subsystems
        with pytest.raises(ValueError, match="^subsystem indices must be integers, got "):
            partial_trace(bell_state(), keep)

    def test_numpy_integer_indices_are_accepted(self):
        rho = random_density(8, 5, seed=7, dims=(2, 2, 2))
        reduced = partial_trace(rho, np.array([2, 0]))
        assert reduced.dims == (2, 2)
        assert np.array_equal(reduced.mat, partial_trace(rho, (0, 2)).mat)
        assert partial_trace(rho, np.int64(1)).dims == (2,)


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
        # a product state and Werner states with q <= 1/3 are separable, so their
        # partial transposes are states
        product = product_state(random_density(2, 2, seed=3), random_density(2, 2, seed=4))
        for rho in (product, werner_state(0.2), werner_state(1 / 3)):
            once = DensityMatrix(partial_transpose(rho, 0), (2, 2))
            assert np.max(np.abs(partial_transpose(once, 0) - rho.mat)) < 1e-14

    def test_requires_bipartition(self):
        with pytest.raises(ValueError):
            partial_transpose(random_density(4, 4, seed=4), subsystem=0)

    @pytest.mark.parametrize(
        "subsystem, message",
        [
            (True, "subsystem indices must be integers, got True"),
            (0.5, "subsystem indices must be integers, got 0.5"),
            (2, r"subsystem index out of range for dims \(2, 2\)"),
            (-1, r"subsystem index out of range for dims \(2, 2\)"),
        ],
    )
    def test_refuses_a_subsystem_that_is_no_index(self, subsystem, message):
        with pytest.raises(ValueError, match=message):
            partial_transpose(bell_state(), subsystem)


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

    @pytest.mark.parametrize("where", [0, 8191, 8192, 16384])
    def test_unitarity_residual_is_nan_for_a_nan_in_any_block(self, where):
        # at n = 2 the stack is checked per block of 8192 frames; np.max keeps the NaN
        frames = haar_unitaries(2, 16385, 5)
        frames[where, 1, 0] = np.nan
        assert np.isnan(unitarity_residual(frames))

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
    # the kernels work in blocks of 512 KiB of frames, BLOCK_EDGES[n] frames at
    # dimension n; the counts straddle one, two and three blocks, the last of
    # which takes the remainder

    @pytest.mark.parametrize(
        "n, edge", [*BLOCK_EDGES.items(), (3, 3640), (12, 224), (23, 56), (64, 8), (65, 8), (200, 8)]
    )
    def test_a_block_is_512_kib_of_frames_in_whole_tiles_of_8(self, n, edge):
        assert _blocks(edge - 1, n) == [slice(0, edge - 1)]
        assert _blocks(2 * edge - 1, n) == [slice(0, 2 * edge - 1)]
        assert _blocks(3 * edge + 7, n) == [slice(0, edge), slice(edge, 2 * edge), slice(2 * edge, 3 * edge + 7)]

    @pytest.mark.parametrize("n, count", STRADDLING)
    def test_haar_is_bit_identical_to_the_unblocked_sampler(self, n, count):
        seed = 1000 * n + count
        assert np.array_equal(haar_unitaries(n, count, seed), unblocked_haar_unitaries(n, count, seed))

    @pytest.mark.parametrize("n, count", STRADDLING)
    def test_block_generator_yields_the_stack_in_column_layout(self, n, count):
        # q is scratch that the next block overwrites, so each block is copied as it comes
        blocks = [(block, q.T.copy()) for block, q in haar_blocks(n, count, count)]
        assert [block for block, _ in blocks] == _blocks(count, n)
        assert np.array_equal(np.concatenate([u for _, u in blocks]), haar_unitaries(n, count, count))

    @pytest.mark.parametrize("d", [2, 3])
    def test_complex_products_round_alike_for_contiguous_strided_and_broadcast_operands(self, d):
        # the product image forms its blocks in column layout from copied factor
        # blocks, where kron_all multiplies strided frame-layout views; both hold
        # the same bits only while numpy's complex multiply rounds alike whatever
        # its operands' strides
        rng = np.random.default_rng(49 + d)
        count = 10**5 // (d * d)  # 10^5 entries an operand
        x, y = (rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d)) for _ in range(2))
        y[::3, 0] = [1.0, 0.0, -0.0][:d]  # entries of an identity factor, signed zeros included
        x_cols, y_cols = np.ascontiguousarray(x.T), np.ascontiguousarray(y.T)  # (d, d, B)

        def bits(a):
            return np.ascontiguousarray(a).view(np.uint64)

        product = bits(x_cols * y_cols)
        assert np.array_equal(bits(x.T * y.T), product)
        assert np.array_equal(bits(x_cols * y.T), product)
        left, right = x_cols[:, None, :, None], y_cols[None, :, None, :]
        shape = np.broadcast_shapes(left.shape, right.shape)  # (d, d, d, d, B)
        spread = bits(np.broadcast_to(left, shape).copy() * np.broadcast_to(right, shape).copy())
        assert np.array_equal(bits(left * right), spread)
        # and so the column-layout product block holds kron_all's bits
        assert np.array_equal(bits(_kron_columns([x, y])), bits(kron_all([x, y]).T))

    @pytest.mark.parametrize("n", list(BLOCK_EDGES))
    def test_frame_diagonals_depend_on_a_frame_s_tile_not_its_block(self, n):
        # BLAS tiles the GEMM a few frames at a time, and a block is whole tiles of
        # 8 frames, so a stack cut at a tile edge gives its frames' bits whatever its
        # blocks; factor stacks, a pair (2, n/2) or (1, n) at odd n, give those of
        # their product stack
        edge, a = BLOCK_EDGES[n], random_density(n, n, seed=n).mat
        frames = haar_unitaries(n, 2 * edge + 5, n)
        d = 2 - n % 2
        factors = [haar_unitaries(d, 2 * edge + 5, n + 1), haar_unitaries(n // d, 2 * edge + 5, n + 2)]
        whole, product = frame_diagonals(a, frames), frame_diagonals(a, *factors)
        assert np.array_equal(product, frame_diagonals(a, kron_all(factors)))
        for stop in (8, edge - 8, edge + 8, 2 * edge):
            assert np.array_equal(frame_diagonals(a, frames[:stop]), whole[:stop])
            assert np.array_equal(frame_diagonals(a, *(f[:stop] for f in factors)), product[:stop])

    @pytest.mark.parametrize("n", list(BLOCK_EDGES))
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
            frames = haar_unitaries(n, 2 * BLOCK_EDGES[n] + 3, rng)
        got = frame_diagonals(a, frames)
        assert got.shape == (len(frames), n) and got.dtype == complex
        err = np.max(np.abs(got - frame_diagonals_oracle(a, frames)), initial=0.0)
        assert err <= frame_diagonals_bound(a)

    @pytest.mark.memory
    def test_haar_holds_its_draw_in_the_output(self):
        # x is drawn into the output's own bytes and y one block at a time,
        # so no full-size draw is held beside the output
        rng = np.random.default_rng(31)
        tracemalloc.start()
        try:
            out = haar_unitaries(8, 10_000, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.15 * out.nbytes

    @pytest.mark.parametrize("n", [1, 3, 8])
    @pytest.mark.parametrize("count", [0, 1, 513, 1025])
    @pytest.mark.parametrize(
        "draw", [haar_unitaries, lambda n, count, rng: list(haar_blocks(n, count, rng))], ids=["stack", "blocks"]
    )
    def test_haar_leaves_the_generator_after_both_full_draws(self, n, count, draw):
        # the stream is all of x, then all of y, as two (count, n, n) draws take it,
        # for the stack and for the scans' block generator run to its end
        rng, reference = np.random.default_rng(count), np.random.default_rng(count)
        draw(n, count, rng)
        reference.standard_normal((2, count, n, n))
        assert np.array_equal(rng.standard_normal(5), reference.standard_normal(5))

    @pytest.mark.parametrize("count", [-1, -512, 2.5, 3.0, "4", None, True])
    def test_haar_refuses_a_count_that_is_no_nonnegative_integer(self, count):
        with pytest.raises(ValueError, match=f"sample count must be a nonnegative integer, got {count!r}"):
            haar_unitaries(2, count, 1)

    @pytest.mark.parametrize(
        "n, message",
        [(2.5, "must be integers, got 2.5"), (True, "must be integers, got True"), (0, r"\(0,\) must each be at least 1")],
    )
    def test_haar_refuses_a_dimension_that_is_no_positive_integer(self, n, message):
        for draw in (haar_unitaries, haar_blocks):
            with pytest.raises(ValueError, match=message):
                draw(n, 3, 0)

    @pytest.mark.memory
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

    @pytest.mark.memory
    @pytest.mark.parametrize("kernel", ["frame_diagonals", "unitary_tomogram", "factor_stacks"])
    def test_scratch_does_not_grow_with_the_dimension(self, kernel):
        # at n = 64 a block is 8 frames (512 KiB), where a block of 512 frames would
        # hold all 600 and copy the 39 MB stack; the tomogram adds its unitarity check,
        # and two 8 x 8 factor stacks form their products a block at a time, never
        # the 39 MB product stack
        frames, rho = haar_unitaries(64, 600, 43), random_density(64, 64, seed=44)
        factors = [haar_unitaries(8, 600, 45), haar_unitaries(8, 600, 46)]
        tracemalloc.start()
        try:
            if kernel == "frame_diagonals":
                frame_diagonals(rho.mat, frames)
            elif kernel == "factor_stacks":
                frame_diagonals(rho.mat, *factors)
            else:
                unitary_tomogram(rho, frames)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 600 * 64 + 4 * 2**20

    @pytest.mark.memory
    @pytest.mark.parametrize(
        "draw, count, what",
        [(haar_unitaries, 8192, "8192 Haar unitaries"), (haar_blocks, 16384, "the Gaussian draw of 16384 Haar unitaries")],
        ids=["stack", "blocks"],
    )
    def test_haar_draw_past_the_byte_budget_is_refused_before_it_is_allocated(self, monkeypatch, draw, count, what):
        # 8 MiB: the stack of 8192 unitaries, or the Gaussian draw x of 16384, at a 4 MiB budget
        monkeypatch.setitem(LIMITS, "bytes", 2**22)
        message = f"^{what} at dimension 8 would allocate about 0.00839 GB, above the budget of 0.00419 GB$"
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                draw(8, count, 45)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**23 / 100
        # at its bytes the draw is made
        monkeypatch.setitem(LIMITS, "bytes", 2**23)
        draw(8, count, 45)

    @pytest.mark.memory
    def test_haar_scan_block_scratch_past_the_byte_budget_is_refused_before_the_draw(self, monkeypatch):
        # at n = 256 a block is one 8-frame tile: the full group's image of 8 points holds the
        # draw x and the points, 8 * 8 * (256^2 + 256) bytes (4.2 MB), and the block's scratch,
        # 48 * 8 * 256^2 bytes (25 MB), which alone passes a 16 MiB budget
        rho = ghz_state(8)
        monkeypatch.setitem(LIMITS, "bytes", 2**24)
        message = r"^the scratch of one block of frames at dimension 256 would allocate about 0\.0252 GB, above the budget"
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                image_sample(rho, GroupSpec("full"), 8, seed=47)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**24 / 100


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


class TestArrayRecordsCompareByIdentity:
    """Records that hold arrays compare and hash by identity; value types keep value equality."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: random_density(2, 2, seed=3),
            lambda: unitary_tomogram(random_density(2, 2, seed=3), haar_unitaries(2, 3, np.random.default_rng(3))),
            lambda: depolarizing(0.2),
            lambda: Povm([np.eye(2)]),
            lambda: image_sample(bell_state(), GroupSpec("full"), 3, 3),
            lambda: image_dimension_report(bell_state(), GroupSpec("full"), seed=3),
            lambda: min_entropy_over_group(random_density(2, 2, seed=3), 3, 3),
            lambda: peres_scan(bell_state(), 3, 3),
        ],
        ids=["DensityMatrix", "Tomogram", "KrausChannel", "Povm", "SimplexSample", "DimensionReport",
             "EntropyReport", "PeresScan"],
    )
    def test_equality_is_identity(self, make):
        x = make()
        assert x == x
        assert x != copy.copy(x)
        assert hash(x) == hash(x) and x in {x}

    def test_value_types_compare_by_value(self):
        assert HalfInt(3) == HalfInt(3) and QuadratureGrid(2, 3) == QuadratureGrid(2, 3)
        assert GroupSpec("full") == GroupSpec("full") and EulerAngles(0.1, 0.2, 0.3) == EulerAngles(0.1, 0.2, 0.3)
        assert MonteCarlo(1.0, 0.5, 3, 7) == MonteCarlo(1.0, 0.5, 3, 7)
        assert PovmReport(True, 0.0, 1.0) == PovmReport(True, 0.0, 1.0)
