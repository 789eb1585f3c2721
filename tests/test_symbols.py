import numpy as np
import pytest

from conftest import dequantizer_series, random_hermitian
from spintomo.halfint import HalfInt, spin_range
from spintomo.linalg import (
    expm_hermitian_times,
    haar_unitaries,
    partial_trace,
    random_density,
)
from spintomo.quadrature import GROUP_VOLUME, make_grid
from spintomo.states import bell_state, maximally_mixed, product_state, pure_state
from spintomo.symbols import (
    EulerAngles,
    QuantizerPair,
    SpinFrames,
    Tomogram,
    UnitaryFrames,
    dequantizer_U,
    grid_frames,
    quantizer_D,
    spin_tomogram,
    tomogram_marginal,
    unitary_tomogram,
)


def random_angles(rng) -> EulerAngles:
    return EulerAngles(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))


def random_frames(j, count: int, rng) -> SpinFrames:
    """``count`` spin-j frames at ``random_angles`` draws, in draw order."""
    angles = [random_angles(rng) for _ in range(count)]
    return SpinFrames(j, [g.beta for g in angles], [g.gamma for g in angles], [g.alpha for g in angles])


class TestDequantizer:
    def test_unrotated_projector(self):
        u = dequantizer_U(1, 1, EulerAngles(0, 0, 0))
        assert np.max(np.abs(u - np.diag([1.0, 0.0, 0.0]))) < 1e-14

    @pytest.mark.parametrize("j", [0.5, 1, 1.5])
    def test_series_equals_rotated_projector(self, j, rng):
        for _ in range(10):
            ang = random_angles(rng)
            for m in spin_range(j):
                a = dequantizer_U(j, m, ang)
                b = dequantizer_series(j, m, ang)
                assert np.max(np.abs(a - b)) < 1e-10

    def test_unit_trace_and_idempotence(self, rng):
        for _ in range(10):
            ang = random_angles(rng)
            u = dequantizer_U(1.5, -0.5, ang)
            assert np.trace(u) == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(u @ u - u)) < 1e-12

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            dequantizer_U(1, 0.5, EulerAngles(0, 0, 0))


class TestQuantizer:
    def test_scalar_case(self):
        d = quantizer_D(0, 0, EulerAngles(0.1, 0.9, 2.2))
        assert d.shape == (1, 1)
        assert d[0, 0] == pytest.approx(1.0 / GROUP_VOLUME, abs=1e-15)

    @pytest.mark.parametrize("j", [0.5, 1, 1.5, 2])
    def test_reconstruction_identity(self, j, rng):
        pair = QuantizerPair.spin(j, make_grid(j))
        n = pair.dim
        for _ in range(3):
            a = random_hermitian(n, rng)
            rebuilt = pair.synthesize(pair.symbol_of(a))
            assert np.max(np.abs(rebuilt - a)) < 1e-8

    def test_quantizer_hermitian(self, rng):
        d = quantizer_D(1.5, 0.5, random_angles(rng))
        assert np.max(np.abs(d - d.conj().T)) < 1e-12


class TestSpinTomogram:
    def test_identity_operator_gives_unit(self, rng):
        frames = random_frames(1.5, 6, rng)
        t = spin_tomogram(np.eye(4, dtype=complex), frames)
        assert np.max(np.abs(t.table - 1.0)) < 1e-12

    def test_spin_up_qubit_cosine_law(self, rng):
        rho = pure_state([1.0, 0.0])
        betas = rng.uniform(0, np.pi, size=20)
        frames = SpinFrames(HalfInt(1), betas, np.full(20, 1.7), np.full(20, 0.3))
        t = spin_tomogram(rho, frames)
        # oracle: <m|R rho R+|m> with R from the exponential product
        j3 = np.diag([0.5, -0.5]).astype(complex)
        j2 = np.array([[0, -0.5j], [0.5j, 0]])
        for col, b in enumerate(betas):
            r = (
                expm_hermitian_times(j3, 0.3)
                @ expm_hermitian_times(j2, b)
                @ expm_hermitian_times(j3, 1.7)
            )
            direct = (r @ rho.mat @ r.conj().T).diagonal().real
            assert np.max(np.abs(t.values[:, col] - direct)) < 1e-12
            assert t.values[0, col] == pytest.approx(np.cos(b / 2) ** 2, abs=1e-12)

    def test_maximally_mixed_uniform(self, rng):
        t = spin_tomogram(maximally_mixed((3,)), random_frames(HalfInt(2), 1, rng))
        assert np.max(np.abs(t.values - 1.0 / 3.0)) < 1e-14

    def test_alpha_independence(self, rng):
        a = random_hermitian(4, rng)
        t1 = spin_tomogram(a, SpinFrames(HalfInt(3), [1.1], [2.3], [0.0]))
        t2 = spin_tomogram(a, SpinFrames(HalfInt(3), [1.1], [2.3], [4.5]))
        assert np.max(np.abs(t1.table - t2.table)) < 1e-12

    def test_hermitian_input_real_values(self, rng):
        a = random_hermitian(3, rng)
        t = spin_tomogram(a, grid_frames(1, make_grid(1)))
        assert np.max(np.abs(t.table.imag)) < 1e-12

    def test_per_frame_normalization(self, rng):
        rho = random_density(4, 3, seed=2)
        t = spin_tomogram(rho, grid_frames(1.5, make_grid(1.5)))
        assert t.normalization_residual() < 1e-10

    def test_non_hermitian_exposed_via_observable_values(self, rng):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        t = spin_tomogram(a, random_frames(HalfInt(1), 1, rng))
        with pytest.raises(ValueError):
            _ = t.values
        assert t.observable_values.shape == (2, 1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            spin_tomogram(np.eye(3), SpinFrames(HalfInt(1), [0.0], [0.0]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, float("-inf"))])
    def test_non_finite_operator_refused(self, bad, rng):
        a = np.array([[bad, 0.0], [0.0, 1.0]])
        for frames in (grid_frames(0.5, make_grid(0.5)), random_frames(0.5, 3, rng)):
            with pytest.raises(ValueError, match="finite"):
                spin_tomogram(a, frames)


class TestUnitaryTomogram:
    def test_diagonalizing_frame_gives_eigenvalues(self):
        rho = random_density(4, 4, seed=3)
        _, vecs = np.linalg.eigh(rho.mat)
        t = unitary_tomogram(rho, [vecs])
        assert np.allclose(np.sort(t.values[:, 0]), np.sort(rho.eigenvalues()), atol=1e-12)

    def test_haar_average_is_uniform(self):
        rho = random_density(3, 2, seed=4)
        frames = haar_unitaries(3, 100_000, 5)
        t = unitary_tomogram(rho, list(frames))
        samples = t.values[0]
        stderr = samples.std(ddof=1) / np.sqrt(samples.size)
        assert abs(samples.mean() - 1.0 / 3.0) < 3.0 * stderr

    def test_values_within_eigenvalue_bounds(self):
        rho = random_density(4, 4, seed=6)
        eigs = rho.eigenvalues()
        t = unitary_tomogram(rho, list(haar_unitaries(4, 500, 7)))
        assert np.min(t.values) >= eigs[-1] - 1e-10
        assert np.max(t.values) <= eigs[0] + 1e-10

    def test_rejects_non_unitary_frame(self):
        rho = random_density(2, 2, seed=8)
        with pytest.raises(ValueError):
            unitary_tomogram(rho, [np.diag([1.0, 0.9])])

    def test_outcome_order_lexicographic(self):
        rho = maximally_mixed((2, 2))
        t = unitary_tomogram(rho, [np.eye(4, dtype=complex)])
        assert t.outcomes == [(0, 0), (0, 1), (1, 0), (1, 1)]


class TestFrameStack:
    def test_accepts_arrays_matrix_lists_and_product_tuples(self):
        a, b = haar_unitaries(2, 5, 1), haar_unitaries(2, 5, 2)
        joint = np.stack([np.kron(x, y) for x, y in zip(a, b)])
        assert np.array_equal(UnitaryFrames.of(joint, 4).stack, joint)
        assert np.array_equal(UnitaryFrames.of(list(joint), 4).stack, joint)
        assert np.array_equal(UnitaryFrames.of(list(zip(a, b)), 4).stack, joint)

    @pytest.mark.parametrize("frames", [[], np.zeros((0, 2, 2))])
    def test_refuses_empty(self, frames):
        with pytest.raises(ValueError, match="at least one frame"):
            UnitaryFrames.of(frames, 2)

    @pytest.mark.parametrize("frames", [[np.eye(3)], [(np.eye(2), np.eye(2))], np.eye(2)])
    def test_refuses_wrong_shape(self, frames):
        with pytest.raises(ValueError, match="frame shape"):
            UnitaryFrames.of(frames, 2)

    @pytest.mark.parametrize("bad", [np.diag([1.0, 1.0 + 2e-8]), np.full((2, 2), np.nan)])
    def test_refuses_non_unitary(self, bad):
        with pytest.raises(ValueError, match="not unitary within 1e-8"):
            UnitaryFrames.of([np.eye(2), bad], 2)

    def test_refuses_mixed_and_ragged_product_frames(self):
        with pytest.raises(ValueError, match="all matrices or all tuples"):
            UnitaryFrames.of([np.eye(4), (np.eye(2), np.eye(2))], 4)
        with pytest.raises(ValueError):
            UnitaryFrames.of([(np.eye(2), np.eye(2)), (np.eye(4),)], 4)


class TestUnitaryFrames:
    def test_frames_index_in_the_form_given(self):
        a, b = haar_unitaries(2, 3, 1), haar_unitaries(3, 3, 2)
        product = UnitaryFrames.of(list(zip(a, b)), 6)
        assert [f.shape for f in product.factors] == [(3, 2, 2), (3, 3, 3)]
        assert isinstance(product[1], tuple) and np.array_equal(product[1][1], b[1])
        assert all(np.array_equal(fr[0], x) and np.array_equal(fr[1], y) for fr, x, y in zip(product, a, b))
        matrices = UnitaryFrames.of(a, 2)
        assert matrices.factors is None and np.array_equal(matrices[2], a[2])
        assert UnitaryFrames.of(matrices, 2) is matrices
        with pytest.raises(ValueError, match="frame shape"):
            UnitaryFrames.of(matrices, 3)

    def test_both_tomogram_kinds_hold_array_sets(self):
        rho = random_density(2, 2, seed=4)
        assert isinstance(unitary_tomogram(rho, list(haar_unitaries(2, 3, 5))).frames, UnitaryFrames)
        assert isinstance(spin_tomogram(rho, grid_frames(0.5, make_grid(0.5))).frames, SpinFrames)

    def test_tomogram_refuses_non_unitary_frame(self):
        with pytest.raises(ValueError, match="not unitary within 1e-8"):
            Tomogram(frames=[2.0 * np.eye(2)], table=np.ones((2, 1)))


class TestMarginal:
    def test_product_state_product_frames(self, rng):
        r1 = random_density(2, 2, seed=9)
        r2 = random_density(3, 2, seed=10)
        joint = product_state(r1, r2)
        frames = [
            (haar_unitaries(2, 1, 100 + k)[0], haar_unitaries(3, 1, 200 + k)[0])
            for k in range(4)
        ]
        t = unitary_tomogram(joint, frames)
        marg = tomogram_marginal(t, keep=0)
        direct = unitary_tomogram(r1, [f[0] for f in frames])
        assert np.max(np.abs(marg.values - direct.values)) < 1e-10

    def test_marginal_frames_slice_kept_factors(self):
        rho = random_density(12, 3, seed=7, dims=(2, 3, 2))
        frames = list(zip(haar_unitaries(2, 4, 1), haar_unitaries(3, 4, 2), haar_unitaries(2, 4, 3)))
        t = unitary_tomogram(rho, frames)
        pair = tomogram_marginal(t, keep=(0, 2)).frames
        assert pair.factors[0] is t.frames.factors[0] and pair.factors[1] is t.frames.factors[2]
        assert isinstance(pair[0], tuple) and pair.stack.shape == (4, 4, 4)
        single = tomogram_marginal(t, keep=1).frames
        assert single.factors is None and np.array_equal(single.stack, t.frames.factors[1])

    def test_bell_state_marginal_uniform(self):
        frames = [
            (haar_unitaries(2, 1, 300 + k)[0], haar_unitaries(2, 1, 400 + k)[0])
            for k in range(5)
        ]
        t = unitary_tomogram(bell_state(), frames)
        marg = tomogram_marginal(t, keep=0)
        assert np.max(np.abs(marg.values - 0.5)) < 1e-10

    def test_matches_partial_trace_tomogram(self):
        rho = random_density(4, 3, seed=11, dims=(2, 2))
        frames = [
            (haar_unitaries(2, 1, 500 + k)[0], haar_unitaries(2, 1, 600 + k)[0])
            for k in range(5)
        ]
        t = unitary_tomogram(rho, frames)
        marg = tomogram_marginal(t, keep=1)
        direct = unitary_tomogram(partial_trace(rho, 1), [f[1] for f in frames])
        assert np.max(np.abs(marg.values - direct.values)) < 1e-10

    def test_haar_average_over_second_factor(self):
        # averaging the joint tomogram over u2 reproduces the marginal
        rho = random_density(4, 2, seed=12, dims=(2, 2))
        u1 = haar_unitaries(2, 1, 13)[0, :, :]
        n = 20_000
        u2s = haar_unitaries(2, n, 14)
        frames = [(u1, u2s[k]) for k in range(n)]
        t = unitary_tomogram(rho, frames)
        joint = t.values.reshape(2, 2, n)
        averaged = joint.sum(axis=1).mean(axis=1)
        direct = unitary_tomogram(partial_trace(rho, 0), [u1]).values[:, 0]
        spread = joint.sum(axis=1).std(axis=1, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(averaged - direct) < 3.0 * spread + 1e-12)

    def test_keep_two_of_three_factors(self):
        rho = random_density(12, 6, seed=40, dims=(2, 3, 2))
        frames = [
            (
                haar_unitaries(2, 1, 41)[0],
                haar_unitaries(3, 1, 42)[0],
                haar_unitaries(2, 1, 43)[0],
            )
        ]
        t = unitary_tomogram(rho, frames)
        marg = tomogram_marginal(t, keep=(0, 2))
        direct = unitary_tomogram(
            partial_trace(rho, (0, 2)), [(frames[0][0], frames[0][2])]
        )
        assert marg.dims == (2, 2)
        assert np.max(np.abs(marg.values - direct.values)) < 1e-10

    def test_requires_product_frames(self):
        rho = random_density(4, 2, seed=15, dims=(2, 2))
        t = unitary_tomogram(rho, [np.eye(4, dtype=complex)])
        with pytest.raises(ValueError):
            tomogram_marginal(t, keep=0)

    def test_refuses_factors_that_do_not_match_dims(self):
        # (1x1, 4x4) factors kron to a valid 4x4 frame, but not to a (2, 2) product
        rho = random_density(4, 2, seed=16, dims=(2, 2))
        frames = [(np.eye(1, dtype=complex), u) for u in haar_unitaries(4, 3, 17)]
        t = unitary_tomogram(rho, frames)
        with pytest.raises(ValueError, match="factor dims"):
            tomogram_marginal(t, keep=0)

    @pytest.mark.parametrize("keep", [(), 2, (0, -1)])
    def test_refuses_bad_keep(self, keep):
        rho = random_density(4, 2, seed=18, dims=(2, 2))
        frames = [(haar_unitaries(2, 1, 19)[0], haar_unitaries(2, 1, 20)[0])]
        with pytest.raises(ValueError):
            tomogram_marginal(unitary_tomogram(rho, frames), keep=keep)


class TestTomogramType:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Tomogram(frames=[], table=np.ones((1, 2)))

    def test_negative_clamp_and_error(self):
        frames = SpinFrames(HalfInt(1), [0.0], [0.0])
        t = Tomogram(frames=frames, table=np.array([[1.0 + 5e-13], [-5e-13]]))
        vals = t.values
        assert vals[1, 0] == 0.0
        t_bad = Tomogram(frames=frames, table=np.array([[1.001], [-1e-3]]))
        with pytest.raises(ValueError):
            _ = t_bad.values

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.5, float("nan"))])
    def test_non_finite_table_refused(self, bad):
        grid = make_grid(0.5)
        table = np.full((2, grid.n_nodes), 0.5, dtype=complex)
        table[1, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            Tomogram(frames=grid_frames(0.5, grid), table=table)
        with pytest.raises(ValueError, match="finite"):
            Tomogram(frames=[np.eye(2)], table=table[:, 3:4])

    def test_labels_come_from_the_frames(self):
        grid = make_grid(0.5)
        spin = Tomogram(frames=grid_frames(0.5, grid), table=np.full((2, grid.n_nodes), 0.5))
        assert (spin.kind, spin.j, spin.outcomes, spin.dims) == ("spin", HalfInt(1), spin_range(0.5), None)
        unitary = Tomogram(frames=[np.eye(4)], table=np.full((4, 1), 0.25))
        assert (unitary.kind, unitary.j, unitary.dims, unitary.n_outcomes) == ("unitary", None, (4,), 4)
        assert unitary.outcomes == [(0,), (1,), (2,), (3,)]
        product = Tomogram(frames=[np.eye(4)], table=np.full((4, 1), 0.25), dims=[2, 2])
        assert product.dims == (2, 2) and product.outcomes == [(0, 0), (0, 1), (1, 0), (1, 1)]
        with pytest.raises(AttributeError):
            spin.j = HalfInt(3)

    @pytest.mark.parametrize(
        "frames, table, dims, message",
        [
            (grid_frames(0.5, make_grid(0.5)), np.full((8, 15), 0.125), None, "does not match 2 outcomes"),
            ([np.eye(2)], np.full((2, 1), 0.5), (3,), "do not multiply to the frame size 2"),
            ([np.eye(2)], np.full((2, 1), 0.5), (2, 2), "do not multiply to the frame size 2"),
            (grid_frames(0.5, make_grid(0.5)), np.full((2, 15), 0.5), (2,), "unitary tomograms only"),
            ([np.eye(2)], np.full(2, 0.5), None, "must be 2-d"),
        ],
    )
    def test_labels_cannot_disagree_with_the_frames(self, frames, table, dims, message):
        with pytest.raises(ValueError, match=message):
            Tomogram(frames=frames, table=table, dims=dims)
