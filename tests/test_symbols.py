import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FRAME_KINDS, dequantizer_series, frame_set, random_hermitian
from spintomo import io
from spintomo.errors import LIMITS, InformationallyIncompleteError
from spintomo.halfint import HalfInt, spin_range
from spintomo.linalg import (
    expm_hermitian_times,
    frame_diagonals,
    haar_unitaries,
    partial_trace,
    random_density,
)
from spintomo.quadrature import GROUP_VOLUME, make_grid
from spintomo.reconstruction import reconstruct_from_unitary_frame
from spintomo.states import bell_state, ghz_state, maximally_mixed, product_state, pure_state
from spintomo.su2 import rotation_matrix
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
    return SpinFrames(j, [g.beta for g in angles], [g.gamma for g in angles])


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
        frames = SpinFrames(HalfInt(1), betas, np.full(20, 1.7))
        t = spin_tomogram(rho, frames)
        # oracle: <m|R rho R+|m> with R from the exponential product, at alpha = 0.3
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
        # a frame is R(0, beta, gamma): the symbol at any alpha is the same
        a = random_hermitian(4, rng)
        t = spin_tomogram(a, SpinFrames(HalfInt(3), [1.1], [2.3]))
        for alpha in (0.0, 4.5):
            us = [dequantizer_U(HalfInt(3), m, EulerAngles(alpha, 1.1, 2.3)) for m in spin_range(HalfInt(3))]
            direct = [np.trace(a @ u) for u in us]
            assert np.max(np.abs(t.table[:, 0] - direct)) < 1e-12

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

    @pytest.mark.parametrize(
        "stack, message",
        [
            (np.eye(2), r"frame shape \(2,\) does not match state dimension 2"),
            (np.ones((1, 2, 3)), r"frame shape \(2, 3\) does not match state dimension 3"),
            (np.zeros((0, 2, 2)), "at least one frame is required"),
            ([], "at least one frame is required"),
            (np.array(1.0), r"frame shape \(\) does not match"),
        ],
    )
    def test_constructor_checks_the_stack_shape(self, stack, message):
        # as UnitaryFrames.of does: a 2-d matrix is not taken as a stack of rows
        with pytest.raises(ValueError, match=message):
            UnitaryFrames(stack)

    @pytest.mark.memory
    def test_product_stack_past_the_byte_budget_is_refused_before_it_is_formed(self, monkeypatch):
        # 20 product frames of 8 qubits: the (20, 256, 256) stack is 16 * 20 * 256^2 bytes (21 MB),
        # refused at a 4 MiB budget with its own text while only the factor stacks exist
        rho, rng = ghz_state(8), np.random.default_rng(8)
        frames = list(zip(*(haar_unitaries(2, 20, rng) for _ in range(8))))
        stack_bytes = 16 * 20 * 256**2
        monkeypatch.setitem(LIMITS, "bytes", 2**22)
        message = r"^the stack of 20 product frames at dimension 256 would allocate about 0\.021 GB, above the budget"
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                unitary_tomogram(rho, frames)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < stack_bytes / 100
        # one byte short of the stack it is refused, and at its bytes it is formed as before
        monkeypatch.setitem(LIMITS, "bytes", stack_bytes - 1)
        with pytest.raises(ValueError, match=message):
            UnitaryFrames.of(frames, 256)
        monkeypatch.setitem(LIMITS, "bytes", stack_bytes)
        assert UnitaryFrames.of(frames, 256).stack.shape == (20, 256, 256)

    def test_refuses_nan_in_the_last_block(self):
        # at n = 2 a block is 8192 frames, so the last block starts at frame 8192
        frames = haar_unitaries(2, 16385, 8)
        frames[-1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="not unitary within 1e-8"):
            UnitaryFrames.of(frames, 2)

    @pytest.mark.memory
    def test_unitarity_check_scratch_does_not_grow_with_frames(self):
        # the unitarity check walks the stack one block at a time, so no
        # full-size temporary (one would take the peak past 1.3x) is formed
        rho, frames = random_density(8, 8, seed=2), haar_unitaries(8, 10_000, 3)
        tracemalloc.start()
        try:
            unitary_tomogram(rho, frames)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * frames.nbytes

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


class TestFrameSetInterface:
    """Both frame sets answer ``kind``, ``j``, ``grid``, ``dim``, ``unitaries()`` and ``symbols(a)``."""

    @pytest.mark.parametrize("kind", FRAME_KINDS)
    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("hermitian", [True, False], ids=["hermitian", "general"])
    def test_symbols_are_the_frame_diagonals_of_the_unitaries(self, kind, n, hermitian, rng):
        frames = frame_set(kind, n, rng)
        a = random_hermitian(n, rng) + (0.0 if hermitian else 1j * random_hermitian(n, rng))
        table = frames.symbols(a)
        assert table.shape == (n, len(frames)) and table.dtype == complex
        assert np.max(np.abs(table - frame_diagonals(a, frames.unitaries()).T)) <= 1e-13

    @pytest.mark.parametrize("jt", range(17))
    @pytest.mark.parametrize("on_grid", [True, False], ids=["grid", "off_grid"])
    def test_spin_unitaries_are_the_adjoint_rotations(self, jt, on_grid, rng):
        j = HalfInt(jt)
        frames = grid_frames(j, make_grid(j)) if on_grid else random_frames(j, 12, rng)
        assert (frames.grid is not None) == on_grid
        us = frames.unitaries()
        assert us.shape == (len(frames), jt + 1, jt + 1)
        for u, beta, gamma in zip(us, frames.betas, frames.gammas):
            assert np.max(np.abs(u - rotation_matrix(j, 0.0, beta, gamma).conj().T)) <= 1e-15

    def test_unitary_frames_hand_out_their_stack(self):
        frames = UnitaryFrames.of(list(zip(haar_unitaries(2, 4, 1), haar_unitaries(3, 4, 2))), 6)
        assert frames.unitaries() is frames.stack

    def test_interface_values(self, rng, tmp_path):
        grid = make_grid(1.5)
        spin_sets = [grid_frames(1.5, grid), SpinFrames(1.5, *grid.node_angles()), random_frames(1.5, 5, rng)]
        for frames, want_grid in zip(spin_sets, [grid, grid, None]):
            assert (frames.kind, frames.j, frames.grid, frames.dim) == ("spin", HalfInt(3), want_grid, 4)
        unitary = UnitaryFrames.of(haar_unitaries(4, 3, 4), 4)
        assert (unitary.kind, unitary.j, unitary.grid, unitary.dim) == ("unitary", None, None, 4)
        rho = random_density(4, 4, seed=3)
        for t in (spin_tomogram(rho, spin_sets[0]), spin_tomogram(rho, spin_sets[2]), unitary_tomogram(rho, unitary)):
            path = tmp_path / "t.json"
            path.write_text(io.dumps(io.tomogram_to_obj(t)))
            read = io.tomogram_from_obj(io.read_json(str(path))).frames
            assert (read.kind, read.j, read.grid, read.dim) == (t.kind, t.j, t.frames.grid, t.frames.dim)

    @pytest.mark.parametrize("jt", [1, 3, 6, 16])
    def test_off_grid_spin_table_is_the_frame_diagonals_of_the_unitaries(self, jt, rng):
        frames = random_frames(HalfInt(jt), 30, rng)
        a = random_hermitian(jt + 1, rng) + 1j * random_hermitian(jt + 1, rng)
        assert frames.grid is None
        assert np.array_equal(spin_tomogram(a, frames).table, frame_diagonals(a, frames.unitaries()).T)

    @pytest.mark.parametrize("jt", [1, 3, 6])
    def test_unitary_tomogram_takes_a_spin_frame_set(self, jt, rng):
        # ``UnitaryFrames.of`` reads a frame set through its unitaries()
        frames = random_frames(HalfInt(jt), 9, rng)
        rho = random_density(jt + 1, jt + 1, seed=jt)
        t = unitary_tomogram(rho, frames)
        assert (t.kind, t.n_frames) == ("unitary", 9)
        assert np.array_equal(t.table, spin_tomogram(rho, frames).table)
        with pytest.raises(ValueError, match=rf"^frame shape \({jt + 1}, {jt + 1}\) does not match state dimension {jt + 2}$"):
            unitary_tomogram(random_density(jt + 2, 2, seed=1), frames)


def complete_frame_set(kind: str, n: int, times: int, rng) -> SpinFrames | UnitaryFrames:
    """A random n x n frame set of one of ``FRAME_KINDS`` with ``times`` the frames of the
    smallest generic complete set: 4j + 1 directions, d + 1 unitaries, or 3 (n/2 + 1)
    products over the factors (2, n/2); a grid is ``frame_set``'s default grid."""
    if kind == "grid":
        return frame_set(kind, n, rng)
    if kind == "off_grid":
        count = times * (2 * n - 1)
        return SpinFrames(HalfInt(n - 1), np.arccos(rng.uniform(-1, 1, count)), rng.uniform(0, 2 * np.pi, count))
    if kind == "unitary":
        return UnitaryFrames(haar_unitaries(n, times * (n + 1), rng))
    count = times * 3 * (n // 2 + 1)
    return UnitaryFrames.of(list(zip(haar_unitaries(2, count, rng), haar_unitaries(n // 2, count, rng))), n)


class TestFrameSetInverse:
    """Both frame sets answer ``inverse(table)``, the linear map back from ``symbols(a)`` to a."""

    @settings(max_examples=80, deadline=None)
    @given(
        kind=st.sampled_from(FRAME_KINDS),
        size=st.integers(1, 17),
        times=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_inverse_returns_the_operator_of_its_symbols(self, kind, size, times, seed):
        # 2j <= 16 on spin sets, d <= 8 on unitary sets and n = 2 .. 8 on products over (2, n/2);
        # minimal sets lose up to eps cond(A), so they get 1e-11 and every other set 1e-12
        n = {"grid": size, "off_grid": size, "unitary": (size - 1) % 8 + 1, "product": 2 * ((size - 1) % 4 + 1)}[kind]
        rng = np.random.default_rng(seed)
        frames = complete_frame_set(kind, n, times, rng)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        back = frames.inverse(frames.symbols(a))
        bound = 1e-12 if kind == "grid" or times == 2 else 1e-11
        assert np.linalg.norm(back - a, 2) <= bound * np.linalg.norm(a, 2)

    @pytest.mark.parametrize("kind", FRAME_KINDS)
    def test_a_real_table_gives_a_hermitian_operator(self, kind, rng):
        frames = frame_set(kind, 4, rng)
        a = random_hermitian(4, rng)
        back = frames.inverse(frames.symbols(a).real)
        assert np.array_equal(back, back.conj().T)
        assert np.max(np.abs(back - a)) <= 1e-12

    @pytest.mark.parametrize("jt", [2, 4, 8])
    def test_an_aliasing_grid_is_refused_as_incomplete_not_synthesized(self, jt, rng):
        # below oversample 1 the grid is exact to a degree below 2j: its synthesis aliases, and its
        # nodes resolve too few multipoles, so the inverse refuses as the state estimate does
        grid = make_grid(jt / 2, oversample=0.7)
        frames = grid_frames(jt / 2, grid)
        assert frames.grid == grid and grid.exactness_degree < jt
        t = spin_tomogram(random_density(jt + 1, jt + 1, seed=jt), frames)
        with pytest.raises(InformationallyIncompleteError, match=rf"; a generic set of 4j \+ 1 = {2 * jt + 1} directions"):
            frames.inverse(t.table)
        with pytest.raises(InformationallyIncompleteError):
            reconstruct_from_unitary_frame(t)

    @pytest.mark.parametrize("kind", FRAME_KINDS)
    @pytest.mark.parametrize("shape", ["more_frames", "more_outcomes", "flat", "stacked"])
    def test_a_table_of_another_shape_is_refused(self, kind, shape, rng):
        frames = frame_set(kind, 4, rng)
        table = frames.symbols(random_hermitian(4, rng))
        table = {
            "more_frames": np.concatenate([table, table[:, :1]], axis=1),
            "more_outcomes": np.concatenate([table, table[:1]]),
            "flat": table.reshape(-1),
            "stacked": table[..., None],
        }[shape]
        with pytest.raises(ValueError, match=r"table shape \("):
            frames.inverse(table)


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

    @pytest.mark.parametrize("keep", [(), 2, (0, -1), (0.5,), True])
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
            ([np.eye(4)], np.full((4, 1), 0.25), (-2, -2), "must each be at least 1"),
            ([np.eye(4)], np.full((4, 1), 0.25), (2.5, 2), "dims must be integers, got 2.5"),
            ([np.eye(2)], np.full((2, 1), 0.5), 2, "dims must be a sequence of integers, got 2"),
            (grid_frames(0.5, make_grid(0.5)), np.full((2, 15), 0.5), (2,), "unitary tomograms only"),
            ([np.eye(2)], np.full(2, 0.5), None, "must be 2-d"),
        ],
    )
    def test_labels_cannot_disagree_with_the_frames(self, frames, table, dims, message):
        with pytest.raises(ValueError, match=message):
            Tomogram(frames=frames, table=table, dims=dims)


class TestRefusals:
    """Refusals that no other test reaches, each through its public entry point."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: SpinFrames(1, [0.1, 0.2], [0.3]), "frame angle arrays must be 1-d and of equal length"),
            (lambda: SpinFrames(1, [0.1, np.nan], [0.3, 0.4]),
             "frame angles must be finite numbers (found NaN or infinity)"),
            (lambda: SpinFrames(1, [], []), "at least one frame is required"),
            (lambda: unitary_tomogram(np.eye(2) / 2, [np.eye(2)]), "unitary_tomogram expects a DensityMatrix"),
            (lambda: tomogram_marginal(spin_tomogram(maximally_mixed((2,)), grid_frames(0.5, make_grid(0.5))), [0]),
             "marginals are defined for unitary tomograms"),
        ],
        ids=["unpaired_angles", "non_finite_angles", "no_frames", "not_a_state", "spin_marginal"],
    )
    def test_refusal_message(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()
