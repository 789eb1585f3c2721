import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    full_table_analyze,
    full_table_synthesize,
    operator_stacks,
    quantizer_series,
    random_hermitian,
)
from spintomo import io, symbols
from spintomo.channels import KrausChannel, apply_kraus, channel_propagator, kraus_to_superoperator
from spintomo.errors import LIMITS
from spintomo.halfint import HalfInt, spin_range
from spintomo.linalg import haar_unitaries, random_density
from spintomo.quadrature import GROUP_VOLUME, QuadratureGrid, _product_grid, make_grid, node_counts
from spintomo.reconstruction import reconstruct_operator
from spintomo.star import star_compose, star_grid, symbol_trace, trace_power, trace_product
from spintomo.su2 import clebsch_gordan, rotation_matrix
from spintomo.symbols import (
    EulerAngles,
    QuantizerPair,
    SpinFrames,
    SpinTransform,
    Tomogram,
    _coupled_m0_block,
    _identity_quantizer,
    _transform_bytes,
    dequantizer_U,
    grid_frames,
    quantizer_D,
    spin_tomogram,
)

SPINS = [0.5, 1, 1.5, 3, 5, 8]


def random_operator(n, rng):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class TestTransformPair:
    @pytest.mark.parametrize(
        "grid_of",
        [make_grid, lambda j: make_grid(j, oversample=1.5)],
        ids=["make_grid", "oversampled"],
    )
    @pytest.mark.parametrize("j", SPINS)
    def test_synthesize_inverts_analyze(self, j, grid_of, rng):
        transform = SpinTransform.on_grid(j, grid_of(j))
        n = HalfInt.of(j).twice + 1
        for _ in range(3):
            a = random_operator(n, rng)
            assert np.max(np.abs(transform.synthesize(transform.analyze(a)) - a)) < 1e-12

    @pytest.mark.parametrize("j", [0.5, 1.5, 3])
    def test_analyze_equals_trace_against_dequantizers(self, j, rng):
        betas, gammas = rng.uniform(0, np.pi, 5), rng.uniform(0, 2 * np.pi, 5)
        a = random_operator(HalfInt.of(j).twice + 1, rng)
        w = spin_tomogram(a, SpinFrames(j, betas, gammas)).table
        for x, (b, g) in enumerate(zip(betas, gammas)):
            for i, m in enumerate(spin_range(j)):
                want = np.trace(a @ dequantizer_U(j, m, EulerAngles(0.0, b, g)))
                assert abs(w[i, x] - want) < 1e-12

    def test_grid_transform_memoized(self):
        grid = make_grid(1.5)
        assert SpinTransform.on_grid(1.5, grid) is SpinTransform.on_grid(1.5, grid)


class TestCovariantQuantizer:
    @pytest.mark.parametrize("j", [0, 0.5, 1, 1.5, 2, 3])
    def test_matches_tensor_series(self, j, rng):
        angles = [
            EulerAngles(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
            for _ in range(4)
        ]
        us, ds = operator_stacks(j, [e.beta for e in angles], [e.gamma for e in angles])
        ms = spin_range(j)
        for i, m in enumerate(ms):
            for x, omega in enumerate(angles):
                label = i * len(angles) + x
                series = quantizer_series(j, m, omega)
                assert np.max(np.abs(ds[label] - series)) < 1e-13
                assert np.max(np.abs(quantizer_D(j, m, omega) - series)) < 1e-13
                assert np.max(np.abs(us[label] - dequantizer_U(j, m, omega))) < 1e-13

    @pytest.mark.parametrize("jt", [1, 6, 17, 40])
    def test_unit_table_synthesizes_to_quantizer(self, jt, rng):
        # synthesize(e_{m,x}) = W_x D(m, x): the transform against the covariant
        # quantizer at large j, where the tensor series is no oracle
        j = HalfInt(jt)
        grid = make_grid(j)
        transform = SpinTransform.on_grid(j, grid)
        betas, gammas = grid.node_angles()
        for k, x in zip(rng.integers(0, jt + 1, 3), rng.integers(0, grid.n_nodes, 3)):
            unit = np.zeros((jt + 1, grid.n_nodes))
            unit[k, x] = 1.0
            want = quantizer_D(j, spin_range(j)[k], EulerAngles(0.0, betas[x], gammas[x]))
            got = transform.synthesize(unit) / transform.weights[x]
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestCallersOnTheTransform:
    def test_star_compose_is_product_symbol_at_j8(self, rng):
        grid = star_grid(8)
        frames = grid_frames(8, grid)
        a, b = random_hermitian(17, rng), random_hermitian(17, rng)
        composed = star_compose(spin_tomogram(a, frames), spin_tomogram(b, frames), 8, grid)
        direct = SpinTransform.on_grid(8, grid).analyze(a @ b)
        assert np.max(np.abs(composed.table - direct)) < 1e-10
        assert abs(symbol_trace(composed, 8, grid) - np.trace(a @ b)) < 1e-10

    def test_channel_propagator_at_j3(self):
        grid = make_grid(3)
        frames = grid_frames(3, grid)
        ops = haar_unitaries(14, 1, 7)[0][:, :7].reshape(2, 7, 7)
        channel = KrausChannel(list(ops))
        pi = channel_propagator(channel, 3, grid)
        rho = random_density(7, 7, seed=21)
        w_in = spin_tomogram(rho, frames).table.reshape(-1).real
        w_out = spin_tomogram(apply_kraus(channel, rho), frames).table.reshape(-1).real
        assert np.max(np.abs(pi @ w_in - w_out)) < 1e-10


class TestMinimalGrid:
    """The default grid is the smallest product rule on which spin-j symbols are exact."""

    def test_node_counts_and_degree(self):
        for jt in range(121):
            grid = make_grid(HalfInt(jt))
            assert (grid.n_beta, grid.n_gamma, grid.exactness_degree) == (jt + 1, 2 * jt + 1, jt)

    @pytest.mark.parametrize("j", [10**400, HalfInt(10**400), 1e308], ids=["int", "halfint", "float"])
    def test_a_spin_past_the_double_range_is_refused(self, j):
        # 2j + 1 has no float, so its count is infinite: a ValueError, not an OverflowError
        with pytest.raises(ValueError, match="^oversample 1.0 gives a node count beyond any array at j = "):
            node_counts(j)

    def test_an_integer_oversample_past_the_double_range_is_refused(self):
        with pytest.raises(ValueError, match=f"^oversample {10**400} gives a node count beyond any array at j = 1$"):
            node_counts(1, 10**400)

    @settings(max_examples=25, deadline=None)
    @given(jt=st.integers(min_value=0, max_value=40), seed=st.integers(min_value=0, max_value=2**31))
    def test_round_trip_is_exact(self, jt, seed):
        # against the operator norm: at 2j = 40 the worst entry error seen was
        # 2.1e-14 of the norm but 9.9e-14 of max|A| (it sits on the k = 0 diagonal)
        j = HalfInt(jt)
        transform = SpinTransform.on_grid(j, make_grid(j))
        a = random_operator(jt + 1, np.random.default_rng(seed))
        err = np.max(np.abs(transform.synthesize(transform.analyze(a)) - a))
        assert err <= 1e-13 * np.linalg.norm(a, 2)

    @pytest.mark.parametrize("jt", [1, 2, 3, 6, 16, 40])
    def test_one_node_fewer_aliases(self, jt, rng):
        j = HalfInt(jt)
        a = random_operator(jt + 1, rng)
        for grid in (_product_grid(jt + 1, 2 * jt), _product_grid(jt, 2 * jt + 1)):
            transform = SpinTransform.on_grid(j, grid)
            assert np.max(np.abs(transform.synthesize(transform.analyze(a)) - a)) > 0.05 * np.max(np.abs(a))

    @pytest.mark.parametrize("jt", range(17))
    def test_star_products_on_star_grid(self, jt, rng):
        j, n = HalfInt(jt), jt + 1
        grid = star_grid(j)
        frames = grid_frames(j, grid)
        a, b = random_hermitian(n, rng), random_hermitian(n, rng)
        composed = star_compose(spin_tomogram(a, frames), spin_tomogram(b, frames), j, grid)
        assert np.max(np.abs(composed.table - spin_tomogram(a @ b, frames).table)) <= 1e-12
        rho = random_density(n, n, seed=jt)
        cube = trace_power(spin_tomogram(rho, frames), 3, grid)
        assert abs(cube - np.trace(rho.mat @ rho.mat @ rho.mat).real) <= 1e-12

    @pytest.mark.parametrize("jt", range(7))
    def test_channel_propagator_on_default_grid(self, jt):
        j, n = HalfInt(jt), jt + 1
        grid = make_grid(j)
        frames = grid_frames(j, grid)
        channel = random_kraus_channel(n, 60 + jt)
        rho = random_density(n, n, seed=jt)
        w_in = spin_tomogram(rho, frames).table.reshape(-1).real
        w_out = spin_tomogram(apply_kraus(channel, rho), frames).table.reshape(-1).real
        assert np.max(np.abs(channel_propagator(channel, j, grid) @ w_in - w_out)) <= 1e-12


def oracle_analyze(j, betas, gammas, a):
    """w[m, x] = (R_x A R_x^dag)_{mm} with one rotation matrix per frame."""
    cols = [np.diag(r @ a @ r.conj().T) for r in (rotation_matrix(j, 0.0, b, g) for b, g in zip(betas, gammas))]
    return np.array(cols).T


def oracle_synthesize(j, betas, gammas, weights, w):
    """sum_x W_x R_x^dag diag(Q w[:, x]) R_x with one rotation matrix per frame."""
    c = _identity_quantizer(HalfInt.of(j).twice) @ w
    out = 0.0
    for x, (b, g) in enumerate(zip(betas, gammas)):
        r = rotation_matrix(j, 0.0, b, g)
        out = out + weights[x] * (r.conj().T * c[:, x]) @ r
    return out


def random_kraus_channel(n, seed):
    return KrausChannel(list(haar_unitaries(2 * n, 1, seed)[0][:, :n].reshape(2, n, n)))


class TestBetaFactoredTransform:
    @settings(max_examples=40, deadline=None)
    @given(
        jt=st.integers(min_value=0, max_value=12),
        n_frames=st.integers(min_value=1, max_value=8),
        shared_betas=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_frame_lists_match_per_frame_oracle(self, jt, n_frames, shared_betas, seed):
        # shared_betas draws from two beta values, so frames share d-matrices
        # without forming a beta-major product
        rng = np.random.default_rng(seed)
        j = HalfInt(jt)
        n = jt + 1
        betas = rng.uniform(0, np.pi, 2 if shared_betas else n_frames)
        betas = rng.choice(betas, n_frames) if shared_betas else betas
        gammas = rng.uniform(0, 2 * np.pi, n_frames)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        w = spin_tomogram(a, SpinFrames(j, betas, gammas)).table
        assert np.max(np.abs(w - oracle_analyze(j, betas, gammas, a))) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(
        jt=st.integers(min_value=0, max_value=40),
        oversample=st.sampled_from([0.5, 1.0, 1.5, 2.0]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_grids_match_per_frame_oracle(self, jt, oversample, seed):
        # the oracle sums over a few frames, so synthesis is checked on a
        # symbol table that vanishes elsewhere (the map is linear)
        rng = np.random.default_rng(seed)
        j = HalfInt(jt)
        n = jt + 1
        grid = make_grid(j, oversample=oversample)
        transform = SpinTransform.on_grid(j, grid)
        picked = rng.choice(grid.n_nodes, min(5, grid.n_nodes), replace=False)
        betas, gammas = (angles[picked] for angles in grid.node_angles())
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        got = transform.analyze(a)[:, picked]
        assert np.max(np.abs(got - oracle_analyze(j, betas, gammas, a))) < 1e-12
        w = np.zeros((n, grid.n_nodes), dtype=complex)
        w[:, picked] = rng.standard_normal((n, picked.size)) + 1j * rng.standard_normal((n, picked.size))
        weights = grid.group_weights()[picked]
        want = oracle_synthesize(j, betas, gammas, weights, w[:, picked])
        assert np.max(np.abs(transform.synthesize(w) - want)) < 1e-12

    def test_analyze_takes_operator_stacks(self, rng):
        transform = SpinTransform.on_grid(1.5, make_grid(1.5))
        stack = rng.standard_normal((2, 3, 4, 4)) + 1j * rng.standard_normal((2, 3, 4, 4))
        tables = transform.analyze(stack)
        assert tables.shape == (2, 3, 4, make_grid(1.5).n_nodes)
        assert np.max(np.abs(tables[1, 2] - transform.analyze(stack[1, 2]))) < 1e-14

    def test_misshapen_operands_refused(self):
        transform = SpinTransform.on_grid(1, make_grid(1))
        for operand in (np.zeros((9, 1)), np.zeros((1, 9)), np.zeros(3)):
            with pytest.raises(ValueError, match=r"\(\.\.\., 3, 3\)"):
                transform.analyze(operand)
        for table in (np.zeros((3, 1)), np.zeros((1, 15)), np.zeros(45)):
            with pytest.raises(ValueError, match=r"\(3, 15\)"):
                transform.synthesize(table)

    def test_product_and_listed_frames_agree(self, rng):
        # the same grid nodes, once in beta-major order and once shuffled
        grid = make_grid(2)
        betas, gammas = grid.node_angles()
        order = rng.permutation(grid.n_nodes)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        product = spin_tomogram(a, grid_frames(2, grid)).table
        listed = spin_tomogram(a, SpinFrames(2, betas[order], gammas[order])).table
        assert np.max(np.abs(product[:, order] - listed)) < 1e-13

    @settings(max_examples=25, deadline=None)
    @given(jt=st.integers(min_value=0, max_value=40), seed=st.integers(min_value=0, max_value=2**31))
    def test_shuffled_grid_nodes_match_grid_path(self, jt, seed):
        # shuffled nodes carry no grid, so they run on frame_diagonals
        rng = np.random.default_rng(seed)
        j, grid = HalfInt(jt), make_grid(HalfInt(jt))
        betas, gammas = grid.node_angles()
        order = rng.permutation(grid.n_nodes)
        a = random_operator(jt + 1, rng)
        a /= np.linalg.norm(a, 2)
        on_grid = spin_tomogram(a, grid_frames(j, grid)).table
        listed = spin_tomogram(a, SpinFrames(j, betas[order], gammas[order])).table
        assert np.max(np.abs(on_grid[:, order] - listed)) <= 1e-13

    @pytest.mark.memory
    def test_off_grid_tomogram_memory(self):
        # one (2j+1)^2 rotation per frame: about 19 MB traced; a d_ma d_mb table
        # per distinct beta, F n^3 doubles, would take 58 MB
        rng = np.random.default_rng(0)
        frames = SpinFrames(8, rng.uniform(0, np.pi, 1000), rng.uniform(0, 2 * np.pi, 1000))
        rho = random_density(17, 17, seed=1)
        tracemalloc.start()
        try:
            spin_tomogram(rho, frames)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30e6

    @pytest.mark.memory
    def test_build_memory_at_j20(self):
        # the 12 MB table is filled in place: no gathered d-stack copies of its size
        tracemalloc.start()
        try:
            transform = SpinTransform(20, make_grid(20))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * transform.nbytes

    @pytest.mark.memory
    def test_synthesis_memory_at_j20(self, rng):
        # beside the 12 MB table: (n(n+1)/2, n_gamma) sums, about 2 MB traced;
        # a (n_beta n, n^2) gather of the diagonal sums would take 50 MB
        transform = SpinTransform(20, make_grid(20))
        w = transform.analyze(random_operator(41, rng))
        tracemalloc.start()
        try:
            transform.synthesize(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 15e6


def operator_of_kind(kind, n, rng):
    """A random operator, or a (2, 3, n, n) stack of them, of the given symmetry."""
    g = rng.standard_normal((2, 3, n, n)) + 1j * rng.standard_normal((2, 3, n, n))
    if kind == "stack":
        return g
    g = g[0, 0]
    return {"hermitian": g + g.conj().T, "anti-hermitian": g - g.conj().T, "general": g}[kind]


class TestHalfTable:
    """The transform over the pairs a <= b against the full-table transform."""

    def test_table_has_one_column_per_pair(self):
        transform = SpinTransform(8, make_grid(8))
        assert transform._table.shape == (17 * 17, 17 * 18 // 2)
        assert transform._cos.shape == transform._sin.shape == (17 * 18 // 2, 33)
        # no (n^2, n_gamma) array is kept
        arrays = [array for array in vars(transform).values() if isinstance(array, np.ndarray)]
        assert not any(array.shape == (17 * 17, 33) for array in arrays)

    @pytest.mark.parametrize("jt", [1, 4, 16])
    @pytest.mark.parametrize("oversample", [1.0, 1.5])
    def test_transform_bytes_are_those_of_the_built_tables(self, jt, oversample):
        grid = make_grid(HalfInt(jt), oversample)
        transform = SpinTransform(HalfInt(jt), grid)
        built = transform._table.nbytes + transform._cos.nbytes + transform._sin.nbytes
        assert _transform_bytes(jt + 1, grid.n_beta, grid.n_gamma) == built

    def test_transform_past_the_byte_budget_is_refused_before_its_d_stack(self, monkeypatch):
        # at 2j = 130 on the default grid the tables take 1.22 GB
        def builds(*args):
            raise AssertionError("built the d-matrix stack of a transform past the byte budget")

        monkeypatch.setattr(symbols, "wigner_d_stack", builds)
        j = HalfInt(130)
        grid = make_grid(j)
        message = (
            r"^the spin transform at j = 65 on QuadratureGrid\(n_beta=131, n_gamma=261\) "
            r"would allocate about 1.22 GB, above the budget of 1.07 GB$"
        )
        with pytest.raises(ValueError, match=message):
            SpinTransform.on_grid(j, grid)
        with pytest.raises(ValueError, match=message):
            spin_tomogram(np.eye(131) / 131, grid_frames(j, grid))
        assert (130, 131, 261) not in symbols._TRANSFORMS

    @settings(max_examples=40, deadline=None)
    @given(
        jt=st.integers(min_value=0, max_value=40),
        kind=st.sampled_from(["hermitian", "anti-hermitian", "general", "stack"]),
        oversample=st.sampled_from([1.0, 1.5]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_analyze_matches_full_table(self, jt, kind, oversample, seed):
        j, grid = HalfInt(jt), make_grid(HalfInt(jt), oversample)
        a = operator_of_kind(kind, jt + 1, np.random.default_rng(seed))
        got = SpinTransform.on_grid(j, grid).analyze(a)
        bound = 1e-14 * max(1.0, np.max(np.linalg.norm(a, 2, axis=(-2, -1))))
        assert np.max(np.abs(got - full_table_analyze(j, grid, a))) <= bound

    @settings(max_examples=40, deadline=None)
    @given(
        jt=st.integers(min_value=0, max_value=40),
        kind=st.sampled_from(["real", "real as complex", "complex"]),
        oversample=st.sampled_from([1.0, 1.5]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_synthesize_matches_full_table(self, jt, kind, oversample, seed):
        # real tables are symbols of Hermitian operators, complex ones of general operators
        j, grid = HalfInt(jt), make_grid(HalfInt(jt), oversample)
        transform = SpinTransform.on_grid(j, grid)
        a = operator_of_kind("general" if kind == "complex" else "hermitian", jt + 1, np.random.default_rng(seed))
        w = full_table_analyze(j, grid, a)
        w = w if kind == "complex" else w.real if kind == "real" else w.real.astype(complex)
        bound = 1e-14 * max(1.0, np.linalg.norm(a, 2))
        assert np.max(np.abs(transform.synthesize(w) - full_table_synthesize(j, grid, w))) <= bound

    @pytest.mark.parametrize("jt", [0, 1, 2, 5, 16, 40])
    def test_hermitian_tables_are_exactly_real(self, jt, rng):
        transform = SpinTransform.on_grid(HalfInt(jt), make_grid(HalfInt(jt)))
        h = random_hermitian(jt + 1, rng)
        assert np.all(transform.analyze(h).imag == 0)
        stack = np.stack([h, random_hermitian(jt + 1, rng)])
        assert np.all(transform.analyze(stack).imag == 0)
        rho = random_density(jt + 1, jt + 1, seed=jt)
        assert np.all(spin_tomogram(rho, grid_frames(HalfInt(jt), make_grid(HalfInt(jt)))).table.imag == 0)

    @pytest.mark.parametrize("jt", [0, 1, 2, 5, 16, 40])
    def test_real_tables_give_exactly_hermitian_operators(self, jt, rng):
        grid = make_grid(HalfInt(jt))
        transform = SpinTransform.on_grid(HalfInt(jt), grid)
        w = rng.standard_normal((jt + 1, grid.n_nodes))
        op = transform.synthesize(w)
        assert np.array_equal(op, op.conj().T)
        assert np.array_equal(transform.synthesize(w.astype(complex)), op)

    @pytest.mark.parametrize("jt", [1, 3, 6, 16])
    def test_shared_synthesis_is_bit_identical(self, jt):
        j = HalfInt(jt)
        grid = star_grid(j)
        transform = SpinTransform.on_grid(j, grid)
        t = spin_tomogram(random_density(jt + 1, jt + 1, seed=jt), grid_frames(j, grid))
        square = transform.analyze(transform.synthesize(t.table) @ transform.synthesize(t.table))
        assert np.array_equal(star_compose(t, t, j, grid).table, square)
        # current is the symbol of rho^power, previous that of rho^(power - 1)
        previous, current = None, t
        for power in range(1, 5):
            got = trace_power(t, power, grid)
            if previous is None:
                assert got == symbol_trace(t, j, grid).real
            else:
                assert got == trace_product(previous, t, j, grid).real
            # the composed route: trace of the (power - 1)-fold star product
            assert abs(got - symbol_trace(current, j, grid).real) <= 1e-13
            product = transform.synthesize(current.table) @ transform.synthesize(t.table)
            previous, current = current, Tomogram(t.frames, transform.analyze(product))


class TestRealPropagator:
    @pytest.mark.parametrize(
        "grid_of",
        [make_grid, lambda j: make_grid(j, oversample=1.5)],
        ids=["make_grid", "oversampled"],
    )
    @pytest.mark.parametrize("jt", range(7))
    def test_equals_complex_stack_product(self, jt, grid_of):
        j = HalfInt(jt)
        grid = grid_of(j)
        channel = random_kraus_channel(jt + 1, 40 + jt)
        labels = QuantizerPair.spin(j, grid).size
        us, ds = operator_stacks(j, *grid.node_angles())
        analysis = us.transpose(0, 2, 1).reshape(labels, -1)
        synthesis = ds.reshape(labels, -1).T
        # labels (m, node), m-major: the node weights once per m
        weights = np.tile(grid.group_weights(), jt + 1)
        old = (analysis @ kraus_to_superoperator(channel) @ synthesis).real * weights
        pi = channel_propagator(channel, j, grid)
        assert pi.dtype == np.float64
        assert np.max(np.abs(pi - old)) < 1e-13

    @pytest.mark.parametrize("jt", range(5))
    def test_basis_maps_equal_the_reference_operators(self, jt):
        # oracle: traces against the reference dequantizers and quantizers, one
        # rotation matrix per node; labels (m, node), m-major
        j, n = HalfInt(jt), jt + 1
        grid = make_grid(j)
        basis, analysis, synthesis = SpinTransform(j, grid).basis_maps()
        nodes = [EulerAngles(0.0, b, g) for b, g in zip(*grid.node_angles())]
        us = np.array([[dequantizer_U(j, m, node) for node in nodes] for m in spin_range(j)])
        ds = np.array([[quantizer_D(j, m, node) for node in nodes] for m in spin_range(j)])
        want_analysis = np.einsum("mxab,kba->kmx", us, basis).reshape(n * n, -1)
        want_synthesis = (np.einsum("kab,mxba->kmx", basis, ds) * grid.group_weights()).reshape(n * n, -1)
        assert np.max(np.abs(analysis - want_analysis)) <= 1e-14
        assert np.max(np.abs(synthesis - want_synthesis)) <= 1e-14

    @pytest.mark.parametrize("jt", range(7))
    def test_basis_maps_are_the_transform_of_the_basis(self, jt):
        # bit for bit: A is the exactly real analyze(H) of the orthonormal basis,
        # and S its quantizer image Q^T A with the node weights
        j, n = HalfInt(jt), jt + 1
        grid = make_grid(j)
        transform = SpinTransform(j, grid)
        basis, analysis, synthesis = transform.basis_maps()
        assert np.allclose(np.einsum("kab,lba->kl", basis, basis), np.eye(n * n), rtol=0, atol=1e-15)
        symbols_of_basis = transform.analyze(basis)
        assert not np.count_nonzero(symbols_of_basis.imag)
        assert np.array_equal(analysis, symbols_of_basis.real.reshape(n * n, -1))
        image = (_identity_quantizer(jt).T @ analysis.reshape(n * n, n, -1)) * grid.group_weights()
        assert np.array_equal(synthesis, image.reshape(n * n, -1))


@pytest.fixture
def empty_cache():
    """The process-wide transform cache, emptied before and after the test."""
    symbols._TRANSFORMS.clear()
    yield symbols._TRANSFORMS
    symbols._TRANSFORMS.clear()


def hollow_init(self, j, grid):
    """A transform's arrays at their real shapes, one stored element each (sizes, no values)."""
    self.j = HalfInt.of(j)
    n = self.j.twice + 1
    self.weights = grid.group_weights()
    pairs = n * (n + 1) // 2
    self._table = np.broadcast_to(0.0, (grid.n_beta * n, pairs))
    self._cos = self._sin = np.broadcast_to(0.0, (pairs, grid.n_gamma))
    self._basis_maps = None


class TestTransformCache:
    def test_cache_shares_one_transform_among_equal_grids(self, empty_cache):
        first = SpinTransform.on_grid(3, make_grid(3))
        assert SpinTransform.on_grid(3, make_grid(3)) is first
        assert SpinTransform.on_grid(3, make_grid(3, 1.5)) is not first
        assert SpinTransform.on_grid(2.5, make_grid(3)) is not first
        assert len(empty_cache) == 3
        assert empty_cache.nbytes == sum(t.nbytes for t in empty_cache.values())

    def test_equal_counts_give_equal_grids_and_one_transform(self, rng):
        # a grid's nodes cannot change in place; a grid built apart from the
        # same two counts is another object, equal to it, with the same transform
        j = HalfInt.of(3)
        grid = make_grid(j)
        with pytest.raises(ValueError, match="read-only"):
            grid.beta_nodes[:] = grid.beta_nodes[::-1]
        fresh = QuadratureGrid(grid.n_beta, grid.n_gamma)
        assert fresh is not grid and fresh == grid and hash(fresh) == hash(grid)
        assert fresh != make_grid(j, 1.5)
        for name in ("beta_nodes", "beta_weights", "gamma_nodes"):
            assert np.array_equal(getattr(fresh, name), getattr(grid, name))
        assert SpinTransform.on_grid(j, fresh) is SpinTransform.on_grid(j, grid)
        a = random_operator(7, rng)
        got = spin_tomogram(a, grid_frames(j, fresh)).table
        assert np.array_equal(got, spin_tomogram(a, grid_frames(j, grid)).table)
        assert np.array_equal(got, spin_tomogram(a, SpinFrames(j, *fresh.node_angles())).table)

    def test_cache_stays_within_budget_over_a_sweep(self, empty_cache, monkeypatch):
        # up to 77 MB per transform at 2j = 64, counted and not allocated; the
        # first one past the 64 MiB budget is at 2j = 62
        monkeypatch.setattr(SpinTransform, "__init__", hollow_init)
        for jt in range(1, 65):
            latest = SpinTransform.on_grid(HalfInt(jt), make_grid(HalfInt(jt)))
            assert empty_cache.nbytes == sum(t.nbytes for t in empty_cache.values())
            assert empty_cache.nbytes <= symbols._CACHE_BUDGET + latest.nbytes
            assert next(reversed(empty_cache.values())) is latest
        assert latest.nbytes > symbols._CACHE_BUDGET and list(empty_cache.values()) == [latest]

    def test_cache_keeps_the_latest_transform_past_the_budget(self, empty_cache, monkeypatch):
        monkeypatch.setattr(symbols, "_CACHE_BUDGET", 0)
        grid = make_grid(2)
        transform = SpinTransform.on_grid(2, grid)
        assert SpinTransform.on_grid(2, grid) is transform
        other = SpinTransform.on_grid(1, make_grid(1))
        assert list(empty_cache.values()) == [other]
        assert empty_cache.nbytes == other.nbytes

    def test_cache_counts_basis_maps(self, empty_cache):
        grid = make_grid(1.5)
        transform = SpinTransform.on_grid(1.5, grid)
        before = empty_cache.nbytes
        channel_propagator(random_kraus_channel(4, 5), 1.5, grid)
        maps = transform.basis_maps()
        assert empty_cache.nbytes == before + sum(m.nbytes for m in maps) == transform.nbytes

    def test_cached_arrays_are_read_only(self):
        grid = make_grid(1)
        transform = SpinTransform.on_grid(1, grid)
        for array in (transform._table, transform._cos, transform._sin, transform.weights, *transform.basis_maps()):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0
        # and so are the grid's own numbers
        for array in (grid.beta_nodes, grid.beta_weights, grid.gamma_nodes):
            assert not array.flags.writeable


class TestGridFramesCache:
    """Grid frames hold their grid's own node angles, made once per grid object;
    ``make_grid`` hands out one grid object per pair of node counts."""

    def test_grid_frames_cache_shares_read_only_angles_among_equal_grids(self):
        grid = make_grid(2)
        fresh = QuadratureGrid(grid.n_beta, grid.n_gamma)
        frames, again = grid_frames(2, grid), grid_frames(2, fresh)
        # each call gives new frames that carry the caller's grid
        assert frames is not again and frames.grid is grid and again.grid is fresh
        assert again.grid == frames.grid
        betas, gammas = grid.node_angles()
        for made in (frames, again):
            assert np.array_equal(made.betas, betas) and np.array_equal(made.gammas, gammas)
            for angles in (made.betas, made.gammas):
                with pytest.raises(ValueError, match="read-only"):
                    angles[0] = 1.0
        # equal grids from make_grid are one object, with one set of arrays
        shared = grid_frames(2, make_grid(2))
        assert shared.betas is frames.betas and shared.gammas is frames.gammas

    def test_grid_frames_cache_builds_angles_once_per_grid_value(self):
        grid = make_grid(1.5)
        angles = grid.node_angles()
        assert grid.node_angles() is angles
        for j in (1.5, 1.5, 0.5):
            frames = grid_frames(j, make_grid(1.5))
            assert frames.j == HalfInt.of(j) and len(frames) == grid.n_nodes
            assert frames.betas is angles[0] and frames.gammas is angles[1]
        assert grid_frames(1.5, make_grid(1.5, 2.0)).betas is not angles[0]

    def test_grid_frames_cache_keeps_the_spin_check(self):
        with pytest.raises(ValueError, match="^spin j must be nonnegative$"):
            grid_frames(-1, make_grid(1))


class TestGridBackedFrames:
    def test_one_transform_per_grid(self, monkeypatch, empty_cache):
        built = []
        init = SpinTransform.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args[0])
            init(self, *args, **kwargs)

        monkeypatch.setattr(SpinTransform, "__init__", counting_init)
        j, grid = HalfInt(3), make_grid(1.5)
        w = spin_tomogram(random_density(4, 4, seed=3), grid_frames(j, grid))
        reconstruct_operator(w, j, grid)
        squared = star_compose(w, w, j, grid)
        symbol_trace(squared, j, grid)
        channel_propagator(random_kraus_channel(4, 5), j, grid)
        assert len(built) == 1
        assert squared.frames is w.frames

    @pytest.mark.parametrize(
        "name", ["beta_nodes", "beta_weights", "gamma_nodes", "alpha_factor", "n_beta", "n_gamma"]
    )
    def test_grid_fields_cannot_be_assigned(self, name):
        # frames made at a grid stay at its nodes
        grid, other = make_grid(1.5), getattr(make_grid(1.5, 2.0), name)
        with pytest.raises(AttributeError):
            setattr(grid, name, other)

    def test_frame_grid_cannot_be_assigned(self):
        # frames at the grid nodes carry the grid, however they were made
        grid = make_grid(1.5)
        frames, at_nodes = grid_frames(1.5, grid), SpinFrames(1.5, *grid.node_angles())
        for target in (frames, at_nodes):
            with pytest.raises(AttributeError):
                target.grid = make_grid(1.5, 2.0)
            assert target.grid == grid
            for angles in (target.betas, target.gammas):
                with pytest.raises(ValueError, match="read-only"):
                    angles[:] = angles[::-1]

    def test_grid_frames_are_arrays(self):
        grid = make_grid(1)
        frames = grid_frames(1, grid)
        betas, gammas = grid.node_angles()
        assert isinstance(frames, SpinFrames) and frames.grid is grid
        assert len(frames) == grid.n_nodes
        assert np.array_equal(frames.betas, betas) and np.array_equal(frames.gammas, gammas)
        assert not hasattr(frames, "alphas")

    def test_frames_take_their_grid_from_its_nodes(self, rng):
        # shuffled nodes handed a grid would run on its transform in node order
        grid = make_grid(1.5)
        betas, gammas = grid.node_angles()
        order = rng.permutation(grid.n_nodes)
        with pytest.raises(TypeError, match="grid"):
            SpinFrames(1.5, betas[order], gammas[order], grid=grid)
        assert SpinFrames(1.5, betas[order], gammas[order]).grid is None
        assert SpinFrames(1.5, betas, gammas).grid == grid

    @settings(max_examples=25, deadline=None)
    @given(
        jt=st.integers(min_value=0, max_value=40),
        n_beta=st.integers(min_value=1, max_value=30),
        n_gamma=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_grid_is_a_fact_of_the_angles(self, jt, n_beta, n_gamma, seed):
        rng = np.random.default_rng(seed)
        j, grid = HalfInt(jt), QuadratureGrid(n_beta, n_gamma)
        betas, gammas = (np.array(angles) for angles in grid.node_angles())
        at_nodes = SpinFrames(j, betas, gammas)
        a = random_operator(jt + 1, rng)
        t = spin_tomogram(a, at_nodes)
        read = io.tomogram_from_obj(json.loads(io.dumps(io.tomogram_to_obj(t)))).frames
        for frames in (at_nodes, read, grid_frames(j, grid)):
            assert frames.grid == grid
            assert np.array_equal(spin_tomogram(a, frames).table, t.table)
        # the frames keep their own copies of the caller's arrays
        betas[0], gammas[-1] = 2.0, 1.0
        assert np.array_equal(at_nodes.betas, grid.node_angles()[0]) and at_nodes.grid == grid
        assert np.array_equal(at_nodes.gammas, grid.node_angles()[1])
        betas, gammas = grid.node_angles()
        order = rng.permutation(grid.n_nodes)
        if grid.n_nodes > 1 and np.array_equal(order, np.arange(grid.n_nodes)):
            order = order[::-1]
        if grid.n_nodes > 1:
            assert SpinFrames(j, betas[order], gammas[order]).grid is None
        moved = rng.integers(grid.n_nodes)
        for shift in (np.arange(grid.n_nodes) == moved) * 1e-9, np.full(grid.n_nodes, 1e-9):
            assert SpinFrames(j, betas + shift, gammas).grid is None
            assert SpinFrames(j, betas, gammas + shift).grid is None
        kept = np.arange(grid.n_nodes) != moved
        if grid.n_nodes == 1:
            # dropping the 1 x 1 grid's only node leaves no frame
            with pytest.raises(ValueError, match="^at least one frame is required$"):
                SpinFrames(j, betas[kept], gammas[kept])
            return
        # dropping gamma = pi from the 1 x 2 grid leaves the 1 x 1 grid's one node (pi/2, 0)
        remainder = QuadratureGrid(1, 1) if (n_beta, n_gamma, moved) == (1, 2, 1) else None
        assert SpinFrames(j, betas[kept], gammas[kept]).grid == remainder

    @pytest.mark.parametrize("n", [2, 3, 50, 3000])
    def test_angle_lists_off_the_gauss_legendre_nodes_build_no_grid(self, monkeypatch, n):
        # distinct betas at one gamma read as n beta nodes; building that grid
        # would solve an n x n eigenproblem for angles that are no grid.  Interior
        # equispaced and midpoint betas lie inside Szego's bounds on the nodes.
        def builds(*counts):
            raise AssertionError(f"built a grid of {counts} nodes")

        monkeypatch.setattr(symbols, "_product_grid", builds)
        samplings = (
            np.linspace(np.pi, 0.0, n),
            np.linspace(0.0, np.pi, n),
            np.linspace(np.pi, 0.0, n + 2)[1:-1],
            (np.arange(n)[::-1] + 0.5) * np.pi / n,
        )
        for betas in samplings:
            assert SpinFrames(2, betas, np.zeros(n)).grid is None

    def test_grid_nodes_past_the_byte_budget_build_no_grid(self, monkeypatch):
        # the companion matrix of 30 beta nodes takes 7200 bytes
        grid = QuadratureGrid(30, 3)
        monkeypatch.setitem(LIMITS, "bytes", 7199)
        monkeypatch.setattr(symbols, "_product_grid", None)
        assert SpinFrames(2, *grid.node_angles()).grid is None

    def test_negative_spin_refused(self):
        with pytest.raises(ValueError, match="spin j must be nonnegative"):
            SpinFrames(-1, [0.1], [0.2])

    @pytest.mark.parametrize("frames", [[], [(0.0, 1.0, 2.0)], [np.eye(3)], (1.0, 2.0)])
    def test_only_frame_sets_are_spin_frames(self, frames):
        with pytest.raises(ValueError, match="SpinFrames set"):
            spin_tomogram(np.eye(3) / 3, frames)

    @pytest.mark.parametrize("j", [0.5, 3, 8])
    def test_serialized_frames_keep_their_bytes(self, j):
        # angle text as written from one Python float per grid node and angle
        grid = make_grid(j)
        j = HalfInt.of(j)
        t = spin_tomogram(np.eye(j.twice + 1) / (j.twice + 1), grid_frames(j, grid))
        obj = io.tomogram_to_obj(t)
        per_node = [{"alpha": 0.0, "beta": float(b), "gamma": float(g)} for b, g in zip(*grid.node_angles())]
        assert io.dumps(obj["frames"]) == io.dumps(per_node)
        assert io.dumps(io.tomogram_to_obj(io.tomogram_from_obj(obj))) == io.dumps(obj)


def cg_identity_quantizer(jt):
    """Q[m', m] from the Clebsch-Gordan tensor series (the pre-eigh construction)."""
    j = HalfInt(jt)
    ms = spin_range(j)
    ls = [HalfInt(lt) for lt in range(0, 2 * jt + 1, 2)]
    cg = np.array([[clebsch_gordan(j, m, j, -m, L, 0) for m in ms] for L in ls])
    sign = np.array([(-1.0) ** ((jt - m.twice) // 2) for m in ms])
    scale = np.array([(L.twice + 1) / GROUP_VOLUME for L in ls])
    return np.outer(sign, sign) * ((cg * scale[:, None]).T @ cg)


class TestIdentityQuantizer:
    @pytest.mark.parametrize("jt", range(17))
    def test_equals_clebsch_gordan_series(self, jt):
        assert np.max(np.abs(_identity_quantizer(jt) - cg_identity_quantizer(jt))) <= 1e-14

    @pytest.mark.parametrize("jt", [0, 1, 2, 7, 16, 31, 60, 81, 120])
    def test_block_eigenvalues_are_l_l_plus_1(self, jt):
        block = _coupled_m0_block(jt)
        assert np.array_equal(block, block.T)
        ls = np.arange(jt + 1)
        # relative to the largest eigenvalue 2j(2j+1)
        assert np.max(np.abs(np.linalg.eigvalsh(block) - ls * (ls + 1))) <= 1e-14 * max(jt * (jt + 1), 1)

    def test_read_only(self):
        with pytest.raises(ValueError):
            _identity_quantizer(4)[0, 0] = 1.0

    def test_columns_sum_to_the_inverse_group_volume(self):
        # Tr D(m, e) = sum_m' Q[m', m] = 1/(8 pi^2), which symbol_trace relies on
        for jt in range(121):
            assert np.max(np.abs(_identity_quantizer(jt).sum(axis=0) * GROUP_VOLUME - 1.0)) <= 1e-12
