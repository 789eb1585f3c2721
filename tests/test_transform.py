import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import operator_stacks, quantizer_series, random_hermitian
from spintomo import io
from spintomo.channels import KrausChannel, apply_kraus, channel_propagator, kraus_to_superoperator
from spintomo.halfint import HalfInt, spin_range
from spintomo.linalg import haar_unitaries, random_density
from spintomo.quadrature import GROUP_VOLUME, _product_grid, make_grid
from spintomo.reconstruction import reconstruct_operator
from spintomo.star import star_compose, star_grid, symbol_trace, trace_power
from spintomo.su2 import clebsch_gordan, rotation_matrix
from spintomo.symbols import (
    EulerAngles,
    QuantizerPair,
    SpinFrames,
    SpinTransform,
    _coupled_m0_block,
    _identity_quantizer,
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

    def test_synthesis_memory_at_j20(self, rng):
        # beside the 23 MB table: (n^2, n_gamma) sums, about 7 MB traced; a
        # (n_beta n, n^2) gather of the diagonal sums would take 50 MB
        transform = SpinTransform(20, make_grid(20))
        w = transform.analyze(random_operator(41, rng))
        tracemalloc.start()
        try:
            transform.synthesize(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 15e6


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
        pair = QuantizerPair.spin(j, grid)
        labels = len(pair.labels)
        us, ds = operator_stacks(j, *grid.node_angles())
        analysis = us.transpose(0, 2, 1).reshape(labels, -1)
        synthesis = ds.reshape(labels, -1).T
        old = (analysis @ kraus_to_superoperator(channel).mat @ synthesis).real * pair.weights
        pi = channel_propagator(channel, j, grid)
        assert pi.dtype == np.float64
        assert np.max(np.abs(pi - old)) < 1e-13


class TestGridBackedFrames:
    def test_one_transform_per_grid(self, monkeypatch):
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

    def test_grid_frames_are_arrays(self):
        grid = make_grid(1)
        frames = grid_frames(1, grid)
        betas, gammas = grid.node_angles()
        assert isinstance(frames, SpinFrames) and frames.grid is grid
        assert len(frames) == grid.n_nodes
        assert np.array_equal(frames.betas, betas) and np.array_equal(frames.gammas, gammas)
        assert np.array_equal(frames.alphas, np.zeros(grid.n_nodes))

    def test_frames_take_their_grid_from_its_nodes(self, rng):
        # shuffled nodes handed a grid would run on its transform in node order
        grid = make_grid(1.5)
        betas, gammas = grid.node_angles()
        order = rng.permutation(grid.n_nodes)
        with pytest.raises(TypeError, match="grid"):
            SpinFrames(1.5, betas[order], gammas[order], grid=grid)
        assert SpinFrames(1.5, betas, gammas).grid is None

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
