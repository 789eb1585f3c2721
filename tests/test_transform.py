import numpy as np
import pytest

from conftest import random_hermitian
from spintomo.channels import KrausChannel, apply_kraus, channel_propagator
from spintomo.halfint import HalfInt, spin_range
from spintomo.linalg import haar_unitaries, random_density
from spintomo.quadrature import make_grid
from spintomo.star import star_compose, star_grid, symbol_trace
from spintomo.symbols import (
    EulerAngles,
    SpinTransform,
    dequantizer_U,
    grid_frames,
    quantizer_D,
    spin_tomogram,
)

SPINS = [0.5, 1, 1.5, 3, 5, 8]


def random_operator(n, rng):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class TestTransformPair:
    @pytest.mark.parametrize("grid_of", [make_grid, star_grid], ids=["make_grid", "star_grid"])
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
        w = SpinTransform(j, betas, gammas).analyze(a)
        for x, (b, g) in enumerate(zip(betas, gammas)):
            for i, m in enumerate(spin_range(j)):
                want = np.trace(a @ dequantizer_U(j, m, EulerAngles(0.0, b, g)))
                assert abs(w[i, x] - want) < 1e-12

    def test_synthesis_needs_weights(self):
        with pytest.raises(ValueError):
            SpinTransform(1, [0.3], [0.1]).synthesize(np.ones((3, 1)))

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
        transform = SpinTransform(j, [e.beta for e in angles], [e.gamma for e in angles])
        us, ds = transform.operator_stacks()
        ms = spin_range(j)
        for i, m in enumerate(ms):
            for x, omega in enumerate(angles):
                label = i * len(angles) + x
                assert np.max(np.abs(ds[label] - quantizer_D(j, m, omega))) < 1e-13
                assert np.max(np.abs(us[label] - dequantizer_U(j, m, omega))) < 1e-13


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
