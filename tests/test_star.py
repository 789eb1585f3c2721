import numpy as np
import pytest

from conftest import random_hermitian
from spintomo.halfint import HalfInt
from spintomo.linalg import random_density
from spintomo.quadrature import GROUP_VOLUME, make_grid
from spintomo.star import (
    kernel_closed_form,
    kernel_trace_form,
    star_compose,
    star_grid,
    symbol_trace,
    trace_power,
)
from spintomo.states import pure_state
from spintomo.symbols import QuantizerPair, grid_frames, spin_tomogram


class StarKernel:
    """Materialized kernel table K[x2][x1][x] over the labels of a spin pair.

    An oracle for the factored composition: tables grow as (labels)^3, so it
    is built only for j <= 3/2 and modest grids.
    """

    MAX_ELEMENTS = 20_000_000

    def __init__(self, j: HalfInt, grid, values: np.ndarray, labels):
        self.j = j
        self.grid = grid
        self.values = values
        self.labels = labels

    @classmethod
    def build(cls, j, grid) -> "StarKernel":
        j = HalfInt.of(j)
        if j.twice > 3:
            raise ValueError("kernel tables are materialized only for j <= 3/2")
        pair = QuantizerPair.spin(j, grid)
        n = len(pair.labels)
        if n**3 > cls.MAX_ELEMENTS:
            raise ValueError(f"kernel table of {n}^3 entries exceeds the materialization cap")
        dd = np.einsum("aij,bjk->abik", pair.ds, pair.ds)
        values = np.einsum("abik,cki->abc", dd, pair.us)
        return cls(j, grid, values, list(pair.labels))


def random_point(j, rng):
    jt = HalfInt.of(j).twice
    mt = int(rng.integers(0, jt + 1)) * 2 - jt
    return (HalfInt(mt), float(rng.uniform(0, np.pi)), float(rng.uniform(0, 2 * np.pi)))


class TestKernels:
    def test_scalar_algebra(self):
        val = kernel_trace_form(0, (0, 0.2, 0.4), (0, 1.0, 2.0), (0, 2.5, 0.3))
        assert val == pytest.approx((1.0 / GROUP_VOLUME) ** 2, abs=1e-18)

    def test_conjugation_under_swap(self, rng):
        # Tr[D2 D1 U]* = Tr[D1 D2 U] because all three operators are Hermitian
        for j in (0.5, 1):
            x2, x1, x = (random_point(j, rng) for _ in range(3))
            assert np.conj(kernel_trace_form(j, x2, x1, x)) == pytest.approx(
                kernel_trace_form(j, x1, x2, x), abs=1e-14
            )

    @pytest.mark.parametrize("j", [0.5, 1, 1.5])
    def test_closed_form_matches_trace_form(self, j, rng):
        for _ in range(20):
            x2, x1, x = (random_point(j, rng) for _ in range(3))
            kt = kernel_trace_form(j, x2, x1, x)
            kc = kernel_closed_form(j, x2, x1, x)
            assert abs(kt - kc) < 1e-10

    def test_selection_rules_skip_terms(self):
        # closed form stays finite and correct when many couplings vanish
        x2 = (HalfInt(1), 0.0, 0.0)
        x1 = (HalfInt(-1), np.pi / 2, 0.0)
        x = (HalfInt(1), np.pi / 3, 1.0)
        assert abs(kernel_closed_form(0.5, x2, x1, x) - kernel_trace_form(0.5, x2, x1, x)) < 1e-12


class TestStarKernelTable:
    def test_table_matches_lazy_evaluation(self, rng):
        grid = make_grid(0.5, oversample=1.0)
        table = StarKernel.build(0.5, grid)
        betas, gammas = grid.node_angles()
        for _ in range(6):
            a, b, c = rng.integers(0, len(table.labels), size=3)
            points = []
            for idx in (a, b, c):
                m, node = table.labels[idx]
                points.append((m, betas[node], gammas[node]))
            lazy = kernel_trace_form(0.5, *points)
            assert abs(table.values[a, b, c] - lazy) < 1e-12
            assert abs(table.values[a, b, c] - kernel_closed_form(0.5, *points)) < 1e-8

    def test_explicit_double_quadrature_equals_star_compose(self, rng):
        grid = make_grid(0.5, oversample=1.0)
        table = StarKernel.build(0.5, grid)
        pair = QuantizerPair.spin(0.5, grid)
        frames = grid_frames(0.5, grid)
        a, b = random_hermitian(2, rng), random_hermitian(2, rng)
        fa, fb = spin_tomogram(a, frames), spin_tomogram(b, frames)
        wa = fa.table.reshape(-1) * pair.weights
        wb = fb.table.reshape(-1) * pair.weights
        explicit = np.einsum("a,b,abc->c", wa, wb, table.values)
        factored = star_compose(fa, fb, 0.5, grid).table.reshape(-1)
        assert np.max(np.abs(explicit - factored)) < 1e-12

    def test_materialization_guard(self):
        with pytest.raises(ValueError):
            StarKernel.build(2, make_grid(2))


class TestStarCompose:
    def test_identity_symbol_is_unit(self, rng):
        grid = star_grid(1)
        frames = grid_frames(1, grid)
        fa = spin_tomogram(random_hermitian(3, rng), frames)
        fid = spin_tomogram(np.eye(3, dtype=complex), frames)
        left = star_compose(fa, fid, 1, grid)
        right = star_compose(fid, fa, 1, grid)
        assert np.max(np.abs(left.table - fa.table)) < 1e-8
        assert np.max(np.abs(right.table - fa.table)) < 1e-8

    def test_projector_symbol_idempotent(self):
        grid = star_grid(1)
        frames = grid_frames(1, grid)
        f = spin_tomogram(pure_state([1.0, 1.0j, -0.5]), frames)
        f2 = star_compose(f, f, 1, grid)
        assert np.max(np.abs(f2.table - f.table)) < 1e-7

    def test_hermitian_square_symbol_is_real(self, rng):
        # A Hermitian => A A is Hermitian => its symbol is a real table
        grid = star_grid(1)
        frames = grid_frames(1, grid)
        f = spin_tomogram(random_hermitian(3, rng), frames)
        f2 = star_compose(f, f, 1, grid)
        assert np.max(np.abs(f2.table.imag)) < 1e-10

    @pytest.mark.parametrize("j", [0.5, 1, 1.5])
    def test_matches_product_symbol(self, j, rng):
        grid = star_grid(j)
        frames = grid_frames(j, grid)
        n = HalfInt.of(j).twice + 1
        a, b = random_hermitian(n, rng), random_hermitian(n, rng)
        composed = star_compose(spin_tomogram(a, frames), spin_tomogram(b, frames), j, grid)
        direct = spin_tomogram(a @ b, frames)
        assert np.max(np.abs(composed.table - direct.table)) < 1e-7

    @pytest.mark.parametrize("j", [0.5, 1])
    def test_associativity(self, j, rng):
        grid = star_grid(j)
        frames = grid_frames(j, grid)
        n = HalfInt.of(j).twice + 1
        fs = [spin_tomogram(random_hermitian(n, rng), frames) for _ in range(3)]
        left = star_compose(star_compose(fs[0], fs[1], j, grid), fs[2], j, grid)
        right = star_compose(fs[0], star_compose(fs[1], fs[2], j, grid), j, grid)
        assert np.max(np.abs(left.table - right.table)) < 1e-7

    def test_noncommutativity_witnessed(self):
        # spin components do not commute; the symbol algebra shows it
        grid = star_grid(0.5)
        frames = grid_frames(0.5, grid)
        jx = np.array([[0, 0.5], [0.5, 0]], dtype=complex)
        jy = np.array([[0, -0.5j], [0.5j, 0]], dtype=complex)
        fx, fy = spin_tomogram(jx, frames), spin_tomogram(jy, frames)
        fxy = star_compose(fx, fy, 0.5, grid)
        fyx = star_compose(fy, fx, 0.5, grid)
        diff = fxy.table - fyx.table
        assert np.max(np.abs(diff)) > 0.1
        # while the trace pairing of the commutator symbol vanishes
        commutator_trace = symbol_trace(
            star_compose(fx, fy, 0.5, grid), 0.5, grid
        ) - symbol_trace(star_compose(fy, fx, 0.5, grid), 0.5, grid)
        assert abs(commutator_trace) < 1e-8

    def test_grid_mismatch_rejected(self, rng):
        grid = star_grid(1)
        other = make_grid(1, oversample=1.0)
        fa = spin_tomogram(random_hermitian(3, rng), grid_frames(1, grid))
        fb = spin_tomogram(random_hermitian(3, rng), grid_frames(1, other))
        with pytest.raises(ValueError):
            star_compose(fa, fb, 1, grid)


class TestTracePower:
    def test_unit_trace(self):
        grid = star_grid(1)
        f = spin_tomogram(random_density(3, 3, seed=31), grid_frames(1, grid))
        assert trace_power(f, 1, grid) == pytest.approx(1.0, abs=1e-10)

    def test_pure_state_all_powers(self):
        grid = star_grid(1)
        f = spin_tomogram(pure_state([1.0, -2.0, 0.3j]), grid_frames(1, grid))
        for n in (1, 2, 3, 4):
            assert trace_power(f, n, grid) == pytest.approx(1.0, abs=1e-7)

    def test_known_spectrum_power_sum(self):
        grid = star_grid(1.5)
        rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        f = spin_tomogram(rho, grid_frames(1.5, grid))
        assert trace_power(f, 2, grid) == pytest.approx(0.30, abs=1e-7)
        assert trace_power(f, 4, grid) == pytest.approx(0.0354, abs=1e-7)

    def test_power_must_be_positive(self):
        grid = star_grid(0.5)
        f = spin_tomogram(random_density(2, 2, seed=32), grid_frames(0.5, grid))
        with pytest.raises(ValueError):
            trace_power(f, 0, grid)
