import numpy as np
import pytest

from conftest import operator_stacks, random_hermitian
from spintomo import dynamics, reconstruction, star, symbols
from spintomo.dynamics import measurement_star_map
from spintomo.halfint import HalfInt, spin_range
from spintomo.linalg import random_density
from spintomo.quadrature import GROUP_VOLUME, make_grid
from spintomo.star import (
    kernel_closed_form,
    kernel_trace_form,
    star_compose,
    star_grid,
    symbol_trace,
    trace_power,
    trace_product,
)
from spintomo.states import pure_state
from spintomo.symbols import SpinTransform, Tomogram, grid_frames, spin_tomogram, unitary_tomogram


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
        # the labels of the spin pair: (m, node), m-major
        labels = [(m, node) for m in spin_range(j) for node in range(grid.n_nodes)]
        n = len(labels)
        if n**3 > cls.MAX_ELEMENTS:
            raise ValueError(f"kernel table of {n}^3 entries exceeds the materialization cap")
        us, ds = operator_stacks(j, *grid.node_angles())
        dd = np.einsum("aij,bjk->abik", ds, ds)
        values = np.einsum("abik,cki->abc", dd, us)
        return cls(j, grid, values, labels)


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

    @pytest.mark.parametrize("kernel", [kernel_closed_form, kernel_trace_form], ids=["closed", "trace"])
    def test_a_negative_spin_is_refused(self, kernel):
        # the closed form once summed no terms and returned 0
        point = (HalfInt(0), 0.3, 0.1)
        with pytest.raises(ValueError, match="^spin j must be nonnegative$"):
            kernel(-1, point, point, point)

    @pytest.mark.parametrize("at", [0, 1, 2], ids=["x2", "x1", "x"])
    @pytest.mark.parametrize(
        "bad, message",
        [
            ((2, 0.3, 0.1), "|m|=2 exceeds j=1"),
            ((0.5, 0.3, 0.1), "m=1/2 is not of the form j-k for j=1"),
            ((0, 0.3, np.nan), "point angles must be finite numbers (found NaN or infinity)"),
            ((0, 0.3, np.inf), "point angles must be finite numbers (found NaN or infinity)"),
        ],
        ids=["m-out-of-range", "m-off-parity", "gamma-nan", "gamma-inf"],
    )
    def test_both_forms_refuse_a_bad_point_alike(self, bad, message, at):
        # the closed form once returned 0 for |m| > j and nan+nanj for a NaN angle
        points = [(HalfInt(0), 0.3, 0.1)] * 3
        points[at] = bad
        for kernel in (kernel_closed_form, kernel_trace_form):
            with pytest.raises(ValueError) as refused:
                kernel(1, *points)
            assert str(refused.value) == message


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
        weights = np.tile(grid.group_weights(), 2)  # per label (m, node), m-major
        frames = grid_frames(0.5, grid)
        a, b = random_hermitian(2, rng), random_hermitian(2, rng)
        fa, fb = spin_tomogram(a, frames), spin_tomogram(b, frames)
        wa = fa.table.reshape(-1) * weights
        wb = fb.table.reshape(-1) * weights
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
        other = make_grid(1, oversample=1.5)
        fa = spin_tomogram(random_hermitian(3, rng), grid_frames(1, grid))
        fb = spin_tomogram(random_hermitian(3, rng), grid_frames(1, other))
        with pytest.raises(ValueError):
            star_compose(fa, fb, 1, grid)


class TestOneOperandCheck:
    """Each grid map checks all of its operands in one ``_grid_transform`` call, in argument order."""

    @pytest.mark.parametrize(
        "module, name",
        [(star, "star_compose"), (star, "symbol_trace"), (star, "trace_product"),
         (dynamics, "measurement_star_map"), (reconstruction, "reconstruct_operator")],
    )
    def test_one_call_per_map(self, module, name, rng, monkeypatch):
        grid = star_grid(1)
        fa, fb = (spin_tomogram(random_hermitian(3, rng), grid_frames(1, grid)) for _ in range(2))
        operands = (fa,) if name in ("symbol_trace", "reconstruct_operator") else (fa, fb)
        calls = []

        def counted(j, at, *tomograms):
            calls.append(tomograms)
            return symbols._grid_transform(j, at, *tomograms)

        monkeypatch.setattr(module, "_grid_transform", counted)
        getattr(module, name)(*operands, 1, grid)
        # measurement_star_map(w, w_effect) checks the effect first
        checked = operands[::-1] if name == "measurement_star_map" else operands
        assert len(calls) == 1 and len(calls[0]) == len(checked)
        assert all(got is want for got, want in zip(calls[0], checked))

    def test_refusals_keep_their_order(self, rng):
        grid = star_grid(1)
        off = spin_tomogram(random_hermitian(3, rng), grid_frames(1, make_grid(1, oversample=1.5)))
        unit = unitary_tomogram(random_density(3, 3, seed=2), np.eye(3)[None])
        with pytest.raises(ValueError, match="^tomogram frames do not coincide with the grid nodes$"):
            star_compose(off, unit, 1, grid)
        with pytest.raises(ValueError, match="^expected a spin tomogram$"):
            star_compose(unit, off, 1, grid)
        with pytest.raises(ValueError, match="^tomogram frames do not coincide with the grid nodes$"):
            measurement_star_map(unit, off, 1, grid)
        with pytest.raises(ValueError, match="^expected a spin tomogram$"):
            measurement_star_map(off, unit, 1, grid)

    @pytest.mark.parametrize(
        "module, name",
        [(star, "star_compose"), (star, "symbol_trace"), (star, "trace_product"),
         (dynamics, "measurement_star_map"), (reconstruction, "reconstruct_operator")],
    )
    def test_a_negative_spin_is_refused(self, module, name, rng):
        # the spin is checked before the tomograms' frames are compared with it
        grid = star_grid(1)
        t = spin_tomogram(random_hermitian(3, rng), grid_frames(1, grid))
        operands = (t,) if name in ("symbol_trace", "reconstruct_operator") else (t, t)
        with pytest.raises(ValueError, match="^spin j must be nonnegative$"):
            getattr(module, name)(*operands, -1, grid)


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

    def test_non_real_trace_refused(self):
        grid = star_grid(0.5)
        f = spin_tomogram(0.5j * np.eye(2), grid_frames(0.5, grid))
        with pytest.raises(ValueError, match="non-real"):
            trace_power(f, 1, grid)

    @pytest.mark.parametrize("n", [1, 2])
    def test_unitary_tomogram_refused(self, n):
        f = unitary_tomogram(random_density(2, 2, seed=33), [np.eye(2)])
        with pytest.raises(ValueError, match="expected a spin tomogram"):
            trace_power(f, n, star_grid(0.5))

    def test_power_must_be_positive(self):
        grid = star_grid(0.5)
        f = spin_tomogram(random_density(2, 2, seed=32), grid_frames(0.5, grid))
        with pytest.raises(ValueError):
            trace_power(f, 0, grid)

    @pytest.mark.parametrize("n", [2.5, 2.0, "2", True, np.True_])
    def test_power_must_be_an_integer(self, n):
        grid = star_grid(0.5)
        f = spin_tomogram(random_density(2, 2, seed=32), grid_frames(0.5, grid))
        with pytest.raises(ValueError, match="power must be a positive integer"):
            trace_power(f, n, grid)


class TestTraceProduct:
    @pytest.mark.parametrize("jt", [*range(17), 40])
    def test_equals_trace_of_product(self, jt, rng):
        j = HalfInt(jt)
        grid = star_grid(j)
        frames = grid_frames(j, grid)
        n = jt + 1
        a, b = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(2))
        h = random_hermitian(n, rng)
        fa, fb, fh = (spin_tomogram(x, frames) for x in (a, b, h))
        # both tables complex, one complex and one real, both real
        for (x, fx), (y, fy) in [((a, fa), (b, fb)), ((a, fa), (h, fh)), ((h, fh), (a, fa)), ((h, fh), (h, fh))]:
            bound = 1e-13 * np.linalg.norm(x) * np.linalg.norm(y)
            assert abs(trace_product(fx, fy, j, grid) - np.trace(x @ y)) <= bound

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_one_table_is_read_once(self, kind, rng, monkeypatch):
        # trace_product(t, t), as trace_power(t, 2) calls it, inspects the table once
        # and gives the bits of the call on two equal tables
        grid = star_grid(2)
        x = random_hermitian(5, rng)
        if kind == "complex":
            x = x + 1j * random_hermitian(5, rng)
        t = spin_tomogram(x, grid_frames(2, grid))
        twin = Tomogram(t.frames, t.table.copy())
        counts = []
        count_nonzero = np.count_nonzero

        def counted(*args, **kwargs):
            counts.append(1)
            return count_nonzero(*args, **kwargs)

        monkeypatch.setattr(np, "count_nonzero", counted)
        same, equal = trace_product(t, t, 2, grid), trace_product(t, twin, 2, grid)
        assert len(counts) == 3
        assert same == equal

    @pytest.mark.parametrize("jt", range(17))
    def test_trace_power_is_power_sum(self, jt):
        j = HalfInt(jt)
        grid = star_grid(j)
        rho = random_density(jt + 1, jt + 1, seed=100 + jt)
        t = spin_tomogram(rho, grid_frames(j, grid))
        eigenvalues = np.linalg.eigvalsh(rho.mat)
        for n in range(1, 6):
            assert abs(trace_power(t, n, grid) - np.sum(eigenvalues**n)) <= 1e-13

    @pytest.mark.parametrize("first", [True, False])
    def test_unitary_tomogram_refused(self, first):
        grid = star_grid(0.5)
        f = spin_tomogram(random_density(2, 2, seed=34), grid_frames(0.5, grid))
        u = unitary_tomogram(random_density(2, 2, seed=35), [np.eye(2)])
        pair = (u, f) if first else (f, u)
        with pytest.raises(ValueError, match="expected a spin tomogram"):
            trace_product(*pair, 0.5, grid)

    @pytest.mark.parametrize("first", [True, False])
    def test_frames_off_the_grid_refused(self, first, rng):
        grid, other = star_grid(1), make_grid(1, oversample=1.5)
        f = spin_tomogram(random_hermitian(3, rng), grid_frames(1, grid))
        g = spin_tomogram(random_hermitian(3, rng), grid_frames(1, other))
        pair = (g, f) if first else (f, g)
        with pytest.raises(ValueError, match="do not coincide with the grid nodes"):
            trace_product(*pair, 1, grid)
        with pytest.raises(ValueError, match="do not coincide with the grid nodes"):
            trace_product(f, f, 1.5, grid)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_trace_power_composes_n_minus_2_times(self, n, monkeypatch):
        grid = star_grid(1.5)
        t = spin_tomogram(random_density(4, 4, seed=36), grid_frames(1.5, grid))
        calls = {"synthesize": 0, "analyze": 0, "star_compose": 0}

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(SpinTransform, "synthesize")
        counted(SpinTransform, "analyze")
        counted(star, "star_compose")
        trace_power(t, n, grid)
        assert calls["star_compose"] == max(n - 2, 0)
        if n <= 2:
            assert calls["synthesize"] == calls["analyze"] == 0


class TestSymbolTrace:
    @pytest.mark.parametrize("jt", range(17))
    def test_equals_trace_of_synthesized_operator(self, jt, rng):
        j = HalfInt(jt)
        a = rng.standard_normal((jt + 1, jt + 1)) + 1j * rng.standard_normal((jt + 1, jt + 1))
        for grid in (make_grid(j), make_grid(j, oversample=1.5)):
            f = spin_tomogram(a, grid_frames(j, grid))
            synthesized = np.trace(SpinTransform.on_grid(j, grid).synthesize(f.table))
            assert abs(symbol_trace(f, j, grid) - synthesized) <= 1e-13
