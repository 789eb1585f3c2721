import math
import re
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    STRADDLING,
    einsum_dimension,
    finite_difference_dimension,
    frame_diagonals_bound,
    frame_diagonals_oracle,
    random_hermitian,
    straddling_counts,
)
from spintomo import simplex
from spintomo.errors import LIMITS, DegeneratePointError
from spintomo.linalg import (
    _BLOCK_BYTES,
    DensityMatrix,
    _frames_in,
    frame_diagonals,
    haar_unitaries,
    kron_all,
    partial_transpose,
    random_density,
)
from spintomo.simplex import (
    GroupSpec,
    eigenvalue_bounds_check,
    entangled_ray_check,
    factorized_surface_residual,
    image_dimension,
    image_dimension_report,
    image_sample,
    peres_scan,
)
from spintomo.states import (
    bell_state,
    entangled_ray_state,
    maximally_mixed,
    product_state,
    pure_state,
    werner_state,
)

FULL = GroupSpec("full")
PRODUCT_22 = GroupSpec("product", (2, 2))
U2_X_1 = GroupSpec("product", (2, 2), active=(0,))

LADDER_STATE = DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex), (2, 2))


def _groups(dims):
    """The full group and the product group on every nonempty set of active factors."""
    subsets = [a for k in range(1, len(dims) + 1) for a in combinations(range(len(dims)), k)]
    return [("full", FULL)] + [
        ("product" + "".join(map(str, a)), GroupSpec("product", dims, active=a)) for a in subsets
    ]


ORACLE_CASES = [
    pytest.param(dims, group, id="x".join(map(str, dims)) + "-" + name)
    for dims in [(3,), (2, 2), (2, 4), (2, 2, 2)]
    for name, group in _groups(dims)
]

# the full group up to N = 16, and the product groups on every active set
EINSUM_CASES = [pytest.param((n,), FULL, id=f"{n}-full") for n in range(1, 17)] + [
    pytest.param(dims, group, id="x".join(map(str, dims)) + "-" + name)
    for dims in [(2, 2), (2, 3), (2, 2, 2)]
    for name, group in _groups(dims)[1:]
]

ACCEPTANCE_CASES = [
    pytest.param(random_density(4, 4, seed=9), FULL, id="generic-full"),
    pytest.param(LADDER_STATE, FULL, id="ladder-full"),
    pytest.param(
        product_state(pure_state([1.0, 0.7j]), pure_state([0.4, 1.0])), PRODUCT_22, id="factorized"
    ),
    pytest.param(entangled_ray_state(1 / np.sqrt(2), 1 / np.sqrt(2)), PRODUCT_22, id="ray"),
    *[pytest.param(werner_state(q), U2_X_1, id=f"werner{q}") for q in (0.2, 0.5, 1.0)],
    pytest.param(
        random_density(8, 8, seed=37, dims=(2, 2, 2)),
        GroupSpec("product", (2, 2, 2)),
        id="generic-2x2x2-product",
    ),
]


class TestImageSample:
    def test_pure_qubit_covers_whole_simplex(self):
        sample = image_sample(pure_state([0.6, 0.8j]), FULL, 10_000, seed=1)
        assert sample.points[:, 0].min() < 0.01
        assert sample.points[:, 0].max() > 0.99

    def test_maximally_mixed_collapses_to_center(self):
        sample = image_sample(maximally_mixed((2, 2)), FULL, 500, seed=2)
        assert np.max(np.abs(sample.points - 0.25)) < 1e-10

    def test_known_spectrum_bounds(self):
        sample = image_sample(LADDER_STATE, FULL, 2_000, seed=3)
        assert sample.points.min() >= 0.1 - 1e-10
        assert sample.points.max() <= 0.4 + 1e-10

    def test_seed_reproducibility(self):
        s1 = image_sample(LADDER_STATE, FULL, 50, seed=4)
        s2 = image_sample(LADDER_STATE, FULL, 50, seed=4)
        assert np.array_equal(s1.points, s2.points)

    def test_points_are_simplex_points(self):
        sample = image_sample(random_density(4, 4, seed=5, dims=(2, 2)), PRODUCT_22, 300, seed=6)
        sample.validate()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            image_sample(random_density(3, 3, seed=7), PRODUCT_22, 10, seed=8)

    def test_a_factor_product_past_int64_is_compared_exactly(self):
        # 3 * 6148914691236517206 = 2**64 + 2, which int64 arithmetic wraps to 2
        group = GroupSpec("product", (3, 6148914691236517206))
        message = r"^factor dims \(3, 6148914691236517206\) do not match state dimension$"
        with pytest.raises(ValueError, match=message):
            group.resolve((2,))
        with pytest.raises(ValueError, match=message):
            image_sample(random_density(2, 2, seed=7), group, 10, seed=8)

    def test_empty_active_set_refused(self):
        # with no active factor every frame is the identity and every point diag(rho)
        with pytest.raises(ValueError, match="active factor set must be nonempty"):
            GroupSpec("product", (2, 2), active=())

    @pytest.mark.parametrize(
        "factors, active, message",
        [
            ((2.7, 2), None, "factor dims must be integers, got 2.7"),
            ((2, 2.0), None, "factor dims must be integers, got 2.0"),
            ((True, 4), None, "factor dims must be integers, got True"),
            ((2, 2), (0.5,), "active factor indices must be integers, got 0.5"),
            ((2, 2), (False, 1), "active factor indices must be integers, got False"),
            ((-2, -2), None, r"factor dims \(-2, -2\) must each be at least 1"),
            (4, None, "factor dims must be a sequence of integers, got 4"),
            ((2, 2), 0, "active factor indices must be a sequence of integers, got 0"),
        ],
    )
    def test_non_integral_factors_and_indices_refused(self, factors, active, message):
        with pytest.raises(ValueError, match=message):
            GroupSpec("product", factors, active=active)

    @pytest.mark.parametrize(
        "factors, active",
        [((2, 2), (5,)), ((2, 2), None), ((), (0,)), ((), ())],
        ids=["both", "factor-dims", "active", "empty-active"],
    )
    def test_full_group_refuses_product_fields(self, factors, active):
        with pytest.raises(ValueError, match="apply to product groups only"):
            GroupSpec("full", factors, active=active)

    @pytest.mark.parametrize("active", [(2,), (-1,), (0, 2)])
    def test_active_indices_out_of_range_refused(self, active):
        with pytest.raises(ValueError, match=r"subsystem index out of range for dims \(2, 2\)"):
            GroupSpec("product", (2, 2), active=active).resolve((2, 2))

    def test_numpy_integers_are_accepted(self):
        g = GroupSpec("product", np.array([2, 2]), active=np.array([1]))
        assert g.factor_dims == (2, 2) and g.active == (1,)
        assert all(type(x) is int for x in g.factor_dims + g.active)

    def test_params_are_per_factor_stacks(self):
        rho = random_density(4, 4, seed=9, dims=(2, 2))
        sample = image_sample(rho, U2_X_1, 30, seed=10)
        u, ident = sample.params
        assert np.array_equal(u, haar_unitaries(2, 30, np.random.default_rng(10)))
        assert np.array_equal(ident, np.broadcast_to(np.eye(2), (30, 2, 2)))
        for point, a, b in zip(sample.points, u, ident):
            joint = np.kron(a, b)
            loop = np.einsum("am,ab,bm->m", joint.conj(), rho.mat, joint).real
            oracle = frame_diagonals_oracle(rho.mat, joint[None])[0].real
            assert np.max(np.abs(point - oracle)) <= frame_diagonals_bound(rho.mat)
            assert np.max(np.abs(point - loop)) <= 1e-15


# product dims of each joint dimension whose block edge the counts straddle
PRODUCT_DIMS = {1: (1,), 2: (2,), 4: (2, 2), 5: (5,), 8: (2, 2, 2), 16: (2, 2, 2, 2)}


class TestBlockedProductImage:
    # the joint frames are formed one block of 512 KiB of N x N frames at a
    # time, in the column layout that column_diagonals reads

    @pytest.mark.parametrize("d, n", [(d, n) for d, n in STRADDLING if n] + [(8, 10_000)])
    def test_points_equal_those_of_the_full_product_stack(self, d, n):
        rho = random_density(d, d, seed=n, dims=PRODUCT_DIMS[d])
        sample = image_sample(rho, GroupSpec("product"), n, seed=n + 1)
        assert np.array_equal(sample.points, frame_diagonals(rho.mat, kron_all(sample.params)).real)

    @pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 1), (2, 1)], ids=["E-1", "E+1", "2E+1"])
    @pytest.mark.parametrize(
        "group",
        [
            GroupSpec("product", (2, 3)),
            GroupSpec("product", (3, 2)),
            GroupSpec("product", (2, 2, 3)),
            # an identity factor between the two drawn ones
            GroupSpec("product", (2, 3, 2), active=(0, 2)),
        ],
        ids=["2x3", "3x2", "2x2x3", "2x3x2-active02"],
    )
    def test_unequal_factors_give_the_points_of_the_full_product_stack(self, group, blocks, extra):
        # unequal factor dims tell a transposed axis of the column-layout block
        # from a correct one, which equal dims would not
        dim = math.prod(group.factor_dims)
        n = blocks * _frames_in(_BLOCK_BYTES, dim) + extra
        rho = random_density(dim, dim, seed=n, dims=group.factor_dims)
        sample = image_sample(rho, group, n, seed=n + 2)
        assert np.array_equal(sample.points, frame_diagonals(rho.mat, kron_all(sample.params)).real)

    @pytest.mark.parametrize("d, n", [(d, n) for d, n in STRADDLING if n])
    def test_full_group_points_and_params_are_those_of_the_haar_stack(self, d, n):
        rho = random_density(d, d, seed=d + n)
        sample = image_sample(rho, GroupSpec("full"), n, seed=n)
        assert np.array_equal(sample.params[0], haar_unitaries(d, n, np.random.default_rng(n)))
        assert np.array_equal(sample.points, frame_diagonals(rho.mat, sample.params[0]).real)

    @pytest.mark.memory
    def test_full_group_holds_one_stack(self):
        # the points come from the scans' reduction, which holds the sampler's
        # Gaussian draw x, half a stack, and no frames; params are not drawn
        rho = random_density(8, 8, seed=14)
        tracemalloc.start()
        try:
            image_sample(rho, GroupSpec("full"), 10_000, seed=15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.8 * 10_000 * 8 * 8 * 16

    @pytest.mark.parametrize("kind", ["full", "product"])
    def test_a_non_integer_count_is_refused_by_the_sampler(self, kind):
        rho = random_density(4, 4, seed=16, dims=(2, 2))
        for count in (10.0, True):
            with pytest.raises(ValueError, match="sample count must be a nonnegative integer"):
                image_sample(rho, GroupSpec(kind), count, seed=17)

    @pytest.mark.memory
    def test_no_full_product_stack_is_held(self):
        rho = random_density(8, 8, seed=12, dims=(2, 2, 2))
        tracemalloc.start()
        try:
            image_sample(rho, GroupSpec("product"), 10_000, seed=13)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10_000 * 8 * 8 * 16

    @pytest.mark.memory
    @pytest.mark.parametrize(
        "group, dims, count, nbytes",
        [
            # the points and the sampler's draw x, 8 (8 + 64) bytes a point
            (FULL, (2, 2, 2), 16384, 16384 * 8 * 72),
            # the points and three 2 x 2 factor stacks, 8 * 8 + 3 * 16 * 4 bytes a point
            (GroupSpec("product"), (2, 2, 2), 32768, 32768 * 256),
            # the points and the one active 4 x 4 factor stack
            (GroupSpec("product", active=(1,)), (2, 4), 32768, 32768 * 320),
        ],
        ids=["full", "product", "product1"],
    )
    def test_image_past_the_byte_budget_is_refused_before_the_draws(self, monkeypatch, group, dims, count, nbytes):
        monkeypatch.setitem(LIMITS, "bytes", 2**22)
        message = (f"^the {group.kind} group's image of {count} points at dimension 8 would allocate about "
                   f"{nbytes / 1e9:.3g} GB, above the budget of 0.00419 GB$")
        rho = random_density(8, 8, seed=18, dims=dims)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                image_sample(rho, group, count, seed=19)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < nbytes / 100
        # at its bytes the image is drawn as before
        monkeypatch.setitem(LIMITS, "bytes", nbytes)
        image_sample(rho, group, count, seed=19)


SEED_KINDS = {
    "int": lambda seed: seed,
    "seedsequence": np.random.SeedSequence,
    "generator": np.random.default_rng,
}


class TestParamsDrawnAgain:
    # the sample keeps a copy of the generator taken before its draws, and
    # params draws the factor stacks again from it

    @pytest.mark.parametrize("kind", SEED_KINDS)
    @pytest.mark.parametrize("n", [1, 511, 512, 513, 1025, 2049, 8193])
    @pytest.mark.parametrize("group", [FULL, GroupSpec("product"), GroupSpec("product", active=(1,))],
                             ids=["full", "product", "product1"])
    def test_points_and_params_are_those_of_the_stacks_drawn_up_front(self, group, n, kind):
        rho = random_density(8, 8, seed=n, dims=(2, 4))
        sample = image_sample(rho, group, n, SEED_KINDS[kind](n))
        reference = np.random.default_rng(SEED_KINDS[kind](n))
        factors, active = group.resolve(rho.dims)
        draws = {a: haar_unitaries(factors[a], n, reference) for a in active}
        assert len(sample.params) == len(factors)
        for k, (stack, d) in enumerate(zip(sample.params, factors)):
            assert np.array_equal(stack, draws[k] if k in draws else np.broadcast_to(np.eye(d), (n, d, d)))
        assert np.array_equal(sample.points, frame_diagonals(rho.mat, kron_all(sample.params)).real)

    @pytest.mark.parametrize("group", [FULL, GroupSpec("product")], ids=["full", "product"])
    @pytest.mark.parametrize("count", [1, 513])
    def test_a_caller_generator_ends_after_the_draws_and_params_leave_it(self, group, count):
        # the full group draws x and then y of one (count, 4, 4) stack; the
        # product group does so per factor, in factor order
        rng, reference = np.random.default_rng(count), np.random.default_rng(count)
        sample = image_sample(random_density(4, 4, seed=count, dims=(2, 2)), group, count, rng)
        for d in (4,) if group.kind == "full" else (2, 2):
            reference.standard_normal((2, count, d, d))
        sample.params
        assert np.array_equal(rng.standard_normal(5), reference.standard_normal(5))

    def test_params_are_drawn_once(self):
        sample = image_sample(random_density(4, 4, seed=1, dims=(2, 2)), FULL, 20, seed=2)
        assert sample.params is sample.params
        assert np.array_equal(sample.rng.standard_normal(3), np.random.default_rng(2).standard_normal(3))

    @pytest.mark.parametrize("count", [-1, 2.5, "4", None])
    def test_a_count_is_checked_before_the_draws(self, count):
        with pytest.raises(ValueError, match="sample count must be a nonnegative integer"):
            image_sample(LADDER_STATE, FULL, count, seed=0)


class TestImageDimension:
    def test_generic_mixed_full_group(self):
        assert image_dimension(random_density(4, 4, seed=9), FULL) == 3

    def test_ladder_spectrum_state(self):
        assert image_dimension(LADDER_STATE, FULL) == 3

    def test_factorized_product_group(self):
        rho = product_state(random_density(2, 1, seed=10), random_density(2, 1, seed=11))
        assert image_dimension(rho, PRODUCT_22) == 2

    def test_factorized_mixed_state_product_group(self):
        rho = product_state(random_density(2, 2, seed=12), random_density(2, 2, seed=13))
        assert image_dimension(rho, PRODUCT_22) == 2

    def test_entangled_ray_is_one_dimensional(self):
        ray = entangled_ray_state(1 / np.sqrt(2), 1 / np.sqrt(2))
        assert image_dimension(ray, PRODUCT_22) == 1

    @pytest.mark.parametrize("q", [0.2, 0.5, 1.0])
    def test_werner_single_factor_group(self, q):
        assert image_dimension(werner_state(q), U2_X_1) == 1

    def test_tolerance_stability(self):
        rho = random_density(4, 4, seed=16)
        base = image_dimension_report(rho, FULL).rank
        for factor in (0.1, 10.0):
            assert image_dimension(rho, FULL, rel_tol=1e-8 * factor) == base

    @pytest.mark.parametrize("rel_tol", [float("nan"), -1.0, 0.0, 1.0, 2.0])
    def test_rel_tol_outside_zero_one_refused(self, rel_tol):
        with pytest.raises(ValueError, match="rel_tol"):
            image_dimension_report(LADDER_STATE, FULL, rel_tol=rel_tol)

    def test_report_exposes_spectrum(self):
        report = image_dimension_report(LADDER_STATE, FULL)
        assert report.singular_values.size >= report.rank
        assert report.rel_tol == 1e-8


class TestClosedFormJacobian:
    @pytest.mark.parametrize("dims, group", ORACLE_CASES)
    def test_matches_finite_difference_oracle(self, dims, group):
        n = int(np.prod(dims))
        for rank in range(1, n + 1):
            rho = random_density(n, rank, seed=40 + rank, dims=dims)
            report = image_dimension_report(rho, group, seed=rank)
            want_rank, want_sv = finite_difference_dimension(rho, group, seed=rank)
            assert report.rank == want_rank
            assert np.max(np.abs(report.singular_values - want_sv)) <= 1e-9 * want_sv[0]

    @pytest.mark.parametrize("rho, group", ACCEPTANCE_CASES)
    def test_null_singular_values_at_rounding_level(self, rho, group):
        report = image_dimension_report(rho, group)
        null = report.singular_values[report.rank:]
        assert null.size > 0  # the coordinates sum to 1, so one direction is always null
        assert np.max(null) <= 1e-14 * report.singular_values[0]

    @pytest.mark.parametrize("dims, group", EINSUM_CASES)
    def test_singular_values_equal_the_dense_einsum(self, dims, group):
        # read off sigma's entries, the Jacobian is the dense einsum's bit for bit
        n = int(np.prod(dims))
        states = [random_density(n, rank, seed=60 + rank, dims=dims) for rank in range(1, n + 1)]
        for seed, rho in enumerate([*states, maximally_mixed(dims)]):
            report = image_dimension_report(rho, group, seed=seed)
            rank, sv = einsum_dimension(rho, group, seed=seed)
            assert report.rank == rank
            assert np.array_equal(report.singular_values, sv)

    def test_a_jacobian_above_the_byte_budget_is_refused_before_the_draws(self, monkeypatch):
        # 6 x 300 x 300^2 doubles: the Jacobian at 5 base points and the SVD's copy of one
        def draws(*args):
            raise AssertionError("base points drawn for a refused Jacobian")

        monkeypatch.setattr(simplex, "_draw_elements", draws)
        with pytest.raises(ValueError, match=r"^the image Jacobian of 90000 generators at dimension 300 would "
                                             r"allocate about 1.3 GB, above the budget of 1.07 GB$"):
            image_dimension_report(maximally_mixed((300,)), FULL)

    def test_a_jacobian_within_the_byte_budget_goes_on_to_the_draws(self, monkeypatch):
        # 0.81 GB at N = 256
        def draws(*args):
            raise RuntimeError("past the budget check")

        monkeypatch.setattr(simplex, "_draw_elements", draws)
        with pytest.raises(RuntimeError, match="past the budget check"):
            image_dimension_report(maximally_mixed((256,)), FULL)

    @pytest.mark.memory
    def test_full_group_jacobian_holds_no_generator_stack(self):
        # the embedded generators at N = 32 take 16.8 MB; the Jacobian read off
        # sigma, 5 x 32 x 32^2 doubles, takes 1.3 MB
        rho = random_density(32, 32, seed=21)
        tracemalloc.start()
        try:
            image_dimension_report(rho, FULL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6


class TestRankRule:
    """Singular values at sigma's roundoff, up to 4 N eps ||rho||_2, are not rank."""

    @pytest.mark.parametrize(
        "dims", [(1,), (2,), (3,), (8,), (2, 2), (3, 4), (2, 2, 2)], ids=lambda dims: "x".join(map(str, dims))
    )
    def test_a_multiple_of_the_identity_is_a_point(self, dims):
        for name, group in _groups(dims):
            assert image_dimension(maximally_mixed(dims), group) == 0, name

    def test_a_mixed_factor_adds_no_dimension(self):
        # I/2 (x) |0><0|: the first factor's image is a point, the second's a segment
        rho = product_state(maximally_mixed((2,)), pure_state([1.0, 0.0]))
        assert image_dimension(rho, PRODUCT_22) == 1

    @pytest.mark.parametrize("n", [3, 4, 8])
    def test_a_state_near_the_identity_spans_the_simplex(self, n):
        h = random_hermitian(n, np.random.default_rng(n))
        rho = DensityMatrix(np.eye(n) / n + 1e-10 * (h - np.trace(h).real / n * np.eye(n)))
        assert image_dimension(rho, FULL) == n - 1

    @settings(max_examples=60, deadline=None)
    @given(spectrum=st.lists(st.integers(0, 3), min_size=1, max_size=12), seed=st.integers(0, 2**32 - 1))
    def test_the_full_group_image_is_the_permutohedron(self, spectrum, seed):
        # Schur-Horn: diag(u^dag rho u) over U(N) fills the permutohedron of the
        # spectrum, of dimension N - 1 for every rank and degeneracy, and a
        # point for rho proportional to the identity
        assume(any(spectrum))
        n = len(spectrum)
        if len(set(spectrum)) == 1:
            assert image_dimension(maximally_mixed((n,)), FULL, seed=seed) == 0
            return
        u = haar_unitaries(n, 1, np.random.default_rng(seed))[0]
        m = (u * (np.array(spectrum) / sum(spectrum))) @ u.conj().T
        assert image_dimension(DensityMatrix((m + m.conj().T) / 2), FULL, seed=seed) == n - 1


class TestFactorizedSurface:
    def test_factorized_pure_state_on_surface(self):
        rho = product_state(pure_state([1.0, 0.5]), pure_state([0.3, 1.0j]))
        sample = image_sample(rho, PRODUCT_22, 500, seed=17)
        worst = max(factorized_surface_residual(p) for p in sample.points)
        assert worst < 1e-10

    def test_bell_point_off_surface(self):
        sample = image_sample(bell_state(), PRODUCT_22, 20, seed=18)
        assert factorized_surface_residual(sample.points[0]) > 0.01

    def test_uniform_point_on_surface(self):
        assert factorized_surface_residual([0.25, 0.25, 0.25, 0.25]) == pytest.approx(0.0, abs=1e-15)

    def test_degenerate_point(self):
        with pytest.raises(DegeneratePointError):
            factorized_surface_residual([0.0, 0.0, 0.5, 0.5])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_point_refused(self, bad):
        with pytest.raises(ValueError, match="finite"):
            factorized_surface_residual([0.25, 0.25, bad, 0.25])


class TestEntangledRay:
    def test_balanced_ray_identities(self):
        c = 1 / np.sqrt(2)
        sample = image_sample(entangled_ray_state(c, c), PRODUCT_22, 500, seed=19)
        worst = max(entangled_ray_check(p, c, c) for p in sample.points)
        assert worst < 1e-9

    def test_zero_coefficient_degenerate(self):
        with pytest.raises(DegeneratePointError):
            entangled_ray_check([0.25, 0.25, 0.25, 0.25], 1.0, 0.0)

    @pytest.mark.parametrize("c0", [float("nan"), complex(float("nan"), 0.0), float("inf")])
    def test_non_finite_coefficient_refused(self, c0):
        with pytest.raises(ValueError, match="coefficients"):
            entangled_ray_check([0.25, 0.25, 0.25, 0.25], c0, 1.0)
        with pytest.raises(ValueError, match="coefficients"):
            entangled_ray_state(c0, 1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("-inf")])
    def test_non_finite_point_refused(self, bad):
        c = 1 / np.sqrt(2)
        with pytest.raises(ValueError, match="finite"):
            entangled_ray_check([bad, 0.25, 0.25, 0.25], c, c)

    def test_full_group_breaks_identities(self):
        c = 1 / np.sqrt(2)
        sample = image_sample(entangled_ray_state(c, c), FULL, 200, seed=20)
        worst = max(entangled_ray_check(p, c, c) for p in sample.points)
        assert worst > 0.01


class TestEigenvalueBounds:
    def test_ladder_sample_within_bounds(self):
        sample = image_sample(LADDER_STATE, FULL, 1_000, seed=21)
        assert eigenvalue_bounds_check(sample, LADDER_STATE)

    def test_pure_state_bounds_are_trivial(self):
        rho = pure_state([1.0, 1.0j])
        sample = image_sample(rho, FULL, 500, seed=22)
        assert eigenvalue_bounds_check(sample, rho)

    def test_corrupted_point_detected(self):
        sample = image_sample(LADDER_STATE, FULL, 10, seed=23)
        sample.points[0, 0] = 0.5  # outside [0.1, 0.4]
        assert not eigenvalue_bounds_check(sample, LADDER_STATE)

    def test_convexity_bound_over_random_states(self):
        for k in range(20):
            rho = random_density(4, 4, seed=600 + k, dims=(2, 2))
            sample = image_sample(rho, FULL, 1_000, seed=700 + k)
            assert eigenvalue_bounds_check(sample, rho)


class TestPeresScan:
    def test_separable_werner_clean(self):
        result = peres_scan(werner_state(0.2), 300, seed=24)
        assert result.max_violation <= 1e-10
        assert result.witness is None
        assert result.min_eigenvalue == pytest.approx((1 - 3 * 0.2) / 4, abs=1e-12)

    def test_entangled_werner_detected(self):
        result = peres_scan(werner_state(1.0), 300, seed=25)
        assert result.witness is not None
        assert result.max_violation == pytest.approx(1.0, abs=1e-10)
        assert abs(result.eigenbasis_value - result.trace_norm_minus_one) < 1e-10

    def test_bell_state_detected(self):
        result = peres_scan(bell_state(), 300, seed=26)
        assert result.witness is not None
        assert result.max_violation > 0.5

    def test_product_state_never_violates(self):
        rho = product_state(random_density(2, 2, seed=27), random_density(2, 2, seed=28))
        result = peres_scan(rho, 500, seed=29)
        assert result.max_violation <= 1e-10

    def test_eigenbasis_frame_is_exact(self):
        for q in (0.4, 0.8):
            result = peres_scan(werner_state(q), 50, seed=30)
            assert abs(result.eigenbasis_value - result.trace_norm_minus_one) < 1e-10

    def test_needs_bipartition(self):
        with pytest.raises(ValueError):
            peres_scan(random_density(4, 4, seed=31), 10, seed=32)

    def test_no_haar_frames_scans_the_eigenbasis_alone(self):
        result = peres_scan(werner_state(1.0), 0, seed=35)
        vecs = np.linalg.eigh(partial_transpose(werner_state(1.0), 1))[1]
        assert result.max_violation == result.eigenbasis_value
        assert np.array_equal(result.witness, vecs)
        assert result.detection is None

    @pytest.mark.parametrize(
        "dims, n", [(dims, n) for dims in ((2, 2), (2, 4), (2, 8)) for n in straddling_counts(math.prod(dims)) if n > 1]
    )
    def test_block_scan_equals_the_stack_scan(self, dims, n):
        # the detections of all n Haar frames as one stack, against the blocks reduced as drawn
        rho = random_density(int(np.prod(dims)), 2, seed=n, dims=dims)
        rho_tb = partial_transpose(rho, 1)
        haar = haar_unitaries(rho.dim, n, np.random.default_rng(n + 1))
        p = np.mean(np.sum(np.abs(frame_diagonals(rho_tb, haar).real), axis=1) - 1.0 > LIMITS["witness"])
        result = peres_scan(rho, n, seed=n + 1)
        assert result.detection.mean == p
        assert (result.detection.n, result.detection.seed) == (n, n + 1)
        assert result.detection.stderr == pytest.approx(np.sqrt(p * (1 - p) / (n - 1)), rel=1e-12)

    def test_one_frame_has_no_spread(self):
        assert peres_scan(bell_state(), 1, seed=43).detection.stderr == 0.0

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 4), (3, 3)])
    def test_no_haar_frame_beats_the_eigenbasis(self, dims):
        # sum_m |(u^dag X u)_mm| <= ||X||_1 for every unitary u, with equality at X's eigenbasis
        d = int(np.prod(dims))
        haar = haar_unitaries(d, 2000, np.random.default_rng(d))
        for rank in range(1, d + 1):
            for seed in (44, 45):
                rho = random_density(d, rank, seed=100 * seed + rank, dims=dims)
                values = np.sum(np.abs(frame_diagonals(partial_transpose(rho, 1), haar).real), axis=1) - 1.0
                assert values.max() <= peres_scan(rho, 10, seed=seed).max_violation + 1e-14

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 4), (3, 3)])
    def test_no_haar_frame_detects_a_product_state(self, dims):
        for ra in range(1, dims[0] + 1):
            for rb in range(1, dims[1] + 1):
                rho = product_state(random_density(dims[0], ra, seed=46 + ra), random_density(dims[1], rb, seed=47 + rb))
                result = peres_scan(rho, 2000, seed=48)
                assert result.detection.mean == 0.0 and result.witness is None

    @pytest.mark.parametrize("q", [0.0, 0.2, 1 / 3])
    def test_no_haar_frame_detects_a_separable_werner_state(self, q):
        result = peres_scan(werner_state(q), 2000, seed=49)
        assert result.detection.mean == 0.0 and result.witness is None

    @pytest.mark.memory
    def test_scan_holds_no_frame_stack(self):
        rho = random_density(8, 8, seed=37, dims=(2, 4))
        tracemalloc.start()
        try:
            peres_scan(rho, 10_000, seed=38)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the sampler's Gaussian draw x alone is half of the 10.24 MB stack
        assert peak <= 0.8 * 10_000 * 8 * 8 * 16

    @pytest.mark.memory
    def test_scan_past_the_byte_budget_is_refused_before_the_draw(self, monkeypatch):
        # the draw x and the detections of 16384 frames at n = 8, 8.5 MB, at a 4 MiB budget
        monkeypatch.setitem(LIMITS, "bytes", 2**22)
        message = "^a scan of 16384 Haar frames at dimension 8 would allocate about 0.00852 GB, above the budget"
        rho = random_density(8, 8, seed=41, dims=(2, 4))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                peres_scan(rho, 16384, seed=42)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 16384 * 65 / 100

    def test_a_non_integer_count_is_refused_by_the_sampler(self):
        for count in (10.0, True):
            with pytest.raises(ValueError, match="sample count must be a nonnegative integer"):
                peres_scan(werner_state(1.0), count, seed=40)

    def test_qubit_qutrit_pure_state(self):
        # a random pure 2x3 state is entangled with probability one
        rho = random_density(6, 1, seed=33, dims=(2, 3))
        result = peres_scan(rho, 300, seed=34)
        assert result.min_eigenvalue < -1e-6
        assert abs(result.eigenbasis_value - result.trace_norm_minus_one) < 1e-10
        # the maximum and the witness are the eigenbasis frame's, whatever the draws
        assert result.max_violation == result.eigenbasis_value
        assert np.array_equal(result.witness, np.linalg.eigh(partial_transpose(rho, 1))[1])


class TestRefusals:
    """Refusals that no other test reaches, each through its public entry point."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: GroupSpec("half"), "group kind must be 'full' or 'product'"),
            (lambda: image_sample(bell_state(), GroupSpec("full"), 0, 0), "sample size must be positive"),
            (lambda: factorized_surface_residual([0.2, 0.3, 0.5]), "expected a 4-outcome simplex point"),
        ],
        ids=["group_kind", "no_samples", "three_outcomes"],
    )
    def test_refusal_message(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()
