from itertools import combinations

import numpy as np
import pytest

from conftest import finite_difference_dimension, frame_diagonals_bound, frame_diagonals_oracle
from spintomo import simplex
from spintomo.errors import DegeneratePointError
from spintomo.linalg import DensityMatrix, haar_unitaries, partial_transpose, random_density
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

    def test_a_haar_frame_wins_a_tie_with_the_eigenbasis(self, monkeypatch):
        # -vecs gives bit-identical diagonals to vecs but is a different frame
        rho = werner_state(1.0)
        vecs = np.linalg.eigh(partial_transpose(rho, 1))[1]
        monkeypatch.setattr(simplex, "haar_unitaries", lambda n, count, rng: -vecs[None])
        result = peres_scan(rho, 1, seed=36)
        assert result.max_violation == result.eigenbasis_value
        assert np.array_equal(result.witness, -vecs)

    def test_qubit_qutrit_pure_state(self):
        # a random pure 2x3 state is entangled with probability one
        rho = random_density(6, 1, seed=33, dims=(2, 3))
        result = peres_scan(rho, 300, seed=34)
        assert result.min_eigenvalue < -1e-6
        assert result.witness is not None
        assert abs(result.eigenbasis_value - result.trace_norm_minus_one) < 1e-10
