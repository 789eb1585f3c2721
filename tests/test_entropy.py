import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import STRADDLING
from spintomo.entropy import (
    _probabilities,
    _renyi,
    frame_probabilities,
    integral_entropy,
    min_entropy_over_group,
    quantum_renyi,
    relative_q_entropy,
    renyi_entropy,
    strong_subadditivity_check,
    subadditivity_check,
    symbol_entropy,
    tsallis_entropy,
    von_neumann,
)
from spintomo.errors import LIMITS
from spintomo.linalg import (
    DensityMatrix,
    frame_diagonals,
    haar_unitaries,
    haar_unitary,
    kron_all,
    partial_trace,
    random_density,
)
from spintomo.states import bell_state, ghz_state, maximally_mixed, product_state, pure_state

DIAG_4321 = DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
H_4321 = 1.2798542258336676  # -sum(p ln p) for (0.4, 0.3, 0.2, 0.1)


class TestSymbolEntropy:
    def test_deterministic_distribution(self):
        assert symbol_entropy([1.0, 0.0]) == 0.0

    def test_uniform(self):
        assert symbol_entropy([0.25] * 4) == pytest.approx(np.log(4), abs=1e-14)

    def test_known_value(self):
        assert symbol_entropy([0.4, 0.3, 0.2, 0.1]) == pytest.approx(H_4321, abs=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            symbol_entropy([0.5, -0.1, 0.6])
        with pytest.raises(ValueError):
            symbol_entropy([0.5, 0.4])


class TestRenyiTsallis:
    @pytest.mark.parametrize("q", [0.5, 2.0, 5.0])
    def test_uniform_gives_log_n(self, q):
        assert renyi_entropy([0.2] * 5, q) == pytest.approx(np.log(5), abs=1e-12)

    def test_limit_to_shannon(self):
        w = [0.5, 0.2, 0.3]
        h = symbol_entropy(w)
        assert abs(renyi_entropy(w, 1.0 + 1e-6) - h) < 1e-5
        assert abs(renyi_entropy(w, 1.0 - 1e-6) - h) < 1e-5
        assert abs(tsallis_entropy(w, 1.0 + 1e-6) - h) < 1e-5

    def test_tsallis_at_order_one_is_shannon(self):
        w = [0.5, 0.2, 0.3]
        assert tsallis_entropy(w, 1.0) == symbol_entropy(w)

    def test_renyi_tsallis_relation(self, rng):
        # R = ln(1 + (1-q) T)/(1-q)
        for _ in range(50):
            w = rng.dirichlet(np.ones(5))
            q = float(rng.uniform(0.05, 3.0))
            if abs(q - 1.0) < 1e-3:
                continue
            r = renyi_entropy(w, q)
            t = tsallis_entropy(w, q)
            assert abs(r - np.log(1 + (1 - q) * t) / (1 - q)) < 1e-12

    def test_monotone_in_q(self, rng):
        for _ in range(20):
            w = rng.dirichlet(np.ones(4))
            values = [renyi_entropy(w, q) for q in (0.3, 0.8, 1.0, 1.5, 2.5)]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            renyi_entropy([1.0], 0.0)
        with pytest.raises(ValueError):
            tsallis_entropy([1.0], -1.0)

    @settings(max_examples=25, deadline=None)
    @given(q=st.floats(min_value=0.1, max_value=4.0), n=st.integers(2, 6))
    def test_renyi_bounds_property(self, q, n):
        rng = np.random.default_rng(n * 1000 + int(q * 100))
        w = rng.dirichlet(np.ones(n))
        r = renyi_entropy(w, q)
        assert -1e-12 <= r <= np.log(n) + 1e-12


class TestRelativeQEntropy:
    def test_identical_distributions(self):
        w = [0.3, 0.3, 0.4]
        for q in (0.5, 1.0, 2.0):
            assert relative_q_entropy(w, w, q) == pytest.approx(0.0, abs=1e-14)

    def test_kullback_leibler_limit(self):
        kl = relative_q_entropy([0.5, 0.5], [0.25, 0.75], 1.0)
        assert kl == pytest.approx(0.5 * np.log(2) + 0.5 * np.log(2 / 3), abs=1e-12)

    def test_nonnegativity_scan(self, rng):
        for _ in range(1000):
            w1 = rng.dirichlet(np.ones(4))
            w2 = rng.dirichlet(np.ones(4))
            for q in (0.5, 1.0, 2.0):
                assert relative_q_entropy(w1, w2, q) >= -1e-10

    def test_support_mismatch_is_infinite(self):
        assert relative_q_entropy([0.5, 0.5, 0.0], [0.5, 0.0, 0.5], 1.0) == np.inf

    def test_support_mismatch_is_finite_only_below_order_1(self):
        # ln_q(0) = -1/(1-q) for q < 1: the vanishing entry adds 0.5 / (1 - q)
        assert relative_q_entropy([0.5, 0.5, 0.0], [0.5, 0.0, 0.5], 0.5) == 1.0
        assert relative_q_entropy([0.5, 0.5, 0.0], [0.5, 0.0, 0.5], 2.0) == np.inf

    def test_support_mismatch_below_order_1_is_continuous(self):
        near = relative_q_entropy([0.5, 0.5, 0.0], [0.5, 1e-300, 0.5], 0.5)
        assert near == relative_q_entropy([0.5, 0.5, 0.0], [0.5, 0.0, 0.5], 0.5)


class TestQuantumEntropies:
    def test_pure_state(self):
        assert von_neumann(pure_state([1.0, 2.0j, -1.0])) == pytest.approx(0.0, abs=1e-10)

    def test_maximally_mixed(self):
        assert von_neumann(maximally_mixed((4,))) == pytest.approx(np.log(4), abs=1e-12)

    def test_known_spectrum(self):
        assert von_neumann(DIAG_4321) == pytest.approx(H_4321, abs=1e-12)

    def test_quantum_renyi(self):
        assert quantum_renyi(DIAG_4321, 2.0) == pytest.approx(np.log(1 / 0.3), abs=1e-12)
        assert quantum_renyi(DIAG_4321, 1.0) == pytest.approx(H_4321, abs=1e-12)


class TestOrderValidation:
    @pytest.mark.parametrize("q", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0])
    def test_orders_outside_zero_to_infinity_refused(self, q):
        w = np.array([0.5, 0.5])
        for call in (
            lambda: renyi_entropy(w, q),
            lambda: tsallis_entropy(w, q),
            lambda: relative_q_entropy(w, w, q),
            lambda: quantum_renyi(DIAG_4321, q),
            lambda: min_entropy_over_group(DIAG_4321, 4, 0, q=q),
        ):
            with pytest.raises(ValueError, match="finite and positive"):
                call()


class TestNonFiniteDistributions:
    # NaN fails every comparison, so the sign and sum checks alone let it through
    def test_symbol_entropy_refuses_nan(self):
        with pytest.raises(ValueError, match="w must be finite numbers"):
            symbol_entropy([0.5, np.nan, 0.5])

    def test_renyi_entropy_refuses_nan(self):
        with pytest.raises(ValueError, match="w must be finite numbers"):
            renyi_entropy([np.nan, 1.0], 2.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_tsallis_entropy_refuses_non_finite(self, bad):
        with pytest.raises(ValueError, match="w must be finite numbers"):
            tsallis_entropy([bad, 1.0], 2.0)

    def test_relative_q_entropy_refuses_nan(self):
        with pytest.raises(ValueError, match="w2 must be finite numbers"):
            relative_q_entropy([0.5, 0.5], [np.nan, 1.0], 1.0)


class TestFrameProbabilities:
    # the frames are read as UnitaryFrames reads them, and refused with its texts
    @pytest.mark.parametrize(
        "frames, message",
        [
            (np.eye(4), r"^frame shape \(4,\) does not match state dimension 4$"),
            (2 * np.eye(4)[None], "^frame is not unitary within 1e-8$"),
            (np.eye(4)[:0], "^at least one frame is required$"),
        ],
        ids=["unstacked", "non_unitary", "empty"],
    )
    def test_refuses_frames_that_are_no_unitary_frames_of_the_state(self, frames, message):
        with pytest.raises(ValueError, match=message):
            frame_probabilities(random_density(4, 4, seed=40), frames)

    def test_tuple_frames_are_those_of_their_product_stack(self):
        rho, rng = random_density(4, 4, seed=41, dims=(2, 2)), np.random.default_rng(42)
        factors = [haar_unitaries(2, 5, rng) for _ in range(2)]
        probs = frame_probabilities(rho, list(zip(*factors)))
        assert np.array_equal(probs, frame_probabilities(rho, kron_all(factors)))
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-14)


class TestMinOverGroup:
    def test_maximally_mixed_is_flat(self):
        report = min_entropy_over_group(maximally_mixed((3,)), 200, seed=1)
        assert report.min_value == pytest.approx(np.log(3), abs=1e-12)
        assert np.max(np.abs(report.per_frame - np.log(3))) < 1e-10

    def test_pure_state_minimum_zero(self):
        report = min_entropy_over_group(random_density(3, 1, seed=2), 500, seed=3)
        assert report.min_value == pytest.approx(0.0, abs=1e-10)
        assert np.min(report.per_frame) > 0.01  # Haar frames are never the eigenbasis

    def test_known_spectrum_bound(self):
        report = min_entropy_over_group(DIAG_4321, 10_000, seed=4)
        assert report.min_value == pytest.approx(H_4321, abs=1e-12)
        assert np.min(report.per_frame) >= report.min_value - 1e-9

    def test_argmin_frame_attains_minimum(self):
        rho = random_density(4, 4, seed=5)
        report = min_entropy_over_group(rho, 10, seed=6)
        probs = frame_probabilities(rho, report.argmin_frame[None, :, :])[0]
        assert symbol_entropy(probs) == pytest.approx(report.min_value, abs=1e-10)

    @pytest.mark.parametrize("q", [0.5, 2.0])
    def test_renyi_variant(self, q):
        rho = random_density(3, 3, seed=7)
        report = min_entropy_over_group(rho, 2000, seed=8, q=q)
        assert report.min_value == pytest.approx(quantum_renyi(rho, q), abs=1e-12)
        assert np.min(report.per_frame) >= report.min_value - 1e-9

    def test_negative_verification_count_refused(self):
        with pytest.raises(ValueError, match="sample count must be a nonnegative integer, got -3"):
            min_entropy_over_group(DIAG_4321, -3, seed=1)
        assert min_entropy_over_group(DIAG_4321, 0, seed=1).monte_carlo is None

    @pytest.mark.parametrize("count", [-1, 2.5, "4", True])
    def test_every_count_goes_through_the_sampler_check(self, count):
        # one rule for every count: a string or a bool is refused as a negative number is
        with pytest.raises(ValueError, match=f"sample count must be a nonnegative integer, got {count!r}"):
            min_entropy_over_group(DIAG_4321, count, 0)


class TestIntegralEntropy:
    def test_maximally_mixed_exact(self):
        mean, stderr = integral_entropy(maximally_mixed((2,)), 100, seed=9)
        assert mean == pytest.approx(np.log(2), abs=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-12)

    def test_pure_qubit_range_and_reproducibility(self):
        rho = random_density(2, 1, seed=10)
        m1, s1 = integral_entropy(rho, 3000, seed=11)
        m2, _ = integral_entropy(rho, 3000, seed=11)
        m3, s3 = integral_entropy(rho, 3000, seed=12)
        assert m1 == m2
        assert 0.0 < m1 < np.log(2)
        assert abs(m1 - m3) < 3.0 * (s1 + s3)

    def test_mean_dominates_minimum(self):
        for k in range(5):
            rho = random_density(3, 3, seed=800 + k)
            mean, stderr = integral_entropy(rho, 400, seed=900 + k)
            assert mean >= von_neumann(rho) - 3.0 * stderr

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            integral_entropy(maximally_mixed((2,)), 1, seed=13)


class TestSubadditivity:
    def test_product_state_product_frame_equality(self):
        r12 = product_state(random_density(2, 2, seed=14), random_density(2, 2, seed=15))
        u = (haar_unitary(2, 16), haar_unitary(2, 17))
        res = subadditivity_check(r12, u)
        assert res.holds
        assert res.slack == pytest.approx(0.0, abs=1e-10)

    def test_bell_state_diagonalizing_frame(self):
        # joint eigenbasis frame: H12 attains S12 = 0, below S1 + S2 = 2 ln 2
        bell = bell_state()
        _, vecs = np.linalg.eigh(bell.mat)
        res = subadditivity_check(bell, vecs[:, ::-1])
        assert res.h12 == pytest.approx(0.0, abs=1e-10)
        assert res.holds
        s1 = von_neumann(partial_trace(bell, 0))
        s2 = von_neumann(partial_trace(bell, 1))
        assert res.h12 <= s1 + s2 + 1e-12
        assert s1 == pytest.approx(np.log(2), abs=1e-12)

    def test_random_scan(self, rng):
        for k in range(300):
            rho = random_density(4, int(rng.integers(1, 5)), seed=2000 + k, dims=(2, 2))
            u = haar_unitary(4, 3000 + k)
            assert subadditivity_check(rho, u).holds

    def test_needs_bipartition(self):
        with pytest.raises(ValueError):
            subadditivity_check(random_density(4, 4, seed=18), np.eye(4))

    @pytest.mark.parametrize("u", [2.0 * np.eye(4), (np.eye(2), np.diag([1.0, 0.5]))])
    def test_refuses_non_unitary_frame(self, u):
        with pytest.raises(ValueError, match="not unitary"):
            subadditivity_check(random_density(4, 4, seed=18, dims=(2, 2)), u)


class TestStrongSubadditivity:
    def test_three_fold_product_state(self):
        rho = product_state(
            random_density(2, 2, seed=19),
            random_density(2, 2, seed=20),
            random_density(2, 2, seed=21),
        )
        res = strong_subadditivity_check(rho, np.eye(8, dtype=complex))
        assert res.holds
        assert res.slack >= -1e-12

    def test_ghz_random_frames(self):
        for k in range(20):
            res = strong_subadditivity_check(ghz_state(), haar_unitary(8, 4000 + k))
            assert res.holds

    def test_random_scan(self, rng):
        for k in range(300):
            rho = random_density(8, int(rng.integers(1, 9)), seed=5000 + k, dims=(2, 2, 2))
            u = haar_unitary(8, 6000 + k)
            assert strong_subadditivity_check(rho, u).holds

    def test_needs_tripartition(self):
        with pytest.raises(ValueError):
            strong_subadditivity_check(random_density(8, 8, seed=22), np.eye(8))

    def test_refuses_non_unitary_frame(self):
        with pytest.raises(ValueError, match="not unitary"):
            strong_subadditivity_check(random_density(8, 8, seed=22, dims=(2, 2, 2)), 1.1 * np.eye(8))


class TestSpectralRenyi:
    """Eigenvalue roundoff must not count as support: x^q lifts 1e-17 to 0.02 at q = 0.1."""

    @pytest.mark.parametrize("q", [0.1, 0.3, 0.5, 2.0, 5.0])
    def test_pure_state_has_zero_entropy(self, q):
        rho = pure_state([1.0, 1.0j, 0.3, -0.2])
        assert abs(quantum_renyi(rho, q)) <= 1e-12
        assert abs(min_entropy_over_group(rho, 0, seed=0, q=q).min_value) <= 1e-12

    @pytest.mark.parametrize("q", [0.1, 0.3, 2.0])
    def test_rank_two_state_matches_its_spectrum(self, q):
        p = np.array([0.7, 0.3] + [0.0] * 6)
        u = haar_unitary(8, 3)
        rho = DensityMatrix(u @ np.diag(p) @ u.conj().T)
        exact = np.log(0.7**q + 0.3**q) / (1.0 - q)
        assert abs(quantum_renyi(rho, q) - exact) <= 1e-12
        assert abs(min_entropy_over_group(rho, 0, seed=0, q=q).min_value - exact) <= 1e-12


class TestLargeOrders:
    """sum p^q underflows to 0 from q of a few hundred unless p is scaled first."""

    @pytest.mark.parametrize("q", [600.0, 1000.0, 1e6])
    def test_uniform_distribution_keeps_ln_n(self, q):
        assert quantum_renyi(maximally_mixed((4,)), q) == pytest.approx(np.log(4.0), abs=1e-12)
        assert renyi_entropy(np.full(4, 0.25), q) == pytest.approx(np.log(4.0), abs=1e-12)

    @pytest.mark.parametrize("q", [600.0, 1000.0, 1e6])
    def test_approaches_min_entropy(self, q):
        # ln sum p^q -> q ln p_max, so H_q -> q/(q-1) (-ln p_max) = H_inf q/(q-1)
        assert quantum_renyi(DIAG_4321, q) == pytest.approx(q / (q - 1.0) * -np.log(0.4), abs=1e-12)


class TestNearOrderOne:
    """Near q = 1 each q-entropy is its first-order expansion about q = 1.

    The closed forms subtract two numbers within O(|q - 1|) of each other there,
    which cost 1.8% of the Shannon value at q = 1 - 1e-14.  With t = q - 1 and
    L the largest |ln| that enters, the expansions' remainders are below t^2 L^3.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        weights=st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=2, max_size=8).filter(any),
        others=st.lists(st.floats(0.01, 1.0), min_size=8, max_size=8),
        exponent=st.floats(-15.0, -4.0),
        above=st.booleans(),
    )
    def test_q_entropies_equal_their_first_order_expansion(self, weights, others, exponent, above):
        t = 10.0**exponent if above else -(10.0**exponent)
        q = 1.0 + t
        p = np.array(weights) / sum(weights)
        other = np.array(others[: p.size]) / sum(others[: p.size])
        support = p > 0.0
        logs, log_ratios = np.log(p[support]), np.log(other[support] / p[support])
        h = -np.sum(p[support] * logs)
        variance = np.sum(p[support] * (logs + h) ** 2)
        second = np.sum(p[support] * logs**2)
        kl = -np.sum(p[support] * log_ratios)
        big = max(np.abs(logs).max(), np.abs(log_ratios).max(), 1.0)
        tol = 1e-12 + t * t * big**3
        assert abs(renyi_entropy(p, q) - (h - t * variance / 2)) <= tol
        assert abs(quantum_renyi(DensityMatrix(np.diag(p).astype(complex)), q) - (h - t * variance / 2)) <= tol
        assert abs(tsallis_entropy(p, q) - (h - t * second / 2)) <= tol
        assert abs(relative_q_entropy(p, other, q) - (kl + t * np.sum(p[support] * log_ratios**2) / 2)) <= tol

    def test_support_mismatch_near_order_1_below_it(self):
        # ln_q(0) = -1/(1-q): the vanishing entry adds 0.5 / (1 - q)
        assert relative_q_entropy([0.5, 0.5, 0.0], [0.5, 0.0, 0.5], 1.0 - 1e-3) == pytest.approx(500.0, rel=1e-12)
        assert relative_q_entropy([0.5, 0.5, 0.0], [0.5, 0.0, 0.5], 1.0 + 1e-3) == np.inf


class TestOneKernel:
    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
    def test_per_frame_values_are_the_row_entropies(self, q):
        rho = random_density(4, 2, seed=31)
        report = min_entropy_over_group(rho, 20, seed=32, q=q)
        probs = frame_probabilities(rho, haar_unitaries(4, 20, 32))
        rows = [renyi_entropy(row / row.sum(), q) for row in probs]
        assert np.max(np.abs(report.per_frame - rows)) < 1e-14

    @pytest.mark.parametrize("n, count", STRADDLING)
    def test_per_frame_values_are_those_of_the_haar_stack(self, n, count):
        # each block is reduced as it is drawn; the values are the stack's bit for bit
        rho, q = random_density(n, n, seed=n + count), (1.0, 2.0)[count % 2]
        report = min_entropy_over_group(rho, count, seed=count, q=q)
        stack = haar_unitaries(n, count, count)  # frame_probabilities refuses the empty set that count 0 draws
        assert np.array_equal(report.per_frame, _renyi(_probabilities(frame_diagonals(rho.mat, stack)), q))

    @pytest.mark.memory
    def test_scan_holds_no_frame_stack(self):
        rho = random_density(8, 8, seed=35)
        tracemalloc.start()
        try:
            min_entropy_over_group(rho, 10_000, seed=36)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the sampler's Gaussian draw x alone is half of the 10.24 MB stack
        assert peak <= 0.8 * 10_000 * 8 * 8 * 16

    @pytest.mark.memory
    def test_scan_past_the_byte_budget_is_refused_before_the_draw(self, monkeypatch):
        # the draw x and the entropies of 16384 frames at n = 8, 8.5 MB, at a 4 MiB budget
        monkeypatch.setitem(LIMITS, "bytes", 2**22)
        message = "^a scan of 16384 Haar frames at dimension 8 would allocate about 0.00852 GB, above the budget"
        rho = random_density(8, 8, seed=39)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                min_entropy_over_group(rho, 16384, seed=40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 16384 * 65 / 100

    def test_a_non_integer_count_is_refused_by_the_sampler(self):
        # refused before the scan allocates for its entropies
        for count in (10.0, True, "4"):
            with pytest.raises(ValueError, match="sample count must be a nonnegative integer"):
                min_entropy_over_group(random_density(2, 2, seed=37), count, seed=38)
            with pytest.raises(ValueError, match="sample count must be a nonnegative integer"):
                integral_entropy(random_density(2, 2, seed=37), count, seed=38)

    def test_integral_entropy_is_the_monte_carlo_part(self):
        rho = random_density(3, 2, seed=33)
        mc = min_entropy_over_group(rho, 50, seed=34).monte_carlo
        assert integral_entropy(rho, 50, seed=34) == (mc.mean, mc.stderr)

    def test_entropies_are_never_negative_zero(self):
        for value in (renyi_entropy([1.0, 0.0], 1.0), renyi_entropy([1.0, 0.0], 3.0),
                      quantum_renyi(pure_state([1.0, 0.0]), 5.0)):
            assert value == 0.0 and np.copysign(1.0, value) == 1.0


class TestRefusals:
    """Refusals that no other test reaches, each through its public entry point."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: symbol_entropy([]), "w must be nonempty"),
            (lambda: relative_q_entropy([0.5, 0.5], [0.2, 0.3, 0.5], 1.0), "distributions must have equal length"),
        ],
        ids=["empty", "unequal_lengths"],
    )
    def test_refusal_message(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()
