import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import irreducible_tensor, tensor_index_pairs
from spintomo import su2
from spintomo.errors import LIMITS
from spintomo.halfint import HalfInt, spin_range
from spintomo.linalg import expm_hermitian_times
from spintomo.su2 import (
    clebsch_gordan,
    rotation_matrix,
    rotation_stack,
    wigner_3j,
    wigner_6j,
    wigner_D,
    wigner_d_matrix,
    wigner_d_stack,
    wigner_small_d,
)
from spintomo.symbols import SpinFrames

HALF_SPINS = [0, 0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4]


def angular_momentum_ops(j):
    """J2, J3 in the m = j..-j basis, built from ladder operators (test oracle)."""
    jt = HalfInt.of(j).twice
    ms = np.array([t / 2.0 for t in range(jt, -jt - 1, -2)])
    jv = jt / 2.0
    n = jt + 1
    jp = np.zeros((n, n), dtype=complex)
    for k in range(1, n):
        m = ms[k]
        jp[k - 1, k] = np.sqrt(jv * (jv + 1) - m * (m + 1))
    jm = jp.conj().T
    j2 = (jp - jm) / 2j
    j3 = np.diag(ms).astype(complex)
    return j2, j3


def alternating_sum_d(j, m1, m2, beta: float) -> float:
    """d^j_{m1 m2}(beta) by the explicit alternating sum over factorials (scalar oracle).

    It cancels digits as j grows (unitarity defect 3e-13 at j = 10, 4e-10 at
    j = 20), so it checks the stack at small j only.
    """
    jt, m1t, m2t = HalfInt.of(j).twice, HalfInt.of(m1).twice, HalfInt.of(m2).twice
    lf = [math.lgamma(k + 1.0) for k in range(jt + 2)]
    pref = 0.5 * (lf[(jt + m2t) // 2] + lf[(jt - m2t) // 2] + lf[(jt + m1t) // 2] + lf[(jt - m1t) // 2])
    c, ms = math.cos(beta / 2.0), -math.sin(beta / 2.0)
    total = 0.0
    for s in range(max(0, (m2t - m1t) // 2), min((jt - m1t) // 2, (jt + m2t) // 2) + 1):
        k_cos = jt + (m2t - m1t) // 2 - 2 * s
        k_sin = (m1t - m2t) // 2 + 2 * s
        logden = lf[s] + lf[(jt - m1t) // 2 - s] + lf[(jt + m2t) // 2 - s] + lf[(m1t - m2t) // 2 + s]
        total += (-1) ** s * math.exp(pref - logden) * c**k_cos * ms**k_sin
    return total


class TestSmallD:
    def test_scalar_representation(self):
        assert wigner_small_d(0, 0, 0, 1.3) == 1.0

    def test_identity_rotation(self):
        assert wigner_small_d(0.5, 0.5, 0.5, 0.0) == 1.0

    def test_j1_middle_element_is_cos(self):
        beta = np.pi / 3
        assert wigner_small_d(1, 0, 0, beta) == pytest.approx(0.5, abs=1e-14)
        for b in (0.1, 1.0, 2.5):
            assert wigner_small_d(1, 0, 0, b) == pytest.approx(np.cos(b), abs=1e-14)

    def test_invalid_pairing_raises(self):
        with pytest.raises(ValueError):
            wigner_small_d(1, 0.5, 0, 0.3)
        with pytest.raises(ValueError):
            wigner_small_d(0.5, 1.5, 0.5, 0.3)
        with pytest.raises(ValueError):
            wigner_small_d(-1, 0, 0, 0.3)

    @pytest.mark.parametrize("j", HALF_SPINS)
    def test_unitarity_random_angles(self, j, rng):
        for beta in rng.uniform(0.0, np.pi, size=100):
            d = wigner_d_matrix(j, beta)
            row_norms = np.sum(d**2, axis=1)
            assert np.max(np.abs(row_norms - 1.0)) < 1e-12

    @pytest.mark.parametrize("j", HALF_SPINS)
    def test_transpose_symmetry(self, j, rng):
        for beta in rng.uniform(-np.pi, np.pi, size=20):
            assert np.max(np.abs(wigner_d_matrix(j, -beta) - wigner_d_matrix(j, beta).T)) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        beta=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
        jt=st.integers(min_value=0, max_value=6),
    )
    def test_unitarity_property(self, beta, jt):
        d = wigner_d_matrix(HalfInt(jt), beta)
        assert np.max(np.abs(d @ d.T - np.eye(jt + 1))) < 1e-11

    @settings(max_examples=40, deadline=None)
    @given(
        beta=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
        jt=st.integers(min_value=0, max_value=120),
    )
    def test_unitarity_up_to_high_spin(self, beta, jt):
        d = wigner_d_matrix(HalfInt(jt), beta)
        assert np.max(np.abs(d @ d.T - np.eye(jt + 1))) <= 1e-13

    def test_zero_angle_is_exact_identity(self):
        for jt in range(121):
            assert np.array_equal(wigner_d_stack(HalfInt(jt), [0.0])[0], np.eye(jt + 1))

    @pytest.mark.parametrize("jt", [0, 1, 4, 17, 40, 120])
    def test_scalar_is_matrix_entry(self, jt, rng):
        j, beta = HalfInt(jt), float(rng.uniform(-np.pi, np.pi))
        d, ms = wigner_d_matrix(j, beta), spin_range(j)
        for i, k in zip(rng.integers(0, jt + 1, 25), rng.integers(0, jt + 1, 25)):
            assert wigner_small_d(j, ms[i], ms[k], beta) == d[i, k]

    @pytest.mark.parametrize(
        "call",
        [
            lambda: wigner_small_d(1, 0, 0, np.nan),
            lambda: wigner_d_matrix(2, np.inf),
            lambda: wigner_d_stack(1.5, [0.3, -np.inf]),
            lambda: rotation_stack(1, [0.3, 0.4], [0.1, np.nan]),
            lambda: rotation_matrix(0.5, np.inf, 0.1, 0.2),
            lambda: rotation_matrix(0.5, 0.1, np.inf, 0.2),
            lambda: rotation_matrix(0.5, 0.1, 0.2, np.nan),
            lambda: wigner_D(1, 1, 0, np.nan, 0.2, 0.3),
            lambda: wigner_D(1, 1, 0, 0.1, -np.inf, 0.3),
            lambda: wigner_D(1, 1, 0, 0.1, 0.2, np.inf),
        ],
        ids=["small_d", "d_matrix", "d_stack", "rotation_stack", "rotation_alpha",
             "rotation_beta", "rotation_gamma", "D_alpha", "D_beta", "D_gamma"],
    )
    def test_non_finite_angles_raise(self, call):
        with pytest.raises(ValueError, match="must be finite"):
            call()

    @pytest.mark.parametrize(
        "call, angles",
        [
            (lambda: wigner_d_stack(1.5, [0.3, -np.inf]), "beta angles"),
            (lambda: rotation_stack(1, [0.3, 0.4], [0.1, np.nan]), "gamma angles"),
            (lambda: rotation_matrix(0.5, np.inf, 0.1, 0.2), "alpha angles"),
            (lambda: wigner_D(1, 1, 0, 0.1, 0.2, np.inf), "alpha and gamma angles"),
        ],
        ids=["d_stack", "rotation_stack", "rotation_matrix", "D"],
    )
    def test_non_finite_angles_get_the_finiteness_message(self, call, angles):
        with pytest.raises(ValueError, match=rf"^{angles} must be finite numbers \(found NaN or infinity\)$"):
            call()

    @pytest.mark.parametrize(
        "betas, gammas",
        [([0.1, 0.2], [0.3]), ([0.1], [0.2, 0.3]), ([[0.1, 0.2]], [[0.3, 0.4]]), (0.1, 0.2), ([], [0.3])],
        ids=["short_gammas", "short_betas", "two_d", "scalars", "empty_betas"],
    )
    def test_rotation_stack_refuses_unpaired_angles(self, betas, gammas):
        # a single gamma would otherwise broadcast over every beta
        with pytest.raises(ValueError, match="frame angle arrays must be 1-d and of equal length"):
            rotation_stack(1, betas, gammas)

    def test_rotation_stack_past_the_byte_budget_is_refused_before_any_d_matrix(self, monkeypatch):
        # 100 frames at j = 2: a (100, 5, 5) complex stack of 40000 bytes, counted with its
        # one chunk's d-matrix stack, 16 * 5 * (2 * 100 * 6 + 4 * 5) bytes, and as much
        # again a frame for the chunk's other scratch, 233600 bytes in all
        betas, gammas = np.linspace(0.1, 3.0, 100), np.linspace(0.0, 6.0, 100)
        built = rotation_stack(2, betas, gammas)

        def builds(*args):
            raise AssertionError("built the d-matrices of a refused stack")

        monkeypatch.setattr(su2, "wigner_d_stack", builds)
        monkeypatch.setitem(LIMITS, "bytes", 233_599)
        message = "^the rotation stack of 100 frames at j = 2 would allocate about 0.000234 GB, above the budget of 0.000234 GB$"
        with pytest.raises(ValueError, match=message):
            rotation_stack(2, betas, gammas)
        with pytest.raises(ValueError, match=message):
            SpinFrames(2, betas, gammas).unitaries()
        # at the budget the stack is built as before
        monkeypatch.setattr(su2, "wigner_d_stack", wigner_d_stack)
        monkeypatch.setitem(LIMITS, "bytes", 233_600)
        assert built.nbytes == 40_000
        assert np.array_equal(SpinFrames(2, betas, gammas).unitaries(), built.conj().swapaxes(1, 2))

    def test_rotation_stack_counts_its_chunk_d_matrices(self, monkeypatch):
        # one frame at 2j = 499: the stack is 16 * 500^2 bytes (4 MB) and its one d-matrix
        # stack counts 24.0 MB, so a budget of 22 MB refuses the rotation stack before
        # the stack exists, with its own text, not the d-matrix stack's after it
        monkeypatch.setitem(LIMITS, "bytes", 22_000_000)
        message = r"^the rotation stack of 1 frames at j = 499/2 would allocate about .* GB, above the budget"
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                rotation_matrix(249.5, 0.1, 0.2, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 500**2 / 16

    def test_rotation_stack_past_the_double_range_is_refused(self):
        # 16 F (2j+1)^2 bytes at 2j = 10^200 has no float, so the estimate reads as inf GB
        message = r" would allocate about inf GB, above the budget of 1\.07 GB$"
        with pytest.raises(ValueError, match=message):
            SpinFrames(HalfInt(10**200), [0.1], [0.2]).unitaries()

    @pytest.mark.memory
    @pytest.mark.parametrize(
        "jt, frames, distinct", [(16, 1000, 1000), (16, 1000, 10), (40, 200, 200)],
        ids=["distinct_j8", "repeated_j8", "distinct_j20"],
    )
    def test_rotation_stack_peak_is_within_its_count(self, jt, frames, distinct, monkeypatch):
        # the traced peak, d-matrices and phases included, stays within the bytes that
        # the budget check counts, and the stack itself is 16 F n^2 bytes
        rng = np.random.default_rng(jt + distinct)
        values = rng.uniform(0.0, np.pi, distinct)
        betas = values if distinct == frames else rng.choice(values, frames)
        gammas = rng.uniform(0.0, 2 * np.pi, frames)
        counted = []
        monkeypatch.setattr(su2, "_check_bytes", lambda nbytes, *args: counted.append(nbytes))
        rotation_stack(HalfInt(jt), betas[:1], gammas[:1])  # imports and first-call caches
        counted.clear()
        tracemalloc.start()
        try:
            stack = rotation_stack(HalfInt(jt), betas, gammas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stack.nbytes == 16 * frames * (jt + 1) ** 2
        # the first count is the whole stack's; each chunk's d-matrix stack counts its own after it
        assert peak <= counted[0]

    @pytest.mark.parametrize(
        "kernel, args", [(wigner_small_d, (10**7, 0, 0, 0.1)), (wigner_d_stack, (10**7, [0.1, 0.2]))],
        ids=["wigner_small_d", "wigner_d_stack"],
    )
    def test_d_matrices_past_the_byte_budget_are_refused_before_any_is_built(self, kernel, args):
        # at 2j + 1 = 2e7 the dense J2 matrix alone is 3.2 PB; refused from the estimate
        angles = len(args[1]) if kernel is wigner_d_stack else 1
        message = rf"^the d-matrix stack of {angles} angles at j = 10000000 would allocate about .* GB, above the budget"
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                kernel(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.memory
    @pytest.mark.parametrize("jt, angles", [(9, 1000), (99, 100), (199, 1)])
    def test_d_stack_peak_is_within_its_count(self, jt, angles, monkeypatch):
        betas = np.linspace(0.1, 3.0, angles)
        counted = []
        monkeypatch.setattr(su2, "_check_bytes", lambda nbytes, *args: counted.append(nbytes))
        wigner_d_stack(HalfInt(jt), betas[:1])  # first-call caches
        tracemalloc.start()
        try:
            wigner_d_stack(HalfInt(jt), betas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= counted[-1]

    @pytest.mark.parametrize("j", [0.5, 1, 2.5, 5])
    def test_stack_matches_scalar_oracle(self, j, rng):
        betas = rng.uniform(-np.pi, np.pi, size=6)
        ms = spin_range(j)
        stack = wigner_d_stack(j, betas)
        for d, beta in zip(stack, betas):
            oracle = np.array([[alternating_sum_d(j, m1, m2, beta) for m2 in ms] for m1 in ms])
            assert np.max(np.abs(d - oracle)) < 1e-13


class TestWignerD:
    def test_identity_angles(self):
        for m1 in spin_range(1.5):
            for m2 in spin_range(1.5):
                want = 1.0 if m1 == m2 else 0.0
                assert wigner_D(1.5, m1, m2, 0, 0, 0) == pytest.approx(want, abs=1e-15)

    def test_modulus_equals_small_d(self, rng):
        for _ in range(20):
            a, b, g = rng.uniform(0, 2 * np.pi, 3)
            val = wigner_D(1, 1, -1, a, b, g)
            assert abs(val) == pytest.approx(abs(wigner_small_d(1, 1, -1, b)), abs=1e-14)

    @pytest.mark.parametrize("j", [0.5, 1, 1.5])
    def test_matches_matrix_exponential_product(self, j, rng):
        j2, j3 = angular_momentum_ops(j)
        for _ in range(5):
            a, b, g = rng.uniform(0, 2 * np.pi, 3)
            oracle = (
                expm_hermitian_times(j3, a)
                @ expm_hermitian_times(j2, b)
                @ expm_hermitian_times(j3, g)
            )
            assert np.max(np.abs(oracle - rotation_matrix(j, a, b, g))) < 1e-12


class TestClebschGordan:
    def test_stretched_state(self):
        assert clebsch_gordan(0.5, 0.5, 0.5, 0.5, 1, 1) == pytest.approx(1.0, abs=1e-15)

    def test_singlet_component(self):
        assert clebsch_gordan(0.5, 0.5, 0.5, -0.5, 0, 0) == pytest.approx(
            1 / np.sqrt(2), abs=1e-15
        )

    @pytest.mark.parametrize("j", [0.5, 1, 1.5, 2])
    def test_zero_coupling_orthonormality(self, j):
        jt = HalfInt.of(j).twice
        for Lt in range(0, 2 * jt + 1, 2):
            total = sum(
                clebsch_gordan(j, m, j, -m, HalfInt(Lt), 0) ** 2 for m in spin_range(j)
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_selection_rules_return_zero(self):
        assert clebsch_gordan(1, 1, 1, 1, 1, 1) == 0.0  # M != m1+m2
        assert clebsch_gordan(1, 0, 1, 0, 3, 0) == 0.0  # triangle violated

    def test_magnetic_number_beyond_spin_returns_zero(self):
        assert clebsch_gordan(1, 2, 1, -2, 2, 0) == 0.0

    def test_bad_spins_raise(self):
        with pytest.raises(ValueError):
            clebsch_gordan(0.3, 0, 0.5, 0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            clebsch_gordan(-1, 0, 1, 0, 1, 0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: clebsch_gordan(-1, 0, 1, 0, 1, 0),
            lambda: wigner_3j(1, -1, 1, 0, 0, 0),
            lambda: wigner_6j(-1, 1, 1, 1, 1, 1),
            lambda: wigner_6j(1, 1, 1, 1, 1, -0.5),
            lambda: wigner_d_stack(-0.5, [0.3]),
            lambda: wigner_small_d(-1, 0, 0, 0.3),
        ],
        ids=["cg", "3j", "6j_first", "6j_last", "d_stack", "small_d"],
    )
    def test_a_negative_spin_gets_the_spin_message(self, call):
        with pytest.raises(ValueError, match="^spin j must be nonnegative$"):
            call()

    @pytest.mark.parametrize(
        "call",
        [lambda: rotation_stack(-1, [0.1], [0.2]), lambda: rotation_matrix(-1, 0.1, 0.2, 0.3)],
        ids=["rotation_stack", "rotation_matrix"],
    )
    def test_a_rotation_kernel_refuses_a_negative_spin(self, call):
        # the spin is checked before 2j + 1 sizes any array
        with pytest.raises(ValueError, match="^spin j must be nonnegative$"):
            call()

    @settings(max_examples=3, deadline=None)
    @given(jt=st.integers(min_value=0, max_value=120))
    @example(jt=120)
    def test_zero_coupling_block_orthogonal_to_documented_limit(self, jt):
        # the sums are exact integers rounded once, so no digits cancel at any spin
        j = HalfInt(jt)
        block = np.array([[clebsch_gordan(j, m, j, -m, HalfInt(2 * L), 0) for L in range(jt + 1)]
                          for m in spin_range(j)])
        assert np.max(np.abs(block.T @ block - np.eye(jt + 1))) <= 1e-13

    def test_completeness_over_coupled_spin_at_large_spin(self):
        # Racah's integer sum reaches 1700 bits here, beyond any float: only the
        # final ratio may be converted
        j, m = HalfInt(200), HalfInt(6)
        total = sum(clebsch_gordan(j, m, j, -m, HalfInt(Jt), 0) ** 2 for Jt in range(0, 401, 2))
        assert abs(total - 1.0) <= 1e-13

    @pytest.mark.parametrize("j1,j2", [(0.5, 0.5), (1, 0.5), (1, 1), (2, 1.5), (2, 2)])
    def test_completeness_and_orthogonality(self, j1, j2):
        j1, j2 = HalfInt.of(j1), HalfInt.of(j2)
        m1s, m2s = spin_range(j1), spin_range(j2)
        couplings = [
            (HalfInt(Jt), HalfInt(Mt))
            for Jt in range(abs(j1.twice - j2.twice), j1.twice + j2.twice + 1, 2)
            for Mt in range(Jt, -Jt - 1, -2)
        ]
        # rows of the coupling matrix are orthonormal both ways
        for J, M in couplings:
            for Jp, Mp in couplings:
                total = sum(
                    clebsch_gordan(j1, m1, j2, m2, J, M)
                    * clebsch_gordan(j1, m1, j2, m2, Jp, Mp)
                    for m1 in m1s
                    for m2 in m2s
                )
                want = 1.0 if (J, M) == (Jp, Mp) else 0.0
                assert total == pytest.approx(want, abs=1e-12)
        for m1 in m1s:
            for m2 in m2s:
                for m1p in m1s:
                    for m2p in m2s:
                        total = sum(
                            clebsch_gordan(j1, m1, j2, m2, J, M)
                            * clebsch_gordan(j1, m1p, j2, m2p, J, M)
                            for J, M in couplings
                        )
                        want = 1.0 if (m1 == m1p and m2 == m2p) else 0.0
                        assert total == pytest.approx(want, abs=1e-12)


class TestThreeSixJ:
    def test_3j_m_sum_rule(self):
        assert wigner_3j(1, 1, 1, 1, 0, 1) == 0.0

    def test_3j_selection_rules_return_zero(self):
        assert wigner_3j(1, 1, 3, 0, 0, 0) == 0.0  # triangle violated
        assert wigner_3j(1, 1, 1, 2, -2, 0) == 0.0  # |m1| > j1

    def test_3j_refuses_m_that_does_not_fit_j(self):
        # the same message as clebsch_gordan's, not a silent 0
        with pytest.raises(ValueError, match="m=1/2 is not of the form j-k for j=1"):
            wigner_3j(1, 1, 1, 0.5, -0.5, 0)
        with pytest.raises(ValueError, match="m=1/2 is not of the form j-k for j=1"):
            clebsch_gordan(1, 0.5, 1, -0.5, 1, 0)

    def test_6j_triangle_rule(self):
        assert wigner_6j(1, 1, 3, 0.5, 0.5, 0.5) == 0.0

    def test_6j_exact_value(self):
        # the exact square 1/36 is rounded once, and its rounded square root is the float 1/6
        assert wigner_6j(1, 1, 1, 1, 1, 1) == 1 / 6

    @pytest.mark.parametrize("jt", [100, 200])
    def test_6j_row_normalized_at_large_spin(self, jt):
        # sum_z (2x+1)(2z+1) {j j x; j j z}^2 = 1 at x = j, where Racah's
        # integer sum outgrows the float range (1100 bits at 2j = 100)
        j = HalfInt(jt)
        zs = [HalfInt(zt) for zt in range(0, 2 * jt + 1, 2)]
        total = sum((jt + 1) * (z.twice + 1) * wigner_6j(j, j, j, j, j, z) ** 2 for z in zs)
        assert abs(total - 1.0) <= 1e-13

    @settings(max_examples=3, deadline=None)
    @given(jt=st.integers(min_value=0, max_value=80))
    @example(jt=80)
    def test_6j_orthogonality(self, jt):
        # sum_z (2x+1)(2z+1) {j j x; j j z}{j j z; j j y} = delta_xy, as B B = 1
        # with B[x, y] = sqrt((2x+1)(2y+1)) {j j x; j j y} symmetric in x, y
        j = HalfInt(jt)
        ls = [HalfInt(2 * x) for x in range(jt + 1)]
        block = np.array([[math.sqrt((x.twice + 1) * (y.twice + 1)) * wigner_6j(j, j, x, j, j, y)
                           for y in ls] for x in ls])
        assert np.max(np.abs(block @ block - np.eye(jt + 1))) <= 1e-13

    def test_6j_closed_form_family(self):
        # {a a 0; b b c} = (-1)^(a+b+c)/sqrt((2a+1)(2b+1))
        for a, b, c in [(1, 0.5, 0.5), (2, 1, 1), (1.5, 1.5, 1)]:
            at, bt, ct = (HalfInt.of(x).twice for x in (a, b, c))
            want = (-1.0) ** ((at + bt + ct) // 2) / np.sqrt((at + 1) * (bt + 1))
            assert wigner_6j(a, a, 0, b, b, c) == pytest.approx(want, abs=1e-13)

    @pytest.mark.parametrize("j", [0.5, 1, 1.5])
    def test_triple_product_trace_identity(self, j):
        # Tr[T_a T_b T_c] against the 3j/6j combination, all labels
        j = HalfInt.of(j)
        pairs = tensor_index_pairs(j)
        tensors = {lm: irreducible_tensor(j, *lm) for lm in pairs}
        for L1, M1 in pairs:
            for L2, M2 in pairs:
                for L, M in pairs:
                    lhs = np.trace(tensors[(L1, M1)] @ tensors[(L2, M2)] @ tensors[(L, M)])
                    phase = (-1.0) ** ((L1.twice + L2.twice + L.twice) // 2 - j.twice)
                    rhs = (
                        phase
                        * wigner_3j(L1, L2, L, M1, M2, M)
                        * wigner_6j(L1, L2, L, j, j, j)
                        * np.sqrt((L1.twice + 1) * (L2.twice + 1) * (L.twice + 1))
                    )
                    assert abs(lhs - rhs) < 1e-10


class TestIrreducibleTensor:
    def test_scalar_component_is_scaled_identity(self):
        t00 = irreducible_tensor(1, 0, 0)
        assert np.max(np.abs(t00 - np.eye(3) / np.sqrt(3))) < 1e-14

    def test_trace_orthonormality(self):
        j = HalfInt.of(1.5)
        pairs = tensor_index_pairs(j)
        for a in pairs:
            for b in pairs:
                val = np.trace(irreducible_tensor(j, *a).conj().T @ irreducible_tensor(j, *b))
                want = 1.0 if a == b else 0.0
                assert abs(val - want) < 1e-12

    def test_elementary_matrix_expansion(self):
        # |j m><j m'| = sum_LM (-1)^(j-m') <j m; j -m'|L M> T_LM
        j = HalfInt.of(1)
        ms = spin_range(j)
        for i, m in enumerate(ms):
            for k, mp in enumerate(ms):
                target = np.zeros((3, 3), dtype=complex)
                target[i, k] = 1.0
                acc = np.zeros((3, 3), dtype=complex)
                for L, M in tensor_index_pairs(j):
                    phase = (-1.0) ** ((j.twice - mp.twice) // 2)
                    acc += phase * clebsch_gordan(j, m, j, -mp, L, M) * irreducible_tensor(j, L, M)
                assert np.max(np.abs(acc - target)) < 1e-12
