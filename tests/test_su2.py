import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spintomo.halfint import HalfInt, spin_range
from spintomo.linalg import expm_hermitian_times
from spintomo.su2 import (
    clebsch_gordan,
    irreducible_tensor,
    rotation_matrix,
    tensor_index_pairs,
    wigner_3j,
    wigner_6j,
    wigner_D,
    wigner_d_matrix,
    wigner_d_stack,
    wigner_small_d,
)

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

    def test_bad_spins_raise(self):
        with pytest.raises(ValueError):
            clebsch_gordan(0.3, 0, 0.5, 0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            clebsch_gordan(-1, 0, 1, 0, 1, 0)

    @settings(max_examples=12, deadline=None)
    @given(jt=st.integers(min_value=0, max_value=40))
    def test_zero_coupling_block_orthogonal_to_documented_limit(self, jt):
        # the alternating sums lose digits with j: 6.5e-12 at j = 20, 9.8e-10 at j = 30
        j = HalfInt(jt)
        block = np.array([[clebsch_gordan(j, m, j, -m, HalfInt(2 * L), 0) for L in range(jt + 1)]
                          for m in spin_range(j)])
        assert np.max(np.abs(block.T @ block - np.eye(jt + 1))) <= 1e-11

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

    def test_6j_triangle_rule(self):
        assert wigner_6j(1, 1, 3, 0.5, 0.5, 0.5) == 0.0

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

    def test_out_of_range_labels_raise(self):
        with pytest.raises(ValueError):
            irreducible_tensor(1, 3, 0)
        with pytest.raises(ValueError):
            irreducible_tensor(1, 1, 2)
        with pytest.raises(ValueError):
            irreducible_tensor(1, 0.5, 0.5)
