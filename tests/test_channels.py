import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spintomo.channels import (
    CHANNEL_KINDS,
    KrausChannel,
    amplitude_damping,
    apply_kraus,
    build_channel,
    channel_frame,
    channel_initial_state,
    channel_propagator,
    channel_tomogram_closed_form,
    choi_matrix,
    depolarizing,
    kraus_to_superoperator,
    phase_damping,
)
from spintomo.errors import InvalidChannelError
from spintomo.linalg import DensityMatrix, haar_unitary, random_density
from spintomo.quadrature import make_grid
from spintomo.states import PAULIS
from spintomo.symbols import SpinTransform, grid_frames, spin_tomogram, unitary_tomogram

ALL_KINDS = ("depolarizing", "phase_damping", "amplitude_damping")


def random_axis(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


class TestKrausValidation:
    @settings(max_examples=30, deadline=None)
    @given(
        bad=st.sampled_from([np.nan, np.inf, -np.inf]),
        op=st.integers(min_value=0, max_value=3),
        entry=st.integers(min_value=0, max_value=3),
    )
    def test_non_finite_kraus_operator_rejected(self, bad, op, entry):
        ops = [v.copy() for v in depolarizing(0.2).ops]
        ops[op].reshape(-1)[entry] = bad
        with pytest.raises(ValueError, match="matrix entries must be finite numbers"):
            KrausChannel(ops)


class TestApplyKraus:
    def test_identity_channel(self):
        rho = random_density(2, 2, seed=1)
        out = apply_kraus(KrausChannel([np.eye(2, dtype=complex)]), rho)
        assert np.max(np.abs(out.mat - rho.mat)) < 1e-14

    def test_depolarizing_three_quarters_is_total_mixer(self):
        # oracle: the map written out directly from the Pauli combination
        rho = random_density(2, 2, seed=2)
        p = 0.75
        direct = (1 - p) * rho.mat + (p / 3) * sum(s @ rho.mat @ s for s in PAULIS)
        out = apply_kraus(depolarizing(p), rho)
        assert np.max(np.abs(out.mat - direct)) < 1e-14
        assert np.max(np.abs(out.mat - np.eye(2) / 2)) < 1e-12

    def test_full_amplitude_damping_resets(self):
        excited = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
        out = apply_kraus(amplitude_damping(1.0), excited)
        assert np.max(np.abs(out.mat - np.diag([1.0, 0.0]))) < 1e-14

    def test_invalid_channel_rejected(self):
        with pytest.raises(InvalidChannelError):
            KrausChannel([np.diag([1.0, 0.8])])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_kraus(depolarizing(0.1), random_density(3, 3, seed=3))


class TestSuperoperator:
    def test_unitary_channel_tensor_form(self):
        u = haar_unitary(3, 4)
        s = kraus_to_superoperator(KrausChannel([u]))
        assert np.max(np.abs(s - np.kron(u, u.conj()))) < 1e-14

    def test_identity_channel(self):
        s = kraus_to_superoperator(KrausChannel([np.eye(2, dtype=complex)]))
        assert np.max(np.abs(s - np.eye(4))) < 1e-14

    def test_agrees_with_apply_kraus(self, rng):
        ch = amplitude_damping(0.3)
        s = kraus_to_superoperator(ch)
        for k in range(50):
            rho = random_density(2, int(rng.integers(1, 3)), seed=100 + k)
            out = (s @ rho.mat.reshape(-1)).reshape(2, 2)
            assert np.max(np.abs(out - apply_kraus(ch, rho).mat)) < 1e-12

    def test_trace_preserved_through_vec(self):
        ch = phase_damping(0.6)
        s = kraus_to_superoperator(ch)
        rho = random_density(2, 2, seed=5)
        assert abs(np.trace((s @ rho.mat.reshape(-1)).reshape(2, 2)) - 1.0) < 1e-10

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_equals_sum_of_kron_terms(self, k, n):
        # one Kronecker product over the Kraus stack, summed in Kraus order
        isometry = haar_unitary(k * n, 40 + 10 * k + n)[:, :n]
        ch = KrausChannel(list(isometry.reshape(k, n, n)))
        want = sum(np.kron(v, v.conj()) for v in ch.ops)
        assert np.array_equal(kraus_to_superoperator(ch), want)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_standard_channels_equal_sum_of_kron_terms(self, kind):
        # these Kraus sets have exact zeros, and 3 or 4 operators
        ch = build_channel(kind, 0.35)
        assert np.array_equal(kraus_to_superoperator(ch), sum(np.kron(v, v.conj()) for v in ch.ops))


class TestBuilders:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_p_zero_is_identity_channel(self, kind):
        rho = random_density(2, 2, seed=6)
        out = apply_kraus(build_channel(kind, 0.0), rho)
        assert np.max(np.abs(out.mat - rho.mat)) < 1e-12

    @pytest.mark.parametrize("p", np.linspace(0.0, 1.0, 21))
    def test_phase_damping_completeness(self, p):
        ch = phase_damping(p)
        total = sum(k.conj().T @ k for k in ch.ops)
        assert np.max(np.abs(total - np.eye(2))) < 1e-12

    def test_amplitude_damping_total_reset(self, rng):
        ch = amplitude_damping(1.0)
        for k in range(10):
            rho = random_density(2, int(rng.integers(1, 3)), seed=200 + k)
            out = apply_kraus(ch, rho)
            assert np.max(np.abs(out.mat - np.diag([1.0, 0.0]))) < 1e-12

    def test_parameter_range(self):
        for kind in ALL_KINDS:
            with pytest.raises(ValueError):
                build_channel(kind, -0.1)
            with pytest.raises(ValueError):
                build_channel(kind, 1.1)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("p", np.linspace(0.0, 1.0, 21))
    def test_trace_preservation(self, kind, p):
        rho = random_density(2, 2, seed=7)
        out = apply_kraus(build_channel(kind, p), rho)
        assert abs(np.trace(out.mat) - 1.0) < 1e-12

    def test_kinds_are_one_table(self):
        assert CHANNEL_KINDS == ALL_KINDS
        for kind in ALL_KINDS:
            assert build_channel(kind, 0.2).ops[0].shape == (2, 2)
            assert channel_initial_state(kind).dim == 2

    @pytest.mark.parametrize(
        "call",
        [
            lambda kind: build_channel(kind, 0.2),
            channel_initial_state,
            lambda kind: channel_tomogram_closed_form(kind, 0.2, 0.3, (0.0, 0.0, 1.0)),
        ],
        ids=["build_channel", "channel_initial_state", "channel_tomogram_closed_form"],
    )
    def test_unknown_kind_has_one_refusal(self, call):
        message = ("unknown channel kind 'bit_flip'; choose from "
                   "('depolarizing', 'phase_damping', 'amplitude_damping')")
        with pytest.raises(ValueError) as info:
            call("bit_flip")
        assert str(info.value) == message

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_choi_matrix_psd(self, kind):
        for p in (0.0, 0.3, 0.9, 1.0):
            c = choi_matrix(build_channel(kind, p))
            assert np.min(np.linalg.eigvalsh(c)) > -1e-10


class TestClosedForms:
    def test_depolarizing_fixed_point(self, rng):
        for _ in range(5):
            theta = rng.uniform(0, 2 * np.pi)
            wp, wm = channel_tomogram_closed_form("depolarizing", 0.75, theta, random_axis(rng))
            assert (wp, wm) == (0.5, 0.5)

    def test_phase_damping_contracts_to_point(self, rng):
        for _ in range(5):
            wp, wm = channel_tomogram_closed_form(
                "phase_damping", 1.0, rng.uniform(0, 2 * np.pi), random_axis(rng)
            )
            assert (wp, wm) == (0.5, 0.5)

    def test_amplitude_damping_midpoint(self, rng):
        for _ in range(5):
            wp, wm = channel_tomogram_closed_form(
                "amplitude_damping", 0.5, rng.uniform(0, 2 * np.pi), random_axis(rng)
            )
            assert wp == pytest.approx(0.5, abs=1e-15)
            assert wp + wm == 1.0

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_equals_direct_evolution(self, kind, p, rng):
        rho0 = channel_initial_state(kind)
        out = apply_kraus(build_channel(kind, p), rho0)
        for _ in range(20):
            theta = rng.uniform(0, 2 * np.pi)
            axis = random_axis(rng)
            u = channel_frame(theta, axis)
            t = unitary_tomogram(out, [u])
            wp, wm = channel_tomogram_closed_form(kind, p, theta, axis)
            assert abs(wp - t.values[0, 0]) < 1e-10
            assert abs(wm - t.values[1, 0]) < 1e-10

    def test_axis_must_be_normalized(self):
        with pytest.raises(ValueError):
            channel_tomogram_closed_form("depolarizing", 0.2, 0.5, (1.0, 1.0, 0.0))

    @pytest.mark.parametrize("axis", [(float("nan"), 0.0, 0.0), (0.0, float("inf"), 0.0)])
    def test_non_finite_axis_refused(self, axis):
        with pytest.raises(ValueError, match="unit 3-vector"):
            channel_frame(0.3, axis)
        for kind in ALL_KINDS:
            with pytest.raises(ValueError, match="unit 3-vector"):
                channel_tomogram_closed_form(kind, 0.2, 0.3, axis)

    @pytest.mark.parametrize("theta", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_theta_refused(self, theta):
        with pytest.raises(ValueError, match="finite"):
            channel_frame(theta, (0.0, 0.0, 1.0))
        for kind in ALL_KINDS:
            with pytest.raises(ValueError, match="finite"):
                channel_tomogram_closed_form(kind, 0.2, theta, (0.0, 0.0, 1.0))


class TestPropagator:
    def test_identity_channel_acts_as_identity(self, rng):
        grid = make_grid(0.5)
        frames = grid_frames(0.5, grid)
        pi = channel_propagator(KrausChannel([np.eye(2, dtype=complex)]), 0.5, grid)
        for k in range(5):
            t = spin_tomogram(random_density(2, 2, seed=300 + k), frames)
            w = t.table.reshape(-1).real
            assert np.max(np.abs(pi @ w - w)) < 1e-8

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_direct_evolution(self, kind):
        grid = make_grid(0.5)
        frames = grid_frames(0.5, grid)
        ch = build_channel(kind, 0.35)
        pi = channel_propagator(ch, 0.5, grid)
        rho = channel_initial_state(kind)
        w_in = spin_tomogram(rho, frames).table.reshape(-1).real
        w_out = spin_tomogram(apply_kraus(ch, rho), frames).table.reshape(-1).real
        assert np.max(np.abs(pi @ w_in - w_out)) < 1e-8

    def test_composition_is_matrix_product(self):
        grid = make_grid(0.5)
        c1, c2 = depolarizing(0.2), amplitude_damping(0.5)
        pi1 = channel_propagator(c1, 0.5, grid)
        pi2 = channel_propagator(c2, 0.5, grid)
        pi21 = channel_propagator(c2.compose(c1), 0.5, grid)
        assert np.max(np.abs(pi21 - pi2 @ pi1)) < 1e-7

    def test_probability_preserved(self):
        grid = make_grid(0.5)
        frames = grid_frames(0.5, grid)
        pi = channel_propagator(phase_damping(0.4), 0.5, grid)
        rho = random_density(2, 2, seed=8)
        w_out = pi @ spin_tomogram(rho, frames).table.reshape(-1).real
        per_frame = w_out.reshape(2, grid.n_nodes).sum(axis=0)
        assert np.max(np.abs(per_frame - 1.0)) < 1e-8

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            channel_propagator(depolarizing(0.1), 1, make_grid(1))

    def test_a_negative_spin_is_refused_as_a_spin(self):
        with pytest.raises(ValueError, match="^spin j must be nonnegative$"):
            channel_propagator(depolarizing(0.1), -0.5, make_grid(0.5))

    @pytest.mark.memory
    def test_refused_above_the_byte_budget_without_allocating(self):
        # (17 * 26 * 50)^2 * 8 B = 3.9 GB at 2j = 16, oversample 1.5
        grid = make_grid(8, oversample=1.5)
        ch = KrausChannel([np.eye(17, dtype=complex)])
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^the dense propagator at j = 8 on .* would allocate about 3.91 GB, "
                                                 r"above the budget of 1.07 GB$"):
                channel_propagator(ch, 8, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_default_grid_at_2j_16_is_within_the_budget(self, monkeypatch):
        # 0.73 GB: the budget check passes and the call goes on to the transform
        def built(*args):
            raise RuntimeError("past the budget check")

        monkeypatch.setattr(SpinTransform, "on_grid", built)
        with pytest.raises(RuntimeError, match="past the budget check"):
            channel_propagator(KrausChannel([np.eye(17, dtype=complex)]), 8, make_grid(8))

    def test_qutrit_unitary_channel(self):
        grid = make_grid(1)
        frames = grid_frames(1, grid)
        ch = KrausChannel([haar_unitary(3, 5)])
        pi = channel_propagator(ch, 1, grid)
        rho = random_density(3, 3, seed=6)
        w_in = spin_tomogram(rho, frames).table.reshape(-1).real
        w_out = spin_tomogram(apply_kraus(ch, rho), frames).table.reshape(-1).real
        assert np.max(np.abs(pi @ w_in - w_out)) < 1e-10


class TestRefusals:
    """Refusals that no other test reaches, each through its public entry point."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: KrausChannel([]), "a channel needs at least one Kraus operator"),
            (lambda: KrausChannel([np.eye(2), np.eye(3)]), "Kraus operators must share one dimension"),
            (lambda: depolarizing(0.1).compose(KrausChannel([np.eye(3)])), "channel dimensions differ"),
        ],
        ids=["empty", "mixed_dims", "compose_across_dims"],
    )
    def test_refusal_message(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()
