import re
import tracemalloc

import numpy as np
import pytest

from conftest import FRAME_KINDS, frame_set, random_hermitian
from spintomo.dynamics import (
    Povm,
    evolve_state,
    evolve_tomogram,
    measure_update,
    measurement_probabilities,
    measurement_star_map,
    povm_validate,
)
from spintomo.errors import ZeroProbabilityError
from spintomo.linalg import expm_hermitian_times, frame_diagonals, haar_unitaries, random_density
from spintomo.quadrature import make_grid
from spintomo.reconstruction import reconstruct_from_unitary_frame, reconstruction_residual
from spintomo.halfint import HalfInt
from spintomo.star import star_compose, star_grid
from spintomo.states import SIGMA_Z, bell_state, plus_state, pure_state
from spintomo.symbols import SpinFrames, grid_frames, spin_tomogram, unitary_tomogram


class TestEvolveState:
    def test_zero_time(self):
        rho = random_density(3, 2, seed=1)
        out = evolve_state(rho, np.diag([1.0, 2.0, 3.0]), 0.0)
        assert np.max(np.abs(out.mat - rho.mat)) < 1e-14

    def test_commuting_hamiltonian_fixes_state(self):
        rho = random_density(2, 2, seed=2)
        w, v = np.linalg.eigh(rho.mat)
        h = (v * np.array([0.7, -1.3])) @ v.conj().T  # same eigenbasis
        out = evolve_state(rho, h, 2.1)
        assert np.max(np.abs(out.mat - rho.mat)) < 1e-12

    def test_qubit_phase_rotation(self):
        # |+> under H = sigma_z/2: off-diagonal picks up e^{-it}
        t = np.pi / 2
        out = evolve_state(plus_state(), SIGMA_Z / 2, t)
        assert out.mat[0, 1] == pytest.approx(0.5 * np.exp(-1j * t), abs=1e-12)
        assert out.mat[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_spectrum_invariant(self, rng):
        rho = random_density(4, 3, seed=3)
        out = evolve_state(rho, random_hermitian(4, rng), 1.7)
        assert np.allclose(out.eigenvalues(), rho.eigenvalues(), atol=1e-10)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            evolve_state(random_density(2, 1, seed=4), np.array([[0, 1], [0, 0]]), 1.0)


class TestEvolveTomogram:
    def test_zero_hamiltonian(self):
        rho = random_density(2, 2, seed=5)
        t0 = unitary_tomogram(rho, list(haar_unitaries(2, 4, 6)))
        t1 = evolve_tomogram(t0, np.zeros((2, 2)), 3.0)
        assert np.max(np.abs(t1.table - t0.table)) < 1e-12

    def test_matches_direct_evolution(self, rng):
        for k in range(20):
            rho = random_density(2, 2, seed=100 + k)
            h = random_hermitian(2, rng)
            t = float(rng.uniform(0, 4))
            us = list(haar_unitaries(2, 3, 200 + k))
            shifted = evolve_tomogram(unitary_tomogram(rho, us), h, t)
            direct = unitary_tomogram(evolve_state(rho, h, t), us)
            assert np.max(np.abs(shifted.table - direct.table)) < 1e-10

    def test_two_half_steps_compose(self, rng):
        rho = random_density(3, 3, seed=7)
        h = random_hermitian(3, rng)
        us = list(haar_unitaries(3, 3, 8))
        t0 = unitary_tomogram(rho, us)
        once = evolve_tomogram(t0, h, 1.0)
        twice = evolve_tomogram(evolve_tomogram(t0, h, 0.5), h, 0.5)
        assert np.max(np.abs(once.table - twice.table)) < 1e-10

    def test_product_frames_shift_jointly(self, rng):
        rho = random_density(4, 2, seed=50, dims=(2, 2))
        frames = [(haar_unitaries(2, 1, 51)[0], haar_unitaries(2, 1, 52)[0])]
        h = random_hermitian(4, rng)
        shifted = evolve_tomogram(unitary_tomogram(rho, frames), h, 0.8)
        direct = unitary_tomogram(evolve_state(rho, h, 0.8), frames)
        assert np.max(np.abs(shifted.table - direct.table)) < 1e-10

    @pytest.mark.parametrize("on_grid", [True, False])
    def test_spin_frames_shift_on_their_own_frames(self, rng, on_grid):
        # a spin frame is the unitary frame R(g)^dag, so the frame shift needs no grid
        rho = random_density(4, 4, seed=60)
        if on_grid:
            frames = grid_frames(1.5, make_grid(1.5))
        else:
            frames = SpinFrames(1.5, rng.uniform(0, np.pi, 7), rng.uniform(0, 2 * np.pi, 7))
        h = random_hermitian(4, rng)
        shifted = evolve_tomogram(spin_tomogram(rho, frames), h, 0.8)
        direct = spin_tomogram(evolve_state(rho, h, 0.8), frames)
        assert shifted.frames is frames
        assert np.max(np.abs(shifted.table - direct.table)) <= 1e-13

    @pytest.mark.parametrize("kind", FRAME_KINDS)
    def test_equals_the_frame_shift_table(self, rng, kind):
        # w(m, u, t) = w(m, U(t)^dag u, 0): the time-zero state on the shifted frames
        rho, h, frames = random_density(4, 4, seed=61), random_hermitian(4, rng), frame_set(kind, 4, rng)
        t0 = (spin_tomogram if frames.kind == "spin" else unitary_tomogram)(rho, frames)
        shifted = expm_hermitian_times(h, 0.9).conj().T @ t0.frames.unitaries()
        evolved = evolve_tomogram(t0, h, 0.9)
        assert evolved.frames is t0.frames
        assert np.max(np.abs(evolved.table - frame_diagonals(rho.mat, shifted).T)) <= 1e-13

    def test_evolution_exponentiates_once(self, monkeypatch, rng):
        import spintomo.dynamics as dynamics

        calls = []
        expm = dynamics.expm_hermitian_times

        def counting_expm(h, t):
            calls.append(t)
            return expm(h, t)

        monkeypatch.setattr(dynamics, "expm_hermitian_times", counting_expm)
        t0 = unitary_tomogram(random_density(3, 3, seed=2), haar_unitaries(3, 5, 3))
        h = random_hermitian(3, rng)
        evolved = evolve_tomogram(t0, h, 0.4)
        assert calls == [0.4]
        # the one exponential is evolve_state's, whose state the tomogram keeps
        assert np.array_equal(evolved.source_state.mat, evolve_state(t0.source_state, h, 0.4).mat)

    def test_grid_evolution_and_residual_form_no_rotation(self, monkeypatch, rng):
        # grid tables come from the cached transform, never from the rotation stack
        frames = grid_frames(2, make_grid(2))
        rho, h = random_density(5, 5, seed=65), random_hermitian(5, rng)

        def no_stack(self):
            raise AssertionError("formed the rotation stack of grid frames")

        monkeypatch.setattr(SpinFrames, "unitaries", no_stack)
        t0 = spin_tomogram(rho, frames)
        evolved = evolve_tomogram(t0, h, 1.3)
        assert reconstruction_residual(t0, rho) <= 1e-14
        assert reconstruction_residual(evolved, evolve_state(rho, h, 1.3)) <= 1e-14

    @pytest.mark.memory
    def test_grid_evolution_memory_at_j20(self, rng):
        # the rotation stack of the 3321 default-grid frames at 2j = 40 is 89 MB, and a
        # shifted copy of it as much again; the transform, 12 MB of tables, is built first
        frames = grid_frames(20, make_grid(20))
        rho, h = random_density(41, 41, seed=66), random_hermitian(41, rng)
        t0 = spin_tomogram(rho, frames)  # builds the transform
        tracemalloc.start()
        try:
            evolved = evolve_tomogram(t0, h, 0.5)
            reconstruction_residual(evolved, evolved.source_state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_requires_source_state(self):
        rho = random_density(2, 2, seed=9)
        t0 = unitary_tomogram(rho, [np.eye(2, dtype=complex)])
        t0.source_state = None
        with pytest.raises(ValueError):
            evolve_tomogram(t0, np.zeros((2, 2)), 1.0)

    def test_hamiltonian_of_another_dimension_refused_before_the_frame_shift(self):
        t0 = unitary_tomogram(random_density(2, 2, seed=9), list(haar_unitaries(2, 3, 4)))
        with pytest.raises(ValueError, match="^Hamiltonian and state dimensions differ$"):
            evolve_tomogram(t0, np.eye(3), 1.0)

    def test_frames_validated_once(self, monkeypatch):
        import spintomo.symbols as symbols

        calls = []
        residual = symbols.unitarity_residual

        def counting_residual(u):
            calls.append(np.shape(u))
            return residual(u)

        monkeypatch.setattr(symbols, "unitarity_residual", counting_residual)
        t0 = unitary_tomogram(random_density(3, 3, seed=2), list(haar_unitaries(3, 5, 3)))
        rho = reconstruct_from_unitary_frame(t0)
        reconstruction_residual(t0, rho)
        evolved = evolve_tomogram(t0, np.diag([1.0, 0.0, -1.0]), 0.4)
        assert calls == [(5, 3, 3)]
        assert evolved.frames is t0.frames


class TestMeasureUpdate:
    def test_projecting_onto_own_state(self):
        rho = pure_state([1.0, 0.0])
        post, prob = measure_update(rho, np.diag([1.0, 0.0]))
        assert prob == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(post.mat - rho.mat)) < 1e-12

    def test_orthogonal_projection_raises(self):
        rho = pure_state([0.0, 1.0])
        with pytest.raises(ZeroProbabilityError):
            measure_update(rho, np.diag([1.0, 0.0]))

    def test_overlap_probability(self, rng):
        # pure |psi> projected on |phi><phi| succeeds with |<psi|phi>|^2
        psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        psi /= np.linalg.norm(psi)
        phi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        phi /= np.linalg.norm(phi)
        _, prob = measure_update(pure_state(psi), np.outer(phi, phi.conj()))
        assert prob == pytest.approx(abs(np.vdot(phi, psi)) ** 2, abs=1e-12)

    def test_non_psd_effect_rejected(self):
        with pytest.raises(ValueError):
            measure_update(random_density(2, 2, seed=10), np.diag([1.0, -0.2]))


class TestMeasurementStarMap:
    def test_identity_instrument_is_neutral(self):
        grid = star_grid(0.5)
        frames = grid_frames(0.5, grid)
        w = spin_tomogram(random_density(2, 2, seed=11), frames)
        w_id = spin_tomogram(np.eye(2, dtype=complex), frames)
        out = measurement_star_map(w, w_id, 0.5, grid)
        assert np.max(np.abs(out.table - w.table)) < 1e-8

    def test_qubit_projection_matches_matrix_update(self):
        grid = star_grid(0.5)
        frames = grid_frames(0.5, grid)
        rho = plus_state()
        proj = np.diag([1.0, 0.0]).astype(complex)
        w = spin_tomogram(rho, frames)
        wp = spin_tomogram(proj, frames)
        out = measurement_star_map(w, wp, 0.5, grid)
        oracle = spin_tomogram(proj @ rho.mat @ proj, frames)  # unnormalized update
        assert np.max(np.abs(out.table - oracle.table)) < 1e-7
        # the unnormalized weight is the outcome probability 1/2
        assert out.table.real.sum(axis=0)[0] == pytest.approx(0.5, abs=1e-8)

    @pytest.mark.parametrize("jt", range(7))
    def test_equals_two_star_products(self, jt, rng):
        # oracle: w_P * w * w_P as two star compositions (four syntheses, two analyses)
        j = HalfInt(jt)
        grid = star_grid(j)
        frames = grid_frames(j, grid)
        w = spin_tomogram(random_density(jt + 1, jt + 1, seed=jt), frames)
        effect = random_hermitian(jt + 1, rng)
        wp = spin_tomogram(effect @ effect, frames)
        oracle = star_compose(star_compose(wp, w, j, grid), wp, j, grid)
        out = measurement_star_map(w, wp, j, grid)
        assert out.frames is wp.frames
        assert np.max(np.abs(out.table - oracle.table)) <= 1e-13

    def test_grouping_independence(self, rng):
        grid = star_grid(1)
        frames = grid_frames(1, grid)
        w = spin_tomogram(random_density(3, 3, seed=12), frames)
        wp = spin_tomogram(np.diag([1.0, 1.0, 0.0]).astype(complex), frames)
        left = star_compose(star_compose(wp, w, 1, grid), wp, 1, grid)
        right = star_compose(wp, star_compose(w, wp, 1, grid), 1, grid)
        assert np.max(np.abs(left.table - right.table)) < 1e-7


class TestPovm:
    def test_projective_basis_valid(self):
        report = povm_validate(Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]))
        assert report.ok
        assert report.completeness_residual < 1e-14

    def test_scaled_identities_valid(self):
        report = povm_validate(Povm([0.6 * np.eye(3), 0.4 * np.eye(3)]))
        assert report.ok

    def test_dropped_effect_detected(self):
        effects = [np.diag([1.0, 0.0])]
        report = povm_validate(Povm(effects))
        assert not report.ok
        assert report.completeness_residual == pytest.approx(1.0, abs=1e-14)

    def test_probabilities_refuse_a_povm_of_another_dimension(self):
        with pytest.raises(ValueError, match="POVM effect and state dimensions differ"):
            measurement_probabilities(bell_state(), Povm([np.eye(2)]))

    def test_probabilities_sum_to_one(self, rng):
        effects = [0.25 * np.eye(2), 0.75 * np.eye(2)]
        # random complete two-outcome POVM from a random effect
        e = random_hermitian(2, rng)
        e = e @ e.conj().T
        e /= np.max(np.linalg.eigvalsh(e)) * 1.5
        povm = Povm([e, np.eye(2) - e])
        assert povm_validate(povm).ok
        for k in range(10):
            rho = random_density(2, 2, seed=400 + k)
            probs = measurement_probabilities(rho, povm)
            assert probs.sum() == pytest.approx(1.0, abs=1e-10)
            assert np.all(probs >= -1e-12)


class TestRefusals:
    """Refusals that no other test reaches, each through its public entry point."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: measure_update(plus_state(), np.eye(3)), "effect and state dimensions differ"),
            (lambda: Povm([]), "a POVM needs at least one effect"),
            (lambda: Povm([np.eye(2), np.eye(3)]), "effects must share one dimension"),
        ],
        ids=["effect_dim", "empty_povm", "mixed_effect_dims"],
    )
    def test_refusal_message(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()
