import numpy as np
import pytest

from conftest import random_hermitian
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
from spintomo.linalg import haar_unitaries, random_density
from spintomo.star import star_grid
from spintomo.states import SIGMA_Z, plus_state, pure_state
from spintomo.symbols import grid_frames, spin_tomogram, unitary_tomogram


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

    def test_requires_source_state(self):
        rho = random_density(2, 2, seed=9)
        t0 = unitary_tomogram(rho, [np.eye(2, dtype=complex)])
        t0.source_state = None
        with pytest.raises(ValueError):
            evolve_tomogram(t0, np.zeros((2, 2)), 1.0)

    def test_frames_validated_once(self, monkeypatch):
        import spintomo.dynamics as dynamics
        import spintomo.symbols as symbols

        calls = []
        stack = symbols.frame_stack

        def counting_stack(frames, n):
            calls.append(n)
            return stack(frames, n)

        t0 = unitary_tomogram(random_density(3, 3, seed=2), list(haar_unitaries(3, 5, 3)))
        monkeypatch.setattr(dynamics, "frame_stack", counting_stack)
        monkeypatch.setattr(symbols, "frame_stack", counting_stack)
        evolve_tomogram(t0, np.diag([1.0, 0.0, -1.0]), 0.4)
        assert calls == [3]


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

    def test_grouping_independence(self, rng):
        grid = star_grid(1)
        frames = grid_frames(1, grid)
        w = spin_tomogram(random_density(3, 3, seed=12), frames)
        wp = spin_tomogram(np.diag([1.0, 1.0, 0.0]).astype(complex), frames)
        from spintomo.star import star_compose

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
