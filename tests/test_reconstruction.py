import json

import numpy as np
import pytest

from conftest import random_hermitian
from spintomo import io
from spintomo.errors import InformationallyIncompleteError
from spintomo.halfint import HalfInt
from spintomo.linalg import DensityMatrix, expm_hermitian_times, haar_unitaries, hermitian_basis, random_density
from spintomo.quadrature import GROUP_VOLUME, make_grid
from spintomo.reconstruction import (
    _design_matrix,
    duality_residual,
    infer_grid,
    intertwine,
    reconstruct_from_unitary_frame,
    reconstruct_operator,
    reconstruction_residual,
)
from spintomo.states import SIGMA_X, SIGMA_Y, maximally_mixed
from spintomo.su2 import wigner_d_stack
from spintomo.symbols import (
    QuantizerPair,
    SpinFrames,
    SpinTransform,
    Tomogram,
    grid_frames,
    spin_tomogram,
    unitary_tomogram,
)


def grid_integral_of_d_pair(grid, l1, m1, l2, m2):
    """Quadrature of conj(D^l1_{0,m1}) D^l2_{0,m2} over the group (oracle)."""
    betas, gammas = grid.node_angles()
    w = grid.node_weights() * grid.alpha_factor
    # d^l_{0,m} sits in row l (m' = 0) and column l - m of the d-matrix
    f1 = wigner_d_stack(l1, betas)[:, l1, l1 - m1] * np.exp(-1j * m1 * gammas)
    f2 = wigner_d_stack(l2, betas)[:, l2, l2 - m2] * np.exp(-1j * m2 * gammas)
    return np.sum(w * f1.conj() * f2)


class TestGrid:
    def test_minimal_grid_total_weight(self):
        grid = make_grid(0, oversample=1.0)
        assert grid.n_beta == 1 and grid.n_gamma == 1
        assert np.sum(grid.group_weights()) == pytest.approx(GROUP_VOLUME, abs=1e-12)

    def test_total_weight_always_group_volume(self):
        for j in (0.5, 1, 2.5):
            grid = make_grid(j)
            assert np.sum(grid.group_weights()) == pytest.approx(GROUP_VOLUME, abs=1e-10)

    def test_d_function_orthogonality(self):
        # exact up to L, L' <= 4 on the spin-2 grid
        grid = make_grid(2)
        for l1 in range(5):
            for l2 in range(5):
                for m1 in range(-l1, l1 + 1):
                    for m2 in range(-l2, l2 + 1):
                        val = grid_integral_of_d_pair(grid, l1, m1, l2, m2)
                        want = (
                            GROUP_VOLUME / (2 * l1 + 1)
                            if (l1 == l2 and m1 == m2)
                            else 0.0
                        )
                        assert abs(val - want) < 1e-10

    def test_refinement_stability(self, rng):
        a = random_hermitian(3, rng)
        results = []
        for oversample in (1.5, 3.0):
            grid = make_grid(1, oversample=oversample)
            t = spin_tomogram(a, grid_frames(1, grid))
            results.append(reconstruct_operator(t, 1, grid))
        assert np.max(np.abs(results[0] - results[1])) < 1e-10

    def test_invalid_oversample(self):
        with pytest.raises(ValueError):
            make_grid(1, oversample=0.0)

    @pytest.mark.parametrize("oversample", [np.inf, -np.inf, np.nan, 1e308, 1e300])
    def test_oversample_without_a_finite_grid_refused(self, oversample):
        # 1e308 * (2j + 1) overflows to infinity; 1e300 nodes exceed any array index
        with pytest.raises(ValueError, match="oversample"):
            make_grid(0.5, oversample=oversample)


class TestReconstructOperator:
    def test_maximally_mixed(self):
        grid = make_grid(1)
        t = spin_tomogram(maximally_mixed((3,)), grid_frames(1, grid))
        assert np.max(np.abs(reconstruct_operator(t, 1, grid) - np.eye(3) / 3)) < 1e-12

    def test_random_hermitian_round_trip(self, rng):
        grid = make_grid(1)
        frames = grid_frames(1, grid)
        for _ in range(10):
            a = random_hermitian(3, rng)
            t = spin_tomogram(a, frames)
            assert np.max(np.abs(reconstruct_operator(t, 1, grid) - a)) < 1e-8

    def test_closed_form_qubit_tomogram(self):
        # hand-built cos^2(beta/2) table reconstructs the spin-up projector
        grid = make_grid(0.5)
        frames = grid_frames(0.5, grid)
        table = np.array(
            [
                np.cos(frames.betas / 2) ** 2,
                np.sin(frames.betas / 2) ** 2,
            ]
        )
        t = Tomogram(frames=frames, table=table)
        rebuilt = reconstruct_operator(t, 0.5, grid)
        assert np.max(np.abs(rebuilt - np.diag([1.0, 0.0]))) < 1e-10

    def test_linearity(self, rng):
        grid = make_grid(1.5)
        frames = grid_frames(1.5, grid)
        a, b = random_hermitian(4, rng), random_hermitian(4, rng)
        ta, tb = spin_tomogram(a, frames), spin_tomogram(b, frames)
        mixed = Tomogram(frames=frames, table=0.3 * ta.table + 1.7 * tb.table)
        lhs = reconstruct_operator(mixed, 1.5, grid)
        rhs = 0.3 * reconstruct_operator(ta, 1.5, grid) + 1.7 * reconstruct_operator(tb, 1.5, grid)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_real_tomogram_gives_hermitian(self, rng):
        grid = make_grid(1)
        frames = grid_frames(1, grid)
        t = spin_tomogram(random_hermitian(3, rng), frames)
        rebuilt = reconstruct_operator(t, 1, grid)
        assert np.max(np.abs(rebuilt - rebuilt.conj().T)) < 1e-9

    def test_frame_mismatch_rejected(self, rng):
        grid = make_grid(1)
        other = make_grid(1, oversample=2.0)
        t = spin_tomogram(random_hermitian(3, rng), grid_frames(1, other))
        with pytest.raises(ValueError):
            reconstruct_operator(t, 1, grid)

    def test_infer_grid_round_trip(self, rng):
        for oversample in (1.0, 1.5, 2.0):
            grid = make_grid(1, oversample=oversample)
            t = spin_tomogram(random_hermitian(3, rng), grid_frames(1, grid))
            inferred = infer_grid(t)
            assert inferred.n_beta == grid.n_beta
            assert inferred.n_gamma == grid.n_gamma

    def test_infer_grid_from_file_and_refusals(self, rng):
        grid = make_grid(1.5)
        t = spin_tomogram(random_hermitian(4, rng), grid_frames(1.5, grid))
        inferred = infer_grid(io.tomogram_from_obj(json.loads(io.dumps(io.tomogram_to_obj(t)))))
        assert (inferred.n_beta, inferred.n_gamma) == (grid.n_beta, grid.n_gamma)
        order = rng.permutation(grid.n_nodes)
        betas, gammas = grid.node_angles()
        shuffled = spin_tomogram(random_hermitian(4, rng), SpinFrames(1.5, betas[order], gammas[order]))
        with pytest.raises(ValueError, match="regular grid"):
            infer_grid(shuffled)
        shifted = spin_tomogram(random_hermitian(4, rng), SpinFrames(1.5, betas, gammas + 0.1))
        with pytest.raises(ValueError, match="standard grid"):
            infer_grid(shifted)


class TestScalarAndCrossGrid:
    def test_scalar_spin_round_trip(self):
        grid = make_grid(0, oversample=1.0)
        t = spin_tomogram(np.array([[2.5]], dtype=complex), grid_frames(0, grid))
        back = reconstruct_operator(t, 0, grid)
        assert abs(back[0, 0] - 2.5) < 1e-14

    def test_intertwine_between_grids(self, rng):
        pair_a = QuantizerPair.spin(1, make_grid(1, oversample=1.0))
        pair_b = QuantizerPair.spin(1, make_grid(1, oversample=2.0))
        a = random_hermitian(3, rng)
        f_a = pair_a.symbol_of(a)
        f_b = intertwine(f_a, pair_a, pair_b)
        assert np.max(np.abs(f_b - pair_b.symbol_of(a))) < 1e-10
        assert np.max(np.abs(intertwine(f_b, pair_b, pair_a) - f_a)) < 1e-8


class TestUnitaryFrameReconstruction:
    def canonical_qubit_frames(self):
        return [
            np.eye(2, dtype=complex),
            expm_hermitian_times(SIGMA_Y, np.pi / 4),
            expm_hermitian_times(SIGMA_X, np.pi / 4),
        ]

    def test_three_frames_recover_qubit(self):
        rho = random_density(2, 2, seed=21)
        t = unitary_tomogram(rho, self.canonical_qubit_frames())
        est = reconstruct_from_unitary_frame(t)
        assert np.max(np.abs(est.mat - rho.mat)) < 1e-9
        assert reconstruction_residual(t, est) < 1e-9

    def test_residual_refuses_spin_tomogram(self):
        rho = random_density(2, 2, seed=21)
        t = spin_tomogram(rho, grid_frames(0.5, make_grid(0.5)))
        with pytest.raises(ValueError, match="unitary-frame tomogram"):
            reconstruction_residual(t, rho)

    def test_single_frame_incomplete(self):
        rho = random_density(2, 2, seed=22)
        t = unitary_tomogram(rho, [np.eye(2, dtype=complex)])
        with pytest.raises(InformationallyIncompleteError) as err:
            reconstruct_from_unitary_frame(t)
        assert (err.value.rank, err.value.needed) == (2, 4)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_too_few_haar_frames_incomplete(self, d):
        # each generic frame adds d - 1 independent rows to the shared trace row
        rho = random_density(d, d, seed=5)
        for n_frames in range(1, d + 1):
            t = unitary_tomogram(rho, list(haar_unitaries(d, n_frames, 6)))
            with pytest.raises(InformationallyIncompleteError) as err:
                reconstruct_from_unitary_frame(t)
            assert (err.value.rank, err.value.needed) == (n_frames * (d - 1) + 1, d * d)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
    def test_design_matrix_equals_basis_product(self, d):
        # oracle: column outer products conj(u[:, m]) u[:, m]^T against the basis
        us = haar_unitaries(d, 200, d)
        basis = hermitian_basis(d)
        outer = us.conj()[:, :, None, :] * us[:, None, :, :]
        rows = outer.transpose(0, 3, 1, 2).reshape(-1, d * d) @ basis.reshape(d * d, -1).T
        oracle = np.vstack([rows.real, np.trace(basis, axis1=1, axis2=2).real])
        design = _design_matrix(us)
        assert design.shape == oracle.shape
        assert np.max(np.abs(design - oracle)) <= 1e-15

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_minimal_haar_frame_sets_are_accurate(self, d):
        # d+1 frames are the fewest that determine a state; the design matrix is
        # then at its worst conditioned (cond(A^T A) up to ~2e10 at d = 8), so the
        # solve must not square it
        worst = 0.0
        for seed in range(50):
            rho = random_density(d, d, seed=seed)
            est = reconstruct_from_unitary_frame(unitary_tomogram(rho, haar_unitaries(d, d + 1, 1000 + seed)))
            worst = max(worst, np.max(np.abs(est.mat - rho.mat)))
        assert worst <= 1e-11

    def test_inconsistent_tomogram_warns(self):
        # the table of a Hermitian, unit-trace but indefinite matrix: no state has it
        frames = haar_unitaries(2, 6, 7)
        indefinite = np.diag([1.2, -0.2])
        t = Tomogram(frames, np.einsum("fam,ab,fbm->mf", frames.conj(), indefinite, frames))
        with pytest.warns(UserWarning, match="negative eigenvalue -2.000e-01"):
            est = reconstruct_from_unitary_frame(t)
        assert isinstance(est, DensityMatrix)
        assert np.max(np.abs(est.mat - indefinite)) < 1e-12

    def test_qutrit_with_haar_frames(self):
        rho = random_density(3, 3, seed=23)
        frames = list(haar_unitaries(3, 4, 24))
        t = unitary_tomogram(rho, frames)
        est = reconstruct_from_unitary_frame(t)
        assert np.max(np.abs(est.mat - rho.mat)) < 1e-8


class TestIntertwine:
    def test_identity_when_pairs_coincide(self, rng):
        grid = make_grid(1)
        pair = QuantizerPair.spin(1, grid)
        f = pair.symbol_of(random_hermitian(3, rng))
        assert np.max(np.abs(intertwine(f, pair, pair) - f)) < 1e-10

    def test_spin_to_matrix_units_recovers_entries(self):
        rho = random_density(3, 2, seed=25)
        pair_spin = QuantizerPair.spin(1, make_grid(1))
        pair_units = QuantizerPair.matrix_units(3)
        phi = intertwine(pair_spin.symbol_of(rho.mat), pair_spin, pair_units)
        # label (a, b) carries Tr[rho |a><b|] = rho[b, a]
        for idx, (a, b) in enumerate(pair_units.labels):
            assert phi[idx] == pytest.approx(rho.mat[b, a], abs=1e-12)

    def test_round_trip(self, rng):
        pair_spin = QuantizerPair.spin(1, make_grid(1))
        pair_units = QuantizerPair.matrix_units(3)
        f = pair_spin.symbol_of(random_hermitian(3, rng))
        back = intertwine(intertwine(f, pair_spin, pair_units), pair_units, pair_spin)
        assert np.max(np.abs(back - f)) < 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            intertwine(
                np.zeros(4),
                QuantizerPair.matrix_units(2),
                QuantizerPair.matrix_units(3),
            )


class TestDuality:
    def test_spin_half_default_grid(self):
        assert duality_residual(QuantizerPair.spin(0.5, make_grid(0.5))) < 1e-10

    def test_spin_two_default_grid(self):
        assert duality_residual(QuantizerPair.spin(2, make_grid(2))) < 1e-8

    def test_under_resolved_grid_aliased(self):
        res = duality_residual(QuantizerPair.spin(2, make_grid(2, oversample=0.5)))
        assert res > 1e-4


class TestPairMaps:
    def test_pair_holds_no_operator_stack(self):
        grid = make_grid(1)
        pair = QuantizerPair.spin(1, grid)
        assert not hasattr(pair, "us") and not hasattr(pair, "ds")
        assert not any(key[0] == "pair" for key in grid._memo)
        assert QuantizerPair.matrix_units(3).transform is None

    def test_spin_pair_runs_on_the_grid_transform(self, rng):
        grid = make_grid(1.5)
        pair = QuantizerPair.spin(1.5, grid)
        transform = SpinTransform.on_grid(1.5, grid)
        assert pair.transform is transform
        a = random_hermitian(4, rng)
        table = transform.analyze(a)
        # labels are (m, node), m-major
        assert np.array_equal(pair.symbol_of(a), table.reshape(-1))
        assert pair.labels[grid.n_nodes] == (HalfInt(1), 0)
        assert np.array_equal(pair.synthesize(table.reshape(-1)), transform.synthesize(table))

    def test_matrix_units_by_transposes(self, rng):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        pair = QuantizerPair.matrix_units(3)
        f = pair.symbol_of(a)
        assert np.array_equal(f, a.T.reshape(-1))
        back = pair.synthesize(f)
        assert np.array_equal(back, a) and back.dtype == complex
        back[0, 0] = 7.0
        assert f[0] == a[0, 0]  # the operator does not alias the symbol table

    def test_refusals(self):
        pair = QuantizerPair.spin(1, make_grid(1))
        with pytest.raises(ValueError, match="dimension"):
            pair.symbol_of(np.eye(2))
        with pytest.raises(ValueError, match="length"):
            pair.synthesize(np.ones(len(pair.labels) - 1))
        with pytest.raises(ValueError, match="length"):
            QuantizerPair.matrix_units(2).synthesize(np.ones(3))
        with pytest.raises(ValueError, match="source pair"):
            intertwine(np.ones(3), QuantizerPair.matrix_units(2), QuantizerPair.matrix_units(2))
        with pytest.raises(ValueError, match="at least 1"):
            QuantizerPair.matrix_units(0)


class TestPairAtJ8:
    @pytest.fixture(scope="class")
    def pair(self):
        return QuantizerPair.spin(8, make_grid(8))

    def test_duality(self, pair):
        assert duality_residual(pair) <= 1e-12

    def test_round_trip_through_matrix_units(self, pair):
        rho = random_density(17, 17, seed=8)
        units = QuantizerPair.matrix_units(17)
        f = pair.symbol_of(rho)
        phi = intertwine(f, pair, units)
        # label (a, b) of the matrix-unit symbol carries rho[b, a]
        for idx, (a, b) in enumerate(units.labels):
            assert abs(phi[idx] - rho.mat[b, a]) <= 1e-12
        assert np.max(np.abs(intertwine(phi, units, pair) - f)) <= 1e-12
