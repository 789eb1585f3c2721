import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import least_squares_solution, random_hermitian, shot_frequencies
from spintomo import io, reconstruction, symbols
from spintomo.errors import LIMITS, InformationallyIncompleteError
from spintomo.linalg import (
    DensityMatrix,
    expm_hermitian_times,
    haar_unitaries,
    hermitian_basis,
    kron_all,
    random_density,
)
from spintomo.quadrature import GROUP_VOLUME, QuadratureGrid, make_grid
from spintomo.reconstruction import (
    _chunk_frames,
    _design_matrix,
    _normal_equations,
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
    UnitaryFrames,
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

    @pytest.mark.parametrize(
        "j, oversample, message",
        [
            (-0.5, 1.0, "spin j must be nonnegative"),
            (1, 0.0, "oversample must be finite and positive, got 0.0"),
            (1, -2.0, "oversample must be finite and positive, got -2.0"),
            (1, np.nan, "oversample must be finite and positive, got nan"),
            (0.5, 1e300, "oversample 1e+300 gives a node count beyond any array at j = 1/2"),
            (3, 1e308, "oversample 1e+308 gives a node count beyond any array at j = 3"),
        ],
    )
    def test_refusal_messages(self, j, oversample, message):
        with pytest.raises(ValueError) as refused:
            make_grid(j, oversample=oversample)
        assert str(refused.value) == message

    @pytest.mark.parametrize("count", [0, -1, 2.5, np.nan, True])
    def test_grid_counts_must_be_positive_integers(self, count):
        # a grid is its two node counts; its nodes and weights follow from them
        for counts in ((count, 3), (3, count)):
            with pytest.raises(ValueError, match="positive integers"):
                QuadratureGrid(*counts)


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
        with pytest.raises(ValueError, match="standard grid"):
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

    def test_residual_reads_a_grid_spin_tomogram(self):
        # grid frames are the unitaries R(g)^dag of their nodes, like any spin frames
        rho = random_density(2, 2, seed=21)
        t = spin_tomogram(rho, grid_frames(0.5, make_grid(0.5)))
        assert reconstruction_residual(t, rho) <= 1e-14

    @pytest.mark.parametrize("on_grid", [True, False])
    def test_least_squares_reads_a_spin_tomogram(self, on_grid):
        rho = random_density(2, 2, seed=21)
        frames = grid_frames(0.5, make_grid(0.5)) if on_grid else SpinFrames(0.5, [0.3, 1.2, 2.5], [0.0, 2.0, 4.0])
        est = reconstruct_from_unitary_frame(spin_tomogram(rho, frames))
        assert np.max(np.abs(est.mat - rho.mat)) <= 1e-12

    @pytest.mark.parametrize("on_grid", [True, False])
    def test_residual_on_spin_frames(self, on_grid):
        rho, other = random_density(3, 3, seed=24), random_density(3, 3, seed=25)
        frames = grid_frames(1, make_grid(1)) if on_grid else SpinFrames(1, [0.3, 1.2, 2.5], [0.0, 2.0, 4.0])
        t = spin_tomogram(rho, frames)
        mismatch = np.max(np.abs(spin_tomogram(other, frames).table - t.table))
        assert mismatch > 1e-3
        assert reconstruction_residual(t, other) == pytest.approx(mismatch, abs=1e-14)
        if not on_grid:
            # off a grid the spin table is the unitary one on the same unitaries, bit for bit
            same = unitary_tomogram(rho, frames.unitaries())
            assert reconstruction_residual(t, other) == reconstruction_residual(same, other)
        with pytest.raises(ValueError, match=r"^frame shape \(3, 3\) does not match state dimension 2$"):
            reconstruction_residual(t, random_density(2, 2, seed=26))

    def test_unnormalized_spin_table_is_refused(self):
        # the unit-trace row assumes a state: an observable's table would be solved as one
        frames = SpinFrames(0.5, [0.3, 1.2, 2.5, 0.7, 1.9, 2.2], [0.0, 2.0, 4.0, 1.0, 3.0, 5.0])
        t = spin_tomogram(np.diag([2.0, 0.5]), frames)
        with pytest.raises(ValueError, match=r"^tomogram not normalized per frame \(residual 1.500e\+00\)$"):
            reconstruct_from_unitary_frame(t)

    def test_single_frame_incomplete(self):
        rho = random_density(2, 2, seed=22)
        t = unitary_tomogram(rho, [np.eye(2, dtype=complex)])
        with pytest.raises(InformationallyIncompleteError) as err:
            reconstruct_from_unitary_frame(t)
        assert (err.value.rank, err.value.needed) == (2, 4)

    @pytest.mark.parametrize(
        "kind, frames, rank, needed, complete",
        [
            ("spin", lambda: SpinFrames(1.5, [0.3, 1.1, 1.9, 2.6, 0.8, 2.2], [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]),
             15, 16, "4j + 1 = 7 directions"),
            ("unitary", lambda: list(haar_unitaries(4, 4, 6)), 13, 16, "d + 1 = 5 frames"),
            ("product", lambda: list(zip(haar_unitaries(2, 8, 7), haar_unitaries(2, 8, 8))),
             15, 16, "prod(d_k + 1) = 9 product frames"),
        ],
        ids=["spin", "unitary", "product"],
    )
    def test_the_refusal_names_the_smallest_complete_set(self, kind, frames, rank, needed, complete):
        rho = random_density(4, 4, seed=11)
        frames = frames()
        t = spin_tomogram(rho, frames) if kind == "spin" else unitary_tomogram(rho, frames)
        with pytest.raises(InformationallyIncompleteError) as err:
            reconstruct_from_unitary_frame(t)
        assert (err.value.rank, err.value.needed) == (rank, needed)
        assert str(err.value) == (
            f"informationally incomplete frame set: rank {rank} < {needed}; a generic set of {complete} is complete"
        )

    def test_product_frames_need_the_product_of_the_factor_counts(self):
        # 3 x 3 local bases of two qubits determine the state; 8 leave rank 15 (above)
        rho = random_density(4, 4, seed=12)
        frames = list(zip(haar_unitaries(2, 9, 7), haar_unitaries(2, 9, 8)))
        assert np.max(np.abs(reconstruct_from_unitary_frame(unitary_tomogram(rho, frames)).mat - rho.mat)) <= 1e-12

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

    def test_inconsistent_tomogram_is_projected_to_the_nearest_state(self):
        # the table of diag(1.2, -0.2), Hermitian and unit-trace but indefinite: no
        # state has it, and the nearest state is diag(1, 0); nothing is warned
        frames = haar_unitaries(2, 6, 7)
        indefinite = np.diag([1.2, -0.2])
        t = Tomogram(frames, np.einsum("fam,ab,fbm->mf", frames.conj(), indefinite, frames))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            est = reconstruct_from_unitary_frame(t)
        assert caught == []
        assert isinstance(est, DensityMatrix)
        assert np.max(np.abs(est.mat - np.diag([1.0, 0.0]))) <= 1e-12

    def test_complex_table_refused(self):
        # the imaginary part of a probability table would otherwise be dropped unseen
        rho = random_density(2, 2, seed=8)
        t = unitary_tomogram(rho, haar_unitaries(2, 6, 9))
        complex_table = Tomogram(t.frames, t.table + 0.3j)
        with pytest.raises(ValueError, match="imaginary entries up to 3.000e-01"):
            reconstruct_from_unitary_frame(complex_table)
        with pytest.raises(ValueError, match="imaginary entries up to 3.000e-01"):
            reconstruction_residual(complex_table, rho)
        within = Tomogram(t.frames, t.table + 1e-11j)
        assert np.max(np.abs(reconstruct_from_unitary_frame(within).mat - rho.mat)) < 1e-9
        assert reconstruction_residual(within, rho) < 1e-12

    def test_qutrit_with_haar_frames(self):
        rho = random_density(3, 3, seed=23)
        frames = list(haar_unitaries(3, 4, 24))
        t = unitary_tomogram(rho, frames)
        est = reconstruct_from_unitary_frame(t)
        assert np.max(np.abs(est.mat - rho.mat)) < 1e-8


class TestProjectedEstimate:
    """A least-squares solution with an eigenvalue below -LIMITS["state_psd"] becomes the nearest state."""

    @pytest.mark.parametrize("d, n_frames", [(1, 3), (2, 3), (2, 20), (3, 4), (4, 50), (8, 9), (8, 100)])
    @pytest.mark.parametrize("rank", ["pure", "full"])
    def test_a_consistent_table_takes_the_unprojected_path(self, d, n_frames, rank):
        rho = random_density(d, 1 if rank == "pure" else d, seed=d + n_frames)
        t = unitary_tomogram(rho, haar_unitaries(d, n_frames, 7 * d + n_frames))
        assert np.array_equal(reconstruct_from_unitary_frame(t).mat, least_squares_solution(t))

    @settings(max_examples=80, deadline=None)
    @given(
        d=st.integers(1, 8),
        rank=st.integers(1, 8),
        frames_per_dim=st.integers(1, 6),
        shots=st.sampled_from([1, 10, 100, 1000]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_the_estimate_is_a_state_no_further_from_the_truth(self, d, rank, frames_per_dim, shots, seed):
        # a metric projection onto the convex set of states, which holds rho, moves
        # the least-squares solution no further from rho in the Frobenius norm
        rank = min(rank, d)
        rng = np.random.default_rng(seed)
        rho = random_density(d, rank, seed=seed)
        exact = unitary_tomogram(rho, haar_unitaries(d, d * frames_per_dim + 1, rng))
        t = Tomogram(exact.frames, shot_frequencies(exact.table.real, shots, rng))
        est = reconstruct_from_unitary_frame(t)
        assert isinstance(est, DensityMatrix)
        assert abs(np.trace(est.mat) - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(est.mat)[0] >= -1e-10
        solved = least_squares_solution(t)
        assert np.linalg.norm(est.mat - rho.mat) <= np.linalg.norm(solved - rho.mat) + 1e-12

    @pytest.mark.parametrize(
        "spectrum, nearest",
        [
            ([1.3, -0.3], [1.0, 0.0]),
            ([0.7, 0.5, -0.2], [0.6, 0.4, 0.0]),
            ([0.7, 0.5, -0.2, 0, 0, 0, 0, 0], [0.6, 0.4, 0, 0, 0, 0, 0, 0]),
            ([0.4, 0.35, 0.3, -0.05], [0.4 - 0.05 / 3, 0.35 - 0.05 / 3, 0.3 - 0.05 / 3, 0.0]),
        ],
    )
    def test_the_nearest_state_of_a_known_spectrum(self, spectrum, nearest):
        # the eigenvalues shift by one constant and clip at 0, in the eigenbasis kept
        u = haar_unitaries(len(spectrum), 1, 3)[0]
        rho = u @ np.diag(spectrum) @ u.conj().T
        expected = u @ np.diag(nearest) @ u.conj().T
        assert np.max(np.abs(reconstruction._nearest_state(rho) - expected)) <= 1e-14


class TestSpinDirections:
    """Random spin directions determine a spin-j state from 4j + 1 of them on
    (Newton & Young 1968; Amiet & Weigert 1999); 4j leave one of the n^2 real
    parameters of an n x n Hermitian matrix undetermined."""

    @pytest.mark.parametrize("jt", range(1, 17))
    def test_four_j_plus_one_directions_determine_the_state(self, jt):
        n, rng = jt + 1, np.random.default_rng(jt)
        rho = random_density(n, n, seed=jt)
        frames = SpinFrames(jt / 2, np.arccos(rng.uniform(-1, 1, 2 * jt + 1)), rng.uniform(0, 2 * np.pi, 2 * jt + 1))
        est = reconstruct_from_unitary_frame(spin_tomogram(rho, frames))
        assert np.max(np.abs(est.mat - rho.mat)) <= 1e-12
        fewer = SpinFrames(jt / 2, frames.betas[:-1], frames.gammas[:-1])
        with pytest.raises(InformationallyIncompleteError) as err:
            reconstruct_from_unitary_frame(spin_tomogram(rho, fewer))
        assert (err.value.rank, err.value.needed) == (n * n - 1, n * n)


class TestObservablesOffAGrid:
    """Off a grid an observable's table comes back through ``frames.inverse``; the state estimate
    still reads a table as a state's and refuses one not normalized per frame."""

    @pytest.mark.parametrize("jt", [2, 4, 8])
    def test_a_traceless_observable_on_random_directions_comes_back(self, jt, rng):
        n = jt + 1
        a = random_hermitian(n, rng)
        a -= np.trace(a).real / n * np.eye(n)
        frames = SpinFrames(jt / 2, np.arccos(rng.uniform(-1, 1, 2 * jt + 3)), rng.uniform(0, 2 * np.pi, 2 * jt + 3))
        t = spin_tomogram(a, frames)
        assert frames.grid is None
        assert np.max(np.abs(t.frames.inverse(t.table) - a)) <= 1e-12 * np.linalg.norm(a, 2)
        with pytest.raises(ValueError, match=r"^tomogram not normalized per frame \(residual 1\.000e\+00\)$"):
            reconstruct_from_unitary_frame(t)

    @pytest.mark.parametrize("jt", [1, 4, 16])
    def test_a_grid_state_estimate_is_synthesized_with_no_rotation_stack(self, jt, monkeypatch):
        rho = random_density(jt + 1, jt + 1, seed=jt)
        t = spin_tomogram(rho, grid_frames(jt / 2, make_grid(jt / 2)))

        def stacked(self):
            raise AssertionError("formed the rotation stack of grid frames")

        monkeypatch.setattr(SpinFrames, "unitaries", stacked)
        est = reconstruct_from_unitary_frame(t)
        assert np.max(np.abs(est.mat - rho.mat)) <= 1e-13


def lstsq_state(us, rho):
    """Oracle: the unit-trace least-squares state of rho's tomogram by ``lstsq`` on the design matrix."""
    d = rho.dim
    table = unitary_tomogram(rho, us).table.real
    x = np.linalg.lstsq(_design_matrix(us), np.append(table.T.reshape(-1), 1.0), rcond=None)[0]
    est = np.tensordot(x, hermitian_basis(d), axes=1)
    est = 0.5 * (est + est.conj().T)
    return est / np.trace(est).real


@pytest.fixture
def lstsq_calls(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return lstsq(*args, **kwargs)

    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", counted)
    return calls


class TestFrameOperatorSolve:
    """Unitary frames solve through G = A^T A while eps * cond(G) stays below 1e-12."""

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
    @pytest.mark.parametrize("n_frames", ["2d", 100, 1000])
    def test_gram_solve_agrees_with_lstsq(self, d, n_frames, lstsq_calls):
        n_frames = 2 * d if n_frames == "2d" else n_frames
        rho = random_density(d, d, seed=d)
        us = haar_unitaries(d, n_frames, 100 * d + n_frames)
        est = reconstruct_from_unitary_frame(unitary_tomogram(rho, us))
        assert lstsq_calls == []
        assert np.max(np.abs(est.mat - lstsq_state(us, rho))) <= 1e-13

    @pytest.mark.parametrize("seed, gram", [(286, True), (246, False)])
    def test_the_cond_limit_picks_the_solver(self, seed, gram, lstsq_calls):
        # five qutrit frames with cond(G) within 15% of the limit, one on each side
        us = haar_unitaries(3, 5, seed)
        a = _design_matrix(us)
        w = np.linalg.eigvalsh(a.T @ a)
        assert (w[-1] / w[0] <= reconstruction._GRAM_COND_LIMIT) == gram
        assert 0.85 < w[-1] / w[0] / reconstruction._GRAM_COND_LIMIT < 1.15
        rho = random_density(3, 3, seed=seed)
        est = reconstruct_from_unitary_frame(unitary_tomogram(rho, us))
        assert len(lstsq_calls) == (0 if gram else 1)
        assert np.max(np.abs(est.mat - rho.mat)) <= 1e-12


class TestChunkedNormalEquations:
    """G = A^T A and A^T b are summed over chunks of frames; A is formed only for ``lstsq``."""

    @pytest.mark.parametrize("d", [2, 4, 8])
    @pytest.mark.parametrize("edge", ["one", "below", "at", "above"])
    def test_sums_are_those_of_the_design_matrix(self, d, edge):
        n_frames = {"one": 1, "below": _chunk_frames(d) - 1, "at": _chunk_frames(d), "above": _chunk_frames(d) + 1}[edge]
        us = haar_unitaries(d, n_frames, d + n_frames)
        table = unitary_tomogram(random_density(d, d, seed=d), us).table.real
        a = _design_matrix(us)
        g, h = _normal_equations((us,), table)
        for got, want in ((g, a.T @ a), (h, a.T @ np.append(table.T.reshape(-1), 1.0))):
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("d", [4, 8])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_gram_solve_agrees_with_lstsq_at_a_chunk_edge(self, d, offset, lstsq_calls):
        us = haar_unitaries(d, _chunk_frames(d) + offset, d + offset)
        rho = random_density(d, d, seed=d + 1)
        est = reconstruct_from_unitary_frame(unitary_tomogram(rho, us))
        assert lstsq_calls == []
        assert np.max(np.abs(est.mat - lstsq_state(us, rho))) <= 1e-13

    def test_minimal_sets_take_lstsq_and_fewer_frames_are_incomplete(self, lstsq_calls):
        # at d = 8, cond(G) of a minimal set of d + 1 Haar frames lies above the limit
        d = 8
        for seed in range(5):
            rho = random_density(d, d, seed=seed)
            est = reconstruct_from_unitary_frame(unitary_tomogram(rho, haar_unitaries(d, d + 1, 1000 + seed)))
            assert np.max(np.abs(est.mat - rho.mat)) <= 1e-11
        assert lstsq_calls == [(d * (d + 1) + 1, d * d)] * 5
        with pytest.raises(InformationallyIncompleteError) as err:
            reconstruct_from_unitary_frame(unitary_tomogram(random_density(d, d, seed=9), haar_unitaries(d, d, 9)))
        assert (err.value.rank, err.value.needed) == (d * (d - 1) + 1, d * d)

    @pytest.mark.memory
    def test_no_design_matrix_is_held(self):
        # the design matrix of 1e4 frames at d = 8 alone is 41 MB
        t = unitary_tomogram(random_density(8, 8, seed=3), haar_unitaries(8, 10_000, 4))
        tracemalloc.start()
        try:
            reconstruct_from_unitary_frame(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4e6

    @pytest.mark.memory
    def test_frame_operator_past_the_byte_budget_is_refused_before_it_is_formed(self, monkeypatch):
        # 64 Haar frames at d = 32: G and eigh's copy of it, 16 * 32^4 bytes (17 MB), pass a
        # 4 MiB budget, and are refused with their own text while only the table exists
        t = unitary_tomogram(random_density(32, 32, seed=32), haar_unitaries(32, 64, 33))
        monkeypatch.setitem(LIMITS, "bytes", 2**22)
        message = (r"^the frame operator of the least-squares solve at dimension 32 would allocate about "
                   r"0\.0168 GB, above the budget of 0\.00419 GB$")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                reconstruct_from_unitary_frame(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**22 / 100
        # at its bytes the estimate is solved as before
        monkeypatch.setitem(LIMITS, "bytes", 16 * 32**4)
        assert np.max(np.abs(reconstruct_from_unitary_frame(t).mat - t.source_state.mat)) <= 1e-12

    def test_design_matrix_past_the_byte_budget_is_refused_before_lstsq(self, monkeypatch, lstsq_calls):
        # 40 copies of one frame at d = 8 leave G singular, so the solve takes the lstsq path; its
        # design matrix, 8 * (40 * 8 + 1) * 8^2 bytes (164 kB), passes a 100 kB budget that G with
        # eigh's copy, 16 * 8^4 bytes (66 kB), is within
        t = unitary_tomogram(random_density(8, 8, seed=5), np.repeat(haar_unitaries(8, 1, 5), 40, axis=0))
        monkeypatch.setitem(LIMITS, "bytes", 100_000)
        message = r"^the least-squares design matrix of 40 frames at dimension 8 would allocate about 0\.000164 GB"
        with pytest.raises(ValueError, match=message):
            reconstruct_from_unitary_frame(t)
        assert lstsq_calls == []
        # at its bytes lstsq runs, and finds the set incomplete
        monkeypatch.setitem(LIMITS, "bytes", 8 * 321 * 64)
        with pytest.raises(InformationallyIncompleteError):
            reconstruct_from_unitary_frame(t)
        assert len(lstsq_calls) == 1


PRODUCT_DIMS = [(2, 2), (2, 3), (2, 2, 2), (3, 2, 2)]


def product_factors(dims, count: int, seed: int) -> list[np.ndarray]:
    """The (count, d_k, d_k) Haar factor stacks of ``count`` product frames over ``dims``."""
    return [haar_unitaries(k, count, 10 * seed + i) for i, k in enumerate(dims)]


class TestProductFrameSolve:
    """The solve on product frames multiplies out one chunk at a time, with the bits of the solve
    on their product stack: every inverse, estimate and residual is ``np.array_equal``."""

    @staticmethod
    def assert_solved_alike(factors, dims, seed):
        d, rng = math.prod(dims), np.random.default_rng(seed)
        frames = UnitaryFrames(*factors)
        stacked = UnitaryFrames(kron_all(factors))  # the oracle: the product stack, formed whole
        rho = random_density(d, d, seed=seed, dims=dims)
        a = random_hermitian(d, rng) + 1j * random_hermitian(d, rng)
        for table in (frames.symbols(rho.mat).real, frames.symbols(a)):
            assert np.array_equal(frames.inverse(table), stacked.inverse(table))
        table = frames.symbols(rho.mat).real
        t, same = Tomogram(frames, table, dims=dims), Tomogram(stacked, table, dims=dims)
        est = reconstruct_from_unitary_frame(t)
        assert np.array_equal(est.mat, reconstruct_from_unitary_frame(same).mat)
        assert reconstruction_residual(t, est) == reconstruction_residual(same, est)
        return est, rho

    @pytest.mark.parametrize("dims", PRODUCT_DIMS, ids=str)
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_gram_solve_at_a_chunk_edge(self, dims, offset, lstsq_calls):
        factors = product_factors(dims, _chunk_frames(math.prod(dims)) + offset, 5 + offset)
        est, rho = self.assert_solved_alike(factors, dims, 7)
        assert lstsq_calls == []
        assert np.max(np.abs(est.mat - rho.mat)) <= 1e-12

    @pytest.mark.parametrize("dims, seed", [((2, 2), 1), ((2, 3), 0), ((2, 2, 2), 0), ((3, 2, 2), 0)], ids=str)
    def test_lstsq_solve_on_a_minimal_set(self, dims, seed, lstsq_calls):
        # prod(d_k + 1) Haar product frames whose cond(G) lies above the limit
        count, d = math.prod(k + 1 for k in dims), math.prod(dims)
        est, rho = self.assert_solved_alike(product_factors(dims, count, seed), dims, 8)
        assert lstsq_calls == [(count * d + 1, d * d)] * 6
        assert np.max(np.abs(est.mat - rho.mat)) <= 1e-10

    @pytest.mark.parametrize("dims", PRODUCT_DIMS, ids=str)
    def test_repeated_frames_are_found_incomplete_alike(self, dims):
        factors = [np.repeat(f, 40, axis=0) for f in product_factors(dims, 1, 9)]
        d = math.prod(dims)
        table = UnitaryFrames(*factors).symbols(random_density(d, d, seed=9).mat).real
        found = []
        for frames in (UnitaryFrames(*factors), UnitaryFrames(kron_all(factors))):
            with pytest.raises(InformationallyIncompleteError) as err:
                frames.inverse(table)
            found.append((err.value.rank, err.value.needed))
        assert found[0] == found[1] == (d, d * d)

    @pytest.mark.parametrize("dims", PRODUCT_DIMS, ids=str)
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_normal_equations_of_factor_stacks_are_those_of_their_product(self, dims, offset):
        d = math.prod(dims)
        factors = product_factors(dims, _chunk_frames(d) + offset, 11)
        table = UnitaryFrames(*factors).symbols(random_density(d, d, seed=11).mat).real
        for got, want in zip(_normal_equations(factors, table), _normal_equations((kron_all(factors),), table)):
            assert np.array_equal(got, want)

    @pytest.mark.memory
    def test_no_product_stack_is_held(self, monkeypatch):
        # the product stack of 1e4 frames of 4 qubits is 16 * 1e4 * 16^2 bytes (41 MB); the
        # solve holds one 1 MiB chunk of it, and traces below a tenth of the stack
        rho, rng = random_density(16, 16, seed=16, dims=(2,) * 4), np.random.default_rng(16)
        t = unitary_tomogram(rho, list(zip(*(haar_unitaries(2, 10_000, rng) for _ in range(4)))))
        tracemalloc.start()
        try:
            est = reconstruct_from_unitary_frame(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 10_000 * 16**2 / 10
        assert np.max(np.abs(est.mat - rho.mat)) <= 1e-12
        # at a 4 MiB budget that the stack of 2000 such frames (8.2 MB) passes twice, they are solved
        t = unitary_tomogram(rho, list(zip(*(haar_unitaries(2, 2000, rng) for _ in range(4)))))
        monkeypatch.setitem(LIMITS, "bytes", 2**22)
        assert np.max(np.abs(reconstruct_from_unitary_frame(t).mat - rho.mat)) <= 1e-12


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
        # label (a, b), row-major, carries Tr[rho |a><b|] = rho[b, a]
        for idx, (a, b) in enumerate(np.ndindex(3, 3)):
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
        assert all(isinstance(t, SpinTransform) for t in symbols._TRANSFORMS.values())
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
        assert pair.size == table.size == 4 * grid.n_nodes
        assert np.array_equal(pair.synthesize(table.reshape(-1)), transform.synthesize(table))

    def test_pair_is_its_dimension_and_transform(self):
        grid = make_grid(1)
        assert [f.name for f in dataclasses.fields(QuantizerPair)] == ["dim", "transform"]
        assert QuantizerPair.spin(1, grid).size == 3 * grid.n_nodes
        assert QuantizerPair.matrix_units(3).size == 9

    @pytest.mark.memory
    def test_spin_pair_allocates_nothing_per_label(self):
        # with the transform cached, a j = 20 pair (41 x 3321 labels) is two references
        grid = make_grid(20)
        SpinTransform.on_grid(20, grid)
        tracemalloc.start()
        try:
            pair = QuantizerPair.spin(20, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pair.transform is SpinTransform.on_grid(20, grid)
        assert peak < 64 * 2**10

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
            pair.synthesize(np.ones(pair.size - 1))
        with pytest.raises(ValueError, match="length"):
            QuantizerPair.matrix_units(2).synthesize(np.ones(3))
        with pytest.raises(ValueError, match="source pair"):
            intertwine(np.ones(3), QuantizerPair.matrix_units(2), QuantizerPair.matrix_units(2))
        with pytest.raises(ValueError, match="at least 1"):
            QuantizerPair.matrix_units(0)

    @pytest.mark.parametrize("dim", [2.5, 2.0, True])
    def test_matrix_units_refuse_a_dimension_that_is_no_integer(self, dim):
        # 2.5 once made a pair of size 6.25
        with pytest.raises(ValueError, match=f"must be integers, got {dim!r}"):
            QuantizerPair.matrix_units(dim)


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
        # label (a, b) of the matrix-unit symbol, row-major, carries rho[b, a]
        for idx, (a, b) in enumerate(np.ndindex(17, 17)):
            assert abs(phi[idx] - rho.mat[b, a]) <= 1e-12
        assert np.max(np.abs(intertwine(phi, units, pair) - f)) <= 1e-12
