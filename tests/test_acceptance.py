"""Acceptance suite.

One test per criterion, each printed as a PASS line on success (run with
``pytest tests/test_acceptance.py -v -s``).  Tolerances are pinned here and
nowhere else; the whole suite is sized to finish in well under five minutes.
"""

import time

import numpy as np

from conftest import random_hermitian
from spintomo.channels import (
    amplitude_damping,
    apply_kraus,
    build_channel,
    channel_frame,
    channel_initial_state,
    channel_propagator,
    channel_tomogram_closed_form,
    depolarizing,
)
from spintomo.entropy import frame_probabilities, subadditivity_check, strong_subadditivity_check
from spintomo.halfint import HalfInt
from spintomo.linalg import DensityMatrix, haar_unitaries, random_density
from spintomo.quadrature import make_grid
from spintomo.reconstruction import reconstruct_operator
from spintomo.simplex import (
    GroupSpec,
    entangled_ray_check,
    eigenvalue_bounds_check,
    factorized_surface_residual,
    image_dimension,
    image_sample,
    peres_scan,
)
from spintomo.star import kernel_closed_form, kernel_trace_form, star_compose, star_grid
from spintomo.states import (
    bell_state,
    entangled_ray_state,
    maximally_mixed,
    product_state,
    pure_state,
    werner_state,
)
from spintomo.symbols import grid_frames, spin_tomogram, unitary_tomogram
from spintomo.dynamics import evolve_state, evolve_tomogram

RNG = 987654321
LADDER_STATE = DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex), (2, 2))


def report(name: str, detail: str) -> None:
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def test_criterion_01_round_trip_reconstruction():
    """Spin tomogram -> operator round trip, j in {1/2, 1, 3/2, 2}, 50 ops each."""
    rng = np.random.default_rng(RNG)
    start = time.monotonic()
    worst = 0.0
    for jv in (0.5, 1, 1.5, 2):
        j = HalfInt.of(jv)
        grid = make_grid(j)
        frames = grid_frames(j, grid)
        n = j.twice + 1
        for _ in range(50):
            a = random_hermitian(n, rng)
            t = spin_tomogram(a, frames)
            rebuilt = reconstruct_operator(t, j, grid)
            worst = max(worst, float(np.max(np.abs(rebuilt - a))))
    elapsed = time.monotonic() - start
    assert worst < 1e-8
    assert elapsed < 30.0
    report("1 round-trip reconstruction", f"max error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_star_product_oracle():
    """Star composition equals the symbol of the operator product; associativity."""
    rng = np.random.default_rng(RNG + 1)
    worst = 0.0
    for jv in (0.5, 1, 1.5):
        j = HalfInt.of(jv)
        grid = star_grid(j)
        frames = grid_frames(j, grid)
        n = j.twice + 1
        for _ in range(5):
            a, b = random_hermitian(n, rng), random_hermitian(n, rng)
            composed = star_compose(spin_tomogram(a, frames), spin_tomogram(b, frames), j, grid)
            direct = spin_tomogram(a @ b, frames)
            worst = max(worst, float(np.max(np.abs(composed.table - direct.table))))
    assert worst < 1e-7
    worst_assoc = 0.0
    for jv in (0.5, 1):
        j = HalfInt.of(jv)
        grid = star_grid(j)
        frames = grid_frames(j, grid)
        n = j.twice + 1
        for _ in range(3):
            fs = [spin_tomogram(random_hermitian(n, rng), frames) for _ in range(3)]
            left = star_compose(star_compose(fs[0], fs[1], j, grid), fs[2], j, grid)
            right = star_compose(fs[0], star_compose(fs[1], fs[2], j, grid), j, grid)
            worst_assoc = max(worst_assoc, float(np.max(np.abs(left.table - right.table))))
    assert worst_assoc < 1e-7
    report("2 star-product oracle", f"product {worst:.2e}, associativity {worst_assoc:.2e}")


def test_criterion_03_kernel_cross_form():
    """Trace-form vs closed-form star kernel at 100 random triples, j <= 3/2.

    The forms agree outright under the package's coupling conventions; the
    protocol still measures the leading-triple ratio so that any constant
    convention delta would be detected and reported rather than absorbed.
    """
    rng = np.random.default_rng(RNG + 2)
    deltas = []
    worst = 0.0
    triples_per_j = {0.5: 34, 1: 33, 1.5: 33}
    for jv, count in triples_per_j.items():
        j = HalfInt.of(jv)
        jt = j.twice
        delta = None
        for _ in range(count):
            def point():
                mt = int(rng.integers(0, jt + 1)) * 2 - jt
                return (HalfInt(mt), float(rng.uniform(0, np.pi)), float(rng.uniform(0, 2 * np.pi)))

            x2, x1, x = point(), point(), point()
            kt = kernel_trace_form(j, x2, x1, x)
            kc = kernel_closed_form(j, x2, x1, x)
            if delta is None and abs(kt) > 1e-6:
                delta = kc / kt
                assert abs(abs(delta) - 1.0) < 1e-8  # a convention delta must be a pure phase
            worst = max(worst, abs(kc - (delta or 1.0) * kt))
        deltas.append(delta)
    assert worst < 1e-8
    assert all(abs(d - 1.0) < 1e-8 for d in deltas)  # measured delta: exactly +1
    report("3 kernel cross-form", f"max deviation {worst:.2e}, delta +1 at all j")


def test_criterion_04_theorem_full_group_dimension():
    """Full-group image: dimension N-1, spectra as bounds, mixed-state collapse."""
    generic = random_density(4, 4, seed=RNG + 3)
    assert image_dimension(generic, GroupSpec("full")) == 3

    mixed = maximally_mixed((2, 2))
    sample = image_sample(mixed, GroupSpec("full"), 1_000, seed=RNG + 4)
    spread = float(np.max(np.abs(sample.points - 0.25)))
    assert spread < 1e-10

    ladder = image_sample(LADDER_STATE, GroupSpec("full"), 10_000, seed=RNG + 5)
    assert eigenvalue_bounds_check(ladder, LADDER_STATE)
    assert ladder.points.min() >= 0.1 - 1e-10 and ladder.points.max() <= 0.4 + 1e-10
    assert image_dimension(LADDER_STATE, GroupSpec("full")) == 3
    report(
        "4 full-group image",
        f"generic dim 3, mixed spread {spread:.1e}, spectrum-bounded sample of 10^4",
    )


def test_criterion_05_product_group_dimension():
    """Product-group image: factorized surface, entangled ray, Werner orbit."""
    product_group = GroupSpec("product", (2, 2))
    factorized = product_state(pure_state([1.0, 0.7j]), pure_state([0.4, 1.0]))
    assert image_dimension(factorized, product_group) == 2
    sample = image_sample(factorized, product_group, 1_000, seed=RNG + 6)
    worst_surface = max(factorized_surface_residual(p) for p in sample.points)
    assert worst_surface < 1e-10

    c = 1 / np.sqrt(2)
    ray = entangled_ray_state(c, c)
    assert image_dimension(ray, product_group) == 1
    ray_sample = image_sample(ray, product_group, 1_000, seed=RNG + 7)
    worst_ray = max(entangled_ray_check(p, c, c) for p in ray_sample.points)
    assert worst_ray < 1e-9

    single_factor = GroupSpec("product", (2, 2), active=(0,))
    for q in (0.2, 0.5, 1.0):
        assert image_dimension(werner_state(q), single_factor) == 1
    report(
        "5 product-group image",
        f"surface {worst_surface:.1e}, ray {worst_ray:.1e}, Werner dim 1 at q=0.2/0.5/1",
    )


def test_criterion_06_channel_closed_forms():
    """Closed-form channel tomograms vs direct Kraus evolution, plus limits."""
    rng = np.random.default_rng(RNG + 8)
    worst = 0.0
    for kind in ("depolarizing", "phase_damping", "amplitude_damping"):
        rho0 = channel_initial_state(kind)
        for p in (0.0, 0.25, 0.5, 0.75, 1.0):
            out = apply_kraus(build_channel(kind, p), rho0)
            for _ in range(100):
                theta = float(rng.uniform(0, 2 * np.pi))
                axis = rng.standard_normal(3)
                axis /= np.linalg.norm(axis)
                u = channel_frame(theta, axis)
                direct = unitary_tomogram(out, [u]).values[:, 0]
                wp, wm = channel_tomogram_closed_form(kind, p, theta, axis)
                worst = max(worst, abs(wp - direct[0]), abs(wm - direct[1]))
    assert worst < 1e-10

    # depolarizing p = 3/4 sits at the simplex center for every frame
    for _ in range(50):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        wp, wm = channel_tomogram_closed_form(
            "depolarizing", 0.75, float(rng.uniform(0, 2 * np.pi)), axis
        )
        assert (wp, wm) == (0.5, 0.5)
    # p -> 1 image is the segment between (2/3, 1/3) and (1/3, 2/3)
    lo = channel_tomogram_closed_form("depolarizing", 1.0, 0.0, (0.0, 0.0, 1.0))
    hi = channel_tomogram_closed_form("depolarizing", 1.0, np.pi, (1.0, 0.0, 0.0))
    assert abs(lo[0] - 1 / 3) < 1e-12 and abs(hi[0] - 2 / 3) < 1e-12
    for _ in range(200):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        wp, _ = channel_tomogram_closed_form(
            "depolarizing", 1.0, float(rng.uniform(0, 2 * np.pi)), axis
        )
        assert 1 / 3 - 1e-12 <= wp <= 2 / 3 + 1e-12

    # phase damping p = 1 and amplitude damping p = 1/2 contract to a point
    for kind, p in (("phase_damping", 1.0), ("amplitude_damping", 0.5)):
        for _ in range(100):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            wp, wm = channel_tomogram_closed_form(
                kind, p, float(rng.uniform(0, 2 * np.pi)), axis
            )
            assert abs(wp - 0.5) < 1e-10 and abs(wm - 0.5) < 1e-10

    # amplitude damping p = 1 maps to a pure state: the image re-expands
    reset = apply_kraus(amplitude_damping(1.0), channel_initial_state("amplitude_damping"))
    frames = haar_unitaries(2, 10_000, np.random.default_rng(RNG + 9))
    reset_spread = np.ptp(frame_probabilities(reset, frames)[:, 0])
    reference = pure_state([0.6, 0.8j])
    ref_spread = np.ptp(
        frame_probabilities(reference, haar_unitaries(2, 10_000, np.random.default_rng(RNG + 10)))[:, 0]
    )
    assert reset_spread >= 0.98 * ref_spread
    report(
        "6 channel closed forms",
        f"closed-vs-direct {worst:.2e}, limits and p=1 spread ratio "
        f"{reset_spread / ref_spread:.4f} verified",
    )


def test_criterion_07_entropy_minimum():
    """Frame entropies dominate the quantum entropies; eigenbasis attains them."""
    n_frames = 10_000
    worst_gap = np.inf
    for dim_index, dim in enumerate((2, 3, 4)):
        frames = haar_unitaries(dim, n_frames, np.random.default_rng(RNG + 20 + dim_index))
        for k in range(20):
            rho = random_density(dim, dim, seed=RNG + 100 * dim + k)
            eigs = np.clip(np.linalg.eigvalsh(rho.mat), 0.0, None)
            probs = frame_probabilities(rho, frames)
            with np.errstate(divide="ignore", invalid="ignore"):
                logs = np.where(probs > 0, np.log(np.where(probs > 0, probs, 1.0)), 0.0)
            shannon = -np.sum(probs * logs, axis=1)
            s_vn = float(-np.sum(eigs[eigs > 0] * np.log(eigs[eigs > 0])))
            assert shannon.min() > s_vn - 1e-6
            worst_gap = min(worst_gap, float(shannon.min() - s_vn))
            eig_probs = frame_probabilities(rho, np.linalg.eigh(rho.mat)[1][None, :, :])[0]
            h_eig = float(-np.sum(eig_probs[eig_probs > 0] * np.log(eig_probs[eig_probs > 0])))
            assert abs(h_eig - s_vn) < 1e-10
            for q in (0.5, 2.0):
                renyi = np.log(np.sum(np.where(probs > 0, probs, 1.0) ** q * (probs > 0), axis=1)) / (1 - q)
                s_q = float(np.log(np.sum(eigs[eigs > 0] ** q)) / (1 - q))
                assert renyi.min() > s_q - 1e-6
                r_eig = float(np.log(np.sum(eig_probs[eig_probs > 0] ** q)) / (1 - q))
                assert abs(r_eig - s_q) < 1e-10
    report("7 entropy minimum", f"60 states x 10^4 frames, smallest margin {worst_gap:.2e}")


def test_criterion_08_subadditivity():
    """Classical subadditivity and strong subadditivity on random draws."""
    rng = np.random.default_rng(RNG + 30)
    worst_sa = np.inf
    frames2 = haar_unitaries(4, 1_000, rng)
    for k in range(1_000):
        rho = random_density(4, int(rng.integers(1, 5)), seed=RNG + 40 + k, dims=(2, 2))
        res = subadditivity_check(rho, frames2[k])
        assert res.slack >= -1e-10
        worst_sa = min(worst_sa, res.slack)
    worst_ssa = np.inf
    frames3 = haar_unitaries(8, 1_000, rng)
    for k in range(1_000):
        rho = random_density(8, int(rng.integers(1, 9)), seed=RNG + 50 + k, dims=(2, 2, 2))
        res = strong_subadditivity_check(rho, frames3[k])
        assert res.slack >= -1e-10
        worst_ssa = min(worst_ssa, res.slack)
    report("8 subadditivity", f"min SA slack {worst_sa:.2e}, min SSA slack {worst_ssa:.2e}")


def test_criterion_09_peres_scan():
    """Tomographic partial-transpose scan against the eigenvalue oracle."""
    separable = peres_scan(werner_state(0.2), 1_000, seed=RNG + 60)
    assert separable.max_violation <= 1e-10
    assert separable.min_eigenvalue > 0
    assert abs(separable.eigenbasis_value - separable.trace_norm_minus_one) < 1e-10

    entangled = peres_scan(werner_state(1.0), 1_000, seed=RNG + 61)
    assert entangled.witness is not None
    assert abs(entangled.eigenbasis_value - entangled.trace_norm_minus_one) < 1e-10
    assert abs(entangled.max_violation - 1.0) < 1e-10  # sum |{-1/2,1/2,1/2,1/2}| - 1

    bell = peres_scan(bell_state(), 1_000, seed=RNG + 62)
    assert bell.witness is not None
    assert abs(bell.eigenbasis_value - bell.trace_norm_minus_one) < 1e-10
    report(
        "9 Peres scan",
        f"q=0.2 clean, q=1 violation {entangled.max_violation:.6f}, Bell witnessed: violation "
        f"{bell.max_violation:.6f}, Haar detection {bell.detection.mean:.3f} +- {bell.detection.stderr:.3f}",
    )


def test_criterion_10_tomogram_evolution():
    """Frame-shift evolution equals direct state evolution on random draws."""
    rng = np.random.default_rng(RNG + 70)
    worst = 0.0
    for k in range(50):
        dim = int(rng.integers(2, 5))
        rho = random_density(dim, int(rng.integers(1, dim + 1)), seed=RNG + 80 + k)
        h = random_hermitian(dim, rng)
        t = float(rng.uniform(0.0, 5.0))
        us = list(haar_unitaries(dim, 2, np.random.default_rng(RNG + 90 + k)))
        shifted = evolve_tomogram(unitary_tomogram(rho, us), h, t)
        direct = unitary_tomogram(evolve_state(rho, h, t), us)
        worst = max(worst, float(np.max(np.abs(shifted.table - direct.table))))
    assert worst < 1e-10
    report("10 tomogram evolution", f"50 draws, max deviation {worst:.2e}")


def test_criterion_11_channel_propagator():
    """Propagator carries tomograms to channel outputs and composes as matrices."""
    j = HalfInt.of(0.5)
    grid = make_grid(j)
    frames = grid_frames(j, grid)
    rng = np.random.default_rng(RNG + 95)
    worst = 0.0
    channels = [depolarizing(0.3), amplitude_damping(0.45), build_channel("phase_damping", 0.8)]
    for ch in channels:
        pi = channel_propagator(ch, j, grid)
        for k in range(10):
            rho = random_density(2, int(rng.integers(1, 3)), seed=RNG + 96 + k)
            w_in = spin_tomogram(rho, frames).table.reshape(-1).real
            w_out = spin_tomogram(apply_kraus(ch, rho), frames).table.reshape(-1).real
            worst = max(worst, float(np.max(np.abs(pi @ w_in - w_out))))
    assert worst < 1e-8

    pi1 = channel_propagator(channels[0], j, grid)
    pi2 = channel_propagator(channels[1], j, grid)
    pi21 = channel_propagator(channels[1].compose(channels[0]), j, grid)
    comp = float(np.max(np.abs(pi21 - pi2 @ pi1)))
    assert comp < 1e-7
    report("11 channel propagator", f"transport {worst:.2e}, composition {comp:.2e}")
