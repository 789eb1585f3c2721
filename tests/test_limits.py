"""The table of limits: every entry at its edge, the ``check`` rule, and no limit outside the table.

Each entry of ``errors.LIMITS`` is driven just past its limit (refused, with
its exact message and exception class, or a verdict that turns) and just
inside it (accepted), so that neither a limit nor a message can move
unnoticed.  An AST scan of ``src/`` finds no small float literal outside
the table but three tolerances that refuse nothing.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from spintomo import channels, entropy, io
from spintomo.channels import KrausChannel, channel_frame, channel_propagator, depolarizing
from spintomo.dynamics import Povm, measure_update, povm_validate
from spintomo.entropy import strong_subadditivity_check, subadditivity_check, symbol_entropy
from spintomo.errors import (
    LIMITS,
    DegeneratePointError,
    InvalidChannelError,
    ZeroProbabilityError,
    check,
)
from spintomo.linalg import DensityMatrix, _check_bytes, eig_hermitian, expm_hermitian_times
from spintomo.quadrature import make_grid
from spintomo.reconstruction import reconstruction_residual
from spintomo.simplex import GroupSpec, SimplexSample, eigenvalue_bounds_check, entangled_ray_check, peres_scan
from spintomo.star import symbol_trace, trace_power
from spintomo.states import entangled_ray_state, maximally_mixed, werner_state
from spintomo.symbols import Tomogram, UnitaryFrames, grid_frames, spin_tomogram

PAST, INSIDE = 1.1, 0.9  # a residual this many times its limit

# the limits as the checks have always applied them
EXPECTED = {
    "state_hermitian": 1e-12,
    "state_trace": 1e-12,
    "state_psd": 1e-10,
    "hermitian": 1e-10,
    "tomogram_real": 1e-10,
    "tomogram_negative": 1e-12,
    "tomogram_sum": 1e-10,
    "distribution_negative": 1e-10,
    "distribution_sum": 1e-10,
    "simplex": 1e-10,
    "completeness": 1e-10,
    "effect": 1e-10,
    "zero_probability": 1e-14,
    "unit_axis": 1e-10,
    "propagator_real": 1e-10,
    "ray_norm": 1e-10,
    "ray_degenerate": 1e-12,
    "values_im": 1e-12,
    "trace_real": 1e-8,
    "unitary": 1e-8,
    "witness": 1e-8,
    "subadditivity": 1e-10,
    "bytes": 2**30,
}


def _one_frame(column) -> Tomogram:
    """A qubit tomogram of one identity frame with the given table column."""
    return Tomogram(UnitaryFrames(np.eye(2)[None]), np.array(column, dtype=complex)[:, None])


def _sample(points) -> SimplexSample:
    return SimplexSample(np.array(points), 0, GroupSpec("full"), (2,), np.random.default_rng(0))


def _trace_power(x):
    grid = make_grid(0.5)
    t = spin_tomogram(np.diag([1.0 + 1j * x, 0.0]), grid_frames(0.5, grid))
    return trace_power(t, 1, grid)


def _trace_message(x) -> str:
    grid = make_grid(0.5)
    value = symbol_trace(spin_tomogram(np.diag([1.0 + 1j * x, 0.0]), grid_frames(0.5, grid)), 0.5, grid)
    return f"trace came out non-real ({value}); non-Hermitian input?"


PURE = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
POINT = [0.25, 0.25, 0.25, 0.25]

# (entry, site, run(x) with a residual x, exception class, message); the message
# is a function of x where the site prints the residual
REFUSALS = [
    ("state_hermitian", "DensityMatrix", lambda x: DensityMatrix(np.array([[1.0, x], [0.0, 0.0]])),
     ValueError, "density matrix is not Hermitian within 1e-12"),
    ("state_trace", "DensityMatrix", lambda x: DensityMatrix(np.diag([1.0 + x, 0.0])),
     ValueError, "density matrix trace differs from 1 beyond 1e-12"),
    ("state_psd", "DensityMatrix", lambda x: DensityMatrix(np.diag([1.0 + x, -x])),
     ValueError, "density matrix has a negative eigenvalue beyond the slack 1e-10"),
    ("hermitian", "eig_hermitian", lambda x: eig_hermitian([[1.0, x], [0.0, 1.0]]),
     ValueError, "matrix is not Hermitian within tolerance"),
    ("hermitian", "expm_hermitian_times", lambda x: expm_hermitian_times([[1.0, x], [0.0, 1.0]], 1.0),
     ValueError, "generator is not Hermitian within tolerance"),
    ("tomogram_real", "Tomogram.values", lambda x: _one_frame([0.5 + 1j * x, 0.5]).values,
     ValueError, lambda x: f"tomogram has imaginary entries up to {x:.3e}; a probability table is real"),
    ("tomogram_real", "_real_table",
     lambda x: reconstruction_residual(_one_frame([0.5 + 1j * x, 0.5]), maximally_mixed((2,))),
     ValueError, lambda x: f"tomogram has imaginary entries up to {x:.3e}; a probability table is real"),
    ("tomogram_negative", "Tomogram.values", lambda x: _one_frame([1.0 + x, -x]).values,
     ValueError, "tomogram has negative entries beyond -1e-12 (non-PSD input?)"),
    ("tomogram_sum", "check_normalized", lambda x: _one_frame([0.5 + x, 0.5]).check_normalized(),
     ValueError, lambda x: f"tomogram not normalized per frame (residual {x:.3e})"),
    ("distribution_negative", "_clean_probs", lambda x: symbol_entropy([1.0 + x, -x]),
     ValueError, "w has negative entries beyond tolerance"),
    ("distribution_sum", "_clean_probs", lambda x: symbol_entropy([0.5, 0.5 + x]),
     ValueError, lambda x: f"w does not sum to 1 (got {np.float64(0.5) + (0.5 + x)})"),
    ("simplex", "validate-negative", lambda x: _sample([[1.0 + x, -x]]).validate(),
     ValueError, "sample contains a negative probability"),
    ("simplex", "validate-sum", lambda x: _sample([[0.5, 0.5 + x]]).validate(),
     ValueError, "sample rows do not sum to 1"),
    ("completeness", "KrausChannel", lambda x: KrausChannel([np.diag([1.0, np.sqrt(1.0 + x)])]),
     InvalidChannelError, "Kraus operators violate completeness"),
    ("effect", "measure_update-psd", lambda x: measure_update(PURE, np.diag([1.0, -x])),
     ValueError, "effect must be positive semidefinite"),
    ("effect", "measure_update-hermitian", lambda x: measure_update(PURE, [[1.0, x], [0.0, 0.0]]),
     ValueError, "effect must be positive semidefinite"),
    ("unit_axis", "_check_rotation", lambda x: channel_frame(0.3, (0.0, 0.0, 1.0 + x)),
     ValueError, "n must be a unit 3-vector"),
    ("ray_norm", "entangled_ray_state", lambda x: entangled_ray_state(np.sqrt(0.5 + x), np.sqrt(0.5)),
     ValueError, "coefficients must be normalized"),
    ("ray_norm", "entangled_ray_check", lambda x: entangled_ray_check(POINT, np.sqrt(0.5 + x), np.sqrt(0.5)),
     ValueError, "coefficients must satisfy |c0|^2 + |c1|^2 = 1"),
    ("trace_real", "trace_power", _trace_power, ValueError, _trace_message),
    ("unitary", "UnitaryFrames", lambda x: UnitaryFrames(np.diag([np.sqrt(1.0 + x), 1.0])[None]),
     ValueError, "frame is not unitary within 1e-8"),
    ("bytes", "_check_bytes", lambda x: _check_bytes(x, "the {} of {}", "table", 3),
     ValueError, "the table of 3 would allocate about 1.18 GB, above the budget of 1.07 GB"),
]

# floors: refused below the limit, accepted above it
FLOORS = [
    ("zero_probability", "measure_update", lambda x: measure_update(PURE, np.diag([np.sqrt(x), 1.0])),
     ZeroProbabilityError, lambda x: f"outcome probability {np.sqrt(x) ** 2:.3e} is numerically zero"),
    ("ray_degenerate", "entangled_ray_check", lambda x: entangled_ray_check(POINT, np.sqrt(1.0 - x), np.sqrt(x)),
     DegeneratePointError, "a vanishing coefficient degenerates the ray identities"),
]


def _refused(run, x, error, message):
    with pytest.raises(ValueError) as info:
        run(x)
    assert type(info.value) is error
    assert str(info.value) == (message(x) if callable(message) else message)


class TestEdges:
    @pytest.mark.parametrize("name, site, run, error, message", REFUSALS, ids=[f"{c[0]}-{c[1]}" for c in REFUSALS])
    def test_refused_past_the_limit_and_accepted_inside(self, name, site, run, error, message):
        _refused(run, PAST * EXPECTED[name], error, message)
        run(INSIDE * EXPECTED[name])

    @pytest.mark.parametrize("name, site, run, error, message", FLOORS, ids=[f"{c[0]}-{c[1]}" for c in FLOORS])
    def test_refused_below_the_floor_and_accepted_above(self, name, site, run, error, message):
        _refused(run, INSIDE * EXPECTED[name], error, message)
        run(PAST * EXPECTED[name])

    def test_propagator_real(self, monkeypatch):
        # the superoperator S + i x 1 gives the basis coupling V^* S V^T the imaginary part x
        superoperator, shift = channels.kraus_to_superoperator, {}
        monkeypatch.setattr(channels, "kraus_to_superoperator", lambda ch: superoperator(ch) + shift["x"] * np.eye(4))

        def run(x):
            shift["x"] = 1j * x
            return channel_propagator(depolarizing(0.1), 0.5, make_grid(0.5))

        _refused(run, PAST * EXPECTED["propagator_real"], ValueError, "propagator came out non-real; invalid channel?")
        run(INSIDE * EXPECTED["propagator_real"])

    def test_witness(self):
        # the Werner state's largest Peres violation is (3q - 1) / 2
        for x, entangled in ((PAST, True), (INSIDE, False)):
            scan = peres_scan(werner_state((1.0 + 2.0 * x * EXPECTED["witness"]) / 3.0), 0, 0)
            assert scan.max_violation == pytest.approx(x * EXPECTED["witness"], rel=1e-6)
            assert (scan.witness is not None) == entangled

    def test_simplex_bounds(self):
        rho = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        for x, inside in ((PAST, False), (INSIDE, True)):
            for points in ([[0.7 + x * EXPECTED["simplex"], 0.3]], [[0.3 - x * EXPECTED["simplex"], 0.7]]):
                assert eigenvalue_bounds_check(_sample(points), rho) == inside

    def test_povm_verdict(self):
        for x, ok in ((PAST, False), (INSIDE, True)):
            c, e = x * EXPECTED["completeness"], x * EXPECTED["effect"]
            assert povm_validate(Povm([np.diag([1.0 + c, 1.0])])).ok == ok
            assert povm_validate(Povm([np.diag([1.0, -e]), np.diag([0.0, 1.0 + e])])).ok == ok
            assert povm_validate(Povm([[[1.0, e], [0.0, 0.0]], [[0.0, -e], [0.0, 1.0]]])).ok == ok

    def test_subadditivity_verdicts(self, monkeypatch):
        # entropies that break the inequality by x: H(12) = H(1) + H(2) + x
        rho2, rho3 = maximally_mixed((2, 2)), maximally_mixed((2, 2, 2))
        for x, holds in ((PAST, False), (INSIDE, True)):
            excess = x * EXPECTED["subadditivity"]
            values = iter([1.0 + excess, 0.5, 0.5, 1.0 + excess, 0.0, 0.5, 0.5])
            monkeypatch.setattr(entropy, "_renyi", lambda p, q: next(values))
            assert subadditivity_check(rho2, np.eye(4)).holds == holds
            assert strong_subadditivity_check(rho3, np.eye(8)).holds == holds

    def test_values_im(self):
        # a table's imaginary part at half and at twice the limit: the JSON object
        # leaves it out, then carries it as "values_im"
        for x, written in ((0.5, False), (2.0, True)):
            obj = io.tomogram_to_obj(_one_frame([0.5 + 1j * x * EXPECTED["values_im"], 0.5]))
            assert ("values_im" in obj) == written

    def test_the_table_holds_the_limits(self):
        assert LIMITS == EXPECTED

    def test_every_entry_is_driven(self):
        special = {"propagator_real", "witness", "simplex", "completeness", "effect", "subadditivity", "values_im"}
        assert {case[0] for case in REFUSALS + FLOORS} | special == set(LIMITS)


class TestCheck:
    def test_nan_is_refused(self):
        with pytest.raises(ValueError, match="^residual nan$"):
            check("state_psd", float("nan"), "residual {}", float("nan"))

    def test_the_error_class_is_raised(self):
        with pytest.raises(InvalidChannelError, match="^at 2$"):
            check("completeness", 1.0, "at {}", 2, error=InvalidChannelError)

    def test_message_is_formatted_only_on_refusal(self):
        class Unformattable:
            def __format__(self, spec):
                raise AssertionError("formatted a message that was not raised")

        check("unitary", LIMITS["unitary"], "{}", Unformattable())
        check("bytes", 0, "{}", Unformattable())


# the small float literals of src/ outside errors.LIMITS: none refuses anything,
# as each picks between two computations or is a parameter, so each stays put
_STAYS = {
    ("reconstruction.py", "_GRAM_COND_LIMIT"): 1,  # the switch between the two solvers
    ("symbols.py", "_grid_of"): 3,  # grid recognition: a grid's transform or frame_diagonals
    ("simplex.py", "image_dimension_report"): 1,  # the rel_tol default
}


def _small_float_literals(tree: ast.AST) -> list[str]:
    """Where each float literal <= 1e-6 sits: its function, or the module-level name it is assigned to."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        elif where is None and isinstance(node, ast.Assign):
            where = ast.unparse(node.targets[0])
        if isinstance(node, ast.Constant) and isinstance(node.value, float) and 0 < node.value <= 1e-6:
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, None)
    return found


def test_no_limit_outside_the_table():
    src = Path(__file__).resolve().parent.parent / "src" / "spintomo"
    counts = {}
    for path in sorted(src.glob("*.py")):
        for where in _small_float_literals(ast.parse(path.read_text())):
            counts[path.name, where] = counts.get((path.name, where), 0) + 1
    assert counts.pop(("errors.py", "LIMITS")) == sum(isinstance(v, float) for v in LIMITS.values())
    assert counts == _STAYS
