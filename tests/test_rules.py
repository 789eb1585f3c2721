"""Each input rule has one home in ``src/``, and a state's table is checked where it is made.

Every table and input is finite, its subsystem dims multiply to the space, a
state's table sums to 1 per frame, a probability table is real, a spin is a
nonnegative half-integer, and a magnetic number is j - k for a whole k.  An
AST scan of ``src/`` finds each rule's refusal text raised, its check called,
or its helper defined in one place only, and finds no ``np.prod`` (which wraps
in int64), no array tested by ``np.isfinite`` past ``_require_finite``, and no
spin or magnetic number read past ``spin`` or ``magnetic``, no call of
the least-squares solve past the two frame sets' ``inverse``, no call of
the diagonal kernel past ``frame_diagonals`` and ``_haar_scan``, no
product stack formed in ``symbols`` and none in ``reconstruction`` past one
chunk of the normal equations and the ``lstsq`` branch of the solve, and no
Python loop over a Kraus, effect or Pauli stack past the two constructors'
input reads; a behaviour test drives the frame-sum check through ``Tomogram``
itself.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from spintomo.linalg import DensityMatrix
from spintomo.symbols import SpinFrames, Tomogram, UnitaryFrames

SRC = Path(__file__).resolve().parent.parent / "src" / "spintomo"


def _nodes():
    """(file name, enclosing function as Class.function or None, node) for every AST node of ``src/``."""
    found = []

    def visit(node, name, where, classes):
        for child in ast.iter_child_nodes(node):
            found.append((name, where, child))
            if isinstance(child, ast.ClassDef):
                visit(child, name, where, classes + (child.name,))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, name, ".".join(classes + (child.name,)), classes)
            else:
                visit(child, name, where, classes)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.name, None, ())
    return found


NODES = _nodes()


def _raised_with(text: str) -> set:
    """Where a ``raise`` holds a string literal containing ``text``."""
    return {
        (name, where)
        for name, where, node in NODES
        if isinstance(node, ast.Raise)
        and any(isinstance(c, ast.Constant) and text in str(c.value) for c in ast.walk(node))
    }


def _calls(attr: str) -> set:
    """Where a call of ``attr``, by name or as an attribute, is made."""
    return {
        (name, where)
        for name, where, node in NODES
        if isinstance(node, ast.Call) and attr in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    }


def test_one_finiteness_check():
    assert _raised_with("(found NaN or infinity)") == {("linalg.py", "_require_finite")}
    assert _calls("_require_finite") == {
        ("symbols.py", "SpinFrames.__init__"),
        ("symbols.py", "SpinFrames.symbols"),
        ("symbols.py", "SpinFrames.inverse"),
        ("symbols.py", "UnitaryFrames.symbols"),
        ("symbols.py", "UnitaryFrames.inverse"),
        ("symbols.py", "Tomogram.__post_init__"),
        ("simplex.py", "_two_qubit_point"),
        ("io.py", "matrix_from_obj"),
        ("io.py", "_spin_frames_from_obj"),
        ("su2.py", "wigner_d_stack"),
        ("su2.py", "rotation_stack"),
        ("su2.py", "wigner_D"),
        ("su2.py", "rotation_matrix"),
        ("linalg.py", "as_matrix"),
        ("entropy.py", "_clean_probs"),
        ("star.py", "_point"),
    }


def test_arrays_are_tested_for_finiteness_only_by_require_finite():
    # the other two are scalar checks that name their value: an evolution time and a rotation angle
    assert {(name, where) for name, where, node in NODES
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "isfinite"
            and getattr(node.func.value, "id", None) == "np"} == {
        ("linalg.py", "_require_finite"),
        ("linalg.py", "expm_hermitian_times"),
        ("channels.py", "_check_rotation"),
    }


def test_the_rotation_kernels_keep_no_finiteness_test_of_their_own():
    assert not {(name, where) for name, where in _calls("isfinite") if name == "su2.py"}


def test_one_dims_check():
    # io reads a file's dims before any state exists, so its refusal names the file's field "dim"
    assert _raised_with("do not multiply to") == {("linalg.py", "_subsystem_dims")}
    assert _calls("_subsystem_dims") == {
        ("linalg.py", "DensityMatrix.__post_init__"),
        ("symbols.py", "Tomogram.__post_init__"),
        ("io.py", "matrix_from_obj"),
    }


def test_no_product_of_sizes_in_numpy():
    # np.prod wraps in int64 past 2**63; math.prod over Python ints is exact
    assert not {(name, where) for name, where, node in NODES
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "prod" and getattr(node.func.value, "id", None) == "np"}


def test_every_spin_is_read_by_spin():
    # HalfInt.of takes a negative spin; spin refuses it, so only halfint.py reads j with HalfInt.of
    assert {name for name, where, node in NODES
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "of"
            and getattr(node.func.value, "id", None) == "HalfInt"
            and [getattr(a, "id", None) for a in node.args] == ["j"]} <= {"halfint.py"}


def test_one_magnetic_number_check():
    # magnetic reads m and its parity against j; _row adds the range of a basis row
    assert _raised_with("is not of the form j-k for j=") == {("halfint.py", "magnetic")}
    assert _raised_with("exceeds j=") == {("su2.py", "_row")}


def test_every_magnetic_number_is_read_by_magnetic():
    assert {name for name, where, node in NODES
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "of"
            and getattr(node.func.value, "id", None) == "HalfInt"
            and any(getattr(a, "id", "").startswith("m") for a in node.args)} <= {"halfint.py"}


def test_frame_sums_checked_where_a_state_table_is_made():
    # a file's table has no state, so the least-squares estimate checks it itself
    assert _calls("check_normalized") == {
        ("symbols.py", "Tomogram.__post_init__"),
        ("reconstruction.py", "reconstruct_from_unitary_frame"),
    }


def test_one_route_to_the_least_squares_solve():
    # every inverse off a grid is its frame set's inverse(table); the state estimate calls that
    assert _calls("_solve") == {("symbols.py", "SpinFrames.inverse"), ("symbols.py", "UnitaryFrames.inverse")}


def test_one_block_loop_over_stored_frames():
    # frame_diagonals feeds stored frames, a stack or factor stacks, to the diagonal
    # kernel and _haar_scan feeds it the sampler's blocks; a second loop fails here
    assert _calls("column_diagonals") == {("linalg.py", "frame_diagonals"), ("linalg.py", "_haar_scan")}
    assert _calls("_kron_columns") == {("linalg.py", "frame_diagonals")}


def test_product_frames_are_multiplied_out_only_by_the_solve():
    # product frames are their factor stacks, which symbols.py never multiplies out; the solve
    # forms one chunk's products in _normal_equations, and the whole stack only for lstsq
    assert {where for name, where in _calls("kron_all") if name == "symbols.py"} == set()
    assert {where for name, where in _calls("kron_all") if name == "reconstruction.py"} == {"_normal_equations", "_solve"}
    solve = next(node for name, where, node in NODES
                 if name == "reconstruction.py" and isinstance(node, ast.FunctionDef) and node.name == "_solve")
    in_lstsq_branch = {id(call) for branch in ast.walk(solve) if isinstance(branch, ast.If)
                       for stmt in branch.orelse if "lstsq" in ast.unparse(stmt) for call in ast.walk(stmt)}
    assert all(id(call) in in_lstsq_branch for call in ast.walk(solve)
               if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "kron_all")


def _walks_an_operator_stack(it) -> bool:
    """Whether a loop's iterable reads a Kraus stack (``.ops``), an effect stack (``.effects``) or ``PAULIS``."""
    return any((isinstance(n, ast.Attribute) and n.attr in ("ops", "effects"))
               or (isinstance(n, ast.Name) and n.id == "PAULIS") for n in ast.walk(it))


def test_no_python_loop_over_an_operator_stack():
    # Kraus sets, POVM effects and the Paulis are (K, d, d) stacks read by array expressions;
    # only the two constructors walk their input, checking each given matrix before stacking
    assert {(name, where) for name, where, node in NODES
            if isinstance(node, (ast.For, ast.comprehension)) and _walks_an_operator_stack(node.iter)} == {
        ("channels.py", "KrausChannel.__post_init__"),
        ("dynamics.py", "Povm.__post_init__"),
    }


@pytest.mark.parametrize("helper", ["_real_if_real", "_real_table"])
def test_one_home_for_real_tables(helper):
    # defined once, at the top level of symbols.py, beside Tomogram
    defined = [(name, where) for name, where, node in NODES
               if isinstance(node, ast.FunctionDef) and node.name == helper]
    assert defined == [("symbols.py", None)]


def test_one_realness_check():
    # Tomogram.values reads its table through _real_table, the one check against LIMITS["tomogram_real"]
    assert {(name, where) for name, where, node in NODES
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "check"
            and getattr(node.args[0], "value", None) == "tomogram_real"} == {("symbols.py", "_real_table")}
    assert ("symbols.py", "Tomogram.values") in _calls("_real_table")


@pytest.mark.parametrize(
    "frames",
    [UnitaryFrames(np.eye(2)[None]), SpinFrames(0.5, [0.0], [0.0])],
    ids=["unitary", "spin"],
)
def test_a_state_table_off_its_frame_sums_is_refused_at_construction(frames):
    rho = DensityMatrix(np.diag([0.75, 0.25]))
    table = [[0.751], [0.25]]
    with pytest.raises(ValueError, match=r"^tomogram not normalized per frame \(residual 1\.000e-03\)$"):
        Tomogram(frames, table, source_state=rho)
    # with no state the table may be an observable's, and is kept as given
    assert np.array_equal(Tomogram(frames, table).table, np.array(table, dtype=complex))
