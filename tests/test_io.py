import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import random_hermitian
from spintomo import io
from spintomo.halfint import HalfInt
from spintomo.linalg import DensityMatrix, frame_diagonals, haar_unitaries, kron_all, random_density
from spintomo.quadrature import make_grid
from spintomo.simplex import GroupSpec, image_sample
from spintomo.states import werner_state
from spintomo.symbols import SpinFrames, Tomogram, UnitaryFrames, grid_frames, spin_tomogram, unitary_tomogram


class TestMatrixSchema:
    def test_round_trip(self, rng):
        m = random_hermitian(3, rng)
        obj = io.matrix_to_obj(m, dims=(3,))
        back, dims = io.matrix_from_obj(obj)
        assert np.max(np.abs(back - m)) == 0.0
        assert dims == (3,)

    def test_row_major_layout(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        obj = io.matrix_to_obj(m)
        assert obj["re"] == [1.0, 2.0, 3.0, 4.0]

    def test_length_validation(self):
        with pytest.raises(ValueError):
            io.matrix_from_obj({"dim": 2, "re": [1.0, 2.0], "im": [0.0, 0.0]})

    def test_dims_validation(self):
        with pytest.raises(ValueError):
            io.matrix_from_obj({"dim": 4, "re": [0.0] * 16, "im": [0.0] * 16, "dims": [3, 2]})

    @pytest.mark.parametrize("read", [io.matrix_from_obj, io.density_from_obj])
    def test_a_dims_product_past_int64_is_refused(self, read):
        # 3 * 6148914691236517206 = 2**64 + 2, which int64 arithmetic wraps to 2
        obj = dict(io.matrix_to_obj(np.eye(2) / 2), dims=[3, 6148914691236517206])
        with pytest.raises(ValueError, match=r"^dims \(3, 6148914691236517206\) do not multiply to dim 2$"):
            read(obj)

    @pytest.mark.parametrize(
        "dims, message",
        [([], r"^dims must list at least one subsystem size"),
         ([-1, -2], r"^dims \(-1, -2\) must each be at least 1$")],
        ids=["empty", "negative"],
    )
    def test_file_dims_follow_the_integer_rule(self, dims, message):
        obj = dict(io.matrix_to_obj(np.eye(2) / 2), dims=dims)
        with pytest.raises(ValueError, match=message):
            io.matrix_from_obj(obj)

    @pytest.mark.parametrize("dim", [-1, 0])
    def test_dim_below_1_refused(self, dim):
        with pytest.raises(ValueError, match=f"field 'dim' must be at least 1, got {dim}"):
            io.matrix_from_obj({"dim": dim, "re": [1.0], "im": [0.0]})

    @pytest.mark.parametrize("part", ["re", "im"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_entries_rejected(self, part, bad):
        obj = io.matrix_to_obj(np.eye(2) / 2)
        obj[part][1] = bad
        with pytest.raises(ValueError, match="finite"):
            io.matrix_from_obj(obj)

    @pytest.mark.parametrize("part", ["re", "im"])
    def test_integer_beyond_double_range_rejected(self, part):
        obj = io.matrix_to_obj(np.eye(2) / 2)
        obj[part][1] = 10**400
        with pytest.raises(ValueError, match=f"'{part}' holds an integer beyond the double range"):
            io.matrix_from_obj(obj)

    def test_density_invariants_checked_on_load(self):
        bad = io.matrix_to_obj(np.diag([0.7, 0.7]))
        with pytest.raises(ValueError):
            io.density_from_obj(bad)

    def test_density_round_trip(self):
        rho = werner_state(0.3)
        back = io.density_from_obj(io.density_to_obj(rho))
        assert back.dims == (2, 2)
        assert np.max(np.abs(back.mat - rho.mat)) == 0.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_strict_dumps_refuses_non_finite(self, bad):
        with pytest.raises(ValueError, match="JSON compliant"):
            io.dumps({"x": [1.0, bad]})


class TestTomogramSchema:
    def test_spin_round_trip(self, rng):
        grid = make_grid(1)
        t = spin_tomogram(random_density(3, 3, seed=1), grid_frames(1, grid))
        obj = io.tomogram_to_obj(t)
        back = io.tomogram_from_obj(obj)
        assert io.tomogram_to_obj(back) == obj
        assert back.kind == "spin"
        assert back.j == HalfInt(2)
        # sub-1e-12 imaginary rounding noise is dropped on write
        assert np.max(np.abs(back.table - t.table)) < 1e-12
        assert back.frames.betas.tolist() == t.frames.betas.tolist()

    def test_unitary_round_trip(self):
        rho = random_density(2, 2, seed=2)
        t = unitary_tomogram(rho, list(haar_unitaries(2, 3, 3)))
        obj = io.tomogram_to_obj(t)
        back = io.tomogram_from_obj(obj)
        assert io.tomogram_to_obj(back) == obj
        assert back.kind == "unitary"
        assert back.dims == (2,)
        assert np.max(np.abs(back.table - t.table)) < 1e-12

    def test_product_frames_round_trip(self):
        rho = random_density(4, 2, seed=4, dims=(2, 2))
        frames = [(haar_unitaries(2, 1, 5)[0], haar_unitaries(2, 1, 6)[0])]
        t = unitary_tomogram(rho, frames)
        obj = io.tomogram_to_obj(t)
        back = io.tomogram_from_obj(obj)
        assert io.tomogram_to_obj(back) == obj
        assert isinstance(back.frames[0], tuple)
        assert len(back.frames[0]) == 2

    def test_non_unitary_frame_refused_on_load(self):
        obj = io.tomogram_to_obj(unitary_tomogram(random_density(2, 2, seed=2), list(haar_unitaries(2, 3, 3))))
        obj["frames"][1]["unitary"]["re"][0] += 1e-6
        with pytest.raises(ValueError, match="not unitary within 1e-8"):
            io.tomogram_from_obj(obj)

    def test_complex_symbol_round_trip(self, rng):
        grid = make_grid(0.5)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        t = spin_tomogram(a, grid_frames(0.5, grid))
        obj = io.tomogram_to_obj(t)
        assert "values_im" in obj
        back = io.tomogram_from_obj(obj)
        assert io.tomogram_to_obj(back) == obj
        assert np.max(np.abs(back.table - t.table)) == 0.0

    @pytest.mark.parametrize("angle", ["alpha", "beta", "gamma"])
    def test_non_finite_frame_angles_rejected(self, angle):
        grid = make_grid(0.5)
        obj = io.tomogram_to_obj(spin_tomogram(np.eye(2) / 2, grid_frames(0.5, grid)))
        obj["frames"][2][angle] = float("nan")
        with pytest.raises(ValueError, match="finite"):
            io.tomogram_from_obj(obj)

    @pytest.mark.parametrize("angle", ["alpha", "beta", "gamma"])
    def test_frame_angle_beyond_double_range_rejected(self, angle):
        grid = make_grid(0.5)
        obj = io.tomogram_to_obj(spin_tomogram(np.eye(2) / 2, grid_frames(0.5, grid)))
        obj["frames"][2][angle] = 10**400
        with pytest.raises(ValueError, match=f"'{angle}' holds an integer beyond the double range"):
            io.tomogram_from_obj(obj)

    @pytest.mark.parametrize(
        "kind, outcomes",
        [("spin", [7, 7]), ("spin", [-1, 1]), ("spin", None), ("unitary", [[0], [0]]), ("unitary", [[0, 0], [0, 1]])],
    )
    def test_outcomes_must_match_their_labels(self, kind, outcomes):
        rho = random_density(2, 2, seed=2)
        t = spin_tomogram(rho, grid_frames(0.5, make_grid(0.5))) if kind == "spin" else unitary_tomogram(rho, [np.eye(2)])
        obj = io.tomogram_to_obj(t)
        obj["outcomes"] = outcomes
        with pytest.raises(ValueError, match="outcomes do not match the labels that its (j_twice|dims) implies"):
            io.tomogram_from_obj(obj)

    @pytest.mark.parametrize("dims", [[3], [2, 2], [1, 1]])
    def test_dims_must_multiply_to_the_frame_size(self, dims):
        obj = io.tomogram_to_obj(unitary_tomogram(random_density(2, 2, seed=2), [np.eye(2)]))
        obj["dims"] = dims
        with pytest.raises(ValueError, match="do not multiply to the frame size 2"):
            io.tomogram_from_obj(obj)

    @pytest.mark.parametrize(
        "kind, key", [("spin", "values"), ("spin", "j_twice"), ("unitary", "dims"), ("unitary", "frames")]
    )
    def test_missing_field_is_named(self, kind, key):
        rho = random_density(2, 2, seed=2)
        t = spin_tomogram(rho, grid_frames(0.5, make_grid(0.5))) if kind == "spin" else unitary_tomogram(rho, [np.eye(2)])
        obj = io.tomogram_to_obj(t)
        del obj[key]
        with pytest.raises(ValueError, match=f"^field '{key}' is missing$"):
            io.tomogram_from_obj(obj)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            io.tomogram_from_obj({"kind": "weyl", "values": [[1.0]]})

    @pytest.mark.parametrize("key", ["values", "values_im"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_values_rejected(self, key, bad, rng):
        grid = make_grid(0.5)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        obj = io.tomogram_to_obj(spin_tomogram(a, grid_frames(0.5, grid)))
        obj[key][1][3] = bad
        with pytest.raises(ValueError, match="finite"):
            io.tomogram_from_obj(obj)


class TestTomogramCsv:
    """One row per frame, with the layout the CLI has always written."""

    def test_spin_rows_write_alpha_as_zero(self):
        t = spin_tomogram(np.diag([0.75, 0.25]), SpinFrames(0.5, [0.0], [0.0]))
        assert io.tomogram_csv(t) == "alpha,beta,gamma,w_m1,w_m-1\n0,0,0,0.75,0.25\n"

    def test_spin_grid_rows_hold_the_node_angles(self):
        grid = make_grid(1)
        t = spin_tomogram(random_density(3, 3, seed=1), grid_frames(1, grid))
        rows = [",".join(io.fmt_float(x) for x in (0.0, b, g, *w)) for b, g, w in zip(*grid.node_angles(), t.table.real.T)]
        assert io.tomogram_csv(t) == "\n".join(["alpha,beta,gamma,w_m2,w_m0,w_m-2", *rows]) + "\n"

    def test_unitary_rows_are_indexed(self):
        t = unitary_tomogram(DensityMatrix(np.diag([0.75, 0.25])), [np.eye(2), np.array([[0, 1], [1, 0]])])
        assert io.tomogram_csv(t) == "frame_index,w_0,w_1\n0,0.75,0.25\n1,0.25,0.75\n"
        product = unitary_tomogram(DensityMatrix(np.diag([0.5, 0.25, 0.125, 0.125]), (2, 2)), [np.eye(4)])
        assert io.tomogram_csv(product) == "frame_index,w_00,w_01,w_10,w_11\n0,0.5,0.25,0.125,0.125\n"

    def test_a_complex_table_is_refused(self):
        # CSV has no column for imaginary parts, so they are refused, not dropped; JSON keeps them
        t = Tomogram(UnitaryFrames(np.eye(2)[None]), [[0.5 + 0.3j], [0.5 - 0.3j]])
        message = r"^tomogram has imaginary entries up to 3\.000e-01; a probability table is real$"
        with pytest.raises(ValueError, match=message):
            io.tomogram_csv(t)
        assert io.tomogram_to_obj(t)["values_im"] == [[0.3], [-0.3]]


class TestFormatting:
    def test_seventeen_significant_digits(self):
        assert io.fmt_float(1 / 3) == "0.33333333333333331"
        assert io.fmt_float(0.5) == "0.5"

    def test_json_determinism(self):
        obj = io.matrix_to_obj(np.array([[1 / 3, 0.0], [0.0, 2 / 3]], dtype=complex))
        assert io.dumps(obj) == io.dumps(json.loads(io.dumps(obj)))

    def test_csv_layout(self):
        text = io.csv_text(["a", "b"], [[1.0, 0.25]])
        assert text == "a,b\n1,0.25\n"

    def test_csv_numbers_are_fmt_float(self, rng):
        # the row template writes each number as fmt_float does, edge values included
        values = [-0.0, 5e-324, 1e16, 1 / 3, -2.0**60, *rng.standard_normal(95) * 10.0 ** rng.integers(-300, 300, 95)]
        rows = np.reshape(values, (-1, 4)).tolist()
        lines = io.csv_text(["a", "b", "c", "d"], rows).splitlines()
        assert lines[1:] == [",".join(io.fmt_float(x) for x in row) for row in rows]

    def test_atomic_write(self, tmp_path):
        target = tmp_path / "out.json"
        io.write_text_atomic(str(target), "hello\n")
        assert target.read_text() == "hello\n"
        leftovers = [p for p in tmp_path.iterdir() if p.name != "out.json"]
        assert leftovers == []


class TestSimplexSampleCsv:
    @pytest.mark.parametrize("group", [GroupSpec("full"), GroupSpec("product", active=(0,))], ids=["full", "product0"])
    def test_text_is_that_of_the_stacks_drawn_up_front(self, group):
        # the reference is a sample that holds its factor stacks, drawn from a fresh generator
        rho = random_density(4, 4, seed=3, dims=(2, 2))
        rng = np.random.default_rng(4)
        if group.kind == "full":
            stacks = (haar_unitaries(4, 600, rng),)
        else:
            stacks = (haar_unitaries(2, 600, rng), np.broadcast_to(np.eye(2, dtype=complex), (600, 2, 2)))
        held = SimpleNamespace(points=frame_diagonals(rho.mat, kron_all(stacks)).real, params=stacks)
        assert io.simplex_sample_csv(image_sample(rho, group, 600, seed=4)) == io.simplex_sample_csv(held)

    def test_params_are_read_once(self):
        sample = image_sample(random_density(4, 4, seed=5), GroupSpec("full"), 3, seed=6)
        reads = []

        class Counted:
            points = sample.points

            @property
            def params(self):
                reads.append(1)
                return sample.params

        assert io.simplex_sample_csv(Counted()) == io.simplex_sample_csv(sample)
        assert len(reads) == 1


class TestRefusals:
    """Refusals that no other test reaches, each through its public entry point."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: io.matrix_to_obj(np.ones((2, 3))), "only square matrices are serialized"),
            (lambda: io.matrix_from_obj([[1.0, 0.0], [0.0, 1.0]]), "matrix object must be a dict with a 'dim' field"),
        ],
        ids=["non_square", "not_a_dict"],
    )
    def test_refusal_message(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    def test_failed_replace_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(io.os, "replace", refuse)
        with pytest.raises(OSError, match="^replace refused$"):
            io.write_text_atomic(str(tmp_path / "out.json"), "{}")
        assert list(tmp_path.iterdir()) == []

    def test_a_system_error_names_the_output_path(self, tmp_path):
        # the error keeps its class and names the path asked for, not the temporary file
        out = tmp_path / "missing" / "out.json"
        with pytest.raises(FileNotFoundError, match=f"^cannot write {re.escape(str(out))}: No such file or directory$"):
            io.write_text_atomic(str(out), "{}")
        assert list(tmp_path.iterdir()) == []
