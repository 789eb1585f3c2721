import json

import numpy as np
import pytest

from conftest import random_hermitian
from spintomo import io
from spintomo.channels import apply_kraus, phase_damping
from spintomo.errors import InvalidChannelError
from spintomo.halfint import HalfInt
from spintomo.linalg import haar_unitaries, random_density
from spintomo.quadrature import make_grid
from spintomo.states import werner_state
from spintomo.symbols import grid_frames, spin_tomogram, unitary_tomogram


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


class TestChannelSchema:
    def test_named_channel(self):
        ch = io.channel_from_obj({"kind": "phase_damping", "p": 0.25})
        rho = random_density(2, 2, seed=7)
        want = apply_kraus(phase_damping(0.25), rho)
        got = apply_kraus(ch, rho)
        assert np.max(np.abs(got.mat - want.mat)) < 1e-14

    def test_kraus_list_round_trip(self):
        ch = phase_damping(0.4)
        back = io.channel_from_obj(io.channel_to_obj(ch))
        assert len(back.ops) == 3

    def test_incomplete_kraus_rejected(self):
        obj = {"kind": "kraus", "ops": [io.matrix_to_obj(np.diag([1.0, 0.5]))]}
        with pytest.raises(InvalidChannelError):
            io.channel_from_obj(obj)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            io.channel_from_obj({"kind": "dephasing", "p": 0.1})

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"kind": "phase_damping", "p": {}}, "field 'p' must be a JSON number, got dict"),
            ({"kind": "phase_damping", "p": "0.5"}, "field 'p' must be a JSON number, got str"),
            ({"kind": "phase_damping", "p": True}, "field 'p' must be a JSON number, got bool"),
            ({"kind": "kraus", "ops": 5}, "field 'ops' must be a JSON list of objects, got int"),
            ([{"kind": "phase_damping", "p": 0.25}], "a channel must be a JSON object, got list"),
        ],
        ids=["p-object", "p-string", "p-bool", "ops-number", "not-an-object"],
    )
    def test_malformed_fields_refused(self, obj, message):
        with pytest.raises(ValueError, match=message):
            io.channel_from_obj(obj)


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

    def test_atomic_write(self, tmp_path):
        target = tmp_path / "out.json"
        io.write_text_atomic(str(target), "hello\n")
        assert target.read_text() == "hello\n"
        leftovers = [p for p in tmp_path.iterdir() if p.name != "out.json"]
        assert leftovers == []
