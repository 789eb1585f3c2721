import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spintomo import cli, io
from spintomo.cli import main
from spintomo.linalg import DensityMatrix, random_density
from spintomo.states import bell_state, maximally_mixed, werner_state
from spintomo.symbols import unitary_tomogram


@pytest.fixture
def workdir(tmp_path):
    ladder = DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex), (2, 2))
    qubit = random_density(2, 2, seed=1)
    paths = {
        "ladder": tmp_path / "ladder.json",
        "qubit": tmp_path / "qubit.json",
        "mixed": tmp_path / "mixed.json",
        "werner": tmp_path / "werner.json",
        "bell": tmp_path / "bell.json",
        "h": tmp_path / "h.json",
    }
    paths["ladder"].write_text(io.dumps(io.density_to_obj(ladder)))
    paths["qubit"].write_text(io.dumps(io.density_to_obj(qubit)))
    paths["mixed"].write_text(io.dumps(io.density_to_obj(maximally_mixed((2,)))))
    paths["werner"].write_text(io.dumps(io.density_to_obj(werner_state(0.8))))
    paths["bell"].write_text(io.dumps(io.density_to_obj(bell_state())))
    paths["h"].write_text(io.dumps(io.matrix_to_obj(np.diag([0.5, -0.5]).astype(complex))))
    return tmp_path, paths


class TestTomogramCommand:
    def test_maximally_mixed_is_uniform(self, workdir):
        tmp, paths = workdir
        out = tmp / "t.json"
        rc = main(["tomogram", "--state", str(paths["mixed"]), "--n-frames", "10",
                   "--seed", "1", "--out", str(out)])
        assert rc == 0
        values = np.array(json.load(out.open())["values"])
        assert np.max(np.abs(values - 0.5)) < 1e-12

    def test_ladder_values_within_spectrum(self, workdir):
        tmp, paths = workdir
        out = tmp / "t.json"
        rc = main(["tomogram", "--state", str(paths["ladder"]), "--n-frames", "200",
                   "--seed", "2", "--out", str(out)])
        assert rc == 0
        values = np.array(json.load(out.open())["values"])
        assert values.min() >= 0.1 - 1e-10
        assert values.max() <= 0.4 + 1e-10

    def test_bad_json_exits_2(self, workdir):
        tmp, paths = workdir
        bad = tmp / "bad.json"
        bad.write_text("{broken")
        out = tmp / "never.json"
        rc = main(["tomogram", "--state", str(bad), "--n-frames", "5", "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    @settings(max_examples=20, deadline=None)
    @given(
        bad=st.sampled_from([float("nan"), float("inf"), float("-inf")]),
        part=st.sampled_from(["re", "im"]),
        entry=st.integers(min_value=0, max_value=3),
        spin_grid=st.booleans(),
    )
    def test_non_finite_state_exits_2(self, bad, part, entry, spin_grid):
        obj = io.density_to_obj(random_density(2, 2, seed=1))
        obj[part][entry] = bad
        with tempfile.TemporaryDirectory() as tmp:
            state, out = Path(tmp) / "state.json", Path(tmp) / "never.json"
            state.write_text(json.dumps(obj))
            frames = ["--j", "0.5"] if spin_grid else ["--n-frames", "5"]
            rc = main(["tomogram", "--state", str(state), *frames, "--out", str(out)])
            assert rc == 2
            assert not out.exists()

    @pytest.mark.parametrize("oversample", ["inf", "1e308", "nan"])
    def test_oversample_without_a_finite_grid_exits_2(self, workdir, capsys, oversample):
        tmp, paths = workdir
        out = tmp / "never.json"
        rc = main(["tomogram", "--state", str(paths["qubit"]), "--j", "0.5",
                   "--oversample", oversample, "--out", str(out)])
        assert rc == 2
        assert "oversample" in capsys.readouterr().err
        assert not out.exists()

    def test_spin_grid_tomogram_csv(self, workdir):
        tmp, paths = workdir
        out = tmp / "t.csv"
        rc = main(["tomogram", "--state", str(paths["qubit"]), "--j", "0.5",
                   "--out", str(out), "--format", "csv"])
        assert rc == 0
        header = out.read_text().splitlines()[0]
        assert header == "alpha,beta,gamma,w_m1,w_m-1"


class TestReconstructCommand:
    def test_shipped_example_round_trip(self, tmp_path, capsys):
        shipped = Path(__file__).resolve().parent.parent / "data" / "qubit_state.json"
        t_out = tmp_path / "t.json"
        assert main(["tomogram", "--state", str(shipped), "--j", "0.5", "--out", str(t_out)]) == 0
        capsys.readouterr()
        assert main(["reconstruct", "--tomogram", str(t_out), "--out", str(tmp_path / "r.json")]) == 0
        reported = float(capsys.readouterr().out.strip().rsplit(" ", 1)[-1])
        assert reported < 1e-8

    def test_spin_round_trip_reports_error(self, workdir, capsys):
        tmp, paths = workdir
        t_out = tmp / "t.json"
        main(["tomogram", "--state", str(paths["qubit"]), "--j", "0.5", "--out", str(t_out)])
        r_out = tmp / "r.json"
        rc = main(["reconstruct", "--tomogram", str(t_out), "--out", str(r_out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "round-trip max abs error" in printed
        reported = float(printed.strip().rsplit(" ", 1)[-1])
        assert reported < 1e-8
        m, _ = io.matrix_from_obj(json.load(r_out.open()))
        want, _ = io.matrix_from_obj(json.load(paths["qubit"].open()))
        assert np.max(np.abs(m - want)) < 1e-9

    def test_informationally_incomplete_exits_3(self, workdir):
        tmp, paths = workdir
        rho = random_density(2, 2, seed=9)
        t = unitary_tomogram(rho, [np.eye(2, dtype=complex)])
        t_path = tmp / "single.json"
        t_path.write_text(io.dumps(io.tomogram_to_obj(t)))
        rc = main(["reconstruct", "--tomogram", str(t_path), "--out", str(tmp / "x.json")])
        assert rc == 3
        assert not (tmp / "x.json").exists()

    def test_empty_frame_list_exits_2(self, workdir, capsys):
        tmp, _ = workdir
        t_path = tmp / "empty.json"
        t_path.write_text(json.dumps({"kind": "unitary", "dims": [2], "outcomes": [[0], [1]],
                                      "frames": [], "values": [[], []]}))
        rc = main(["reconstruct", "--tomogram", str(t_path), "--out", str(tmp / "x.json")])
        assert rc == 2
        assert "at least one frame" in capsys.readouterr().err
        assert not (tmp / "x.json").exists()

    def test_non_unitary_frame_exits_2(self, workdir, capsys):
        tmp, _ = workdir
        rho = random_density(2, 2, seed=9)
        frames = [np.eye(2), np.array([[1, 1], [1, -1]]) / np.sqrt(2),
                  np.array([[1, 1j], [1j, 1]]) / np.sqrt(2), np.array([[0, 1], [1, 0]])]
        obj = io.tomogram_to_obj(unitary_tomogram(rho, frames))
        obj["frames"][0] = {"unitary": io.matrix_to_obj(2.0 * np.eye(2))}
        t_path = tmp / "scaled.json"
        t_path.write_text(io.dumps(obj))
        rc = main(["reconstruct", "--tomogram", str(t_path), "--out", str(tmp / "x.json")])
        assert rc == 2
        assert "not unitary" in capsys.readouterr().err
        assert not (tmp / "x.json").exists()


    @pytest.mark.parametrize(
        "doc, message",
        [
            ([], "tomogram must be a JSON object"),
            ({"kind": "unitary", "dims": [2], "outcomes": [[0], [1]], "frames": 5, "values": [[1.0], [0.0]]},
             "frames must be a JSON list"),
            ({"kind": "unitary", "dims": [2], "outcomes": [[0], [1]], "frames": [5], "values": [[1.0], [0.0]]},
             "frame entry must be a JSON object"),
            ({"kind": "spin", "j_twice": 1, "outcomes": [1, -1], "frames": [5], "values": [[1.0], [0.0]]},
             "frame entries must be JSON objects"),
        ],
    )
    def test_non_object_json_exits_2(self, workdir, capsys, doc, message):
        tmp, _ = workdir
        t_path = tmp / "odd.json"
        t_path.write_text(json.dumps(doc))
        rc = main(["reconstruct", "--tomogram", str(t_path), "--out", str(tmp / "x.json")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp / "x.json").exists()

    def test_edited_spin_outcomes_exit_2(self, tmp_path, capsys):
        shipped = Path(__file__).resolve().parent.parent / "data" / "qubit_state.json"
        t_out = tmp_path / "t.json"
        assert main(["tomogram", "--state", str(shipped), "--j", "0.5", "--out", str(t_out)]) == 0
        obj = json.load(t_out.open())
        obj["outcomes"] = [7, 7]
        t_out.write_text(io.dumps(obj))
        rc = main(["reconstruct", "--tomogram", str(t_out), "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert "outcomes do not match the labels that its j_twice implies" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_dims_not_matching_the_frames_exit_2(self, workdir, capsys):
        tmp, _ = workdir
        obj = io.tomogram_to_obj(unitary_tomogram(random_density(2, 2, seed=9), [np.eye(2)]))
        obj["dims"], obj["outcomes"] = [3], [[0], [1], [2]]
        t_path = tmp / "dims.json"
        t_path.write_text(io.dumps(obj))
        rc = main(["reconstruct", "--tomogram", str(t_path), "--out", str(tmp / "x.json")])
        assert rc == 2
        assert "do not multiply to the frame size 2" in capsys.readouterr().err
        assert not (tmp / "x.json").exists()


class TestSpinTomogramCsv:
    @pytest.mark.parametrize("j", ["0.5", "3"])
    def test_angle_columns_are_the_grid_nodes(self, workdir, j):
        from spintomo.quadrature import make_grid

        tmp, _ = workdir
        n = int(2 * float(j)) + 1
        state = tmp / "spin.json"
        state.write_text(io.dumps(io.density_to_obj(random_density(n, n, seed=4))))
        out = tmp / "w.csv"
        assert main(["tomogram", "--state", str(state), "--j", j, "--format", "csv", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "alpha,beta,gamma," + ",".join(f"w_m{m}" for m in range(n - 1, -n, -2))
        nodes = zip(*make_grid(float(j)).node_angles())
        want = [",".join(io.fmt_float(x) for x in (0.0, b, g)) for b, g in nodes]
        assert [",".join(r.split(",")[:3]) for r in rows[1:]] == want


class TestStarCommand:
    def test_squares_a_state_symbol(self, workdir):
        tmp, paths = workdir
        t_out = tmp / "t.json"
        main(["tomogram", "--state", str(paths["qubit"]), "--j", "0.5", "--out", str(t_out)])
        s_out = tmp / "s.json"
        rc = main(["star", "--tomogram", str(t_out), "--tomogram", str(t_out),
                   "--out", str(s_out)])
        assert rc == 0
        composed = io.tomogram_from_obj(json.load(s_out.open()))
        rho, _ = io.matrix_from_obj(json.load(paths["qubit"].open()))
        from spintomo.symbols import spin_tomogram

        direct = spin_tomogram(rho @ rho, composed.frames)
        assert np.max(np.abs(composed.table - direct.table)) < 1e-10


class TestChannelCommand:
    def test_depolarizing_sweep_has_fixed_point(self, workdir):
        tmp, _ = workdir
        out = tmp / "sweep.csv"
        rc = main(["channel", "--kind", "depolarizing", "--out", str(out), "--format", "csv"])
        assert rc == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "p,w_plus,w_minus"
        target = [r for r in rows if r.startswith("0.75,")]
        assert target == ["0.75,0.5,0.5"]

    def test_single_p_json(self, workdir):
        tmp, _ = workdir
        out = tmp / "one.json"
        rc = main(["channel", "--kind", "amplitude_damping", "--p", "0.5", "--out", str(out)])
        assert rc == 0
        rows = json.load(out.open())["rows"]
        assert rows == [[0.5, 0.5, 0.5]]

    def test_bad_p_rejected(self, workdir):
        tmp, _ = workdir
        rc = main(["channel", "--kind", "depolarizing", "--p", "1.5",
                   "--out", str(tmp / "x.json")])
        assert rc == 2


class TestSimplexCommand:
    def test_werner_product_dimension_one(self, workdir, capsys):
        tmp, paths = workdir
        out = tmp / "sx.json"
        rc = main(["simplex-image", "--state", str(paths["werner"]), "--group", "product",
                   "--samples", "64", "--seed", "5", "--out", str(out)])
        assert rc == 0
        report = json.load(out.open())
        assert report["dimension"] == 1
        assert "image dimension: 1" in capsys.readouterr().out

    def test_csv_points(self, workdir):
        tmp, paths = workdir
        out = tmp / "sx.csv"
        rc = main(["simplex-image", "--state", str(paths["ladder"]), "--samples", "16",
                   "--seed", "6", "--out", str(out), "--format", "csv"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("u0_00_re,u0_00_im")
        assert len(lines) == 17


class TestEntropyCommand:
    def test_report_fields(self, workdir):
        tmp, paths = workdir
        out = tmp / "e.json"
        rc = main(["entropy", "--state", str(paths["ladder"]), "--samples", "50",
                   "--seed", "7", "--out", str(out)])
        assert rc == 0
        report = json.load(out.open())
        assert report["min_value"] == pytest.approx(1.2798542258336676, abs=1e-12)
        assert len(report["per_frame"]) == 50
        assert min(report["per_frame"]) >= report["min_value"] - 1e-9
        assert report["monte_carlo"]["n"] == 50

    def test_unallocatable_sample_count_exits_2(self, workdir, capsys):
        # 10**15 frames need petabytes: the allocation fails before anything is stored
        tmp, paths = workdir
        rc = main(["entropy", "--state", str(paths["qubit"]), "--samples", str(10**15),
                   "--out", str(tmp / "e.json")])
        assert rc == 2
        assert "allocate" in capsys.readouterr().err
        assert not (tmp / "e.json").exists()

    def test_textless_memory_error_names_its_type(self, workdir, capsys, monkeypatch):
        # numpy can raise MemoryError() with no text (e.g. inside leggauss)
        def out_of_memory(args):
            raise MemoryError()

        monkeypatch.setitem(cli._HANDLERS, "entropy", out_of_memory)
        tmp, paths = workdir
        rc = main(["entropy", "--state", str(paths["qubit"]), "--out", str(tmp / "e.json")])
        assert rc == 2
        assert capsys.readouterr().err.strip() == "error: MemoryError"
        assert not (tmp / "e.json").exists()

    @pytest.mark.parametrize("q", ["nan", "inf"])
    def test_non_finite_order_exits_2(self, workdir, capsys, q):
        tmp, paths = workdir
        rc = main(["entropy", "--state", str(paths["qubit"]), "--samples", "10", "--q", q,
                   "--out", str(tmp / "e.json")])
        assert rc == 2
        assert "finite and positive" in capsys.readouterr().err
        assert not (tmp / "e.json").exists()


    @pytest.mark.parametrize("q", ["600", "1000", "1e6"])
    def test_large_order_exits_0(self, tmp_path, q):
        # every frame row of the maximally mixed state is uniform, so every entropy is ln 4
        state, out = tmp_path / "mixed4.json", tmp_path / "e.json"
        state.write_text(io.dumps(io.density_to_obj(maximally_mixed((4,)))))
        rc = main(["entropy", "--state", str(state), "--samples", "10", "--q", q, "--out", str(out)])
        assert rc == 0
        report = json.load(out.open())
        assert report["min_value"] == pytest.approx(np.log(4.0), abs=1e-12)
        assert np.max(np.abs(np.array(report["per_frame"]) - np.log(4.0))) < 1e-12


class TestPeresCommand:
    def test_entangled_werner(self, workdir):
        tmp, paths = workdir
        out = tmp / "p.json"
        rc = main(["peres", "--state", str(paths["werner"]), "--samples", "64",
                   "--seed", "8", "--out", str(out)])
        assert rc == 0
        report = json.load(out.open())
        assert report["entangled"] is True
        assert "witness" in report

    def test_needs_bipartition(self, workdir):
        tmp, paths = workdir
        rc = main(["peres", "--state", str(paths["qubit"]), "--samples", "10",
                   "--out", str(tmp / "x.json")])
        assert rc == 2


class TestEvolveCommand:
    def test_state_and_tomogram(self, workdir):
        tmp, paths = workdir
        frames_path = tmp / "frames.json"
        frames_path.write_text(io.dumps([{"unitary": io.matrix_to_obj(np.eye(2, dtype=complex))}]))
        out = tmp / "ev.json"
        rc = main(["evolve", "--state", str(paths["qubit"]), "--hamiltonian", str(paths["h"]),
                   "--t", "0.7", "--frames", str(frames_path), "--out", str(out)])
        assert rc == 0
        report = json.load(out.open())
        evolved = io.density_from_obj(report["state"])
        rho = io.density_from_obj(json.load(paths["qubit"].open()))
        assert np.allclose(np.sort(evolved.eigenvalues()), np.sort(rho.eigenvalues()))
        t = io.tomogram_from_obj(report["tomogram"])
        direct = unitary_tomogram(evolved, t.frames)
        assert np.max(np.abs(t.table - direct.table)) < 1e-10


    def test_non_object_frame_entry_exits_2(self, workdir, capsys):
        tmp, paths = workdir
        frames_path = tmp / "frames.json"
        frames_path.write_text("[5]")
        out = tmp / "ev.json"
        rc = main(["evolve", "--state", str(paths["qubit"]), "--hamiltonian", str(paths["h"]),
                   "--t", "0.7", "--frames", str(frames_path), "--out", str(out)])
        assert rc == 2
        assert "frame entry must be a JSON object" in capsys.readouterr().err
        assert not out.exists()


class TestDeterminism:
    def test_byte_identical_outputs(self, workdir):
        tmp, paths = workdir
        a, b = tmp / "a.json", tmp / "b.json"
        args = ["tomogram", "--state", str(paths["ladder"]), "--n-frames", "25", "--seed", "3"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_output(self, workdir):
        tmp, paths = workdir
        a, b = tmp / "a.json", tmp / "b.json"
        main(["tomogram", "--state", str(paths["ladder"]), "--n-frames", "25", "--seed", "3",
              "--out", str(a)])
        main(["tomogram", "--state", str(paths["ladder"]), "--n-frames", "25", "--seed", "4",
              "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()
