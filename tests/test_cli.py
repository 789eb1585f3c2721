import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import least_squares_solution, shot_frequencies
from spintomo import cli, dynamics, entropy, io, simplex
from spintomo.cli import main
from spintomo.dynamics import evolve_tomogram
from spintomo.errors import LIMITS
from spintomo.halfint import HalfInt
from spintomo.linalg import DensityMatrix, haar_unitaries, random_density
from spintomo.quadrature import make_grid
from spintomo.states import bell_state, maximally_mixed, werner_state
from spintomo.symbols import SpinFrames, UnitaryFrames, grid_frames, spin_tomogram, unitary_tomogram


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


# the kernels a size flag scales, each in the module the CLI handler resolves it from:
# the tomogram kernels are imported at the top of cli, the others inside their handlers
KERNEL_HOMES = {
    "haar_unitaries": cli,
    "make_grid": cli,
    "image_sample": simplex,
    "min_entropy_over_group": entropy,
    "peres_scan": simplex,
}


class TestSizePreflight:
    """Size flags above the byte budget exit 2 from an estimate, before any work."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        # the kernels a size flag scales; none may run for a refused size
        def allocates(*args, **kwargs):
            raise AssertionError("an oversized request reached an allocating kernel")

        for name, home in KERNEL_HOMES.items():
            monkeypatch.setattr(home, name, allocates)

    @pytest.mark.parametrize(
        "state, argv, refused",
        [
            ("qubit", ["entropy", "--samples", "1000000000"], "--samples 1000000000 at dimension 2"),
            ("ladder", ["simplex-image", "--samples", "100000000"], "--samples 100000000 at dimension 4"),
            ("ladder", ["simplex-image", "--samples", "300000", "--format", "csv"], "--samples 300000 at dimension 4"),
            ("bell", ["peres", "--samples", "100000000"], "--samples 100000000 at dimension 4"),
            ("qubit", ["tomogram", "--n-frames", "100000000"], "--n-frames 100000000 at dimension 2"),
            ("qubit", ["tomogram", "--j", "0.5", "--oversample", "1e6"],
             "--j 1/2 --oversample 1e+06 (2000000 x 3000000 nodes)"),
            ("qubit", ["tomogram", "--j", "0.5", "--oversample", "300"], "--j 1/2 --oversample 300 (600 x 900 nodes)"),
        ],
    )
    def test_oversized_flags_exit_2_without_allocating(self, workdir, capsys, no_work, state, argv, refused):
        tmp, paths = workdir
        out = tmp / "never.json"
        tracemalloc.start()
        try:
            rc = main([argv[0], "--state", str(paths[state]), *argv[1:], "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {refused} would allocate about ") and "above the budget of 1.07 GB" in err
        assert peak < 2**20
        assert not out.exists()

    def test_an_image_jacobian_above_the_budget_exits_2_before_sampling(self, workdir, capsys, no_work):
        # one sample passes the --samples preflight; the Jacobian of U(300) is 1.3 GB
        tmp, _ = workdir
        state, out = tmp / "mixed300.json", tmp / "never.json"
        state.write_text(io.dumps(io.density_to_obj(maximally_mixed((300,)))))
        assert main(["simplex-image", "--state", str(state), "--samples", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the image Jacobian of 90000 generators at dimension 300 would allocate about ")
        assert "above the budget of 1.07 GB" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "state, argv, reached",
        [
            ("qubit", ["entropy", "--samples", "1000000"], "min_entropy_over_group"),
            ("ladder", ["simplex-image", "--samples", "50000", "--format", "csv"], "image_sample"),
            ("bell", ["peres", "--samples", "1000000"], "peres_scan"),
            ("qubit", ["tomogram", "--n-frames", "250000"], "haar_unitaries"),
            ("qubit", ["tomogram", "--j", "0.5", "--oversample", "200"], "make_grid"),
        ],
    )
    def test_sizes_within_the_budget_pass_the_preflight(self, workdir, monkeypatch, state, argv, reached):
        # measured peaks of the same runs stay below their estimates (README)
        def stop(*args, **kwargs):
            raise RuntimeError(f"reached {reached}")

        monkeypatch.setattr(KERNEL_HOMES[reached], reached, stop)
        tmp, paths = workdir
        with pytest.raises(RuntimeError, match=f"reached {reached}"):
            main([argv[0], "--state", str(paths[state]), *argv[1:], "--out", str(tmp / "never.json")])


    @pytest.mark.parametrize("command", ["tomogram", "evolve"])
    def test_frames_file_length_is_checked_before_decoding(self, workdir, capsys, monkeypatch, command):
        # 400 000 frames of a qubit state cost what --n-frames 400000 would
        def decodes(*args, **kwargs):
            raise AssertionError("an oversized frames file reached the frame decoder")

        tmp, paths = workdir
        extra = ["--hamiltonian", str(paths["h"]), "--t", "0.5"] if command == "evolve" else []
        frames = tmp / "frames.json"
        frames.write_text("[" + ",".join(["{}"] * 400_000) + "]")
        out = tmp / "never.json"
        with monkeypatch.context() as patched:
            patched.setattr(io, "frame_from_obj", decodes)
            rc = main([command, "--state", str(paths["qubit"]), *extra, "--frames", str(frames), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --frames 400000 at dimension 2 would allocate about ")
        assert "above the budget of 1.07 GB" in err
        assert not out.exists()
        # within the budget the frames are decoded, and these are refused one by one
        frames.write_text("[" + ",".join(["{}"] * 250_000) + "]")
        assert main([command, "--state", str(paths["qubit"]), *extra, "--frames", str(frames), "--out", str(out)]) == 2
        assert "unrecognized frame object" in capsys.readouterr().err

    @pytest.fixture
    def parsed(self, monkeypatch):
        # the names of the files json.load parses
        names = []

        def load(fh, *args, **kwargs):
            names.append(fh.name)
            return parse(fh, *args, **kwargs)

        parse = json.load
        monkeypatch.setattr(io.json, "load", load)
        return names

    def test_json_file_size_is_checked_before_parsing(self, workdir, capsys, monkeypatch, parsed):
        tmp, paths = workdir
        out = tmp / "never.json"
        # a 33 MiB file (sparse, so it takes no disk) at 32 B a byte: above the 1 GiB budget
        big = tmp / "big.json"
        with big.open("wb") as fh:
            fh.truncate(33 * 2**20)
        assert main(["entropy", "--state", str(big), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: parsing the {33 * 2**20}-byte JSON file {big} would allocate about 1.1")
        # the 1.2 MB list of 400 000 {} entries (38 MB at 32 B a byte) under a 32 MiB budget
        frames = tmp / "frames.json"
        frames.write_text("[" + ",".join(["{}"] * 400_000) + "]")
        monkeypatch.setitem(LIMITS, "bytes", 2**25)
        rc = main(["tomogram", "--state", str(paths["qubit"]), "--frames", str(frames), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: parsing the 1200001-byte JSON file ")
        assert parsed == [str(paths["qubit"])] and not out.exists()

    def test_shipped_files_pass_the_size_check(self, parsed):
        shipped = sorted((Path(__file__).resolve().parent.parent / "data").glob("*.json"))
        assert shipped and all(isinstance(io.read_json(str(f)), dict) for f in shipped)
        assert parsed == [str(f) for f in shipped]

    @pytest.mark.parametrize(
        "argv, reached, estimate",
        [
            (["entropy", "qubit_state.json", "--samples", "200000"], "min_entropy_over_group", 200_000 * 448),
            (["peres", "bell_state.json", "--samples", "200000"], "peres_scan", 200_000 * 320),
            (["tomogram", "qubit_state.json", "--n-frames", "50000"], "haar_unitaries", 50_000 * 3808),
            (["simplex-image", "two_qubit_mixed.json", "--samples", "50000", "--format", "csv"], "image_sample",
             50_000 * 5048),
        ],
        ids=["entropy", "peres", "tomogram_json", "simplex_csv"],
    )
    def test_preflight_estimate_bounds_the_measured_peak(self, tmp_path, monkeypatch, argv, reached, estimate):
        # peak RSS of a child CLI run, less that of a child that only imports the CLI,
        # must stay within the preflight estimate for the same flags (README).  The
        # child reads its own VmHWM: ru_maxrss of a child that subprocess starts by
        # vfork carries over the high-water mark of this (larger) test process.
        status = Path("/proc/self/status")
        if not status.exists():
            pytest.skip("needs /proc/self/status for a process's own peak RSS")
        child = (
            "import sys\n"
            "from spintomo.cli import main\n"
            "assert not sys.argv[1:] or main(sys.argv[1:]) == 0\n"
            f"status = open({str(status)!r}).read()\n"
            "print(int(status.split('VmHWM:')[1].split()[0]) * 1024)\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

        def peak(*argv):
            run = subprocess.run([sys.executable, "-c", child, *argv], env=env, capture_output=True, text=True,
                                 check=True, timeout=120)
            return int(run.stdout.split()[-1])

        data = Path(__file__).resolve().parent.parent / "data"
        argv = [argv[0], "--state", str(data / argv[1]), *argv[2:], "--out", str(tmp_path / "out")]
        estimates = []

        def stop(*args, **kwargs):
            raise RuntimeError("preflight passed")

        with monkeypatch.context() as patched:
            patched.setattr(cli, "_check_bytes", lambda nbytes, *args: estimates.append(nbytes))
            patched.setattr(KERNEL_HOMES[reached], reached, stop)
            with pytest.raises(RuntimeError, match="preflight passed"):
                main(argv)
        assert estimates == [estimate]
        assert peak(*argv) - peak() <= estimate


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

    @pytest.mark.parametrize("j", ["0.5", "1.5"])
    def test_spin_frames_read_back_give_the_same_file(self, workdir, j):
        # the frames that tomogram --j writes are spin frames again under --frames
        tmp, paths = workdir
        state = paths["qubit" if j == "0.5" else "ladder"]
        spin_path, frames_path, again = tmp / "spin.json", tmp / "frames.json", tmp / "again.json"
        assert main(["tomogram", "--state", str(state), "--j", j, "--out", str(spin_path)]) == 0
        frames_path.write_text(io.dumps(json.loads(spin_path.read_text())["frames"]))
        assert main(["tomogram", "--state", str(state), "--frames", str(frames_path), "--out", str(again)]) == 0
        assert again.read_bytes() == spin_path.read_bytes()

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

    @pytest.mark.parametrize("j", ["inf", "nan"])
    def test_non_finite_spin_exits_2(self, workdir, capsys, j):
        tmp, paths = workdir
        out = tmp / "never.json"
        rc = main(["tomogram", "--state", str(paths["qubit"]), "--j", j, "--out", str(out)])
        assert rc == 2
        assert f"{j} is not a finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_frames_exits_2(self, workdir, capsys):
        tmp, paths = workdir
        out = tmp / "never.json"
        rc = main(["tomogram", "--state", str(paths["qubit"]), "--n-frames", "0", "--out", str(out)])
        assert rc == 2
        assert "--n-frames must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_two_frame_sources_exit_2(self, workdir, capsys):
        tmp, paths = workdir
        out = tmp / "never.json"
        rc = main(["tomogram", "--state", str(paths["qubit"]), "--j", "0.5", "--n-frames", "3",
                   "--out", str(out)])
        assert rc == 2
        assert "one of --frames, --n-frames and --j" in capsys.readouterr().err
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

    def test_a_noisy_estimate_is_read_back_as_a_state(self, tmp_path, capsys):
        # 40 Haar frames of the Bell state, 100 shots per frame: the least-squares
        # solution has an eigenvalue of -0.0203, and the file written is its nearest
        # state, which --state reads
        shipped = Path(__file__).resolve().parent.parent / "data" / "bell_state.json"
        exact, noisy, est = tmp_path / "exact.json", tmp_path / "noisy.json", tmp_path / "est.json"
        assert main(["tomogram", "--state", str(shipped), "--n-frames", "40", "--seed", "5", "--out", str(exact)]) == 0
        obj = json.loads(exact.read_text())
        obj["values"] = shot_frequencies(obj["values"], 100, np.random.default_rng(1)).tolist()
        noisy.write_text(io.dumps(obj))
        solved = least_squares_solution(io.tomogram_from_obj(obj))
        assert np.linalg.eigvalsh(solved)[0] == pytest.approx(-2.03e-2, abs=5e-5)
        assert main(["reconstruct", "--tomogram", str(noisy), "--out", str(est)]) == 0
        assert capsys.readouterr().out.startswith("round-trip max abs error: ")
        assert main(["tomogram", "--state", str(est), "--n-frames", "3", "--out", str(tmp_path / "again.json")]) == 0
        assert np.linalg.eigvalsh(io.density_from_obj(json.loads(est.read_text())).mat)[0] >= -1e-10

    def test_a_noisy_grid_table_is_synthesized_as_it_is(self, tmp_path, capsys):
        # a grid table may be an observable's symbol, so the grid route stays linear:
        # the synthesized operator of a noisy table keeps its negative eigenvalue,
        # and --state refuses it
        pure = tmp_path / "pure.json"
        pure.write_text(io.dumps(io.density_to_obj(DensityMatrix(np.diag([1.0, 0.0])))))
        exact, noisy, op = tmp_path / "exact.json", tmp_path / "noisy.json", tmp_path / "op.json"
        assert main(["tomogram", "--state", str(pure), "--j", "0.5", "--out", str(exact)]) == 0
        obj = json.loads(exact.read_text())
        obj["values"] = shot_frequencies(obj["values"], 100, np.random.default_rng(0)).tolist()
        noisy.write_text(io.dumps(obj))
        assert main(["reconstruct", "--tomogram", str(noisy), "--out", str(op)]) == 0
        capsys.readouterr()
        assert main(["tomogram", "--state", str(op), "--j", "0.5", "--out", str(tmp_path / "never.json")]) == 2
        assert capsys.readouterr().err == "error: density matrix has a negative eigenvalue beyond the slack 1e-10\n"

    def test_complex_unitary_table_exits_2(self, workdir, capsys):
        tmp, paths = workdir
        t_out = tmp / "t.json"
        assert main(["tomogram", "--state", str(paths["qubit"]), "--n-frames", "10", "--out", str(t_out)]) == 0
        obj = json.loads(t_out.read_text())
        obj["values_im"] = [[0.3] * len(row) for row in obj["values"]]
        t_out.write_text(io.dumps(obj))
        r_out = tmp / "r.json"
        assert main(["reconstruct", "--tomogram", str(t_out), "--out", str(r_out)]) == 2
        assert "imaginary entries up to 3.000e-01" in capsys.readouterr().err
        assert not r_out.exists()

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

    def test_negative_spin_exits_2(self, workdir, capsys):
        tmp, _ = workdir
        obj = io.tomogram_to_obj(spin_tomogram(random_density(2, 2, seed=9), grid_frames(0.5, make_grid(0.5))))
        obj["j_twice"] = -3
        t_path = tmp / "negative.json"
        t_path.write_text(io.dumps(obj))
        rc = main(["reconstruct", "--tomogram", str(t_path), "--out", str(tmp / "x.json")])
        assert rc == 2
        assert "spin j must be nonnegative" in capsys.readouterr().err
        assert not (tmp / "x.json").exists()

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

    @pytest.mark.parametrize(
        "kind, key, value, field",
        [
            ("unitary", "dims", 2, "'dims' must be a JSON list of integers"),
            ("spin", "j_twice", [1], "'j_twice' must be a JSON integer"),
            ("unitary", "frames", [{"factors": 5}], "'factors' must be a JSON list of objects"),
            ("spin", "values", {}, "'values' must be a JSON list of lists of numbers"),
            ("unitary", "values_im", {}, "'values_im' must be a JSON list of lists of numbers"),
        ],
        ids=["dims", "j_twice", "factors", "values", "values_im"],
    )
    def test_wrong_field_types_exit_2(self, workdir, capsys, kind, key, value, field):
        tmp, _ = workdir
        rho = random_density(2, 2, seed=9)
        frames = grid_frames(0.5, make_grid(0.5)) if kind == "spin" else [np.eye(2)]
        obj = io.tomogram_to_obj(spin_tomogram(rho, frames) if kind == "spin" else unitary_tomogram(rho, frames))
        obj[key] = value
        t_path = tmp / "typed.json"
        t_path.write_text(io.dumps(obj))
        rc = main(["reconstruct", "--tomogram", str(t_path), "--out", str(tmp / "x.json")])
        assert rc == 2
        assert field in capsys.readouterr().err
        assert not (tmp / "x.json").exists()

    def test_missing_field_exits_2(self, workdir, capsys):
        tmp, _ = workdir
        obj = io.tomogram_to_obj(unitary_tomogram(random_density(2, 2, seed=9), [np.eye(2)]))
        del obj["dims"]
        t_path = tmp / "no_dims.json"
        t_path.write_text(io.dumps(obj))
        rc = main(["reconstruct", "--tomogram", str(t_path), "--out", str(tmp / "x.json")])
        assert rc == 2
        assert capsys.readouterr().err == "error: field 'dims' is missing\n"
        assert not (tmp / "x.json").exists()

    def test_object_valued_frame_angle_exits_2(self, workdir, capsys):
        tmp, _ = workdir
        obj = io.tomogram_to_obj(spin_tomogram(random_density(2, 2, seed=9), grid_frames(0.5, make_grid(0.5))))
        obj["frames"][1]["beta"] = {}
        t_path = tmp / "typed.json"
        t_path.write_text(io.dumps(obj))
        rc = main(["reconstruct", "--tomogram", str(t_path), "--out", str(tmp / "x.json")])
        assert rc == 2
        assert "'beta' must be a JSON number" in capsys.readouterr().err
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

    @pytest.fixture
    def symbol_files(self, workdir):
        """A qubit on the smallest and a finer grid, a spin-1 state, and a unitary tomogram."""
        tmp, paths = workdir
        spin1 = tmp / "spin1.json"
        spin1.write_text(io.dumps(io.density_to_obj(random_density(3, 3, seed=2))))
        runs = {
            "half": ["--state", str(paths["qubit"]), "--j", "0.5"],
            "half_fine": ["--state", str(paths["qubit"]), "--j", "0.5", "--oversample", "2"],
            "one": ["--state", str(spin1), "--j", "1"],
            "unitary": ["--state", str(paths["qubit"]), "--n-frames", "5"],
        }
        files = {name: tmp / f"{name}.json" for name in runs}
        for name, argv in runs.items():
            assert main(["tomogram", *argv, "--out", str(files[name])]) == 0
        return tmp, files

    @pytest.mark.parametrize(
        "first, second, message",
        [
            ("unitary", "half", "grid inference needs a spin tomogram"),
            ("half", "unitary", "expected a spin tomogram"),
            ("half", "one", "tomogram frames do not coincide with the grid nodes"),
            ("one", "half", "tomogram frames do not coincide with the grid nodes"),
            ("half", "half_fine", "tomogram frames do not coincide with the grid nodes"),
        ],
        ids=["unitary_first", "unitary_second", "other_spin", "other_spin_first", "other_grid"],
    )
    def test_refusals_exit_2(self, symbol_files, capsys, first, second, message):
        tmp, files = symbol_files
        capsys.readouterr()
        out = tmp / "s.json"
        assert main(["star", "--tomogram", str(files[first]), "--tomogram", str(files[second]), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestOffGridSpinFiles:
    @staticmethod
    def write_off_grid(tmp_path, rho, count: int):
        rng = np.random.default_rng(3)
        frames = SpinFrames((rho.dim - 1) / 2, rng.uniform(0, np.pi, count), rng.uniform(0, 2 * np.pi, count))
        t_path = tmp_path / "off.json"
        t_path.write_text(io.dumps(io.tomogram_to_obj(spin_tomogram(rho, frames))))
        return t_path

    @pytest.mark.parametrize("jt", [1, 2, 4])
    def test_reconstruct_round_trips_an_off_grid_spin_file(self, tmp_path, capsys, jt):
        # off-grid spin frames go the least-squares route on their unitaries R(g)^dag;
        # 4j + 1 directions determine the state
        rho = random_density(jt + 1, jt + 1, seed=jt)
        t_path, out = self.write_off_grid(tmp_path, rho, 2 * jt + 1), tmp_path / "r.json"
        assert main(["reconstruct", "--tomogram", str(t_path), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert printed.startswith("round-trip max abs error: ")
        assert float(printed.rsplit(" ", 1)[-1]) <= 1e-12
        est = io.density_from_obj(json.loads(out.read_text()))
        assert np.max(np.abs(est.mat - rho.mat)) <= 1e-12

    def test_too_few_off_grid_directions_exit_3(self, tmp_path, capsys):
        rho = random_density(3, 3, seed=2)
        t_path, out = self.write_off_grid(tmp_path, rho, 4), tmp_path / "r.json"
        assert main(["reconstruct", "--tomogram", str(t_path), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: informationally incomplete frame set: rank 8 < 9;"
            " a generic set of 4j + 1 = 5 directions is complete\n"
        )
        assert not out.exists()


class TestFilesAtOtherGrids:
    @pytest.mark.parametrize("oversample", ["1.5", "2"])
    def test_reconstruct_and_star_load_finer_grids(self, tmp_path, capsys, oversample):
        rho = random_density(4, 4, seed=6)
        state, t_out = tmp_path / "spin.json", tmp_path / "t.json"
        state.write_text(io.dumps(io.density_to_obj(rho)))
        assert main(["tomogram", "--state", str(state), "--j", "1.5", "--oversample", oversample,
                     "--out", str(t_out)]) == 0
        written = io.tomogram_from_obj(json.load(t_out.open()))
        assert written.n_frames == make_grid(1.5, oversample=float(oversample)).n_nodes
        capsys.readouterr()
        r_out, s_out = tmp_path / "r.json", tmp_path / "s.json"
        assert main(["reconstruct", "--tomogram", str(t_out), "--out", str(r_out)]) == 0
        assert float(capsys.readouterr().out.strip().rsplit(" ", 1)[-1]) <= 1e-12
        m, _ = io.matrix_from_obj(json.load(r_out.open()))
        assert np.max(np.abs(m - rho.mat)) <= 1e-12
        assert main(["star", "--tomogram", str(t_out), "--tomogram", str(t_out), "--out", str(s_out)]) == 0
        composed = io.tomogram_from_obj(json.load(s_out.open()))
        assert np.array_equal(composed.frames.betas, written.frames.betas)
        direct = spin_tomogram(rho.mat @ rho.mat, composed.frames)
        assert np.max(np.abs(composed.table - direct.table)) <= 1e-12


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

    @pytest.mark.parametrize("p", [[], ["--p", "1.5"]], ids=["sweep", "bad_p"])
    def test_unknown_kind_is_refused_with_the_kinds(self, workdir, capsys, p):
        # the kinds table in channels is the one reader of --kind, ahead of p
        tmp, _ = workdir
        assert main(["channel", "--kind", "bogus", *p, "--out", str(tmp / "x.json")]) == 2
        kinds = "('depolarizing', 'phase_damping', 'amplitude_damping')"
        assert capsys.readouterr().err == f"error: unknown channel kind 'bogus'; choose from {kinds}\n"
        assert not (tmp / "x.json").exists()

    @pytest.mark.parametrize("p", ["1.5", "-0.25", "nan"])
    def test_bad_p_is_named_in_the_refusal(self, workdir, capsys, p):
        tmp, _ = workdir
        assert main(["channel", "--kind", "depolarizing", f"--p={p}", "--out", str(tmp / "x.json")]) == 2
        assert f"channel parameter p must lie in [0, 1], got {float(p)}" in capsys.readouterr().err
        assert not (tmp / "x.json").exists()


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
        # 10**15 frames need petabytes: the size preflight refuses them before any allocation
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


    @pytest.mark.parametrize(
        "key, value, field",
        [
            ("dim", [2], "'dim' must be a JSON integer"),
            ("dims", 2, "'dims' must be a JSON list of integers"),
            ("re", {}, "'re' must be a JSON list of numbers"),
            ("im", {}, "'im' must be a JSON list of numbers"),
        ],
        ids=["dim", "dims", "re", "im"],
    )
    def test_wrong_state_field_types_exit_2(self, workdir, capsys, key, value, field):
        tmp, paths = workdir
        obj = json.load(paths["qubit"].open())
        obj[key] = value
        state = tmp / "typed.json"
        state.write_text(json.dumps(obj))
        rc = main(["entropy", "--state", str(state), "--samples", "10", "--out", str(tmp / "e.json")])
        assert rc == 2
        assert field in capsys.readouterr().err
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

    def test_detection_reports_the_draws(self, workdir):
        tmp, paths = workdir
        out = tmp / "p.json"
        rc = main(["peres", "--state", str(paths["werner"]), "--samples", "64",
                   "--seed", "8", "--out", str(out)])
        assert rc == 0
        detection = json.load(out.open())["detection"]
        assert sorted(detection) == ["mean", "n", "seed", "stderr"]
        assert (detection["n"], detection["seed"]) == (64, 8)
        assert 0.0 <= detection["mean"] <= 1.0

    def test_needs_bipartition(self, workdir):
        tmp, paths = workdir
        rc = main(["peres", "--state", str(paths["qubit"]), "--samples", "10",
                   "--out", str(tmp / "x.json")])
        assert rc == 2

    @pytest.mark.parametrize(
        "args, state, message",
        [
            (["peres", "--dims=-2,-2"], {}, "dims (-2, -2) must each be at least 1"),
            (["peres"], {"dims": [-2, -2]}, "dims (-2, -2) must each be at least 1"),
            (["tomogram", "--n-frames", "3"], {"dims": [-2, -2]}, "dims (-2, -2) must each be at least 1"),
            (["tomogram", "--n-frames", "3"], {"dim": -1, "re": [1.0], "im": [0.0]},
             "field 'dim' must be at least 1, got -1"),
        ],
        ids=["peres-flag", "peres-file", "tomogram-dims", "tomogram-dim"],
    )
    def test_dimensions_below_1_exit_2(self, workdir, capsys, args, state, message):
        # these once reached numpy's reshape and exited with its message
        tmp, _ = workdir
        state_path = tmp / "state.json"
        state_path.write_text(io.dumps({**io.density_to_obj(bell_state()), **state}))
        rc = main([*args, "--state", str(state_path), "--out", str(tmp / "x.json")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp / "x.json").exists()


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


    @pytest.mark.parametrize("on_grid", [True, False])
    def test_spin_frames_evolve_a_spin_tomogram(self, tmp_path, on_grid):
        # the frame objects that tomogram --j writes, or spin angles off a grid,
        # are spin frames of j = (d - 1)/2
        data = Path(__file__).resolve().parent.parent / "data"
        state, h = data / "qubit_state.json", data / "hamiltonian_z.json"
        if on_grid:
            assert main(["tomogram", "--state", str(state), "--j", "0.5", "--out", str(tmp_path / "spin.json")]) == 0
            frame_objs = json.loads((tmp_path / "spin.json").read_text())["frames"]
        else:
            frame_objs = [{"beta": 0.3, "gamma": 1.0}, {"alpha": 2.0, "beta": 1.9, "gamma": 4.0}]
        frames_path, out = tmp_path / "frames.json", tmp_path / "ev.json"
        frames_path.write_text(io.dumps(frame_objs))
        rc = main(["evolve", "--state", str(state), "--hamiltonian", str(h), "--t", "0.7",
                   "--frames", str(frames_path), "--out", str(out)])
        assert rc == 0
        rho = io.density_from_obj(json.loads(state.read_text()))
        h_mat, _ = io.matrix_from_obj(json.loads(h.read_text()))
        frames = io._spin_frames_from_obj(HalfInt(1), frame_objs)
        assert (frames.grid is not None) == on_grid
        expected = evolve_tomogram(spin_tomogram(rho, frames), h_mat, 0.7)
        assert json.loads(out.read_text())["tomogram"] == json.loads(io.dumps(io.tomogram_to_obj(expected)))

    @pytest.mark.parametrize("kind", ["grid", "off_grid", "unitary"])
    def test_frames_evolve_the_state_once_and_map_it_once(self, tmp_path, monkeypatch, kind):
        # the evolved state's tomogram is the output: one matrix exponential and one
        # forward map, whatever the kind of the frames
        data = Path(__file__).resolve().parent.parent / "data"
        state, h = data / "qubit_state.json", data / "hamiltonian_z.json"
        frame_objs = {
            "grid": [{"alpha": 0.0, "beta": float(b), "gamma": float(g)}
                     for b, g in zip(*make_grid(0.5).node_angles())],
            "off_grid": [{"beta": 0.3, "gamma": 1.0}, {"beta": 1.9, "gamma": 4.0}],
            "unitary": [{"unitary": io.matrix_to_obj(u)} for u in haar_unitaries(2, 3, np.random.default_rng(4))],
        }[kind]
        frames_path, out = tmp_path / "frames.json", tmp_path / "ev.json"
        frames_path.write_text(io.dumps(frame_objs))
        calls = []

        def counted(name, function):
            def call(*args, **kwargs):
                calls.append(name)
                return function(*args, **kwargs)
            return call

        monkeypatch.setattr(dynamics, "expm_hermitian_times", counted("expm", dynamics.expm_hermitian_times))
        for frame_set in (SpinFrames, UnitaryFrames):
            monkeypatch.setattr(frame_set, "symbols", counted("symbols", frame_set.symbols))
        rc = main(["evolve", "--state", str(state), "--hamiltonian", str(h), "--t", "0.7",
                   "--frames", str(frames_path), "--out", str(out)])
        assert rc == 0
        assert sorted(calls) == ["expm", "symbols"]
        assert not hasattr(cli, "evolve_tomogram")
        assert (io.tomogram_from_obj(json.loads(out.read_text())["tomogram"]).frames.grid is not None) == (kind == "grid")

    @pytest.mark.parametrize(
        "frame_objs, message",
        [
            ([{"beta": 0.3, "gamma": 1.0}, {"unitary": io.matrix_to_obj(np.eye(2))}],
             "spin frame entries must be JSON objects with 'beta' and 'gamma' angles"),
            ([{"unitary": io.matrix_to_obj(np.eye(2))}, {"alpha": 0.0, "beta": 0.3, "gamma": 1.0}],
             "unrecognized frame object: ['alpha', 'beta', 'gamma']"),
            ([{"beta": 0.3}], "spin frame entries must be JSON objects with 'beta' and 'gamma' angles"),
            ([{"beta": "0.3", "gamma": 1.0}], "field 'beta' must be a JSON number, got str '0.3'"),
            ([{"beta": 0.3, "gamma": 1.0}, 5], "spin frame entries must be JSON objects with 'beta' and 'gamma' angles"),
        ],
    )
    def test_mixed_or_malformed_frame_lists_exit_2(self, workdir, capsys, frame_objs, message):
        tmp, paths = workdir
        frames_path, out = tmp / "frames.json", tmp / "ev.json"
        frames_path.write_text(io.dumps(frame_objs))
        rc = main(["evolve", "--state", str(paths["qubit"]), "--hamiltonian", str(paths["h"]),
                   "--t", "0.7", "--frames", str(frames_path), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("t", ["inf", "nan"])
    def test_non_finite_time_exits_2(self, workdir, capsys, t):
        tmp, paths = workdir
        out = tmp / "ev.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["evolve", "--state", str(paths["qubit"]), "--hamiltonian", str(paths["h"]),
                       "--t", t, "--out", str(out)])
        assert rc == 2
        assert f"evolution time t must be a finite number, got {t}" in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
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


class TestFlagsWhereRead:
    """``--format`` and ``--seed`` exist only on the subcommands that read them;
    argparse refuses them elsewhere (exit 2), before any file is written."""

    @pytest.fixture
    def argvs(self, workdir):
        tmp, paths = workdir
        t_out = tmp / "t.json"
        assert main(["tomogram", "--state", str(paths["qubit"]), "--j", "0.5", "--out", str(t_out)]) == 0
        return {
            "reconstruct": ["reconstruct", "--tomogram", str(t_out)],
            "star": ["star", "--tomogram", str(t_out), "--tomogram", str(t_out)],
            "channel": ["channel", "--kind", "depolarizing"],
            "entropy": ["entropy", "--state", str(paths["qubit"]), "--samples", "8"],
            "peres": ["peres", "--state", str(paths["bell"]), "--samples", "8"],
            "evolve": ["evolve", "--state", str(paths["qubit"]), "--hamiltonian", str(paths["h"]), "--t", "0.3"],
        }

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("reconstruct", ["--format", "csv"]),
            ("star", ["--format", "csv"]),
            ("entropy", ["--format", "csv"]),
            ("peres", ["--format", "csv"]),
            ("evolve", ["--format", "csv"]),
            ("reconstruct", ["--seed", "9"]),
            ("star", ["--seed", "9"]),
            ("channel", ["--seed", "9"]),
            ("evolve", ["--seed", "9"]),
        ],
    )
    def test_flag_not_read_is_refused(self, workdir, argvs, capsys, command, flag):
        tmp, _ = workdir
        out = tmp / "never.csv"
        # the subcommand runs without the flag
        assert main(argvs[command] + ["--out", str(tmp / "ok.out")]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            main(argvs[command] + flag + ["--out", str(out)])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["--factors", "2,2"], "--factors"),
            (["--active", "1"], "--active"),
            (["--factors", "2,2", "--active", "1"], "--factors and --active"),
        ],
    )
    def test_product_group_flags_refused_for_the_full_group(self, workdir, capsys, argv, named):
        tmp, paths = workdir
        out = tmp / "never.json"
        rc = main(["simplex-image", "--state", str(paths["ladder"]), "--group", "full", *argv,
                   "--samples", "8", "--out", str(out)])
        assert rc == 2
        assert f"error: {named} apply to --group product only" in capsys.readouterr().err
        assert not out.exists()

    def test_oversample_refused_without_spin_grid(self, workdir, capsys):
        tmp, paths = workdir
        out = tmp / "never.json"
        rc = main(["tomogram", "--state", str(paths["qubit"]), "--n-frames", "5", "--oversample", "3",
                   "--out", str(out)])
        assert rc == 2
        assert "error: --oversample applies to spin grids only (with --j)" in capsys.readouterr().err
        assert not out.exists()

    def test_oversample_defaults_to_the_smallest_exact_grid(self, workdir, capsys):
        tmp, paths = workdir
        default, explicit = tmp / "a.json", tmp / "b.json"
        argv = ["tomogram", "--state", str(paths["qubit"]), "--j", "0.5"]
        assert main(argv + ["--out", str(default)]) == 0
        assert main(argv + ["--oversample", "1", "--out", str(explicit)]) == 0
        assert default.read_bytes() == explicit.read_bytes()
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["tomogram", "--help"])
        assert "(default 1.0; below 1 aliases)" in " ".join(capsys.readouterr().out.split())


class TestAlphaField:
    def test_alpha_is_read_and_ignored(self, workdir, capsys):
        # a spin frame is R(0, beta, gamma): a file whose frames carry alpha = 4.5
        # reconstructs and star-squares as the file with alpha = 0
        tmp, paths = workdir
        zero, shifted = tmp / "zero.json", tmp / "shifted.json"
        assert main(["tomogram", "--state", str(paths["qubit"]), "--j", "0.5", "--out", str(zero)]) == 0
        obj = json.loads(zero.read_text())
        assert {f["alpha"] for f in obj["frames"]} == {0.0}
        for frame in obj["frames"]:
            frame["alpha"] = 4.5
        shifted.write_text(io.dumps(obj))
        outputs = {}
        for name, path in (("zero", zero), ("shifted", shifted)):
            capsys.readouterr()
            r_out, s_out = tmp / f"r_{name}.json", tmp / f"s_{name}.json"
            assert main(["reconstruct", "--tomogram", str(path), "--out", str(r_out)]) == 0
            printed = capsys.readouterr().out
            assert main(["star", "--tomogram", str(path), "--tomogram", str(path), "--out", str(s_out)]) == 0
            outputs[name] = (printed, r_out.read_bytes(), s_out.read_bytes())
        assert outputs["shifted"] == outputs["zero"]


class TestRefusals:
    """Refusals that no other test reaches, through ``main``: exit code 2, the message
    alone on stderr, and no output file."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["peres", "--state", "{bell}", "--dims", "2,x"], "expected comma-separated integers, got '2,x'"),
            (["tomogram", "--state", "{qubit}", "--frames", "{not_a_list}"],
             "frames file must contain a JSON list of frame objects"),
            (["tomogram", "--state", "{bell}", "--j", "0.5"], "state dimension 4 does not match 2j+1"),
            # read exactly, not doubled in float: a spin past the double range is an ordinary spin
            (["tomogram", "--state", "{qubit}", "--j", "1e308"], "state dimension 2 does not match 2j+1"),
            (["tomogram", "--state", "{qubit}"], "tomogram needs --frames, --n-frames, or --j"),
            (["star", "--tomogram", "{qubit}"], "star needs exactly two --tomogram files"),
            (["simplex-image", "--state", "{qubit}", "--samples", "0"], "--samples must be positive"),
            (["peres", "--state", "{bell}", "--samples", "0"], "--samples must be positive"),
            (["entropy", "--state", "{qubit}", "--samples", "1"], "--samples must be at least 2"),
        ],
        ids=["bad_dims", "frames_not_a_list", "j_of_other_dim", "j_past_the_double_range", "no_source", "one_star_file",
             "simplex_no_samples", "peres_no_samples", "entropy_one_sample"],
    )
    def test_refusal_exits_2(self, workdir, capsys, argv, message):
        tmp, paths = workdir
        paths["not_a_list"] = tmp / "not_a_list.json"
        paths["not_a_list"].write_text(io.dumps({"unitary": io.matrix_to_obj(np.eye(2))}))
        out = tmp / "never.json"
        rc = main([arg.format(**paths) for arg in argv] + ["--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["tomogram", "--state", "{wrapping}", "--n-frames", "3"],
             "dims (3, 6148914691236517206) do not multiply to dim 2"),
            (["simplex-image", "--state", "{qubit}", "--group", "product", "--factors", "3,6148914691236517206"],
             "factor dims (3, 6148914691236517206) do not match state dimension"),
        ],
        ids=["state_dims", "group_factors"],
    )
    def test_a_dims_product_past_int64_exits_2(self, workdir, capsys, argv, message):
        # 3 * 6148914691236517206 = 2**64 + 2, which int64 arithmetic wraps to 2
        tmp, paths = workdir
        paths["wrapping"] = tmp / "wrapping.json"
        state = dict(json.loads(paths["qubit"].read_text()), dims=[3, 6148914691236517206])
        paths["wrapping"].write_text(json.dumps(state))
        out = tmp / "never.json"
        rc = main([arg.format(**paths) for arg in argv] + ["--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestUnwritableOutput:
    """An ``--out`` that cannot be written: exit code 2, one error line that names it,
    and neither an output nor a temporary file left behind."""

    def test_missing_directory(self, workdir, capsys):
        tmp, paths = workdir
        before, out = sorted(tmp.iterdir()), tmp / "missing" / "x.json"
        rc = main(["tomogram", "--state", str(paths["qubit"]), "--n-frames", "3", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: cannot write {out}: No such file or directory\n"
        assert sorted(tmp.iterdir()) == before

    def test_a_directory(self, workdir, capsys):
        tmp, paths = workdir
        out = tmp / "dir"
        out.mkdir()
        before = sorted(tmp.iterdir())
        rc = main(["tomogram", "--state", str(paths["qubit"]), "--n-frames", "3", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: cannot write {out}: Is a directory\n"
        assert sorted(tmp.iterdir()) == before and not any(out.iterdir())
