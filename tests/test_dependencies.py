"""numpy is the only runtime dependency: the library and its CLI run with scipy
blocked, and load nothing outside the standard library, numpy and spintomo.
Within spintomo, a process loads only the modules it uses."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from spintomo.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = textwrap.dedent(
    """
    import json, sys, tempfile
    from pathlib import Path

    sys.modules["scipy"] = None  # any import of scipy now raises ImportError
    before = set(sys.modules)

    import numpy as np
    import spintomo
    import spintomo.cli
    # the coupling coefficients use plain ints: fractions (and the decimal it
    # loads) would add about 2 ms to every CLI process's import
    assert not {"fractions", "decimal"} & set(sys.modules)
    from spintomo import io
    from spintomo.linalg import random_density

    tmp = Path(tempfile.mkdtemp())
    run = spintomo.cli.main
    state = tmp / "state.json"
    state.write_text(io.dumps(io.density_to_obj(random_density(2, 2, seed=3))))
    want, _ = io.matrix_from_obj(json.loads(state.read_text()))
    for flags in (["--j", "0.5"], ["--n-frames", "4", "--seed", "2"]):
        assert run(["tomogram", "--state", str(state), *flags, "--out", str(tmp / "t.json")]) == 0
        assert run(["reconstruct", "--tomogram", str(tmp / "t.json"), "--out", str(tmp / "r.json")]) == 0
        got, _ = io.matrix_from_obj(json.loads((tmp / "r.json").read_text()))
        assert np.max(np.abs(got - want)) < 1e-9, flags

    # modules with no file (builtins, Cython's shared runtime modules) are not packages
    new = [name for name in set(sys.modules) - before if getattr(sys.modules[name], "__file__", None)]
    loaded = {name.partition(".")[0] for name in new}
    extra = {
        name for name in loaded - set(sys.stdlib_module_names) - {"numpy", "spintomo"}
        if not name.startswith("_sysconfigdata")  # the stdlib's per-platform build data
    }
    assert not extra, sorted(extra)
    """
)


def _child(code: str, *argv: str, cwd) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that compiles spintomo from source, as a
    checkout with no cached bytecode does."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *argv], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=120,
    )


def test_runs_on_numpy_alone(tmp_path):
    result = _child(CHILD, cwd=tmp_path)
    assert result.returncode == 0, result.stderr


# the modules every CLI process loads: those at the top of cli.py and what they import
CLI_MODULES = {"cli", "io", "errors", "halfint", "linalg", "quadrature", "su2", "symbols"}


class TestImportSets:
    """``import spintomo`` loads no submodule, and a CLI process loads only the modules its
    subcommand runs, so no process compiles a module it never uses."""

    def test_package_namespace_is_lazy(self, tmp_path):
        result = _child(
            """
            import importlib, sys
            import spintomo
            loaded = sorted(name for name in sys.modules if name.startswith("spintomo."))
            assert not loaded, loaded
            star = {}
            exec("from spintomo import *", star)
            assert set(star) - {"__builtins__"} == set(spintomo.__all__)
            assert set(spintomo.__all__) <= set(dir(spintomo))
            for name in spintomo.__all__:
                home = importlib.import_module(f"spintomo.{spintomo._HOME[name]}")
                assert getattr(spintomo, name) is getattr(home, name) is star[name], name
            """,
            cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize(
        "argv, own",
        [
            (["tomogram", "--state", "{state}", "--j", "0.5"], set()),
            (["tomogram", "--state", "{state}", "--n-frames", "4"], set()),
            (["reconstruct", "--tomogram", "{tomogram}"], {"reconstruction"}),
            (["channel", "--kind", "depolarizing"], {"channels", "states"}),
        ],
        ids=["tomogram_spin", "tomogram_unitary", "reconstruct", "channel"],
    )
    def test_a_subcommand_loads_only_its_modules(self, tmp_path, argv, own):
        state, tomogram = SRC.parent / "data" / "qubit_state.json", tmp_path / "t.json"
        assert main(["tomogram", "--state", str(state), "--n-frames", "4", "--out", str(tomogram)]) == 0
        result = _child(
            """
            import sys
            from spintomo import cli
            assert cli.main(sys.argv[1:]) == 0
            print(" ".join(name.partition(".")[2] for name in sys.modules if name.startswith("spintomo.")))
            """,
            *(arg.format(state=state, tomogram=tomogram) for arg in argv), "--out", str(tmp_path / "out"),
            cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        assert set(result.stdout.splitlines()[-1].split()) == CLI_MODULES | own
