"""numpy is the only runtime dependency: the library and its CLI run with scipy
blocked, and load nothing outside the standard library, numpy and spintomo."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

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


def test_runs_on_numpy_alone(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", CHILD], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
