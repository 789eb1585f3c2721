"""The names that ``bench/spans.py`` traces still resolve in spintomo.

``Tracer.install`` looks each ``LAYERS`` entry up by name, so a rename in
``src/`` would otherwise fail only the benchmark's traced run.  The module is
loaded from its file (it imports the standard library only) and nothing is
installed.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"

# how each Class.method entry is defined in its class body
METHOD_KINDS = {"QuantizerPair.spin": classmethod, "QuantizerPair.synthesize": "function"}


def _layers():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYERS = _layers()


@pytest.mark.parametrize("module, attr", [entry[:2] for entry in LAYERS], ids=lambda v: v)
def test_traced_name_resolves(module, attr):
    mod = importlib.import_module(f"spintomo.{module}")
    if "." not in attr:
        assert callable(getattr(mod, attr))
        return
    cls_name, meth = attr.split(".")
    raw = vars(getattr(mod, cls_name))[meth]
    if METHOD_KINDS[attr] is classmethod:
        assert isinstance(raw, classmethod)
    else:
        assert inspect.isfunction(raw)
