"""Every function the benchmark's span recorder wraps must still exist.

perfbench/spans.py names its layer functions by module and attribute; a
name that disappears only prints a warning there and its per-layer metric
reads zero, so a rename fails here instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.LAYERS


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, _, _ in _layers()])
def test_layer_function_resolves(module, attr):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
