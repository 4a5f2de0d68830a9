"""Every function the benchmark's span recorder wraps, and every name its
worker imports from rsmoment, must still exist.

perfbench/spans.py names its layer functions by module and attribute; a
name that disappears only prints a warning there and its per-layer metric
reads zero.  perfbench/worker.py imports its rsmoment names inside the
workload functions, so a renamed one fails every operation of a workload
while nothing else notices.  A rename fails here instead.  The worker's
``from rsmoment import cli`` names a module, covered by the layer
``rsmoment.cli.main``.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

_BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _BENCH / "spans.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.LAYERS


def _worker_imports():
    """(module, name) of every ``from rsmoment.<module> import name`` in worker.py."""
    tree = ast.parse((_BENCH / "worker.py").read_text())
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("rsmoment.")
            for alias in node.names]


def _names():
    pairs = [(m, a) for m, a, _, _ in _layers()] + _worker_imports()
    return list(dict.fromkeys(pairs))


@pytest.mark.parametrize("module,attr", _names())
def test_layer_function_resolves(module, attr):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
