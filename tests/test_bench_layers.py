"""Every function the benchmark's span recorder wraps, and every name its
worker imports from rsmoment, must still exist.

perfbench/spans.py names its layer functions by module and attribute; a
name that disappears only prints a warning there and its per-layer metric
reads zero.  perfbench/worker.py imports its rsmoment names inside the
workload functions, so a renamed one fails every operation of a workload
while nothing else notices.  A rename fails here instead, and so does a
renamed parameter that the worker passes by keyword.  The worker's
``from rsmoment import cli`` names a module, covered by the layer
``rsmoment.cli.main``.
"""

import ast
import importlib
import importlib.util
import inspect
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


def _worker_keyword_calls():
    """(module, name, keyword) of every keyword the worker passes to an rsmoment name."""
    tree = ast.parse((_BENCH / "worker.py").read_text())
    origin = {name: module for module, name in _worker_imports()}
    return [(origin[node.func.id], node.func.id, kw.arg) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in origin
            for kw in node.keywords if kw.arg is not None]


def test_worker_keyword_calls_are_found():
    # the parametrization below must not be empty by a parsing slip
    assert {name for _, name, _ in _worker_keyword_calls()} >= {
        "central_value", "TraceRHSParams", "KloostermanQuery"}


@pytest.mark.parametrize("module,name,keyword", list(dict.fromkeys(_worker_keyword_calls())))
def test_worker_keyword_is_a_parameter(module, name, keyword):
    params = inspect.signature(getattr(importlib.import_module(module), name)).parameters
    assert keyword in params
