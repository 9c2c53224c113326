"""The functions the benchmark traces by name are still there.

``bench/run.py`` raises on a ``BENCHMARK.json`` per-layer metric whose
function its tracer did not wrap, so a renamed or deleted function would
fail the benchmark; this guard fails the suite first.  It reads
``BENCHMARK.json`` and the ``FUNCTION_STATS`` tuple of ``bench/run.py``
and imports nothing from ``bench/``.
"""

import ast
import importlib
import inspect
import json
import pathlib

import pytest

_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _function_stats() -> tuple:
    tree = ast.parse((_ROOT / "bench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "FUNCTION_STATS"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py defines no FUNCTION_STATS")


def _traced_labels() -> list[str]:
    stats = _function_stats()
    metrics = json.loads((_ROOT / "BENCHMARK.json").read_text())["per_layer"]
    labels = []
    for metric in metrics:
        label, _, stat = metric["name"].rpartition(".")
        if stat in stats and label not in labels:
            labels.append(label)
    return labels


def _public(owner, name: str, module: str):
    """``owner``'s own public attribute ``name``, defined in ``module``."""
    value = vars(owner).get(name)
    assert value is not None and not name.startswith("_"), f"{name} is not a public name"
    assert getattr(value, "__module__", None) == module, f"{name} is not defined in {module}"
    return value


def test_the_benchmark_names_functions():
    assert len(_traced_labels()) >= 20


@pytest.mark.parametrize("label", _traced_labels())
def test_traced_label_resolves(label):
    """A label resolves as the tracer wraps it: ``layer.function``, a class
    ``layer.Class`` with its own ``__init__``, or ``layer.Class.method``."""
    layer, name, *method = label.split(".")
    module = importlib.import_module(f"spectral_qpe.{layer}")
    value = _public(module, name, module.__name__)
    if method:
        assert inspect.isclass(value), f"{label}: {name} is not a class"
        assert inspect.isfunction(_public(value, method[0], module.__name__))
    elif inspect.isclass(value):
        assert inspect.isfunction(vars(value).get("__init__")), f"{label} has no own __init__"
    else:
        assert inspect.isfunction(value), f"{label} is not a function"
