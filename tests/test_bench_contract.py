"""The names the benchmark harness reads from the package.

``bench/tracing.py`` wraps package functions by module attribute, and
``BENCHMARK.json`` declares one per-layer timing, ``verify.<name>_s``, for
each verify criterion in order.  A rename in the package would break the
benchmark without failing a test of its own; these tests read both files
and change neither.
"""

import importlib
import importlib.util
import json
from pathlib import Path

from spacing_lab import verify

ROOT = Path(__file__).resolve().parents[1]


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _layer(module_name):
    return importlib.import_module(f"spacing_lab.{module_name}")


def test_every_traced_attribute_exists():
    tracing = _load_tracing()
    for module_name, attr, _ in tracing._TARGETS:
        assert callable(getattr(_layer(module_name), attr, None)), (
            f"{module_name}.{attr}")
    for module_name, cls_name, attr, _ in tracing._METHODS:
        cls = getattr(_layer(module_name), cls_name)
        assert callable(getattr(cls, attr, None)), f"{cls_name}.{attr}"


def test_criteria_are_the_declared_verify_layers():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = [m["name"] for m in declared["per_layer"]]
    names = [n[len("verify."):-len("_s")] for n in layers
             if n.startswith("verify.") and n.endswith("_s")]
    assert len(names) == 13
    assert [fn.criterion for fn in verify.ALL_CRITERIA] == names
