"""The benchmark in perfbench/ traces bitpath functions by name; every traced
name must still resolve, or the benchmark breaks while the library tests pass."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def wrapped_names() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(layer, name) for layer, names in tracing.WRAPPED.items() for name in names]


@pytest.mark.parametrize("layer, name", wrapped_names())
def test_traced_name_resolves(layer, name):
    target = importlib.import_module(f"bitpath.{layer}")
    for part in name.split("."):
        target = getattr(target, part)
    assert callable(target)
