"""The benchmark in perfbench/ traces bitpath functions by name and checks
every output against perfbench/goldens.json: every traced name must still
resolve and every workload's outputs must still be correct, or the benchmark
breaks while the library tests pass."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


@pytest.mark.parametrize("workload", ["oracle", "forward", "build"])
def test_workload_outputs_are_correct(monkeypatch, workload):
    """One short untraced run at toy sizes, which writes no report: every op
    succeeds and every output matches the goldens."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    harness = importlib.import_module("harness")
    result, _ = harness.run_workload(workload, 1, 0.2, False, sizes="toy")
    assert result["correct"] and result["failed"] == 0, result
