"""Self-test of the benchmark at toy size: python3 -m pytest perfbench"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
from harness import END_TO_END_UNITS, PER_LAYER_UNITS, run_workload  # noqa: E402

WORKLOADS = ("oracle", "forward", "build")
GOLDENS = json.loads((HERE / "goldens.json").read_text())
SECONDS = 0.2


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result, report = run_workload(workload, 1, SECONDS, trace, sizes="toy")
    assert (result["correct"], result["failed"]) == (True, 0), report["failures"]
    assert result["attempted"] >= 1
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        for metric in report["named"].values():
            assert metric["unit"] and isinstance(metric["value"], (int, float))


# One golden per workload, each read by every pass.
WRONG = {
    "oracle": "verify cp4 combined",
    "forward": "forward cp4 combined",
    "build": "cli star-table",
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_wrong_golden_makes_failed_share_positive(workload):
    goldens = copy.deepcopy(GOLDENS)
    goldens[WRONG[workload]] = "deliberately wrong"
    result, report = run_workload(workload, 1, SECONDS, False, sizes="toy", goldens=goldens)
    assert report["failed_share"] > 0
    assert result["correct"] is False and result["failed"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_for_one_seed(workload):
    first = run_workload(workload, 3, SECONDS, True, sizes="toy")
    second = run_workload(workload, 3, SECONDS, True, sizes="toy")
    assert first[1]["counts"] == second[1]["counts"]
    assert first[1]["counts"]["trace.spans"] > 0


def test_baselines_pass_their_checks():
    result, report = run_workload("baselines", 1, 0.0, False, sizes="toy")
    assert (result["correct"], report["passes"]) == (True, 1), report["failures"]
    assert len(report["named"]) == 7  # setup_s, peak_rss_mb, failed_share and four ops


def test_times_are_scaled_to_the_reference_host_speed(monkeypatch):
    monkeypatch.setattr(hostspeed, "probe", lambda: 2 * hostspeed.REFERENCE_S)  # a host at half speed
    result, report = run_workload("forward", 1, SECONDS, False, sizes="toy")
    assert report["host_speed"]["factor_range"] == [0.5, 0.5]
    for name, unscaled in report["unscaled"].items():
        assert result["metrics"][name]["value"] == pytest.approx(unscaled / 2)
