"""Self-test of the benchmark harness.

One ``--quick`` pass of all six workloads (each shrunk to under a
second, one repeat, trace on) must report every named metric, finite
and correctly typed; ``bench.compare`` must flag a synthetic
regression beyond a bound; ``BENCHMARK.json`` must list what
``bench.metrics`` and ``bench.workloads`` define.  The whole file runs
in 12 to 15 s, by how contended the machine is.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from bench import compare, run
from bench.metrics import END_TO_END, PER_LAYER
from bench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def quick_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "quick.json"
    status = run.main(
        ["--quick", "--repeats", "1", "--trace", "--out", str(out)]
    )
    assert status == 0
    with open(out) as handle:
        return json.load(handle)


def test_quick_pass_reports_every_named_metric(quick_report):
    assert list(quick_report["workloads"]) == [w.name for w in WORKLOADS]
    for name, result in quick_report["workloads"].items():
        assert result["checks"]["attempted"] > 0, name
        assert result["checks"]["failed"] == 0, result["checks"]
        for metric, (unit, better, _bound) in END_TO_END.items():
            row = result["end_to_end"][metric]
            assert (row["unit"], row["better"]) == (unit, better)
            assert row["n"] == 1
            assert isinstance(row["median"], float), (name, metric)
            assert math.isfinite(row["median"]) and row["median"] > 0
        assert result["end_to_end"]["failed_share"]["median"] == 0.0
        for metric, (unit, _better) in PER_LAYER.items():
            row = result["per_layer"][metric]
            assert row["unit"] == unit
            assert isinstance(row["value"], (int, float)), (name, metric)
            assert not isinstance(row["value"], bool), (name, metric)
            assert math.isfinite(row["value"]), (name, metric)


def test_quick_pass_has_the_environment_and_noise_block(quick_report):
    env = quick_report["environment"]
    for key in (
        "nproc",
        "python",
        "crypto_backend",
        "gmpy2_available",
        "load_1m_start",
        "load_1m_end",
    ):
        assert key in env
    row = quick_report["workloads"]["fig9_serial"]["end_to_end"]["run_s"]
    assert "cv" in row


def test_layer_predictions_hold_in_the_quick_trace(quick_report):
    layers = {
        name: {
            metric: row["value"]
            for metric, row in result["per_layer"].items()
        }
        for name, result in quick_report["workloads"].items()
    }
    serial = layers["fig9_serial"]
    idle = [
        metric
        for metric in PER_LAYER
        if metric.startswith(("net.", "sim.execution.", "sim.population."))
    ]
    assert all(serial[metric] == 0 for metric in idle)
    assert serial["core.monitor.accusations_received"] == 0
    assert layers["accuse_mixed"]["core.monitor.accusations_received"] > 0
    assert layers["fleet_unix_2"]["net.wire.frames_sent"] > 0
    assert layers["fig9_parallel_2"]["sim.execution.worker_busy_cpu_s"] > 0
    assert layers["pop_500k"]["sim.population.plane_nodes"] > 0
    assert layers["table1_paper"]["crypto.busy_share"] > 0.5


def test_driver_line_has_the_contract_keys(quick_report):
    result = quick_report["workloads"]["accuse_mixed"]
    for traced, names in ((False, END_TO_END), (True, PER_LAYER)):
        line = json.loads(run.driver_line(result, traced))
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
        assert line["correct"] is True and line["failed"] == 0
        assert list(line["metrics"]) == list(names)
        for value in line["metrics"].values():
            assert sorted(value) == ["unit", "value"]


def _report(**moved):
    """A one-workload report; metrics not in ``moved`` never move."""
    rows = {
        metric: {"unit": unit, "better": better, "values": [1.0] * 5}
        for metric, (unit, better, _bound) in END_TO_END.items()
    }
    for metric, values in moved.items():
        rows[metric]["values"] = values
    return {"workloads": {"fig9_serial": {"end_to_end": rows}}}


def test_compare_flags_a_synthetic_regression():
    bounds = compare.load_bounds(ROOT / "BENCHMARK.json")
    steady = [3.00, 3.02, 3.01, 2.99, 3.03]
    parent = _report(run_s=steady, peak_rss_mib=steady)

    def verdicts(change, pairs=False):
        rows = compare.compare(parent, change, bounds, pairs)
        return {row["metric"]: row["verdict"] for row in rows}

    # 20% more memory is beyond that metric's bound; run_s needs more.
    assert bounds["peak_rss_mib"] < 0.2 < bounds["run_s"] + 0.1
    slower = [(1.1 + bounds["run_s"]) * v for v in steady]
    found = verdicts(
        _report(run_s=slower, peak_rss_mib=[1.2 * v for v in steady])
    )
    assert found.pop("run_s") == "worse"
    assert found.pop("peak_rss_mib") == "worse"
    assert set(found.values()) == {"same"}
    assert set(verdicts(parent).values()) == {"same"}
    # A gain, but too few pairs to claim it under the nine-tenths rule.
    faster = _report(run_s=[0.6 * v for v in steady], peak_rss_mib=steady)
    assert verdicts(faster)["run_s"] == "better"
    assert verdicts(faster, pairs=True)["run_s"] == "unresolved"


def test_benchmark_json_lists_what_the_harness_defines():
    with open(ROOT / "BENCHMARK.json") as handle:
        benchmark = json.load(handle)
    assert benchmark["paths"] == ["bench"]
    assert [(w["name"], w["why"]) for w in benchmark["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS
    ]
    assert {
        m["name"]: (m["unit"], m["better"]) for m in benchmark["end_to_end"]
    } == {
        name: (unit, better) for name, (unit, better, _b) in END_TO_END.items()
    }
    for metric in benchmark["end_to_end"]:
        assert END_TO_END[metric["name"]][2] <= metric["bound"] <= 0.25
    assert {
        m["name"]: (m["unit"], m["better"]) for m in benchmark["per_layer"]
    } == PER_LAYER


def test_scratch_directory_ignores_itself():
    assert (ROOT / "bench" / "out" / ".gitignore").is_file()
