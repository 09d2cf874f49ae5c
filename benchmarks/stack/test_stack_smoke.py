"""Smoke test of the stack benchmark (collected by the tier-1 command).

``run.py --smoke`` runs every workload once at 1/50 of its op counts, traced
pass included; the result must carry every metric ``BENCHMARK.json`` names,
for every workload, and pass its own output checks.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py")]
sys.path.insert(0, str(HERE))

from spec import RESULT_END_TO_END  # noqa: E402

#: The smoke run takes 12 s on the 2-core reference machine: 14 child
#: processes, each at least 0.65 s of interpreter start, ``import repro``
#: and ``warmup()`` of G whatever the op counts. The limit leaves 2.5x for
#: a loaded host.
SMOKE_LIMIT_S = 30.0


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("stack-smoke")
    start = time.perf_counter()
    completed = subprocess.run(RUN + ["--smoke", "--out", str(out)],
                               capture_output=True, text=True,
                               timeout=4 * SMOKE_LIMIT_S)
    elapsed = time.perf_counter() - start
    assert completed.returncode == 0, completed.stderr[-4000:]
    with open(out / "result.json", "r", encoding="utf-8") as handle:
        result = json.load(handle)
    return {"out": out, "result": result, "elapsed": elapsed,
            "stdout": completed.stdout}


def test_smoke_emits_every_metric_and_validates(smoke):
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        contract = json.load(handle)
    assert smoke["elapsed"] < SMOKE_LIMIT_S
    result = smoke["result"]
    assert contract["paths"] == ["benchmarks/stack"]
    assert contract["command"][-1] == "benchmarks/stack/run.py"
    workloads = [entry["name"] for entry in contract["workloads"]]
    assert list(result["workloads"]) == workloads
    end_to_end = {metric["name"] for metric in contract["end_to_end"]}
    assert "setup_s" in end_to_end
    per_layer = {metric["name"] for metric in contract["per_layer"]}
    assert not end_to_end & per_layer
    for name in workloads:
        entry = result["workloads"][name]
        assert entry["correct"], name
        assert entry["failed_share"] == 0 and entry["ops_attempted"] > 0
        assert entry["digests_equal"] and entry["digest_pinned"], name
        expected = end_to_end | {
            metric["name"] for metric in RESULT_END_TO_END["every workload"]
            + RESULT_END_TO_END.get(name, [])}
        assert set(entry["end_to_end"]) == expected, name
        for metric, row in entry["end_to_end"].items():
            assert row["median"] > 0, (name, metric)
            assert metric in smoke["stdout"]
        assert set(entry["per_layer"]) == per_layer, name
    assert (smoke["out"] / "trace.json").exists()
    # Layers a workload executes read non-zero; absent layers read 0.
    layers = {name: {metric: row["value"] for metric, row
                     in result["workloads"][name]["per_layer"].items()}
              for name in workloads}
    # (8000 smoke-scale updates do not reach the GC threshold, so the
    # translation sync is the layer to look for on gecko_update.)
    assert layers["gecko_update"]["mapping.sync_self_s"] > 0
    assert layers["gecko_update"]["ingest.records"] == 0
    assert layers["timed_replay"]["ingest.records"] > 0
    assert layers["timed_replay"]["timing.overhead_ratio"] > 0
    assert layers["sweep_grid"]["engine.cells"] == 10
    assert layers["crash_recover"]["recovery.cycles"] == 2
    # The outer span's self time counts as unattributed, so this fails when
    # a layer wrapper stops firing.
    for name in workloads:
        assert 0 < layers[name]["trace.unattributed_share"] <= 0.10, name


def test_compare_with_itself_is_unchanged(smoke):
    result = str(smoke["out"] / "result.json")
    completed = subprocess.run(RUN + ["--compare", result, result],
                               capture_output=True, text=True, timeout=60)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    rows = [line for line in completed.stdout.splitlines() if line.strip()]
    assert rows
    assert all(row.rstrip().endswith("unchanged") for row in rows), \
        completed.stdout
