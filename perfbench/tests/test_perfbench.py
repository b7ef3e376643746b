"""Checks of the benchmark itself: oracle, failure counting, metric sets."""

from __future__ import annotations

import json
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import BruteForceScan, SpaceOdyssey, SpatialObject, build_benchmark_suite
from repro.storage.disk import Disk

from perfbench import workloads
from perfbench.hostspeed import REFERENCE_S, HostClock
from perfbench.oracle import AnswerCheck, RawOracle, object_keys
from perfbench.tracing import PER_LAYER
from perfbench.workloads import (
    FULL,
    TAIL_PERCENTILE,
    WORKLOADS,
    Profile,
    explore_queries,
    run_workload,
    steady_queries,
)

ROOT = Path(__file__).resolve().parents[2]

TINY = Profile(
    n_datasets=4,
    objects_per_dataset=600,
    explore_queries=24,
    explore_sequences=2,
    explore_buffer_pages=16,
    steady_queries=64,
    steady_min_passes=2,
    batch_size=16,
    steady_buffer_pages=4096,
    serve_rate_qps=400.0,
    serve_min_windows=1,
    durable_queries=12,
    durable_sequences=1,
    setups=1,
)


@pytest.fixture(scope="module")
def suite():
    return build_benchmark_suite(n_datasets=4, objects_per_dataset=600, seed=7)


def _run(tmp_path, workload, **kwargs):
    return run_workload(
        workload, seed=3, seconds=0.5, trace=False, root=tmp_path, profile=TINY, **kwargs
    )


def test_oracle_matches_brute_force_scan(suite):
    oracle = RawOracle(suite.catalog)
    brute = BruteForceScan(suite.catalog)
    queries = steady_queries(suite, TINY, seed=5)[:20] + explore_queries(suite, TINY, 5, 0)[:20]
    nonempty = 0
    for box, dataset_ids in queries:
        expected = np.sort(object_keys(brute.query(box, dataset_ids)))
        assert np.array_equal(oracle.keys(box, dataset_ids), expected)
        nonempty += len(expected) > 0
    assert nonempty > 5


def test_answer_check_counts_wrong_answers(suite):
    check = AnswerCheck(RawOracle(suite.catalog))
    engine = SpaceOdyssey(suite.fork().catalog)
    box, dataset_ids = max(
        steady_queries(suite, TINY, seed=5),
        key=lambda q: len(check.expected(q[0], q[1])),
    )
    hits = engine.query(box, dataset_ids)
    assert check.check("query", [(box, dataset_ids)], [hits])
    assert not check.check("query", [(box, dataset_ids)], [hits[1:]])
    assert not check.check("query", [(box, dataset_ids)], [hits + hits[:1]])
    check.record_error("query", RuntimeError("boom"))
    assert (check.attempted, check.failed) == (4, 3)
    assert check.failed_ratio == pytest.approx(0.75)


def test_tail_percentiles_leave_ten_samples_beyond():
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    for workload, percentile in TAIL_PERCENTILE.items():
        assert FULL.min_samples(workload, seconds) * (100 - percentile) / 100 >= 10


def test_benchmark_json_names_every_metric(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    result = _run(tmp_path, "explore")
    assert [m["name"] for m in spec["end_to_end"]] == list(result.metrics)
    assert all(m["unit"] == result.metrics[m["name"]][1] for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_correctly(tmp_path, workload):
    result = _run(tmp_path, workload)
    assert result.correct, result.notes
    assert result.failed == 0 and result.attempted > 0
    assert all(value > 0 for value, _ in result.metrics.values())
    assert not (tmp_path / ".perfbench_tmp").exists() or not any(
        (tmp_path / ".perfbench_tmp").iterdir()
    )


def test_injected_exception_and_wrong_answer_raise_failed_ratio(tmp_path, monkeypatch):
    original = SpaceOdyssey.query
    calls = {"n": 0}

    def faulty(self, box, dataset_ids):
        calls["n"] += 1
        if calls["n"] == 3:
            raise RuntimeError("injected")
        hits = original(self, box, dataset_ids)
        if calls["n"] == 5:  # an object the window does not hold
            return hits + [SpatialObject(oid=10**6, dataset_id=dataset_ids[0], box=box)]
        return hits

    monkeypatch.setattr(SpaceOdyssey, "query", faulty)
    result = _run(tmp_path, "explore")
    assert not result.correct
    assert result.failed == 2
    assert result.report["failed_ratio"] == result.failed / result.attempted


def test_late_serve_submitter_makes_run_incorrect(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "LATENESS_BOUND_MS", -1.0)
    result = _run(tmp_path, "serve")
    assert not result.correct
    assert result.failed == 0
    assert any("lateness" in note for note in result.notes)


def test_traced_run_reports_layers_and_restores_functions(tmp_path):
    read_run = Disk.read_run
    result = run_workload(
        "steady_read", seed=3, seconds=0.5, trace=True, root=tmp_path, profile=TINY
    )
    assert Disk.read_run is read_run
    assert result.correct, result.notes
    assert list(result.metrics) == [name for name, _, _ in PER_LAYER]
    metrics = {name: value for name, (value, _) in result.metrics.items()}
    for idle in ("core.adaptor.initialize.calls", "core.adaptor.refine.calls",
                 "storage.journal.commit.calls", "core.merger.merges_performed",
                 "core.merger.partitions_merged"):
        assert metrics[idle] == 0
    # The writer replay still asks the merger once per query; pairs of
    # datasets are below the merge minimum, so every call returns at once.
    assert metrics["core.merger.maybe_merge.calls"] == TINY.steady_queries
    assert metrics["core.batch.BatchExecutor.run.calls"] > 0
    assert metrics["storage.buffer.hit_ratio"] == pytest.approx(1.0)
    assert (tmp_path / ".perfbench_out" / "spans-steady_read-seed3.jsonl.gz").exists()


def test_host_clock_scales_to_the_reference_speed(monkeypatch):
    probes = iter([2 * REFERENCE_S, 4 * REFERENCE_S, REFERENCE_S])
    monkeypatch.setattr("perfbench.hostspeed.probe_seconds", lambda: next(probes))
    clock = HostClock()
    clock.start()
    assert clock.scale() == pytest.approx(1 / 3)  # probes of 2x and 4x
    assert clock.scale() == pytest.approx(0.4)  # probes of 4x and 1x
    assert not clock.disturbed
    disabled = HostClock(enabled=False)
    disabled.start()
    assert disabled.scale() == 1.0 and disabled.factors == []


def test_thread_running_during_host_probe_makes_run_incorrect(tmp_path, monkeypatch):
    release = threading.Event()
    helper = threading.Thread(target=release.wait)
    generate = workloads._generate

    def generate_and_start_thread(*args, **kwargs):
        if not helper.is_alive():
            helper.start()  # after the run's clock was made
        return generate(*args, **kwargs)

    monkeypatch.setattr(workloads, "_generate", generate_and_start_thread)
    try:
        result = _run(tmp_path, "steady_read")
    finally:
        release.set()
        helper.join(timeout=10)
    assert not helper.is_alive()
    assert not result.correct
    assert any("host probe" in note for note in result.notes)
