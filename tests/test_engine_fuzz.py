"""Randomized differential fuzz harness: six engines, one truth.

For each seed, a pseudo-random generator derives an entire scenario —
suite shape (dimension, dataset count and sizes, buffer pool budget and
shard count), engine configuration (merge knobs, refinement threshold) and
workload (length, combination sizes, range/ids distributions) — and the
same query sequence is executed through all six execution paths:

* **scalar** — the seed per-record reference (``columnar=False``, ``query``);
* **columnar** — ``query``: the batch pipeline on batches of one;
* **batch** — ``query_batch`` in random-size chunks, serial executor;
* **parallel** — ``query_batch`` in the same chunks, ``workers`` threads;
* **epoch** — ``query_batch(..., snapshot=True)`` in the same chunks:
  the MVCC read path of :mod:`repro.core.epoch`, pinned to a published
  epoch and read lock-free;
* **process** — ``query_batch(..., executor="process")`` in the same
  chunks: page decode + filtering in worker *processes* over
  shared-memory staged pages (:class:`~repro.core.parallel.ProcessFanOut`).

Agreement is asserted at the strength each pair guarantees:

* scalar vs columnar: byte-identical hits *in the same order*, identical
  reports including ``objects_examined``;
* batch vs parallel, batch vs epoch, batch vs process: identical hits
  *in the same order*, identical reports including ``objects_examined``
  (all four read the
  same start-of-batch trees through the same deterministic plans — for
  the epoch engine, in isolation the pinned snapshot IS start-of-batch
  state and every pre-image overlay lookup misses);
* columnar vs batch: identical hit *sets* per query (batching may reorder
  within a result list) and identical reports except ``objects_examined``
  (the one documented batching deviation);
* all six: identical post-run adaptive state and byte-identical on-disk
  files.

Every assertion message carries the scenario seed, so a failure is
reproduced with ``run_fuzz_scenario(seed)`` in a REPL or by grepping the
pytest output for ``fuzz seed``.

A quick sample of seeds runs in tier-1; set ``REPRO_FUZZ_ITERATIONS=N``
to fuzz N extra seeds in the slow-marked deep mode::

    REPRO_FUZZ_ITERATIONS=200 python -m pytest tests/test_engine_fuzz.py -q
"""

from __future__ import annotations

import os
import random
from dataclasses import replace

import pytest

from repro.bench.runner import generate_workload
from repro.core.config import OdysseyConfig
from repro.core.odyssey import SpaceOdyssey
from repro.data.suite import build_benchmark_suite
from repro.storage.cost_model import DiskModel

from tests.test_batch_differential import (
    REPORT_FIELDS,
    adaptive_state,
    disk_files,
    packed_hits,
)

#: Seeds fuzzed in every tier-1 run.
QUICK_SEEDS = tuple(range(4))

#: Extra seeds fuzzed in deep mode (``REPRO_FUZZ_ITERATIONS=N``).
DEEP_ITERATIONS = int(os.environ.get("REPRO_FUZZ_ITERATIONS", "0"))
DEEP_SEEDS = tuple(range(len(QUICK_SEEDS), len(QUICK_SEEDS) + DEEP_ITERATIONS))

#: Report fields compared for the pairs that also guarantee examined counts.
STRICT_REPORT_FIELDS = REPORT_FIELDS + ("objects_examined",)


def _random_scenario(rng: random.Random) -> dict:
    """One fully-derived scenario: suite, config and workload parameters."""
    dimension = rng.choice((2, 3, 3))  # 3-D weighted: the paper's setting
    return {
        "dimension": dimension,
        "n_datasets": rng.randint(2, 4),
        "objects_per_dataset": rng.randint(150, 450),
        "suite_seed": rng.randint(0, 2**31),
        "buffer_pages": rng.choice((0, 32, 256)),
        "buffer_shards": rng.choice((1, 4)),
        "config": OdysseyConfig(
            refinement_threshold=rng.choice((2.0, 4.0)),
            merge_threshold=rng.choice((1, 2)),
            min_merge_combination=rng.choice((2, 3)),
            merge_partition_min_hits=rng.choice((1, 2)),
            merge_only_converged=rng.choice((True, False)),
            merge_space_budget_pages=rng.choice((None, 8, 16)),
            enable_merging=rng.random() > 0.15,
        ),
        "n_queries": rng.randint(10, 22),
        "workload_seed": rng.randint(0, 2**31),
        "datasets_per_query": rng.randint(1, 3),
        "volume_fraction": rng.choice((1e-3, 5e-3, 2e-2)),
        "ranges": rng.choice(("uniform", "clustered")),
        "ids_distribution": rng.choice(
            ("uniform", "zipf", "heavy_hitter", "self_similar")
        ),
        "batch_size": rng.choice((2, 3, 5, 8, 64)),
        "workers": rng.randint(2, 4),
    }


def run_fuzz_scenario(
    seed: int, compression: str | None = None, traced: bool = False
) -> None:
    """Derive the scenario for ``seed``, run all six engines, assert agreement.

    ``traced=True`` enables full per-phase tracing on the four batch-path
    engines (batch, parallel, epoch, process) while scalar and columnar
    stay untraced — every cross-engine equality below then doubles as a
    proof that telemetry observes without perturbing: traced engines must
    match the untraced references bit-for-bit (hits, reports, adaptive
    state, on-disk bytes).
    """
    rng = random.Random(seed)
    scenario = _random_scenario(rng)
    tag = f"fuzz seed {seed} ({scenario['dimension']}-D, {scenario['n_queries']} queries)"

    suite = build_benchmark_suite(
        n_datasets=scenario["n_datasets"],
        objects_per_dataset=scenario["objects_per_dataset"],
        seed=scenario["suite_seed"],
        dimension=scenario["dimension"],
        buffer_pages=scenario["buffer_pages"],
        buffer_shards=scenario["buffer_shards"],
        model=DiskModel(seek_time_s=1e-4),
        compression=compression,
    )
    workload = list(
        generate_workload(
            suite.universe,
            suite.catalog.dataset_ids(),
            scenario["n_queries"],
            seed=scenario["workload_seed"],
            datasets_per_query=min(
                scenario["datasets_per_query"], scenario["n_datasets"]
            ),
            volume_fraction=scenario["volume_fraction"],
            ranges=scenario["ranges"],
            ids_distribution=scenario["ids_distribution"],
        )
    )
    config = scenario["config"]

    scalar = SpaceOdyssey(suite.fork().catalog, replace(config, columnar=False))
    columnar = SpaceOdyssey(suite.fork().catalog, config)
    batch = SpaceOdyssey(suite.fork().catalog, config)
    parallel = SpaceOdyssey(suite.fork().catalog, config)
    epoch = SpaceOdyssey(suite.fork().catalog, config)
    process = SpaceOdyssey(suite.fork().catalog, config)
    tracers = {}
    if traced:
        for engine in (batch, parallel, epoch, process):
            tracers[engine] = engine.enable_tracing(capacity=512)

    scalar_hits, scalar_reports = [], []
    columnar_hits, columnar_reports = [], []
    for query in workload:
        scalar_hits.append(scalar.query(query.box, query.dataset_ids))
        scalar_reports.append(scalar.last_report)
        columnar_hits.append(columnar.query(query.box, query.dataset_ids))
        columnar_reports.append(columnar.last_report)

    batch_hits, batch_reports = [], []
    parallel_hits, parallel_reports = [], []
    epoch_hits, epoch_reports = [], []
    process_hits, process_reports = [], []
    chunk_size = scenario["batch_size"]
    for start in range(0, len(workload), chunk_size):
        chunk = workload[start : start + chunk_size]
        serial_result = batch.query_batch(chunk)
        batch_hits.extend(serial_result.results)
        batch_reports.extend(serial_result.reports)
        parallel_result = parallel.query_batch(chunk, workers=scenario["workers"])
        parallel_hits.extend(parallel_result.results)
        parallel_reports.extend(parallel_result.reports)
        epoch_result = epoch.query_batch(
            chunk, snapshot=True, workers=scenario["workers"]
        )
        epoch_hits.extend(epoch_result.results)
        epoch_reports.extend(epoch_result.reports)
        process_result = process.query_batch(
            chunk, workers=scenario["workers"], executor="process"
        )
        process_hits.extend(process_result.results)
        process_reports.extend(process_result.reports)

    for index in range(len(workload)):
        assert scalar_hits[index] == columnar_hits[index], (
            f"{tag}: scalar vs columnar hits differ (order included) "
            f"for query {index}"
        )
        assert batch_hits[index] == parallel_hits[index], (
            f"{tag}: batch vs parallel hits differ (order included) "
            f"for query {index}"
        )
        assert batch_hits[index] == epoch_hits[index], (
            f"{tag}: batch vs epoch hits differ (order included) "
            f"for query {index}"
        )
        assert batch_hits[index] == process_hits[index], (
            f"{tag}: batch vs process hits differ (order included) "
            f"for query {index}"
        )
        assert packed_hits(columnar, columnar_hits[index]) == packed_hits(
            batch, batch_hits[index]
        ), f"{tag}: columnar vs batch hit bytes differ for query {index}"
        for field in STRICT_REPORT_FIELDS:
            assert getattr(scalar_reports[index], field) == getattr(
                columnar_reports[index], field
            ), f"{tag}: scalar vs columnar report field {field!r} differs for query {index}"
            assert getattr(batch_reports[index], field) == getattr(
                parallel_reports[index], field
            ), f"{tag}: batch vs parallel report field {field!r} differs for query {index}"
            assert getattr(batch_reports[index], field) == getattr(
                epoch_reports[index], field
            ), f"{tag}: batch vs epoch report field {field!r} differs for query {index}"
            assert getattr(batch_reports[index], field) == getattr(
                process_reports[index], field
            ), f"{tag}: batch vs process report field {field!r} differs for query {index}"
        for field in REPORT_FIELDS:
            assert getattr(columnar_reports[index], field) == getattr(
                batch_reports[index], field
            ), f"{tag}: columnar vs batch report field {field!r} differs for query {index}"

    reference_state = adaptive_state(scalar)
    reference_files = disk_files(scalar)
    for name, engine in (
        ("columnar", columnar),
        ("batch", batch),
        ("parallel", parallel),
        ("epoch", epoch),
        ("process", process),
    ):
        assert adaptive_state(engine) == reference_state, (
            f"{tag}: {name} adaptive state diverged from scalar"
        )
        assert disk_files(engine) == reference_files, (
            f"{tag}: {name} on-disk bytes diverged from scalar"
        )

    if traced:
        for engine, tracer in tracers.items():
            spans = tracer.finished()
            assert spans, f"{tag}: a traced engine recorded no spans"
            assert any(span.name == "batch" for span in spans), (
                f"{tag}: traced engine is missing its batch root spans"
            )


@pytest.mark.parametrize("seed", QUICK_SEEDS)
def test_fuzz_quick(seed):
    """The tier-1 sample of the fuzz space."""
    run_fuzz_scenario(seed)


@pytest.mark.parametrize("seed", QUICK_SEEDS[:2])
def test_fuzz_compressed_raw_files(seed):
    """The same six-engine oracle over zlib-compressed raw dataset files.

    Every fork shares the master's compressed bytes, so the per-page
    codec header must decode identically through the scalar path, the
    columnar path, the buffer pool's decoded layer and the process
    executor's staged buffers.
    """
    run_fuzz_scenario(seed, compression="zlib")


@pytest.mark.parametrize("seed", QUICK_SEEDS[:2])
def test_fuzz_traced(seed):
    """The six-engine oracle with tracing fully enabled on the batch paths.

    The observation-only contract of :mod:`repro.obs`: a traced engine is
    bit-identical to an untraced one.  Scalar and columnar stay untraced
    as references, so every equality the oracle asserts proves it.
    """
    run_fuzz_scenario(seed, traced=True)


@pytest.mark.slow
@pytest.mark.skipif(
    DEEP_ITERATIONS == 0,
    reason="deep fuzz disabled; set REPRO_FUZZ_ITERATIONS=N to enable",
)
@pytest.mark.parametrize("seed", DEEP_SEEDS)
def test_fuzz_deep(seed):
    """The opt-in deep sweep (one test per extra seed)."""
    run_fuzz_scenario(seed)


# ---------------------------------------------------------------------- #
# Fault campaign: the same six-engine oracle under injected storage faults
# ---------------------------------------------------------------------- #

#: Seeds fault-fuzzed in every tier-1 run.
FAULT_QUICK_SEEDS = (0, 1)

#: Extra seeds fault-fuzzed in deep mode (``REPRO_FAULT_ITERATIONS=N``).
FAULT_DEEP_ITERATIONS = int(os.environ.get("REPRO_FAULT_ITERATIONS", "0"))
FAULT_DEEP_SEEDS = tuple(
    range(len(FAULT_QUICK_SEEDS), len(FAULT_QUICK_SEEDS) + FAULT_DEEP_ITERATIONS)
)


def run_fault_campaign(seed: int) -> None:
    """One fuzz scenario re-run with every engine's storage under fire.

    Each engine's cloned backend is wrapped in a seeded
    :class:`~repro.storage.faults.FaultInjectingBackend` (transient
    read/write errors, in-flight bit-flips, torn in-place writes) under a
    :class:`~repro.storage.retry.RetryingBackend`.  The contract: the
    retry layer absorbs every injected fault (zero client-visible
    errors), and all six engines still produce bit-identical hits,
    adaptive state and on-disk bytes — fault placement differs per engine
    (thread scheduling consumes the fault RNG in different orders), so
    this proves transient faults cannot perturb logical state.
    """
    from repro.storage.faults import FaultInjectingBackend, FaultPlan
    from repro.storage.retry import RetryingBackend, RetryPolicy

    from tests.test_recovery import fork_with

    rng = random.Random(0xFA17 + seed)
    scenario = _random_scenario(rng)
    tag = f"fault seed {seed} ({scenario['n_queries']} queries)"

    suite = build_benchmark_suite(
        n_datasets=scenario["n_datasets"],
        objects_per_dataset=scenario["objects_per_dataset"],
        seed=scenario["suite_seed"],
        dimension=scenario["dimension"],
        buffer_pages=scenario["buffer_pages"],
        buffer_shards=scenario["buffer_shards"],
        model=DiskModel(seek_time_s=1e-4),
    )
    workload = list(
        generate_workload(
            suite.universe,
            suite.catalog.dataset_ids(),
            scenario["n_queries"],
            seed=scenario["workload_seed"],
            datasets_per_query=min(
                scenario["datasets_per_query"], scenario["n_datasets"]
            ),
            volume_fraction=scenario["volume_fraction"],
            ranges=scenario["ranges"],
            ids_distribution=scenario["ids_distribution"],
        )
    )
    config = scenario["config"]
    plan = FaultPlan(
        seed=seed,
        read_error_rate=0.03,
        write_error_rate=0.03,
        corrupt_read_rate=0.02,
        torn_write_rate=0.02,
    )
    policy = RetryPolicy(max_attempts=8, seed=seed)

    def faulty_fork():
        return fork_with(
            suite,
            lambda backend: RetryingBackend(
                FaultInjectingBackend(backend, plan), policy, sleep=lambda _s: None
            ),
        )

    scalar = SpaceOdyssey(faulty_fork().catalog, replace(config, columnar=False))
    columnar = SpaceOdyssey(faulty_fork().catalog, config)
    batch = SpaceOdyssey(faulty_fork().catalog, config)
    parallel = SpaceOdyssey(faulty_fork().catalog, config)
    epoch = SpaceOdyssey(faulty_fork().catalog, config)
    process = SpaceOdyssey(faulty_fork().catalog, config)
    engines = (
        ("scalar", scalar),
        ("columnar", columnar),
        ("batch", batch),
        ("parallel", parallel),
        ("epoch", epoch),
        ("process", process),
    )

    scalar_hits, columnar_hits = [], []
    for query in workload:
        scalar_hits.append(scalar.query(query.box, query.dataset_ids))
        columnar_hits.append(columnar.query(query.box, query.dataset_ids))

    batch_hits, parallel_hits, epoch_hits = [], [], []
    process_hits = []
    chunk_size = scenario["batch_size"]
    for start in range(0, len(workload), chunk_size):
        chunk = workload[start : start + chunk_size]
        batch_hits.extend(batch.query_batch(chunk).results)
        parallel_hits.extend(
            parallel.query_batch(chunk, workers=scenario["workers"]).results
        )
        epoch_hits.extend(
            epoch.query_batch(
                chunk, snapshot=True, workers=scenario["workers"]
            ).results
        )
        process_hits.extend(
            process.query_batch(
                chunk, workers=scenario["workers"], executor="process"
            ).results
        )

    # Disarm before the byte-level comparison, like restarting on healthy
    # hardware; the retry layer has already proven it absorbs everything.
    injected = 0
    for name, engine in engines:
        retrying = engine.disk.backend
        fault = retrying.inner
        fault.disarm()
        counters = fault.counters()
        injected += (
            counters.transient_read_errors
            + counters.transient_write_errors
            + counters.reads_corrupted
            + counters.torn_writes
        )
        assert retrying.counters().exhausted == 0, (
            f"{tag}: {name} exhausted a retry budget (client-visible error)"
        )
    assert injected > 0, f"{tag}: the campaign injected no faults at all"

    for index in range(len(workload)):
        assert scalar_hits[index] == columnar_hits[index], (
            f"{tag}: scalar vs columnar hits differ for query {index}"
        )
        assert batch_hits[index] == parallel_hits[index], (
            f"{tag}: batch vs parallel hits differ for query {index}"
        )
        assert batch_hits[index] == epoch_hits[index], (
            f"{tag}: batch vs epoch hits differ for query {index}"
        )
        assert batch_hits[index] == process_hits[index], (
            f"{tag}: batch vs process hits differ for query {index}"
        )
        assert packed_hits(columnar, columnar_hits[index]) == packed_hits(
            batch, batch_hits[index]
        ), f"{tag}: columnar vs batch hit bytes differ for query {index}"

    reference_state = adaptive_state(scalar)
    reference_files = disk_files(scalar)
    for name, engine in engines[1:]:
        assert adaptive_state(engine) == reference_state, (
            f"{tag}: {name} adaptive state diverged under faults"
        )
        assert disk_files(engine) == reference_files, (
            f"{tag}: {name} on-disk bytes diverged under faults"
        )


@pytest.mark.parametrize("seed", FAULT_QUICK_SEEDS)
def test_fault_campaign_quick(seed):
    """The tier-1 sample of the fault-campaign space."""
    run_fault_campaign(seed)


@pytest.mark.slow
@pytest.mark.skipif(
    FAULT_DEEP_ITERATIONS == 0,
    reason="deep fault campaign disabled; set REPRO_FAULT_ITERATIONS=N to enable",
)
@pytest.mark.parametrize("seed", FAULT_DEEP_SEEDS)
def test_fault_campaign_deep(seed):
    """The opt-in deep fault sweep (one test per extra seed)."""
    run_fault_campaign(seed)
