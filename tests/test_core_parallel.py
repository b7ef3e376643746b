"""Unit tests for the thread and process fan-outs of the batch pipeline.

The heavy equivalence checking lives in the fuzz harness
(``tests/test_engine_fuzz.py``); this file covers the fan-outs' API
surface and the thread-safe read set directly.
"""

from __future__ import annotations

import threading

import pytest

from repro.bench.runner import generate_workload
from repro.core.batch import BatchReadSet, QueryBatch, ThreadFanOut
from repro.core.config import OdysseyConfig
from repro.core.odyssey import SpaceOdyssey
from repro.data.spatial_object import spatial_object_codec
from repro.storage.cost_model import DiskModel
from repro.storage.disk import Disk
from repro.storage.pagedfile import PagedFile

from tests.conftest import make_random_objects
from tests.test_batch_differential import (
    REPORT_FIELDS,
    adaptive_state,
    disk_files,
)


MERGE_CONFIG = OdysseyConfig(
    merge_threshold=1,
    min_merge_combination=2,
    merge_partition_min_hits=1,
    merge_only_converged=False,
)


def _workload(suite, n=24, seed=61):
    return list(
        generate_workload(
            suite.universe,
            suite.catalog.dataset_ids(),
            n,
            seed=seed,
            datasets_per_query=3,
            volume_fraction=5e-3,
            ranges="clustered",
            ids_distribution="heavy_hitter",
        )
    )


class TestParallelExecutor:
    def test_bit_identical_to_serial_batch(self, suite):
        workload = _workload(suite)
        serial = SpaceOdyssey(suite.fork().catalog, MERGE_CONFIG)
        parallel = SpaceOdyssey(suite.fork().catalog, MERGE_CONFIG)
        serial_result = serial.query_batch(workload)
        parallel_result = parallel.query_batch(workload, workers=4)
        assert parallel_result.results == serial_result.results  # order included
        for expected, actual in zip(serial_result.reports, parallel_result.reports):
            for field in REPORT_FIELDS + ("objects_examined",):
                assert getattr(actual, field) == getattr(expected, field)
        assert parallel_result.group_reads == serial_result.group_reads
        assert (
            parallel_result.group_reads_deduped == serial_result.group_reads_deduped
        )
        assert adaptive_state(parallel) == adaptive_state(serial)
        assert disk_files(parallel) == disk_files(serial)

    def test_cpu_seconds_match_serial_batch(self, suite):
        workload = _workload(suite, n=16)
        serial = SpaceOdyssey(suite.fork().catalog, MERGE_CONFIG)
        parallel = SpaceOdyssey(suite.fork().catalog, MERGE_CONFIG)
        serial.query_batch(workload)
        parallel.query_batch(workload, workers=3)
        # The deterministic writer phase charges CPU in submission order,
        # so the accumulated float is the identical sum.
        assert parallel.disk.stats.cpu_seconds == serial.disk.stats.cpu_seconds

    def test_workers_one_uses_serial_engine(self, suite):
        odyssey = SpaceOdyssey(suite.fork().catalog)
        tracer = odyssey.enable_tracing()
        odyssey.query_batch(_workload(suite, n=4), workers=1)
        roots = [span for span in tracer.finished() if span.name == "batch"]
        assert [span.attributes["executor"] for span in roots] == ["serial"]
        assert [span.attributes["workers"] for span in roots] == [1]

    def test_invalid_workers_rejected(self, suite):
        odyssey = SpaceOdyssey(suite.fork().catalog)
        with pytest.raises(ValueError):
            odyssey.query_batch([], workers=0)
        with pytest.raises(ValueError):
            odyssey.query_batch(_workload(suite, n=2), workers=-2)
        with pytest.raises(ValueError):
            ThreadFanOut(-2)
        assert odyssey.summary().queries_executed == 0

    def test_empty_and_single_query_batches(self, suite):
        odyssey = SpaceOdyssey(suite.fork().catalog)
        empty = odyssey.query_batch([], workers=4)
        assert len(empty) == 0 and empty.reports == []
        workload = _workload(suite, n=1)
        single = odyssey.query_batch(workload, workers=4)
        assert len(single) == 1
        assert odyssey.summary().queries_executed == 1

    def test_accepts_prebuilt_query_batch(self, suite):
        workload = _workload(suite, n=6)
        batch = QueryBatch(workload)
        odyssey = SpaceOdyssey(suite.fork().catalog)
        result = odyssey.query_batch(batch, workers=2)
        assert len(result) == 6

    def test_invalid_dataset_id_fails_before_any_work(self, suite):
        odyssey = SpaceOdyssey(suite.fork().catalog)
        workload = _workload(suite, n=4)
        bad = [(workload[0].box, (0, 99))] + [
            (q.box, q.dataset_ids) for q in workload[1:]
        ]
        with pytest.raises(KeyError):
            odyssey.query_batch(bad, workers=3)
        assert odyssey.summary().queries_executed == 0
        assert odyssey.trees == {}


class TestParallelReadSet:
    """The one read set, shared by every fan-out and both read states."""

    @pytest.fixture
    def stored_groups(self):
        disk = Disk(model=DiskModel(), buffer_pages=64)
        file = PagedFile(disk, "objs.dat", spatial_object_codec(3))
        from repro.geometry.box import Box

        universe = Box((0.0, 0.0, 0.0), (100.0, 100.0, 100.0))
        runs = [
            file.append_group(
                make_random_objects(universe, 120, dataset_id=d, seed=d)
            )
            for d in range(3)
        ]
        return file, runs

    def test_counters_match_serial_read_set(self, stored_groups):
        """An epoch page lookup that finds nothing reads exactly like live."""
        file, runs = stored_groups
        live = BatchReadSet(3)
        pinned = BatchReadSet(3, lookup=lambda name, page_no: None)
        sequence = [runs[0], runs[1], runs[0], runs[2], runs[1], runs[0]]
        for run in sequence:
            expected = live.read(file, run)
            actual = pinned.read(file, run)
            assert actual.oids.tolist() == expected.oids.tolist()
        assert pinned.group_reads == live.group_reads == len(sequence)
        assert pinned.dedup_hits == live.dedup_hits == len(sequence) - len(runs)

    def test_concurrent_reads_decode_each_group_once(self, stored_groups):
        file, runs = stored_groups
        read_set = BatchReadSet(3)
        seen = []
        barrier = threading.Barrier(6)

        def reader() -> None:
            barrier.wait(timeout=10)
            for run in runs:
                seen.append(read_set.read(file, run))

        threads = [threading.Thread(target=reader) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert read_set.group_reads == 6 * len(runs)
        assert read_set.dedup_hits == 6 * len(runs) - len(runs)
        # Every reader got the same DecodedGroup instance per stored group.
        distinct = {id(group) for group in seen}
        assert len(distinct) == len(runs)


class TestProcessExecutor:
    def _compare(self, serial_engine, process_engine, workload, workers=3):
        serial_result = serial_engine.query_batch(workload)
        process_result = process_engine.query_batch(
            workload, workers=workers, executor="process"
        )
        assert process_result.results == serial_result.results  # order included
        for expected, actual in zip(serial_result.reports, process_result.reports):
            for field in REPORT_FIELDS + ("objects_examined",):
                assert getattr(actual, field) == getattr(expected, field)
        assert process_result.group_reads == serial_result.group_reads
        assert (
            process_result.group_reads_deduped == serial_result.group_reads_deduped
        )
        assert adaptive_state(process_engine) == adaptive_state(serial_engine)
        assert disk_files(process_engine) == disk_files(serial_engine)

    def test_bit_identical_to_serial_batch(self, suite):
        """In-memory backend: workers read the shared-memory staging block."""
        workload = _workload(suite)
        serial = SpaceOdyssey(suite.fork().catalog, MERGE_CONFIG)
        process = SpaceOdyssey(suite.fork().catalog, MERGE_CONFIG)
        self._compare(serial, process, workload)

    @staticmethod
    def _filesystem_suite(tmp_path):
        from repro.data.suite import build_benchmark_suite
        from repro.storage.backend import FileSystemBackend

        return build_benchmark_suite(
            n_datasets=3,
            objects_per_dataset=250,
            seed=19,
            disk=Disk(
                backend=FileSystemBackend(tmp_path / "pages"),
                model=DiskModel(seek_time_s=1e-4),
                buffer_pages=64,
            ),
        )

    def test_bit_identical_on_filesystem_backend(self, tmp_path):
        """Filesystem backend: the parent stages the pages it read."""
        fs_suite = self._filesystem_suite(tmp_path)
        workload = _workload(fs_suite, n=16)
        serial = SpaceOdyssey(fs_suite.fork().catalog, MERGE_CONFIG)
        process = SpaceOdyssey(fs_suite.fork().catalog, MERGE_CONFIG)
        self._compare(serial, process, workload)

    def test_filesystem_reads_are_charged_like_serial(self, tmp_path):
        """Every page a process batch reads is charged, as in the serial batch."""
        fs_suite = self._filesystem_suite(tmp_path)
        workload = _workload(fs_suite, n=16)
        # No buffer pool: every page read reaches the page files.
        serial = SpaceOdyssey(fs_suite.fork(buffer_pages=0).catalog, MERGE_CONFIG)
        process = SpaceOdyssey(fs_suite.fork(buffer_pages=0).catalog, MERGE_CONFIG)
        serial.query_batch(workload)
        process.query_batch(workload, workers=3, executor="process")
        expected = serial.disk.stats_snapshot()
        actual = process.disk.stats_snapshot()
        assert actual.pages_read == expected.pages_read
        assert actual.seeks == expected.seeks
        assert actual.simulated_seconds == expected.simulated_seconds

    def test_workers_one_uses_serial_engine(self, suite):
        from repro.core import parallel as parallel_mod

        engine = SpaceOdyssey(suite.fork().catalog, MERGE_CONFIG)
        workload = _workload(suite, n=6)
        before = dict(parallel_mod._pools)
        result = engine.query_batch(workload, workers=1, executor="process")
        assert len(result.results) == len(workload)
        assert parallel_mod._pools == before  # no pool was started

    def test_snapshot_with_process_executor_rejected(self, suite):
        engine = SpaceOdyssey(suite.fork().catalog, MERGE_CONFIG)
        with pytest.raises(ValueError, match="snapshot"):
            engine.query_batch(
                _workload(suite, n=4), snapshot=True, executor="process", workers=2
            )

    def test_unknown_executor_rejected(self, suite):
        engine = SpaceOdyssey(suite.fork().catalog, MERGE_CONFIG)
        with pytest.raises(ValueError, match="executor"):
            engine.query_batch(_workload(suite, n=4), workers=2, executor="fiber")

    def test_config_default_executor(self, suite):
        """``OdysseyConfig.batch_executor`` picks the pool when executor=None."""
        from dataclasses import replace

        config = replace(MERGE_CONFIG, batch_executor="process")
        workload = _workload(suite, n=12)
        serial = SpaceOdyssey(suite.fork().catalog, MERGE_CONFIG)
        process = SpaceOdyssey(suite.fork().catalog, config)
        serial_result = serial.query_batch(workload)
        process_result = process.query_batch(workload, workers=3)
        assert process_result.results == serial_result.results
        assert adaptive_state(process) == adaptive_state(serial)
        with pytest.raises(ValueError, match="batch_executor"):
            OdysseyConfig(batch_executor="fiber")

    def test_broken_pool_falls_back_to_threads(self, suite, monkeypatch):
        """A dead pool reruns the batch on the thread executor, bit-identically."""
        from concurrent.futures.process import BrokenProcessPool

        from repro.core import parallel as parallel_mod

        class _DeadPool:
            def submit(self, *args, **kwargs):
                raise BrokenProcessPool("worker died")

        monkeypatch.setattr(
            parallel_mod, "_process_pool", lambda workers: _DeadPool()
        )
        discarded = []
        monkeypatch.setattr(parallel_mod, "_discard_pool", discarded.append)
        workload = _workload(suite)
        serial = SpaceOdyssey(suite.fork().catalog, MERGE_CONFIG)
        process = SpaceOdyssey(suite.fork().catalog, MERGE_CONFIG)
        serial_result = serial.query_batch(workload)
        process_result = process.query_batch(workload, workers=3, executor="process")
        assert discarded == [3]
        assert process_result.results == serial_result.results
        assert adaptive_state(process) == adaptive_state(serial)
        assert disk_files(process) == disk_files(serial)
