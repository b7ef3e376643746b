"""Unit tests of the batched execution engine's building blocks.

The end-to-end guarantees (batch == sequential, batch == brute force,
batch never costs more pages) live in ``test_batch_differential.py``,
``test_properties.py`` and ``test_batch_cost.py``; this module covers the
pieces in isolation: batch normalisation, the leaf snapshot cache, the
vectorized overlap search, the columnar page decode and the shared read
set's deduplication.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.adaptor import Adaptor
from repro.core.batch import BatchReadSet, QueryBatch
from repro.core.config import OdysseyConfig
from repro.core.odyssey import SpaceOdyssey
from repro.data.dataset import DatasetCatalog
from repro.data.spatial_object import spatial_object_codec, spatial_object_dtype
from repro.geometry.box import Box
from repro.workload.query import RangeQuery

from tests.conftest import make_catalog, make_dataset, make_random_objects


class TestQueryBatch:
    def test_accepts_pairs_and_range_queries(self, universe):
        box = Box.cube((50.0, 50.0, 50.0), 10.0)
        batch = QueryBatch(
            [
                (box, [2, 0]),
                RangeQuery(qid=1, box=box, dataset_ids=(1,)),
            ]
        )
        assert len(batch) == 2
        assert batch.queries[0].requested == frozenset({0, 2})
        assert batch.queries[1].requested == frozenset({1})
        assert [q.index for q in batch] == [0, 1]

    def test_rejects_empty_combinations_and_junk(self):
        box = Box.cube((1.0, 1.0, 1.0), 1.0)
        with pytest.raises(ValueError, match="requests no datasets"):
            QueryBatch([(box, [])])
        with pytest.raises(TypeError):
            QueryBatch([42])
        with pytest.raises(TypeError):
            QueryBatch([("not a box", [0])])

    def test_groups_by_combination_preserving_order(self):
        box = Box.cube((1.0, 1.0, 1.0), 1.0)
        batch = QueryBatch([(box, [0, 1]), (box, [2]), (box, [1, 0])])
        groups = batch.groups()
        assert set(groups) == {frozenset({0, 1}), frozenset({2})}
        assert [q.index for q in groups[frozenset({0, 1})]] == [0, 2]
        assert batch.combinations() == {frozenset({0, 1}), frozenset({2})}


class TestLeafSnapshot:
    def _tree(self, disk, universe, count=400):
        dataset = make_dataset(disk, universe, count=count, seed=5)
        adaptor = Adaptor(OdysseyConfig(partitions_per_level=8))
        tree = adaptor.create_tree(dataset)
        adaptor.initialize(tree)
        return tree, adaptor

    def test_snapshot_is_cached_until_structure_changes(self, disk, universe):
        tree, adaptor = self._tree(disk, universe)
        first = tree.leaf_snapshot()
        assert tree.leaf_snapshot() is first
        assert first.version == tree.version
        leaf = max(tree.leaves(), key=lambda node: node.n_objects)
        adaptor.refine(tree, leaf)
        second = tree.leaf_snapshot()
        assert second is not first
        assert second.version == tree.version > first.version
        assert len(second.leaves) == len(first.leaves) + tree.partitions_per_level - 1

    def test_snapshot_arrays_match_leaf_boxes(self, disk, universe):
        tree, _ = self._tree(disk, universe)
        snapshot = tree.leaf_snapshot()
        assert snapshot.lo.shape == (len(snapshot.leaves), universe.dimension)
        for row, leaf in enumerate(snapshot.leaves):
            assert tuple(snapshot.lo[row]) == leaf.box.lo
            assert tuple(snapshot.hi[row]) == leaf.box.hi

    def test_batch_search_matches_scalar_search_and_order(self, disk, universe):
        tree, adaptor = self._tree(disk, universe)
        queries = [
            Box.cube((25.0, 25.0, 25.0), 30.0),
            Box.cube((80.0, 10.0, 60.0), 5.0),
            universe,
            Box((10.0, 10.0, 10.0), (10.0, 10.0, 10.0)),  # degenerate point
        ]
        # Refine a few leaves so the tree has mixed depths.
        for leaf in list(tree.leaves())[:3]:
            if leaf.n_objects:
                adaptor.refine(tree, leaf)
        batched = tree.leaves_overlapping_batch(queries)
        for box, leaves in zip(queries, batched):
            scalar = tree.leaves_overlapping(box)
            assert [l.key for l in leaves] == [l.key for l in scalar]

    def test_uninitialised_tree_raises(self, disk, universe):
        dataset = make_dataset(disk, universe, count=10, seed=1)
        tree = Adaptor(OdysseyConfig(partitions_per_level=8)).create_tree(dataset)
        with pytest.raises(RuntimeError):
            tree.leaf_snapshot()
        with pytest.raises(RuntimeError):
            tree.leaves_overlapping_batch([Box.cube((1.0, 1.0, 1.0), 1.0)])


class TestColumnarDecode:
    def test_dtype_layout_matches_codec(self):
        codec = spatial_object_codec(3)
        dtype = spatial_object_dtype(3)
        assert dtype.itemsize == codec.record_size
        objects = make_random_objects(Box.unit(3), 5, dataset_id=7, seed=2)
        packed = b"".join(codec.pack(obj) for obj in objects)
        decoded = np.frombuffer(packed, dtype=dtype)
        for row, obj in zip(decoded, objects):
            assert int(row["oid"]) == obj.oid
            assert int(row["dataset_id"]) == obj.dataset_id
            assert tuple(row["lo"]) == obj.box.lo
            assert tuple(row["hi"]) == obj.box.hi

    def test_read_set_roundtrips_and_dedupes(self, disk, universe):
        dataset = make_dataset(disk, universe, count=150, seed=9)
        adaptor = Adaptor(OdysseyConfig(partitions_per_level=8))
        tree = adaptor.create_tree(dataset)
        adaptor.initialize(tree)
        read_set = BatchReadSet(universe.dimension)
        leaf = max(tree.leaves(), key=lambda node: node.n_objects)
        group = read_set.read(tree.file, leaf.run)
        expected = tree.read_partition(leaf)
        assert group.n_records == len(expected)
        materialized = group.materialize(np.ones(group.n_records, dtype=bool))
        assert materialized == expected
        pages_before = disk.stats.pages_read
        again = read_set.read(tree.file, leaf.run)
        assert again is group
        assert disk.stats.pages_read == pages_before
        assert read_set.group_reads == 2
        assert read_set.dedup_hits == 1


class TestQueryBatchExecution:
    def _odyssey(self, disk, universe, n_datasets=3):
        catalog = make_catalog(disk, universe, n_datasets=n_datasets, count=250)
        return SpaceOdyssey(catalog, OdysseyConfig(partitions_per_level=8))

    def test_empty_batch_is_a_noop(self, disk, universe):
        odyssey = self._odyssey(disk, universe)
        result = odyssey.query_batch([])
        assert len(result) == 0
        assert result.reports == []
        assert odyssey.summary().queries_executed == 0

    def test_single_query_batch_equals_sequential(self, disk, universe, model):
        from repro.storage.disk import Disk

        box = Box.cube((40.0, 40.0, 40.0), 25.0)
        seq_disk = Disk(model=model, buffer_pages=0)
        seq = self._odyssey(seq_disk, universe)
        expected = seq.query(box, [0, 2])

        odyssey = self._odyssey(disk, universe)
        result = odyssey.query_batch([(box, [0, 2])])
        assert len(result) == 1
        assert result[0] == expected
        assert result.hit_counts() == [len(expected)]
        assert result.total_results() == len(expected)
        report = result.reports[0]
        assert report.results == len(expected)
        assert report.requested == (0, 2)
        assert odyssey.last_report is report
        assert odyssey.summary().queries_executed == 1

    def test_duplicate_queries_share_page_reads(self, disk, universe):
        odyssey = self._odyssey(disk, universe)
        box = Box.cube((50.0, 50.0, 50.0), 30.0)
        result = odyssey.query_batch([(box, [0, 1]), (box, [0, 1]), (box, [0, 1])])
        assert result.group_reads_deduped > 0
        assert result.hit_counts()[0] == result.hit_counts()[1] == result.hit_counts()[2]
        keys = [{obj.key() for obj in hits} for hits in result.results]
        assert keys[0] == keys[1] == keys[2]

    def test_unknown_dataset_id_fails_before_any_state_change(self, disk, universe):
        odyssey = self._odyssey(disk, universe)
        box = Box.cube((10.0, 10.0, 10.0), 5.0)
        with pytest.raises(KeyError):
            odyssey.query_batch([(box, [0]), (box, [99])])
        # The failing batch must not have executed its valid prefix.
        assert odyssey.summary().queries_executed == 0
        assert odyssey.trees == {}

    def test_workload_object_is_accepted(self, disk, universe):
        from repro.bench.runner import generate_workload

        odyssey = self._odyssey(disk, universe)
        workload = generate_workload(
            universe,
            odyssey.catalog.dataset_ids(),
            6,
            seed=4,
            datasets_per_query=2,
            volume_fraction=1e-2,
        )
        result = odyssey.query_batch(workload)
        assert len(result) == 6
        assert odyssey.summary().queries_executed == 6


_MERGE_CONFIG = OdysseyConfig(
    merge_threshold=1,
    min_merge_combination=2,
    merge_partition_min_hits=1,
    merge_only_converged=False,
)


def _clustered_workload(suite, n, seed):
    from repro.bench.runner import generate_workload

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


class TestReadPlans:
    def test_empty_merge_segments_are_not_read(self, suite, monkeypatch):
        """A merge-routed batch reads only its non-empty segments and runs."""
        from repro.storage.pagedfile import PagedFile

        workload = _clustered_workload(suite, 30, seed=61)
        engine = SpaceOdyssey(suite.catalog, _MERGE_CONFIG)
        for query in workload:
            engine.query(query.box, query.dataset_ids)
        empty_segments = [
            run
            for info in engine.merge_directory.all_files()
            for per_dataset in info.entries.values()
            for run in per_dataset.values()
            if run.n_records == 0
        ]
        assert empty_segments, "the scenario must hold empty merge segments"

        loaded = []
        original = PagedFile.read_group_array_at

        def spy(file, run, lookup):
            loaded.append(run)
            return original(file, run, lookup)

        monkeypatch.setattr(PagedFile, "read_group_array_at", spy)
        prepared = engine.prepare_batch(workload)
        monkeypatch.undo()
        result = engine.commit_batch(prepared)
        assert any(report.partitions_from_merge for report in result.reports)
        assert loaded and all(run.n_records > 0 for run in loaded)
        # group_reads counts exactly the non-empty plan entries: the
        # distinct groups loaded plus the reads the dedup served.
        assert result.group_reads == len(loaded) + result.group_reads_deduped


class TestPreparedBatchCommit:
    def _engine_state(self, engine):
        stats = engine.disk.stats_snapshot()
        return engine.summary(), stats.cpu_seconds, stats.pages_written

    def test_second_commit_is_rejected(self, suite):
        engine = SpaceOdyssey(suite.catalog, _MERGE_CONFIG)
        prepared = engine.prepare_batch(_clustered_workload(suite, 4, seed=3))
        engine.commit_batch(prepared)
        before = self._engine_state(engine)
        epoch = engine.epochs.current
        with pytest.raises(ValueError, match="already committed"):
            engine.commit_batch(prepared)
        assert self._engine_state(engine) == before
        assert engine.summary().queries_executed == 4
        assert engine.epochs.current is epoch

    def test_commit_on_another_engine_is_rejected(self, suite):
        preparer = SpaceOdyssey(suite.fork().catalog, _MERGE_CONFIG)
        other = SpaceOdyssey(suite.fork().catalog, _MERGE_CONFIG)
        prepared = preparer.prepare_batch(_clustered_workload(suite, 4, seed=3))
        preparer_before = self._engine_state(preparer)
        other_before = self._engine_state(other)
        with pytest.raises(ValueError, match="engine that prepared it"):
            other.commit_batch(prepared)
        assert self._engine_state(other) == other_before
        assert self._engine_state(preparer) == preparer_before
        # The batch is still committable where it belongs.
        assert len(preparer.commit_batch(prepared)) == 4
        assert preparer.summary().queries_executed == 4
