"""Configuration of Space Odyssey.

The defaults are the parameters used in the paper's evaluation
(Section 4.1): refinement threshold ``rt = 4``, ``ppl = 64`` partitions per
level, merging threshold ``mt = 2``, and merging only for combinations of at
least three datasets (Section 3.2.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class OdysseyConfig:
    """Tunable parameters of the Space Odyssey engine.

    Parameters
    ----------
    refinement_threshold:
        ``rt`` — a partition hit by a query is refined one level when the
        ratio of partition volume to query volume exceeds this threshold.
    partitions_per_level:
        ``ppl`` — how many children a partition is split into.  Must be a
        perfect ``dimension``-th power (e.g. 8 or 64 in 3-D, 4 or 16 in
        2-D); the paper uses 64 to speed up convergence over a plain
        Octree's 8.
    merge_threshold:
        ``mt`` — a combination of datasets becomes a merge candidate once
        it has been retrieved strictly more than this many times.
    min_merge_combination:
        Minimum combination size ``|C|`` eligible for merging; the paper
        merges only combinations of three or more datasets.
    merge_space_budget_pages:
        Maximum number of disk pages all merge files may occupy together;
        least-recently-used merge files are dropped when exceeded.
        ``None`` means unbounded.
    enable_merging:
        Master switch for the merging machinery (Figure 5c runs Space
        Odyssey with merging disabled to isolate its effect).
    refine_levels_per_query:
        How many levels a hit partition may be refined per query.  The
        paper refines one level per query; larger values converge faster at
        a higher per-query cost (useful for ablations).
    max_depth:
        Safety bound on partition-tree depth, preventing runaway
        refinement for degenerate query volumes.
    merge_partition_min_hits:
        A partition is copied into a merge file only after it has been
        retrieved by at least this many queries of the combination.  This
        (together with ``merge_only_converged``) is our answer to the
        paper's open issue on merging partitions at the right moment: it
        stops the merger from copying partitions that were touched once in
        passing and never again.  Set to 1 for the paper's plain behaviour
        of merging every retrieved partition.
    merge_only_converged:
        When true, a partition is merged only once it is no longer a
        refinement candidate for this combination's typical query volume
        (``V_partition <= rt * avg(V_query)``).  This avoids copying large
        unconverged partitions whose copies would immediately be
        superseded by refined originals (another of the paper's open
        issues).
    adaptive_merge_threshold:
        When true, the merger uses the cost model of
        :mod:`repro.core.cost` to adapt the merge threshold at run time
        (the paper lists this as future work; disabled by default).
    columnar:
        Implementation switch, not a paper parameter: when true (the
        default) the engine runs its columnar-native hot path — pages
        decode into NumPy structured arrays, query filtering and partition
        assignment are vectorized masks, and partition/merge files are
        written straight from arrays.  When false the engine runs the
        original per-record scalar path.  Both paths are bit-identical in
        results, reports and on-disk bytes (the differential oracle in
        ``tests/test_columnar_differential.py`` enforces this); the scalar
        path is kept as the reference implementation and performance
        baseline.
    snapshot_reads:
        Implementation switch, not a paper parameter: when true (the
        default) the engine maintains MVCC-style epoch snapshots
        (:mod:`repro.core.epoch`) — every adaptation publishes a new
        immutable ``EngineEpoch`` and destructive page writes retain
        pre-images for pinned readers, enabling
        ``query_batch(..., snapshot=True)`` and the serving frontend's
        pipelined dispatch (the read phase of batch N+1 overlaps the
        writer phase of batch N).  Epoch bookkeeping changes no charged
        I/O, no results and no on-disk bytes; set to false to strip the
        machinery entirely (snapshot reads then raise ``RuntimeError``).
    batch_executor:
        Implementation switch, not a paper parameter: the default executor
        ``query_batch(..., workers=K)`` fans out on when no per-call
        ``executor=`` is given.  ``"thread"`` (the default) runs the
        thread-pool fan-out; ``"process"`` runs the process-pool fan-out
        (:class:`~repro.core.parallel.ProcessFanOut`) whose workers
        decode and filter pages staged in shared memory, outside the
        GIL.  Both are bit-identical to the serial batch engine in
        results, reports, adaptive state and on-disk bytes (enforced by
        ``tests/test_engine_fuzz.py``).
    """

    refinement_threshold: float = 4.0
    partitions_per_level: int = 64
    merge_threshold: int = 2
    min_merge_combination: int = 3
    merge_space_budget_pages: int | None = None
    enable_merging: bool = True
    refine_levels_per_query: int = 1
    max_depth: int = 16
    merge_partition_min_hits: int = 2
    merge_only_converged: bool = True
    adaptive_merge_threshold: bool = False
    columnar: bool = True
    snapshot_reads: bool = True
    batch_executor: str = "thread"

    def __post_init__(self) -> None:
        if self.refinement_threshold <= 0:
            raise ValueError("refinement_threshold must be positive")
        if self.partitions_per_level < 2:
            raise ValueError("partitions_per_level must be >= 2")
        if self.merge_threshold < 0:
            raise ValueError("merge_threshold must be non-negative")
        if self.min_merge_combination < 1:
            raise ValueError("min_merge_combination must be >= 1")
        if self.merge_space_budget_pages is not None and self.merge_space_budget_pages < 1:
            raise ValueError("merge_space_budget_pages must be >= 1 or None")
        if self.refine_levels_per_query < 0:
            raise ValueError("refine_levels_per_query must be non-negative")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.merge_partition_min_hits < 1:
            raise ValueError("merge_partition_min_hits must be >= 1")
        if self.batch_executor not in ("thread", "process"):
            raise ValueError("batch_executor must be 'thread' or 'process'")

    def splits_per_dimension(self, dimension: int) -> int:
        """Per-dimension split count such that ``splits**dimension == ppl``.

        Raises ``ValueError`` when ``partitions_per_level`` is not a perfect
        ``dimension``-th power, because the space-oriented splitting must be
        regular along every axis.
        """
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        splits = round(self.partitions_per_level ** (1.0 / dimension))
        for candidate in (splits - 1, splits, splits + 1):
            if candidate >= 2 and candidate**dimension == self.partitions_per_level:
                return candidate
        raise ValueError(
            f"partitions_per_level={self.partitions_per_level} is not a perfect "
            f"{dimension}-th power of an integer >= 2"
        )

    def queries_to_full_refinement(
        self, partition_volume: float, query_volume: float
    ) -> int:
        """The paper's convergence formula: ``log_ppl(Vp / (Vq * rt))``.

        Number of queries that must hit a partition of volume
        ``partition_volume`` before it is refined down to (roughly) the
        query volume, given the refinement threshold.
        """
        if partition_volume <= 0 or query_volume <= 0:
            raise ValueError("volumes must be positive")
        ratio = partition_volume / (query_volume * self.refinement_threshold)
        if ratio <= 1:
            return 0
        return math.ceil(math.log(ratio, self.partitions_per_level))

    def without_merging(self) -> "OdysseyConfig":
        """A copy of this configuration with merging disabled (Figure 5c)."""
        from dataclasses import replace

        return replace(self, enable_merging=False)
