"""The benchmark's correctness oracle.

Every answer the engine returns during a run is checked against a NumPy
mask over the raw records, outside the timed region.  The raw records are
loaded once per run with ``PagedFile.scan_arrays``.  ``BruteForceScan``
stays the reference, but it costs a full scan per query, so the
benchmark's own tests check this oracle against it on a sample instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def object_keys(hits) -> np.ndarray:
    """The ``(dataset_id, oid)`` identities of an answer, packed as int64."""
    return np.fromiter(
        ((obj.dataset_id << 32) | obj.oid for obj in hits),
        dtype=np.int64,
        count=len(hits),
    )


class RawOracle:
    """Answers range queries with one vectorized mask per dataset."""

    def __init__(self, catalog) -> None:
        self._columns: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        for dataset in catalog.datasets():
            records = np.concatenate(list(dataset.file.scan_arrays()))
            dimension = dataset.dimension
            self._columns[dataset.dataset_id] = (
                (np.int64(dataset.dataset_id) << 32) | records["oid"].astype(np.int64),
                records["lo"].reshape(-1, dimension),
                records["hi"].reshape(-1, dimension),
            )

    def keys(self, box, dataset_ids) -> np.ndarray:
        """The sorted keys of every raw record the closed ``box`` intersects."""
        q_lo = np.asarray(box.lo, dtype=np.float64)
        q_hi = np.asarray(box.hi, dtype=np.float64)
        parts = []
        for dataset_id in dataset_ids:
            keys, lo, hi = self._columns[dataset_id]
            parts.append(keys[((lo <= q_hi) & (q_lo <= hi)).all(axis=1)])
        return np.sort(np.concatenate(parts)) if parts else np.empty(0, np.int64)


@dataclass
class AnswerCheck:
    """Counts operations and the ones that failed, with the first reasons.

    An operation fails when it raised, was refused, or returned an answer
    whose ``(dataset_id, oid)`` set differs from the oracle's (a duplicate
    hit counts as a difference).
    """

    oracle: RawOracle
    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)
    _expected: dict = field(default_factory=dict, repr=False)

    def _fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(reason)

    def record_error(self, what: str, error: BaseException) -> None:
        """Count one attempted operation that raised or was refused."""
        self.attempted += 1
        self._fail(f"{what}: {type(error).__name__}: {error}")

    def expected(self, box, dataset_ids) -> np.ndarray:
        """The oracle's answer, memoised per distinct query."""
        key = (box.lo, box.hi, tuple(dataset_ids))
        keys = self._expected.get(key)
        if keys is None:
            keys = self._expected[key] = self.oracle.keys(box, dataset_ids)
        return keys

    def answer_ok(self, box, dataset_ids, hits) -> bool:
        """Whether one query's hits equal the oracle's answer as a set."""
        got = np.sort(object_keys(hits))
        return np.array_equal(got, self.expected(box, dataset_ids))

    def check(self, what: str, queries, answers) -> bool:
        """Count one operation answering ``queries``; fail it on any mismatch."""
        self.attempted += 1
        for (box, dataset_ids), hits in zip(queries, answers):
            if not self.answer_ok(box, dataset_ids, hits):
                self._fail(f"{what}: wrong answer for datasets {tuple(dataset_ids)}")
                return False
        return True

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
