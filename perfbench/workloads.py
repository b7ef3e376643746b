"""The benchmark's four workloads, driven through the engine's public API.

All four share the ``small`` preset's data geometry: ten synthetic
neuroscience datasets of 10,000 objects each from generator seed 7, on
the preset's simulated disk model.  The workload seed picks the query
sequences only.  Every workload runs the engine with its defaults (the
serial batch executor and ``OdysseyConfig()``), and one process produces
the load.

* ``explore`` — the paper's path: fresh engines answer clustered zipf
  query sequences through ``query()``, with a buffer pool smaller than the
  pages the run creates.
* ``steady_read`` — the converged read path: uniform queries over pairs
  of datasets (below the merge minimum) through ``query_batch`` chunks,
  with a buffer pool larger than every page.
* ``serve`` — ``steady_read``'s converged state and queries offered open
  loop to ``SpaceOdyssey.serve()`` at a fixed rate.
* ``durable`` — ``explore``'s query stream on a filesystem backend with
  the manifest journal on, then one timed ``SpaceOdyssey.recover``.

A *unit* is the piece of work a workload repeats until the measured time
is used up: one query sequence from a fresh engine (``explore``,
``durable``), one pass over the query set (``steady_read``), one served
window (``serve``).  A traced run measures one unit untraced and then
the same unit traced.

Set-ups and the closed-loop operations of ``explore``, ``steady_read``
and ``durable`` are timed in segments, and each segment's times are
scaled to a reference host speed (``perfbench/hostspeed.py``), so that
other tenants of a shared host do not move the medians.  ``serve``'s
operation times are reported as measured: they are mostly its fixed
arrival schedule and batching deadline, which do not scale with the
host.  Traced runs report every time as measured.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from repro import (
    ClusteredRangeGenerator,
    CombinationGenerator,
    Disk,
    OdysseyConfig,
    SpaceOdyssey,
    UniformRangeGenerator,
    WorkloadBuilder,
    build_benchmark_suite,
)
from repro.bench.scales import get_scale
from repro.storage.backend import FileSystemBackend

from perfbench.hostspeed import HostClock
from perfbench.oracle import AnswerCheck, RawOracle
from perfbench.tracing import (
    PER_LAYER,
    SPAN_NAMES,
    SpanRecorder,
    TracedUnit,
    layer_metrics,
    traced,
)

WORKLOADS = ("explore", "steady_read", "serve", "durable")

#: The seed a performance claim is developed on, and the held-out seed on
#: which it must also hold.
DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017

#: The percentile each workload reports as ``latency_tail_ms``.  It leaves
#: at least ten samples beyond it in the smallest sample a run takes (see
#: ``Profile.min_samples``).  ``explore`` (p99 of 1,050), ``steady_read``
#: (p96.5 of 288) and ``durable`` (p98 of 900) use the highest such
#: percentile.  ``serve`` reports p90: in its open loop a garbage-collector
#: pause of 30-160 ms queues every arrival behind it, and the number of
#: samples beyond p95 swings from run to run (a spread across five seeds
#: of 66% at p99).
TAIL_PERCENTILE = {"explore": 99.0, "steady_read": 96.5, "serve": 90.0, "durable": 98.0}

#: A ``serve`` run is invalid when the submitter's p99 lateness exceeds this.
LATENESS_BOUND_MS = 150.0

#: Timed work is cut into segments of this many operations, with a host
#: probe after each (see ``perfbench/hostspeed.py``): ``query()`` calls on
#: ``explore`` and ``durable`` (about 0.1-0.25 s), ``query_batch`` calls on
#: ``steady_read`` (about 0.3 s).  With 50 ``query()`` calls per segment
#: the scaled ``explore`` p50 of one sequence run again and again spread
#: by 0.085; with 20, by 0.034.
SEQUENCE_SEGMENT = 20
PASS_SEGMENT = 8


@dataclass(frozen=True)
class Profile:
    """Sizes of one benchmark configuration (tests use a smaller one)."""

    explore_queries: int = 350
    explore_sequences: int = 3  # distinct query sequences per run
    explore_buffer_pages: int = 512  # < the ~8,000 pages a sequence leaves
    steady_queries: int = 1024
    steady_min_passes: int = 9
    batch_size: int = 32
    steady_buffer_pages: int = 16_384  # > every page the state holds
    serve_rate_qps: float = 100.0
    serve_min_windows: int = 2  # each ``seconds`` long
    durable_queries: int = 300
    durable_sequences: int = 3
    setups: int = 2  # per run, on every workload; setup_s is their median
    n_datasets: int | None = None  # None: the small preset's values
    objects_per_dataset: int | None = None

    def geometry(self) -> dict:
        scale = get_scale("small")
        return {
            "n_datasets": self.n_datasets or scale.n_datasets,
            "objects_per_dataset": self.objects_per_dataset or scale.objects_per_dataset,
            "seed": scale.seed,
            "model": scale.disk_model(),
        }

    def min_samples(self, workload: str, seconds: float) -> int:
        """The fewest latency samples a run of ``workload`` takes."""
        if workload == "explore":
            return self.explore_queries * self.explore_sequences
        if workload == "steady_read":
            return self.steady_min_passes * -(-self.steady_queries // self.batch_size)
        if workload == "serve":
            return serve_arrivals(self, seconds) * self.serve_min_windows
        return self.durable_queries * self.durable_sequences


FULL = Profile()


def serve_arrivals(profile: Profile, seconds: float) -> int:
    return max(1, round(profile.serve_rate_qps * seconds))


# ---------------------------------------------------------------------- #
# Results
# ---------------------------------------------------------------------- #


@dataclass
class RunResult:
    workload: str
    seed: int
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]  # name -> (value, unit)
    notes: list[str] = field(default_factory=list)
    report: dict[str, float] = field(default_factory=dict)  # extra printed figures

    def to_json(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


def _percentile(samples, percentile: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=np.float64), percentile))


def _rss_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _bytes_on_disk(disk: Disk) -> int:
    return sum(disk.file_size_bytes(name) for name in disk.list_files())


def _raw_bytes(catalog) -> int:
    disk = catalog.datasets()[0].disk
    return sum(disk.file_size_bytes(d.file.name) for d in catalog.datasets())


@dataclass
class _Context:
    """What every workload function receives."""

    profile: Profile
    seed: int
    seconds: float
    trace: bool
    root: Path  # the checkout root; all files stay under it
    notes: list[str] = field(default_factory=list)
    valid: bool = True
    host: HostClock = field(default_factory=HostClock)

    def invalid(self, note: str) -> None:
        self.valid = False
        self.notes.append("INVALID: " + note)

    @property
    def out_dir(self) -> Path:
        path = self.root / ".perfbench_out"
        path.mkdir(exist_ok=True)
        return path


# ---------------------------------------------------------------------- #
# Inputs
# ---------------------------------------------------------------------- #


def _sub_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def explore_queries(suite, profile: Profile, seed: int, index: int) -> list:
    """Clustered 1e-4 windows around the microcircuit centres, zipf 3-of-N."""
    sub = _sub_seed(seed, index)
    centers = suite.generator.microcircuit_centers
    ranges = ClusteredRangeGenerator(
        suite.universe,
        volume_fraction=1e-4,
        seed=sub,
        n_cluster_centers=len(centers),
        cluster_centers=centers,
    )
    combinations = CombinationGenerator(
        dataset_ids=suite.catalog.dataset_ids(),
        datasets_per_query=3,
        distribution="zipf",
        seed=sub + 1,
    )
    workload = WorkloadBuilder(ranges, combinations).build(profile.explore_queries)
    return [(query.box, query.dataset_ids) for query in workload]


def steady_queries(suite, profile: Profile, seed: int) -> list:
    """Uniform 5e-3 windows over uniform pairs of datasets."""
    sub = _sub_seed(seed, 0)
    ranges = UniformRangeGenerator(suite.universe, volume_fraction=5e-3, seed=sub)
    combinations = CombinationGenerator(
        dataset_ids=suite.catalog.dataset_ids(),
        datasets_per_query=2,
        distribution="uniform",
        seed=sub + 1,
    )
    workload = WorkloadBuilder(ranges, combinations).build(profile.steady_queries)
    return [(query.box, query.dataset_ids) for query in workload]


def _generate(profile: Profile, buffer_pages: int, disk: Disk | None = None):
    geometry = profile.geometry()
    return build_benchmark_suite(
        n_datasets=geometry["n_datasets"],
        objects_per_dataset=geometry["objects_per_dataset"],
        seed=geometry["seed"],
        buffer_pages=buffer_pages,
        model=geometry["model"],
        disk=disk,
    )


def _timed_setups(host: HostClock, repeats: int, setup) -> tuple[float, object]:
    """Run ``setup(i)`` ``repeats`` times; the median scaled time and the last result."""
    times = []
    result = None
    for i in range(repeats):
        result = None
        gc.collect()
        host.start()
        start = time.perf_counter()
        result = setup(i)
        elapsed = time.perf_counter() - start
        times.append(elapsed * host.scale())
    return statistics.median(times), result


def _merger_counts(engine: SpaceOdyssey) -> tuple[int, int, int]:
    merger = engine.merger
    return merger.merges_performed, merger.partitions_merged, merger.evictions


def _since(now: tuple, before: tuple) -> tuple:
    return tuple(a - b for a, b in zip(now, before))


def _structure(engine: SpaceOdyssey) -> dict:
    summary = asdict(engine.summary())
    summary.pop("queries_executed")
    return summary


# ---------------------------------------------------------------------- #
# Repeat checks
# ---------------------------------------------------------------------- #


def _code_hash(root: Path) -> str:
    digest = hashlib.sha1()
    sources = [*(root / "src" / "repro").rglob("*.py"), *(root / "perfbench").glob("*.py")]
    for path in sorted(sources):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class RepeatLedger:
    """Counts that must repeat exactly for the same code, input and seed.

    Within a run the ledger compares repeated units; across runs it
    compares against ``.perfbench_out/repeat_counts.json``.
    """

    def __init__(self, ctx: _Context) -> None:
        self._ctx = ctx
        self._path = ctx.out_dir / "repeat_counts.json"
        profile = hashlib.sha1(repr(ctx.profile).encode()).hexdigest()[:8]
        self._prefix = f"{_code_hash(ctx.root)}/{profile}"
        try:
            self._stored = json.loads(self._path.read_text())
        except (OSError, ValueError):
            self._stored = {}

    def check(self, key: str, counts: dict) -> None:
        full_key = f"{self._prefix}/{key}"
        previous = self._stored.get(full_key)
        if previous is None:
            self._stored[full_key] = counts
        elif previous != counts:
            self._ctx.invalid(f"counts of {key} did not repeat: {previous} != {counts}")

    def save(self) -> None:
        tmp = self._path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self._stored, indent=0, sort_keys=True))
        os.replace(tmp, self._path)


# ---------------------------------------------------------------------- #
# Sequence units (explore, durable)
# ---------------------------------------------------------------------- #


@dataclass
class SequenceUnit:
    index: int  # which query sequence
    wall_s: float
    latencies_ms: list[float]
    sim_s: float
    pages_read: int
    pages_written: int
    merges: int
    space_amp: float
    recover_s: float = 0.0
    traced: dict | None = None


def _run_sequence(
    engine: SpaceOdyssey,
    queries: list,
    check: AnswerCheck,
    recorder: SpanRecorder | None,
    host: HostClock,
) -> tuple[float, list[float], list, list]:
    """Answer ``queries`` one ``query()`` call at a time; check afterwards.

    The wall time and latencies come back scaled to the reference host
    speed, segment by segment.
    """
    latencies: list[float] = []
    answers: list = []
    reports: list = []
    clock = time.perf_counter
    wall = 0.0
    host.start()
    for first in range(0, len(queries), SEQUENCE_SEGMENT):
        segment: list[float] = []
        start = clock()
        for qid in range(first, min(first + SEQUENCE_SEGMENT, len(queries))):
            box, dataset_ids = queries[qid]
            if recorder is not None:
                recorder.set_qid(qid)
            began = clock()
            try:
                hits = engine.query(box, dataset_ids)
            except Exception as error:  # a failed operation, counted, not fatal
                segment.append((clock() - began) * 1e3)
                answers.append(error)
                continue
            segment.append((clock() - began) * 1e3)
            answers.append(hits)
            if recorder is not None:
                reports.append(engine.last_report)
        elapsed = clock() - start
        factor = host.scale()
        wall += elapsed * factor
        latencies.extend(latency * factor for latency in segment)
    for (box, dataset_ids), hits in zip(queries, answers):
        if isinstance(hits, Exception):
            check.record_error("query", hits)
        else:
            check.check("query", [(box, dataset_ids)], [hits])
    return wall, latencies, answers, reports


def _sequence_unit(
    master,
    queries: list,
    index: int,
    check: AnswerCheck,
    *,
    host: HostClock,
    journal_dir: Path | None = None,
    recover: bool = False,
    recorder: SpanRecorder | None = None,
) -> SequenceUnit:
    """One query sequence from a fresh engine on a fresh copy of the raw files.

    ``host`` scales the unit's times (a disabled clock leaves them as
    measured).  With ``journal_dir`` the engine journals every commit;
    with ``recover`` the unit then times ``SpaceOdyssey.recover`` on that
    journal and checks that the recovered state equals the engine's.
    """
    fork = master.fork()
    raw = _raw_bytes(fork.catalog)
    journal = None
    if journal_dir is not None:
        journal = Path(tempfile.mkstemp(prefix="journal-", suffix=".log", dir=journal_dir)[1])
        journal.unlink()
    engine = SpaceOdyssey(fork.catalog, journal=journal)
    merges0 = _merger_counts(engine)
    io0 = fork.disk.stats_snapshot()
    buffer0 = fork.disk.buffer_pool.counters()
    gc.collect()
    region_start = time.perf_counter()
    with _maybe_traced(recorder):
        wall, latencies, answers, reports = _run_sequence(
            engine, queries, check, recorder, host
        )
    region_end = time.perf_counter()
    io = fork.disk.stats_snapshot().delta_since(io0)
    space = _bytes_on_disk(fork.disk) + (journal.stat().st_size if journal else 0)
    recover_s = 0.0
    recovered = None
    recovery = None
    if recover:
        if recorder is not None:
            recovery = SpanRecorder(recorder.min_merge_combination)
        with _maybe_traced(recovery):
            host.start()
            started = time.perf_counter()
            try:
                recovered = SpaceOdyssey.recover(journal)
            except Exception as error:
                check.record_error("recover", error)
            recover_s = (time.perf_counter() - started) * host.scale()
    if recovered is not None:
        check.attempted += 1
        if _structure(recovered) != _structure(engine):
            check.failed += 1
            check.reasons.append("recover: recovered state differs from the engine's")
    unit = SequenceUnit(
        index=index,
        wall_s=wall,
        latencies_ms=latencies,
        sim_s=io.simulated_seconds,
        pages_read=io.pages_read,
        pages_written=io.pages_written,
        merges=_since(_merger_counts(engine), merges0)[0],
        space_amp=space / raw,
        recover_s=recover_s,
    )
    if recorder is not None:
        hits = sum(len(a) for a in answers if not isinstance(a, Exception))
        unit.traced = {
            "region": (region_start, region_end),
            "io": io,
            "buffer": fork.disk.buffer_pool.counters().delta_since(buffer0),
            "hits": hits,
            "queries": len(queries),
            "examined": sum(r.objects_examined for r in reports),
            "merge_routed": sum(r.used_merge_file for r in reports),
            "merger": _since(_merger_counts(engine), merges0),
            "recovery": recovery,
        }
    del engine
    if journal is not None:
        shutil.rmtree(fork.disk.backend.root, ignore_errors=True)
        journal.unlink(missing_ok=True)
    return unit


@contextmanager
def _maybe_traced(recorder: SpanRecorder | None):
    if recorder is None:
        yield
    else:
        with traced(recorder):
            yield


def _sequence_workload(ctx: _Context, name: str) -> RunResult:
    profile = ctx.profile
    durable = name == "durable"
    n_sequences = profile.durable_sequences if durable else profile.explore_sequences
    work_dir = ctx.root / ".perfbench_tmp" / f"{name}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        with _temp_dir(work_dir):
            def setup(i: int):
                disk = None
                if durable:
                    disk = Disk(
                        backend=FileSystemBackend(work_dir / f"raw-{i}"),
                        model=profile.geometry()["model"],
                        buffer_pages=profile.explore_buffer_pages,
                    )
                suite = _generate(profile, profile.explore_buffer_pages, disk)
                journal = work_dir / f"setup-journal-{i}.log" if durable else None
                SpaceOdyssey(suite.fork().catalog, journal=journal)
                return suite

            setup_s, master = _timed_setups(ctx.host, profile.setups, setup)
            queries = explore_queries(master, profile, ctx.seed, 0)
            if durable:
                queries = queries[: profile.durable_queries]
            sequences = [queries] + [
                explore_queries(master, profile, ctx.seed, i)[: len(queries)]
                for i in range(1, n_sequences)
            ]
            check = AnswerCheck(RawOracle(master.catalog))
            journal_dir = work_dir if durable else None
            ledger = RepeatLedger(ctx)

            def unit(i: int, recorder=None, recover=False) -> SequenceUnit:
                k = i % n_sequences
                result = _sequence_unit(
                    master, sequences[k], k, check, host=ctx.host,
                    journal_dir=journal_dir, recover=recover, recorder=recorder,
                )
                ledger.check(
                    f"{name}/{ctx.seed}/{k}",
                    {
                        "sim_s": round(result.sim_s, 9),
                        "pages_read": result.pages_read,
                        "pages_written": result.pages_written,
                        "merges": result.merges,
                    },
                )
                return result

            if ctx.trace:
                plain = unit(0)
                recorder = SpanRecorder(OdysseyConfig().min_merge_combination)
                traced_unit = unit(0, recorder, recover=durable)
                ledger.save()
                return _traced_result(ctx, name, check, recorder, traced_unit, plain.wall_s)

            units: list[SequenceUnit] = []
            started = time.perf_counter()
            while len(units) < n_sequences or time.perf_counter() - started < ctx.seconds:
                # Recovery replays the whole sequence, so one per run.
                units.append(unit(len(units), recover=durable and not units))
            ledger.save()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    def per_sequence(attribute: str) -> float:
        """Median over each sequence's repeats, then the mean over sequences."""
        return statistics.fmean(
            statistics.median(getattr(u, attribute) for u in units if u.index == k)
            for k in range(n_sequences)
        )

    latencies = [value for u in units for value in u.latencies_ms]
    tail = TAIL_PERCENTILE[name]
    result = _result(
        ctx,
        name,
        check,
        setup_s=setup_s,
        wall_s=per_sequence("wall_s"),
        latencies=latencies,
        tail=tail,
        sim_s=per_sequence("sim_s"),
        space_amp=per_sequence("space_amp"),
    )
    result.report.update(
        {
            "units": len(units),
            "merges_per_sequence": per_sequence("merges"),
            "pages_read_per_sequence": per_sequence("pages_read"),
            "pages_written_per_sequence": per_sequence("pages_written"),
        }
    )
    if durable:
        result.report["recover_s"] = units[0].recover_s
    return result


@contextmanager
def _temp_dir(path: Path):
    """Point ``tempfile`` (which ``suite.fork()`` uses) into the checkout."""
    previous = tempfile.tempdir
    tempfile.tempdir = str(path)
    try:
        yield
    finally:
        tempfile.tempdir = previous


# ---------------------------------------------------------------------- #
# Converged read path (steady_read, serve)
# ---------------------------------------------------------------------- #


def _chunks(queries: list, size: int) -> list[list]:
    return [queries[i : i + size] for i in range(0, len(queries), size)]


def _converge(engine: SpaceOdyssey, batches: list[list], max_passes: int = 25) -> int:
    """Repeat the query set until the partition count stops changing."""
    previous = None
    for passes in range(1, max_passes + 1):
        for batch in batches:
            engine.query_batch(batch)
        partitions = engine.summary().total_partitions
        if partitions == previous:
            return passes
        previous = partitions
    raise RuntimeError(f"partition count still changing after {max_passes} passes")


def _converged_setup(ctx: _Context):
    profile = ctx.profile

    def setup(_i: int):
        suite = _generate(profile, profile.steady_buffer_pages)
        fork = suite.fork()
        engine = SpaceOdyssey(fork.catalog)
        queries = steady_queries(suite, profile, ctx.seed)
        passes = _converge(engine, _chunks(queries, profile.batch_size))
        return suite, fork, engine, queries, passes

    setup_s, (suite, fork, engine, queries, passes) = _timed_setups(
        ctx.host, profile.setups, setup
    )
    ctx.notes.append(f"converged after {passes} passes")
    return setup_s, suite, fork, engine, queries


def _batch_pass(engine, batches, latencies: list, host: HostClock, check: AnswerCheck,
                recorder=None) -> tuple[float, tuple[int, int, int]]:
    """One pass of ``query_batch`` calls; the wall time and answer counts.

    The wall time and latencies are scaled to the reference host speed,
    segment by segment.  Each segment's answers are checked, untimed,
    right after it and then dropped, so the benchmark does not hold a
    pass's worth of hits alive for the garbage collector to scan.
    """
    clock = time.perf_counter
    wall = 0.0
    counts = (0, 0, 0)
    host.start()
    for first in range(0, len(batches), PASS_SEGMENT):
        segment = batches[first : first + PASS_SEGMENT]
        outcomes = []
        segment_ms: list[float] = []
        start = clock()
        for qid, batch in enumerate(segment, start=first):
            if recorder is not None:
                recorder.set_qid(qid)
            began = clock()
            try:
                outcome = engine.query_batch(batch)
            except Exception as error:
                outcome = error
            segment_ms.append((clock() - began) * 1e3)
            outcomes.append(outcome)
        elapsed = clock() - start
        factor = host.scale()
        wall += elapsed * factor
        latencies.extend(latency * factor for latency in segment_ms)
        counts = tuple(a + b for a, b in zip(counts, _check_batches(check, segment, outcomes)))
        del outcomes
    return wall, counts


def _check_batches(check: AnswerCheck, batches, outcomes) -> tuple[int, int, int]:
    hits = examined = routed = 0
    for batch, outcome in zip(batches, outcomes):
        if isinstance(outcome, Exception):
            check.record_error("query_batch", outcome)
            continue
        if len(outcome.results) != len(batch):
            check.record_error("query_batch", ValueError("answer count differs"))
            continue
        check.check("query_batch", batch, outcome.results)
        hits += outcome.total_results()
        examined += sum(r.objects_examined for r in outcome.reports)
        routed += sum(r.used_merge_file for r in outcome.reports)
    return hits, examined, routed


def _steady_workload(ctx: _Context) -> RunResult:
    profile = ctx.profile
    setup_s, suite, fork, engine, queries = _converged_setup(ctx)
    check = AnswerCheck(RawOracle(suite.catalog))
    structure = _structure(engine)
    raw = _raw_bytes(fork.catalog)

    def one_pass(index: int, recorder=None):
        # Each pass batches the same queries in another seeded order.  With
        # one fixed order the tail would be the same few heavy batches in
        # every pass, so it would swing with the seed's batch composition.
        order = np.random.default_rng(_sub_seed(ctx.seed, 1 + index)).permutation(len(queries))
        batches = _chunks([queries[i] for i in order], profile.batch_size)
        io0 = fork.disk.stats_snapshot()
        buffer0 = fork.disk.buffer_pool.counters()
        merges0 = _merger_counts(engine)
        latencies: list[float] = []
        gc.collect()
        region_start = time.perf_counter()
        with _maybe_traced(recorder):
            wall, (hits, examined, routed) = _batch_pass(
                engine, batches, latencies, ctx.host, check, recorder
            )
        region_end = time.perf_counter()
        io = fork.disk.stats_snapshot().delta_since(io0)
        traced_inputs = dict(
            region=(region_start, region_end),
            io=io,
            buffer=fork.disk.buffer_pool.counters().delta_since(buffer0),
            hits=hits,
            queries=len(queries),
            examined=examined,
            merge_routed=routed,
            merger=_since(_merger_counts(engine), merges0),
        )
        return wall, latencies, io.simulated_seconds, traced_inputs

    if ctx.trace:
        plain_wall, *_ = one_pass(0)
        recorder = SpanRecorder(OdysseyConfig().min_merge_combination)
        wall, _, _, inputs = one_pass(0, recorder)
        _check_structure(ctx, engine, structure)
        return _traced_result(ctx, "steady_read", check, recorder, None, plain_wall,
                              traced_wall=wall, inputs=inputs)

    walls: list[float] = []
    latencies: list[float] = []
    sims: list[float] = []
    started = time.perf_counter()
    while len(walls) < profile.steady_min_passes or time.perf_counter() - started < ctx.seconds:
        wall, pass_latencies, sim, _ = one_pass(len(walls))
        walls.append(wall)
        latencies.extend(pass_latencies)
        sims.append(sim)
    _check_structure(ctx, engine, structure)
    if len({round(sim, 9) for sim in sims}) != 1:
        ctx.invalid(
            f"simulated seconds differ between passes over the same queries: {sorted(set(sims))}"
        )
    result = _result(
        ctx,
        "steady_read",
        check,
        setup_s=setup_s,
        wall_s=statistics.median(walls),
        latencies=latencies,
        tail=TAIL_PERCENTILE["steady_read"],
        sim_s=statistics.median(sims),
        space_amp=_bytes_on_disk(fork.disk) / raw,
    )
    result.report.update(
        {"passes": len(walls), "queries_per_s": len(queries) / statistics.median(walls)}
    )
    return result


def _check_structure(ctx: _Context, engine, before: dict) -> None:
    after = _structure(engine)
    if after != before:
        ctx.invalid(f"adaptive state changed while timed: {before} -> {after}")


def _serve_window(engine, queries: list, rate: float, arrivals: int, offset: int = 0):
    """Offer ``arrivals`` queries open loop at ``rate`` from this one thread.

    Latency runs from each request's due time to its completion, so a
    late submitter or a queue shows in it; lateness is reported apart.
    """
    done = np.zeros(arrivals)
    due = np.zeros(arrivals)
    sent = np.zeros(arrivals)
    submissions = []
    clock = time.perf_counter
    service = engine.serve()
    try:
        t0 = clock() + 0.01
        for i in range(arrivals):
            due[i] = t0 + i / rate
            wait = due[i] - clock()
            if wait > 0:
                time.sleep(wait)
            sent[i] = clock()
            box, dataset_ids = queries[(offset + i) % len(queries)]
            try:
                submission = service.submit(box, dataset_ids)
            except Exception as error:  # refused
                done[i] = clock()
                submissions.append(error)
                continue
            submission.future.add_done_callback(
                lambda _f, i=i: done.__setitem__(i, clock())
            )
            submissions.append(submission)
    finally:
        service.close()
    stats = service.stats
    return t0, due, sent, done, submissions, stats


def _serve_workload(ctx: _Context) -> RunResult:
    profile = ctx.profile
    setup_s, suite, fork, engine, queries = _converged_setup(ctx)
    check = AnswerCheck(RawOracle(suite.catalog))
    structure = _structure(engine)
    raw = _raw_bytes(fork.catalog)
    arrivals = serve_arrivals(profile, ctx.seconds)

    def window(index: int = 0, recorder=None):
        offset = index * arrivals
        io0 = fork.disk.stats_snapshot()
        buffer0 = fork.disk.buffer_pool.counters()
        gc.collect()
        region_start = time.perf_counter()
        with _maybe_traced(recorder):
            t0, due, sent, done, submissions, stats = _serve_window(
                engine, queries, profile.serve_rate_qps, arrivals, offset
            )
        region_end = time.perf_counter()
        io = fork.disk.stats_snapshot().delta_since(io0)
        hits = 0
        for i, submission in enumerate(submissions):
            query = queries[(offset + i) % len(queries)]
            if isinstance(submission, Exception):
                check.record_error("submit", submission)
                continue
            error = submission.exception()
            if error is not None:
                check.record_error("submit", error)
                continue
            answer = submission.result()
            check.check("submit", [query], [answer])
            hits += len(answer)
        latencies = (done - due) * 1e3
        lateness = (sent - due) * 1e3
        inputs = dict(
            region=(region_start, region_end),
            io=io,
            buffer=fork.disk.buffer_pool.counters().delta_since(buffer0),
            hits=hits,
            queries=arrivals,
            examined=0,
            merge_routed=0,
            merger=(0, 0, 0),
            service=stats,
        )
        return float(done.max() - t0), latencies, lateness, io.simulated_seconds, inputs

    if ctx.trace:
        plain_wall, *_ = window()
        recorder = SpanRecorder(OdysseyConfig().min_merge_combination)
        wall, latencies, _, _, inputs = window(recorder=recorder)
        _check_structure(ctx, engine, structure)
        inputs["queue_wait_ms"] = _queue_wait_ms(recorder, latencies)
        return _traced_result(ctx, "serve", check, recorder, None, plain_wall,
                              traced_wall=wall, inputs=inputs)

    walls, latencies, lateness, sims = [], [], [], []
    while len(walls) < profile.serve_min_windows:
        wall, window_latencies, window_lateness, sim, _ = window(len(walls))
        walls.append(wall)
        latencies.extend(window_latencies)
        lateness.extend(window_lateness)
        sims.append(sim)
    lateness = np.asarray(lateness)
    _check_structure(ctx, engine, structure)
    late_p99 = _percentile(lateness, 99)
    if late_p99 > LATENESS_BOUND_MS:
        ctx.invalid(
            f"submitter p99 lateness {late_p99:.2f} ms exceeds "
            f"{LATENESS_BOUND_MS} ms; the offered load was not the stated rate"
        )
    result = _result(
        ctx,
        "serve",
        check,
        setup_s=setup_s,
        wall_s=statistics.median(walls),
        latencies=latencies,
        tail=TAIL_PERCENTILE["serve"],
        sim_s=statistics.fmean(sims),
        space_amp=_bytes_on_disk(fork.disk) / raw,
    )
    result.report.update(
        {
            "offered_qps": profile.serve_rate_qps,
            "arrivals": arrivals * len(walls),
            "lateness_p50_ms": _percentile(lateness, 50),
            "lateness_p99_ms": late_p99,
            "lateness_max_ms": float(lateness.max()),
        }
    )
    return result


def _queue_wait_ms(recorder: SpanRecorder, latencies) -> float:
    """Mean latency minus the prepare and commit time of each request's batch."""
    def durations(name):
        spans = sorted((s for s in recorder.spans if s.name == name), key=lambda s: s.qid)
        return [s.seconds * 1e3 for s in spans]

    batch_ms = [p + c for p, c in zip(durations("serve.service.prepare_batch"),
                                        durations("serve.service.commit_batch"))]
    sizes = recorder.batch_sizes
    waits = []
    position = 0
    for size, spent in zip(sizes, batch_ms):
        for latency in latencies[position : position + size]:
            waits.append(latency - spent)
        position += size
    return statistics.fmean(waits) if waits else 0.0




# ---------------------------------------------------------------------- #
# Reporting
# ---------------------------------------------------------------------- #


def _result(
    ctx: _Context,
    name: str,
    check: AnswerCheck,
    *,
    setup_s: float,
    wall_s: float,
    latencies,
    tail: float,
    sim_s: float,
    space_amp: float,
) -> RunResult:
    """The end-to-end metrics of an untraced run."""
    if ctx.host.disturbed:
        ctx.invalid("a thread started during the run was alive while the host probe ran")
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "latency_p50_ms": (_percentile(latencies, 50), "ms"),
        "latency_tail_ms": (_percentile(latencies, tail), "ms"),
        "sim_s": (sim_s, "s"),
        "space_amp": (space_amp, "ratio"),
        "rss_peak_mb": (_rss_peak_mb(), "MB"),
    }
    return RunResult(
        workload=name,
        seed=ctx.seed,
        correct=ctx.valid and check.failed == 0,
        attempted=check.attempted,
        failed=check.failed,
        metrics=metrics,
        notes=ctx.notes + check.reasons,
        report={
            "failed_ratio": check.failed_ratio,
            "tail_percentile": tail,
            "latency_samples": len(latencies),
            "host_factor_median": ctx.host.median_factor(),
        },
    )


def _traced_result(
    ctx: _Context,
    name: str,
    check: AnswerCheck,
    recorder: SpanRecorder,
    unit: SequenceUnit | None,
    untraced_wall: float,
    *,
    traced_wall: float | None = None,
    inputs: dict | None = None,
) -> RunResult:
    """The per-layer metrics of a traced run; the spans go to a file."""
    if unit is not None:
        traced_wall, inputs = unit.wall_s, unit.traced
    traced_unit = TracedUnit(wall_s=traced_wall, untraced_wall_s=untraced_wall, **inputs)
    values = layer_metrics(recorder, traced_unit)
    units = {metric: unit_name for metric, unit_name, _ in PER_LAYER}
    recorder.write(ctx.out_dir / f"spans-{name}-seed{ctx.seed}.jsonl.gz")
    if traced_unit.recovery is not None:
        traced_unit.recovery.write(ctx.out_dir / f"spans-{name}-recover-seed{ctx.seed}.jsonl.gz")
    report = {
        f"share.{span}": values[f"{span}.ms"] / (traced_wall * 1e3)
        for span in SPAN_NAMES
        if values[f"{span}.calls"]
    }
    report["traced_wall_s"] = traced_wall
    report["untraced_wall_s"] = untraced_wall
    return RunResult(
        workload=name,
        seed=ctx.seed,
        correct=ctx.valid and check.failed == 0,
        attempted=check.attempted,
        failed=check.failed,
        metrics={metric: (value, units[metric]) for metric, value in values.items()},
        notes=ctx.notes + check.reasons,
        report=report,
    )


def run_workload(
    name: str,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    root: Path,
    profile: Profile = FULL,
) -> RunResult:
    """Run one workload once and return its metrics."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    ctx = _Context(
        profile=profile, seed=seed, seconds=seconds, trace=trace, root=root,
        host=HostClock(enabled=not trace),
    )
    if name in ("explore", "durable"):
        return _sequence_workload(ctx, name)
    if name == "steady_read":
        return _steady_workload(ctx)
    return _serve_workload(ctx)
