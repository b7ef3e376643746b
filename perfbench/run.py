"""Run the data-to-insight benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload explore --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload in its own process (peak memory is
per process) and prints one table.  The engine is imported from the
checkout's ``src/``; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _benchmark_seconds() -> float:
    return float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])


def _print_result(result) -> None:
    print(f"== {result.workload} (seed {result.seed})")
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:<52} {value:>14.6g} {unit}")
    for name, value in result.report.items():
        print(f"  [{name}] {value:.6g}" if isinstance(value, float) else f"  [{name}] {value}")
    print(f"  attempted={result.attempted} failed={result.failed} correct={result.correct}")
    for note in result.notes:
        print(f"  note: {note}")


def _run_all(args: argparse.Namespace) -> int:
    """Every workload, each in a fresh process; prints a combined table."""
    from perfbench.workloads import WORKLOADS

    combined = {}
    status = 0
    for workload in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--trace", str(args.trace)]
        if args.seed is not None:
            command += ["--seed", str(args.seed)]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        completed = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(completed.stdout.rsplit("\n", 2)[0] + "\n")
        sys.stderr.write(completed.stderr)
        if completed.returncode != 0:
            status = completed.returncode
            continue
        combined[workload] = json.loads(completed.stdout.strip().splitlines()[-1])
    correct = all(entry["correct"] for entry in combined.values()) and status == 0
    print(json.dumps({
        "correct": correct,
        "attempted": sum(entry["attempted"] for entry in combined.values()),
        "failed": sum(entry["failed"] for entry in combined.values()),
        "metrics": {
            f"{workload}.{name}": metric
            for workload, entry in combined.items()
            for name, metric in entry["metrics"].items()
        },
    }))
    return status


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the engine sources ({ROOT / 'src' / 'repro'}) are missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.workload == "all":
        return _run_all(args)

    from perfbench.workloads import DEFAULT_SEED, WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {WORKLOADS}",
              file=sys.stderr)
        return 2
    result = run_workload(
        args.workload,
        seed=DEFAULT_SEED if args.seed is None else args.seed,
        seconds=_benchmark_seconds() if args.seconds is None else args.seconds,
        trace=bool(args.trace),
        root=ROOT,
    )
    _print_result(result)
    print(json.dumps(result.to_json()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
