"""The serving ladder's one command.

``python3 benchmarks/ladder/run.py``
    the whole suite: every workload untraced (end-to-end metrics) and
    traced (per-layer metrics), each metric printed with its unit, sample
    count and bound.
``... --workload W --seed N --seconds S --trace 0|1``
    one run of one workload, the form ``BENCHMARK.json`` registers; the
    last line of standard output is the result as one JSON object.
``... --repeat N``
    the untraced suite N times (seed, seed+1, ...; workload order rotated)
    and, per workload and end-to-end metric, median, min-max and whether
    the spread is inside the recorded bound.

Exits non-zero when any operation failed or any answer disagreed with the
oracle.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from pathlib import Path

LADDER_DIR = Path(__file__).resolve().parent
# Run as a script, sys.path[0] is this directory; make it the directory
# that holds the `ladder` package instead, and add the system under test.
sys.path[0] = str(LADDER_DIR.parent)
sys.path.insert(1, str(LADDER_DIR.parents[1] / "src"))

from ladder import report, spec, workloads  # noqa: E402

OUT_DIR = LADDER_DIR / "out"


def run_once(
    workload: spec.Workload,
    seed: int,
    seconds: float,
    traced: bool,
    departments: int,
    cache: bool,
) -> workloads.Outcome:
    """One run in its own temporary directory under ``out/``."""
    OUT_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR))
    try:
        runner = workloads.run_traced if traced else workloads.run_untraced
        return runner(
            workload, seed, seconds, departments, run_dir,
            OUT_DIR / "cache" if cache else None,
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOAD_BY_NAME))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--repeat", type=int, default=None, metavar="N")
    parser.add_argument(
        "--departments", type=int, default=spec.DEPARTMENTS,
        help="LUBM size for ad-hoc runs; only the default is a BENCHMARK.json workload",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="rebuild the query pool even if out/cache/ holds this seed's",
    )
    args = parser.parse_args(argv)

    if args.workload:
        chosen = [spec.WORKLOAD_BY_NAME[args.workload]]
    elif args.repeat is not None:
        chosen = list(spec.WORKLOADS)  # the spreads are about the registered bounds
    else:
        chosen = list(spec.WORKLOADS + spec.AD_HOC)
    # (seed, workload, traced) of every run to make, in order.
    if args.repeat is not None:
        plan = [
            (args.seed + repeat, workload, False)
            for repeat in range(args.repeat)
            for workload in chosen[repeat % len(chosen):] + chosen[:repeat % len(chosen)]
        ]
    elif args.trace is not None or args.workload:
        plan = [(args.seed, workload, bool(args.trace)) for workload in chosen]
    else:
        plan = [
            (args.seed, workload, traced)
            for workload in chosen for traced in (False, True)
        ]

    failed = 0
    repeats: dict[str, dict[str, list[float]]] = {}
    for seed, workload, traced in plan:
        outcome = run_once(
            workload, seed, args.seconds, traced, args.departments, not args.no_cache
        )
        failed += outcome.verdict.failed
        print(report.describe(workload, traced, outcome))
        print(report.result_line(traced, outcome), flush=True)
        if args.repeat is not None:
            for name, value in outcome.metrics.items():
                repeats.setdefault(workload.name, {}).setdefault(name, []).append(value)
    if args.repeat is not None:
        print(report.format_repeats(repeats))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
