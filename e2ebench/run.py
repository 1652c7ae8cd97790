"""End-to-end benchmark of the paper's query paths.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload campaign --seed 0 --seconds 40 --trace 0

``--workload`` is ``campaign`` or ``stressmark`` (see ``bench_passes.py``
for what each runs and why).  ``--seed`` drives the generated inputs:
the training-suite seed and the choice of remote request kernels.
``--seconds`` is how long the timed repetitions run.  With ``--trace 0``
the last stdout line reports the end-to-end metrics; with ``--trace 1``
the run alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones.  Only a traced ``campaign`` run
adds the remote request passes, whose latencies are per-layer figures.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the seed, the
share of failed operations and the host (cores, Python, platform).  The
full record -- every pass, and the spans of a traced run -- goes to
``.e2ebench/results/``.  The program
under test is built from this checkout's ``src``; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0


def environment() -> dict:
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def execute(workload, seconds, trace):
    """Run a ``bench_passes`` workload; return ``(result line, record)``."""
    import bench_passes

    shutil.rmtree(workload.workdir, ignore_errors=True)
    workload.workdir.mkdir(parents=True)
    try:
        workload.run(seconds, traced=bool(trace))
    finally:
        workload.close()
        shutil.rmtree(workload.workdir, ignore_errors=True)
    chosen = (
        bench_passes.per_layer(workload)
        if trace
        else bench_passes.end_to_end(workload)
    )
    result = {
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in chosen.items()
        },
    }
    record = {
        "workload": workload.name,
        "seed": workload.seed,
        "seconds": seconds,
        "trace": trace,
        "env": environment(),
        "failed_share": workload.failed / max(1, workload.attempted),
        "host_slowdown": bench_passes.host_slowdown(workload),
        "setup_raw_s": workload.setup_raw,
        "setup_corrected_s": workload.setup_samples,
        "passes": bench_passes.pass_summary(workload),
        "result": result,
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("campaign", "stressmark")
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One CPU for this process and every child (the remote server): the
    # host slows each CPU independently, and the reference loop can
    # only track the CPU it runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]

    import bench_passes

    workload = bench_passes.WORKLOADS[args.workload](
        args.seed, ROOT / ".e2ebench" / "work", bench_passes.Sizes()
    )
    result, record = execute(workload, args.seconds, args.trace)
    results = ROOT / ".e2ebench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        workload.tracer.dump(results / f"{stem}.spans.json")
    print(
        json.dumps(
            {
                "seed": args.seed,
                "failed_share": record["failed_share"],
                "env": record["env"],
            }
        )
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
