"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

The metric table goes to standard output first.  The last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, the per-layer ones with ``--trace 1`` (which also writes
``perfbench/.out/<workload>-seed<seed>/``).  A run whose answers fail a
check prints ``"correct": false`` and exits 1; ``--workload all`` runs
every workload in turn and exits 1 if any of them does.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Settings that select another configuration than the default one.
SCRUBBED = (
    "REPRO_NO_CACHE",
    "REPRO_CACHE_SIZE",
    "REPRO_WORKERS",
    "REPRO_BACKEND",
    "REPRO_KERNEL",
    "REPRO_PLANNER",
    "REPRO_FAULTS",
    "REPRO_STORE",
)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("corpus", "symbolic", "serve", "all")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def _machine() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
    }


def _settings(args) -> dict:
    from repro.analysis import AnalysisOptions

    from perfbench import workloads

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_repeats": workloads.SETUP_REPEATS,
        "serve_connections": workloads.CONNECTIONS,
        "env": {name: os.environ.get(name) for name in (*SCRUBBED, "REPRO_NO_LEDGER")},
        "analysis_defaults": {
            name: value
            for name, value in vars(AnalysisOptions()).items()
            if isinstance(value, (bool, int, float, str))
        },
    }


def _row(name: str, value: float, unit: str, samples: str = "") -> str:
    return f"  {name:<40} {value:>14.6g} {unit:<10} {samples}"


def _run_all(args) -> int:
    status = 0
    for workload in ("corpus", "symbolic", "serve"):
        status |= subprocess.call(
            [
                sys.executable, __file__, "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ]
        )
    return 1 if status else 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception, so the daemon child is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for name in SCRUBBED:
        os.environ.pop(name, None)
    os.environ["REPRO_NO_LEDGER"] = "1"
    if args.workload == "all":
        return _run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import layers, workloads

    report = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    out = report["outcome"]
    correct = out.failed == 0
    samples = f"n={len(out.intervals)}"
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    if args.trace:
        units = dict(layers.PER_LAYER)
        metrics = {
            name: {"value": value, "unit": units[name]}
            for name, value in report["layers"].items()
        }
        for name, metric in metrics.items():
            print(_row(name, metric["value"], metric["unit"]))
        target = workloads.write_trace(report, args.seed)
        print(f"per-layer table and spans: {target.relative_to(ROOT)}")
    else:
        units = dict(workloads.END_TO_END)
        metrics = {
            name: {"value": value, "unit": units[name]}
            for name, value in report["end_to_end"].items()
        }
        counts = {
            "latency_ms.p50": samples,
            "latency_ms.p90": samples,
            "throughput_per_s": f"n={out.attempted}",
            "setup_s": f"n={len(report['setup'])}",
            "exact_share": f"n={out.attempted}",
        }
        for name, metric in metrics.items():
            print(_row(name, metric["value"], metric["unit"], counts.get(name, "")))
        print(_row("failed_share", out.failed / out.attempted, "share", f"n={out.attempted}"))
        print(_row("degraded_share", out.degraded / out.attempted, "share", f"n={out.attempted}"))
        print(_row("flow_dead", out.flow_dead, "count", "distinct inputs"))
        for name, value in report["raw"].items():
            unit = units.get(name, "ms")
            print(_row(f"raw.{name}", value, unit, "not host-normalized"))
    for key, value in sorted(out.details.items()):
        print(f"  {key}: {json.dumps(value, sort_keys=True)}")
    print("settings: " + json.dumps(_settings(args), sort_keys=True))
    print("machine: " + json.dumps(_machine(), sort_keys=True))
    for problem in out.problems:
        print(f"FAILED CHECK: {problem}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": out.attempted,
                "failed": out.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
