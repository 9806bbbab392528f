"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: assemble-ladder, transient, studies.
With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics (``setup_s``, ``op_s``, ``peak_rss_mb``); with
``--trace 1`` it holds the per-layer metrics of ``BENCHMARK.json`` and the
tracing overhead.  The lines before it name the same figures for people,
together with the environment, the seed and the config hash.  The program
is imported from ``src/`` of the same checkout; without it the benchmark
exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREADS = 1  # single-threaded BLAS: steadier timings, and never above nproc


def pin_threads() -> int:
    threads = min(THREADS, len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metric_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    args = _parse(argv)
    threads = pin_threads()  # before numpy is imported
    package = ROOT / "src" / "foilfem"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no foilfem sources at {package}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import foilfem

        from perfbench import inputs, runner, workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the benchmark: {exc}", file=sys.stderr)
        return 2
    if Path(foilfem.__file__).resolve().parent != package.resolve():
        print(f"perfbench: foilfem imported from {foilfem.__file__}, not {package}", file=sys.stderr)
        return 2
    workload_cls = workloads.WORKLOADS.get(args.workload)
    if workload_cls is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workload = workload_cls(args.seed)
    result = runner.run_workload(workload, args.seconds, bool(args.trace))
    if not result.timings:
        print(f"perfbench: no operation of {args.workload} completed", file=sys.stderr)
        for problem in result.problems:
            print(problem, file=sys.stderr)
        return 1

    env = runner.environment(threads)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"config_hash {inputs.config_hash(workload.cfg)}")
    print("environment " + json.dumps(env, sort_keys=True))
    if args.trace:
        metrics = result.layer_metrics()
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
        print(f"tracing overhead = {result.layers['trace.overhead_s']:.6g} s per operation "
              f"({result.layers['trace.overhead_pct']:.3g} %), "
              f"{len(result.traced_walls)} traced and {len(result.timings)} untraced operations")
        if result.absent:
            print("absent (reported as 0): " + ", ".join(result.absent))
    else:
        metrics = result.e2e_metrics()
        print(f"setup_s = {metrics['setup_s'][0]:.6g} s (median of {len(result.setup_s)} set-ups)")
        print(f"op_s = {metrics['op_s'][0]:.6g} s (median of {len(result.timings)} operations)")
        print(f"peak_rss_mb = {metrics['peak_rss_mb'][0]:.6g} MB")
    for line in result.summary:
        print(line)
    print(f"fail_ratio = {result.failed}/{result.attempted} operations "
          f"= {result.failed / max(result.attempted, 1):.6g}")
    for problem in result.problems:
        print("check failed: " + problem.rstrip().replace("\n", "\n  "))
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": _metric_json(metrics),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
