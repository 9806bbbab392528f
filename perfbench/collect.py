"""Run the benchmark over several seeds and summarise each metric's spread.

Usage, from the repository root::

    python3 perfbench/collect.py --seeds 1-10 [--workloads a,b] [--seconds 20] [--trace 0] [--out FILE]

Runs are made one at a time: all seeds of one workload, then the next workload.
For every workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median.  ``--out`` writes
all of it, with the environment record, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from run import ROOT, pin_threads

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = BENCHMARK["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summarise(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)

    runs = {w: [] for w in workloads}
    for w in workloads:
        for seed in seeds:
            result = run_once(w, seed, args.seconds, args.trace)
            runs[w].append(result)
            print(f"{w} seed {seed}: {result['wall_s']:.1f} s wall, "
                  f"{result['failed']}/{result['attempted']} failed", file=sys.stderr)

    bounds = {m["name"]: m.get("bound") for m in BENCHMARK["end_to_end"]}
    report = {}
    for w, results in runs.items():
        report[w] = {"failed": sum(r["failed"] for r in results),
                     "attempted": sum(r["attempted"] for r in results),
                     "wall_s": sum(r["wall_s"] for r in results),
                     "metrics": {}}
        for name in results[0]["metrics"]:
            stats = summarise([r["metrics"][name]["value"] for r in results])
            stats["unit"] = results[0]["metrics"][name]["unit"]
            report[w]["metrics"][name] = stats
            bound = bounds.get(name)
            flag = "" if bound is None else ("  ok" if stats["spread"] < bound / 3 else "  WIDE")
            print(f"{w:17s} {name:28s} median {stats['median']:.6g} {stats['unit']:5s} "
                  f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} spread {stats['spread']:.4f}"
                  f"{'' if bound is None else f' (bound {bound})'}{flag}")
        print(f"{w:17s} failed {report[w]['failed']}/{report[w]['attempted']} operations, "
              f"{report[w]['wall_s']:.0f} s wall over {len(results)} runs")

    if args.out:
        threads = pin_threads()
        sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
        from perfbench.runner import environment

        record = {
            "seeds": seeds,
            "seconds": args.seconds,
            "trace": args.trace,
            "environment": environment(threads),
            "workloads": report,
        }
        (ROOT / args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
