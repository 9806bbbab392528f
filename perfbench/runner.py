"""The measuring loop shared by every workload, and the environment record."""

from __future__ import annotations

import gc
import os
import platform
import resource
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from . import checks, tracing
from .workloads import OUT_DIR

ROOT = Path(__file__).resolve().parent.parent
MAX_SPANS = 1_500_000  # no new traced operation starts beyond this many spans
MAX_PROBLEMS_SHOWN = 5


@dataclass
class RunResult:
    setup_s: list = field(default_factory=list)
    timings: list = field(default_factory=list)  # untraced operations
    traced_walls: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    layers: dict | None = None
    absent: list = field(default_factory=list)
    summary: list = field(default_factory=list)

    def e2e_metrics(self) -> dict:
        return {
            "setup_s": (float(np.median(self.setup_s)), "s"),
            "op_s": (float(np.median([t["op_s"] for t in self.timings])), "s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }

    def layer_metrics(self) -> dict:
        units = {m.name: m.unit for m in tracing.LAYER_METRICS + tracing.OVERHEAD_METRICS}
        return {name: (value, units[name]) for name, value in self.layers.items()}


def run_workload(workload, seconds: float, trace: bool) -> RunResult:
    """Set up ``workload`` several times, then run operations for ``seconds``.

    In a traced run every second operation is traced; the others give the
    untraced wall time from which the tracing overhead is taken.
    """
    result = RunResult()
    tracer = tracing.Tracer() if trace else None
    try:
        for _ in range(workload.setup_repeats):
            t0 = perf_counter()
            workload.setup()
            result.setup_s.append(perf_counter() - t0)
        pending = workload.setup_problems()
        if workload.seed == 0:
            try:
                workload.reference = checks.load_reference()[workload.name]
            except (OSError, KeyError, ValueError) as exc:
                pending.append(f"reference values unavailable: {type(exc).__name__}: {exc}")
        min_ops = 2 if trace else 1
        walls = []
        t_start = perf_counter()
        k = 0
        while k < min_ops or _time_left(perf_counter() - t_start, seconds, walls):
            traced = trace and k % 2 == 1 and tracer.n_spans < MAX_SPANS
            problems = pending if k == 0 else []
            timings = None
            gc.collect()  # start every operation from the same collector state
            try:
                timings, outputs, wall = _timed_op(workload, tracer if traced else None, result)
                problems = problems + workload.verify(outputs)
            except Exception:  # one failing operation is counted; the run goes on
                problems = problems + [traceback.format_exc(limit=4)]
                timings = None
            result.attempted += 1
            if problems:
                result.failed += 1
                result.problems.extend(problems[: MAX_PROBLEMS_SHOWN - len(result.problems)])
            if timings is not None:
                walls.append(wall)
                if traced:
                    result.traced_walls.append(wall)
                else:
                    result.timings.append(timings)
            k += 1
    finally:
        workload.close()
    result.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.summary = workload.summary(result.timings) if result.timings else []
    if trace:
        result.layers = tracing.layer_metrics(tracer, len(result.traced_walls))
        untraced = float(np.median([t["op_s"] for t in result.timings])) if result.timings else 0.0
        traced_wall = float(np.median(result.traced_walls)) if result.traced_walls else 0.0
        overhead = traced_wall - untraced
        result.layers["trace.overhead_s"] = overhead
        result.layers["trace.overhead_pct"] = 100.0 * overhead / untraced if untraced else 0.0
        result.layers["trace.absent"] = float(len(result.absent))
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT_DIR / f"spans_{workload.name}.npz")
    return result


def _time_left(elapsed: float, seconds: float, walls: list) -> bool:
    """Whether another operation of typical length ends nearer to ``seconds`` than stopping now.

    Runs then last ``seconds`` on average however long an operation is.
    """
    typical = float(np.median(walls)) if walls else 0.0
    return elapsed + 0.5 * typical <= seconds


def _timed_op(workload, tracer, result: RunResult):
    if tracer is None:
        t0 = perf_counter()
        timings, outputs = workload.run_op()
        return timings, outputs, perf_counter() - t0
    handle = tracing.install(tracer)
    result.absent = sorted(set(result.absent) | set(handle.absent))
    tracer.active = True
    root = tracer.open(tracing.ROOT_SPAN)
    t0 = perf_counter()
    try:
        timings, outputs = workload.run_op()
    finally:
        wall = perf_counter() - t0
        tracer.close(root)
        tracer.active = False
        handle.restore()
    return timings, outputs, wall


def git_commit(root: Path = ROOT) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(threads: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "commit": git_commit(),
    }
