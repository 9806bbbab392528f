"""Span tracer that wraps foilfem's public functions from outside the package.

A :class:`Tracer` keeps one span per wrapped call (name, start, end, parent)
in flat arrays and writes them out when the run ends.  :func:`install` swaps
each target function for a wrapper in every loaded ``foilfem`` module that
holds it (``from .x import f`` copies included) and returns a handle that
puts the originals back.  A target that no longer exists is reported as
absent; its metrics read 0.

:func:`layer_metrics` turns the spans into the per-layer metrics of
``BENCHMARK.json``: self times (a span's duration minus the part covered by
its child spans), call counts, counters taken from return values, and ratios.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

ROOT_SPAN = "bench.op"


class Tracer:
    """Collects spans and counters in memory while ``active`` is set."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.active = False

    @property
    def n_spans(self) -> int:
        return len(self.start)

    def open(self, name: str) -> int:
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(float("nan"))
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if on_result is not None:
                try:
                    on_result(tracer.counters, args, kwargs, result)
                except (AttributeError, TypeError, ValueError, OSError):
                    tracer.counters["trace.hook_errors"] += 1
            return result

        return traced

    def arrays(self):
        """``(names, name_id, parent, start, end)`` with numpy arrays."""
        return (
            list(self.names),
            np.frombuffer(self.name_id, dtype=np.intc).astype(np.int64),
            np.frombuffer(self.parent, dtype=np.intc).astype(np.int64),
            np.frombuffer(self.start, dtype=float).copy(),
            np.frombuffer(self.end, dtype=float).copy(),
        )

    def write(self, path) -> None:
        names, name_id, parent, start, end = self.arrays()
        np.savez_compressed(
            path, names=np.asarray(names), name_id=name_id, parent=parent, start=start, end=end
        )


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    dur = end - start
    covered = np.zeros_like(dur)
    nested = parent >= 0
    np.add.at(covered, parent[nested], dur[nested])
    return dur - covered


# --- counters read from return values -------------------------------------------------

def _count_nodes(counters, args, kwargs, mesh):
    counters["mesh.nodes"] += mesh.n_nodes


def _count_dofs(counters, args, kwargs, system):
    counters["winding.dofs"] += system.n_dofs


def _count_nnz(counters, args, kwargs, dae):
    counters["circuit.nnz"] += dae.E.nnz + dae.A.nnz


def _count_fill(counters, args, kwargs, factor):
    lu = getattr(factor, "_lu", factor)
    if hasattr(lu, "L") and hasattr(lu, "U"):
        counters["linalg.lu_fill"] += lu.L.nnz + lu.U.nnz


def _count_steps(counters, args, kwargs, series):
    counters["timestepper.steps"] += len(series.times) - 1


def _count_inductance(counters, args, kwargs, classification):
    if getattr(classification, "L", None) is not None:
        counters["dae_analysis.with_L"] += 1


def _count_bytes(counters, args, kwargs, result):
    path = kwargs.get("path", args[0] if args else None)
    counters["experiments.bytes_out"] += os.path.getsize(path)


@dataclass(frozen=True)
class Target:
    module: str  # e.g. "foilfem.winding"
    attr: str  # "assemble_X" or "Factorization.solve"
    on_result: Callable | None = None

    @property
    def span(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.attr}"


TARGETS = (
    Target("foilfem.mesh", "generate_parametric_mesh", _count_nodes),
    Target("foilfem.mesh", "refine_uniform", _count_nodes),
    Target("foilfem.assembly", "FieldDiscretization.from_mesh"),
    Target("foilfem.assembly", "assemble_stiffness"),
    Target("foilfem.assembly", "assemble_mass"),
    Target("foilfem.assembly", "assemble_modified_mass"),
    Target("foilfem.assembly", "assemble_double_modified_mass"),
    Target("foilfem.winding", "assemble_foil_system", _count_dofs),
    Target("foilfem.winding", "assemble_X"),
    Target("foilfem.winding", "assemble_G_original"),
    Target("foilfem.winding", "assemble_G_consistent"),
    Target("foilfem.winding", "distribution_coefficients"),
    Target("foilfem.winding", "conductive_support"),
    Target("foilfem.circuit", "parse_netlist"),
    Target("foilfem.circuit", "mna_stamp", _count_nnz),
    Target("foilfem.circuit", "DAESystem.source"),
    Target("foilfem.linalg", "sparse_factorize", _count_fill),
    Target("foilfem.linalg", "Factorization.solve"),
    Target("foilfem.linalg", "RestrictedSpdSolver.__init__"),
    Target("foilfem.linalg", "RestrictedSpdSolver.solve"),
    Target("foilfem.linalg", "restricted_spd_solve"),
    Target("foilfem.timestepper", "integrate", _count_steps),
    Target("foilfem.dae_analysis", "classify_element", _count_inductance),
    Target("foilfem.dae_analysis", "singular_perturbation_measure"),
    Target("foilfem.dae_analysis", "schur_stranded_form"),
    Target("foilfem.dae_analysis", "inductance_value"),
    Target("foilfem.experiments", "load_config"),
    Target("foilfem.experiments", "build_mesh"),
    Target("foilfem.experiments", "build_system"),
    Target("foilfem.experiments", "run_transient"),
    Target("foilfem.experiments", "run_fig4"),
    Target("foilfem.experiments", "format_fig4_metrics"),
    Target("foilfem.experiments", "run_fig5"),
    Target("foilfem.experiments", "run_classify"),
    Target("foilfem.experiments", "noise_metric"),
    Target("foilfem.experiments", "emit_csv", _count_bytes),
    Target("foilfem.experiments", "emit_svg_plot", _count_bytes),
    Target("foilfem.cli", "main"),
)


class Installed:
    """Wrappers in place; :meth:`restore` puts every original back."""

    def __init__(self):
        self.absent: list[str] = []
        self._undo: list[tuple] = []

    def restore(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()


def install(tracer: Tracer, targets=TARGETS) -> Installed:
    handle = Installed()
    for target in targets:
        try:
            module = importlib.import_module(target.module)
        except ImportError:
            handle.absent.append(target.span)
            continue
        owner_name, _, attr = target.attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            raw = vars(owner).get(attr) if isinstance(owner, type) else None
            if raw is None:
                handle.absent.append(target.span)
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(tracer.wrap(target.span, raw.__func__, target.on_result))
            else:
                wrapped = tracer.wrap(target.span, raw, target.on_result)
            handle._undo.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            continue
        original = getattr(module, attr, None)
        if not callable(original):
            handle.absent.append(target.span)
            continue
        wrapped = tracer.wrap(target.span, original, target.on_result)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "foilfem" or name.startswith("foilfem.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    handle._undo.append((mod, key, original))
                    setattr(mod, key, wrapped)
    return handle


# --- per-layer metrics ---------------------------------------------------------------

@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    kind: str  # self_s | per_call_us | calls | counter | per_step_us | ratio
    spans: tuple = ()
    counter: str = ""


LAYER_METRICS = (
    LayerMetric("mesh.generate_s", "s", "lower", "self_s", ("mesh.generate_parametric_mesh",)),
    LayerMetric("mesh.refine_s", "s", "lower", "self_s", ("mesh.refine_uniform",)),
    LayerMetric("mesh.nodes", "count", "lower", "counter", counter="mesh.nodes"),
    LayerMetric("assembly.stiffness_s", "s", "lower", "self_s", ("assembly.assemble_stiffness",)),
    LayerMetric("assembly.mass_s", "s", "lower", "self_s", ("assembly.assemble_mass",)),
    LayerMetric(
        "assembly.profile_mass_s", "s", "lower", "self_s",
        ("assembly.assemble_modified_mass", "assembly.assemble_double_modified_mass"),
    ),
    LayerMetric(
        "assembly.profile_mass_calls", "count", "lower", "calls",
        ("assembly.assemble_modified_mass", "assembly.assemble_double_modified_mass"),
    ),
    LayerMetric(
        "assembly.discretization_s", "s", "lower", "self_s",
        ("assembly.FieldDiscretization.from_mesh",),
    ),
    LayerMetric("winding.system_s", "s", "lower", "self_s", ("winding.assemble_foil_system",)),
    LayerMetric("winding.X_s", "s", "lower", "self_s", ("winding.assemble_X",)),
    LayerMetric("winding.G_s", "s", "lower", "self_s", ("winding.assemble_G_original",)),
    LayerMetric("winding.Ge_s", "s", "lower", "self_s", ("winding.assemble_G_consistent",)),
    LayerMetric(
        "winding.distribution_s", "s", "lower", "self_s", ("winding.distribution_coefficients",)
    ),
    LayerMetric("winding.support_s", "s", "lower", "self_s", ("winding.conductive_support",)),
    LayerMetric("winding.dofs", "count", "lower", "counter", counter="winding.dofs"),
    LayerMetric("circuit.parse_s", "s", "lower", "self_s", ("circuit.parse_netlist",)),
    LayerMetric("circuit.stamp_s", "s", "lower", "self_s", ("circuit.mna_stamp",)),
    LayerMetric("circuit.nnz", "count", "lower", "counter", counter="circuit.nnz"),
    LayerMetric("linalg.factorize_s", "s", "lower", "self_s", ("linalg.sparse_factorize",)),
    LayerMetric("linalg.lu_fill", "count", "lower", "counter", counter="linalg.lu_fill"),
    LayerMetric("linalg.solve_us", "us", "lower", "per_call_us", ("linalg.Factorization.solve",)),
    LayerMetric("linalg.solve_calls", "count", "lower", "calls", ("linalg.Factorization.solve",)),
    LayerMetric(
        "linalg.spd_solve_s", "s", "lower", "self_s",
        (
            "linalg.RestrictedSpdSolver.__init__",
            "linalg.RestrictedSpdSolver.solve",
            "linalg.restricted_spd_solve",
        ),
    ),
    LayerMetric("timestepper.integrate_s", "s", "lower", "self_s", ("timestepper.integrate",)),
    LayerMetric("timestepper.steps", "count", "lower", "counter", counter="timestepper.steps"),
    LayerMetric("timestepper.source_us", "us", "lower", "per_call_us", ("circuit.DAESystem.source",)),
    LayerMetric(
        "timestepper.overhead_us", "us", "lower", "per_step_us",
        ("timestepper.integrate",), counter="timestepper.steps",
    ),
    LayerMetric("dae_analysis.classify_s", "s", "lower", "self_s", ("dae_analysis.classify_element",)),
    LayerMetric(
        "dae_analysis.measure_s", "s", "lower", "self_s",
        ("dae_analysis.singular_perturbation_measure",),
    ),
    LayerMetric(
        "dae_analysis.inductance_s", "s", "lower", "self_s",
        ("dae_analysis.schur_stranded_form", "dae_analysis.inductance_value"),
    ),
    LayerMetric(
        "dae_analysis.L_ratio", "ratio", "higher", "ratio",
        ("dae_analysis.classify_element",), counter="dae_analysis.with_L",
    ),
    LayerMetric(
        "experiments.emit_s", "s", "lower", "self_s",
        ("experiments.emit_csv", "experiments.emit_svg_plot"),
    ),
    LayerMetric("experiments.bytes_out", "bytes", "lower", "counter", counter="experiments.bytes_out"),
    LayerMetric("experiments.noise_metric_s", "s", "lower", "self_s", ("experiments.noise_metric",)),
    LayerMetric(
        "experiments.self_s", "s", "lower", "self_s",
        (
            "experiments.load_config",
            "experiments.build_mesh",
            "experiments.build_system",
            "experiments.run_transient",
            "experiments.run_fig4",
            "experiments.format_fig4_metrics",
            "experiments.run_fig5",
            "experiments.run_classify",
        ),
    ),
    LayerMetric("cli.main_s", "s", "lower", "self_s", ("cli.main",)),
)

# Reported by the traced run next to the layer metrics.
OVERHEAD_METRICS = (
    LayerMetric("trace.overhead_s", "s", "lower", "overhead"),
    LayerMetric("trace.overhead_pct", "%", "lower", "overhead"),
    LayerMetric("trace.absent", "count", "lower", "overhead"),
)


def layer_metrics(tracer: Tracer, n_ops: int) -> dict:
    """Per-layer metrics per traced operation (per call or per step where the unit says so)."""
    names, name_id, parent, start, end = tracer.arrays()
    own = self_times(parent, start, end)
    self_by_name = dict(zip(names, np.bincount(name_id, weights=own, minlength=len(names))))
    calls_by_name = dict(zip(names, np.bincount(name_id, minlength=len(names))))
    ops = max(n_ops, 1)
    out = {}
    for m in LAYER_METRICS:
        busy = float(sum(self_by_name.get(s, 0.0) for s in m.spans))
        calls = int(sum(calls_by_name.get(s, 0) for s in m.spans))
        count = float(tracer.counters.get(m.counter, 0.0))
        if m.kind == "self_s":
            value = busy / ops
        elif m.kind == "per_call_us":
            value = 1e6 * busy / calls if calls else 0.0
        elif m.kind == "calls":
            value = calls / ops
        elif m.kind == "counter":
            value = count / ops
        elif m.kind == "per_step_us":
            value = 1e6 * busy / count if count else 0.0
        else:  # ratio of counted outcomes to calls
            value = count / calls if calls else 0.0
        out[m.name] = value
    return out
