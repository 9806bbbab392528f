"""Experiment configuration, orchestration, metrics and output emission.

The default configuration reproduces the shipped demonstration device: a
50-turn foil winding (fill factor 0.8, 0.28 mm pitch, 50 mm height) in a
gapped core (4.2 mm gap, 76.2 mm yoke height, 40 mm outer radius), driven at
50 Hz with a perturbed sine whose second tone sits at 2*pi*1e10 Hz with
relative amplitude 1e-3.  At the experiment step sizes that tone is far above
the sampling rate, so the perturbation acts as a deterministic sampled noise
floor; this is intentional and drives the sensitivity studies.

All experiment commands are pure functions of the configuration, so reruns
produce bit-identical CSV and SVG output.  A study reads each run's trace with
:func:`response`, writes its files with :func:`emit_study` and returns its
report text, which the command line prints.
"""

from __future__ import annotations

import hashlib
import math
import os
import signal
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .assembly import FieldDiscretization
from .circuit import lumped_inductor_voltage_driven, mna_stamp, parse_netlist
from .dae_analysis import classify_element, singular_perturbation_measure
from .errors import FoilFemError, ParseError, ValidationError
from .linalg import rank
from .mesh import GeometrySpec, Mesh, generate_parametric_mesh, refine_uniform
from .timestepper import StepperConfig, TimeSeries, integrate
from .winding import (
    BASIS_FAMILIES,
    MODES,
    FoilWindingSpec,
    VoltageBasis,
    assemble_G_exact,
    assemble_foil_system,
    device_materials,
)

# target edge lengths per mesh level; levels beyond the table halve the last entry
MESH_LEVEL_H = {0: 8.0e-3, 1: 4.0e-3, 2: 1.7e-3, 3: 0.85e-3}
COARSE_LEVEL = 0
FINE_LEVEL = 2
DRIVES = ("v", "i")
NOISE_HARMONICS = 3
NOISE_TAIL = 0.6
NOISE_FIT_COLUMNS = 2 * NOISE_HARMONICS + 3  # a constant, a sine and a cosine per tone
FIG4_DTS = (1.0e-4, 1.0e-5)
FIG5_DT = 1.0e-4


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment configuration; defaults describe the reference device (SI units)."""

    n_basis: int = 5
    n_turns: int = 50
    fill_factor: float = 0.8
    foil_pitch: float = 0.28e-3
    winding_height: float = 50.0e-3
    winding_inner_radius: float = 12.6e-3
    air_gap_length: float = 4.2e-3
    yoke_height: float = 76.2e-3
    yoke_outer_radius: float = 40.0e-3
    limb_radius: float = 9.9e-3
    window_outer_radius: float = 29.55e-3
    window_bottom: float = 9.9e-3
    window_top: float = 66.3e-3
    frequency: float = 50.0
    perturbation_frequency: float = 2.0 * math.pi * 1.0e10
    perturbation_amplitude: float = 1.0e-3
    amplitude: float = 1.0
    winding_conductivity: float = 6.0e7
    yoke_conductivity: float = 10.0
    yoke_permeability: float = 1000.0
    drive: str = "v"
    mode: str = "Ge"
    basis_family: str = "legendre"
    mesh_level: int = COARSE_LEVEL
    dt: float = 1.0e-4
    duration: float = 22.0e-3

    def __post_init__(self):
        for key, allowed in (("drive", DRIVES), ("mode", MODES), ("basis_family", BASIS_FAMILIES)):
            value = getattr(self, key)
            if value not in allowed:
                message = f"{key} must be one of {', '.join(allowed)}, got {value!r}"
                raise ValidationError(message, key=key)
        for key, least in (("n_basis", 1), ("mesh_level", 0)):
            value = getattr(self, key)
            if value < least:
                raise ValidationError(f"{key} must be at least {least}, got {value!r}", key=key)
        for key in ("dt", "duration", "frequency"):
            value = getattr(self, key)
            if not value > 0.0:  # also rejects NaN
                raise ValidationError(f"{key} must be positive, got {value!r}", key=key)
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ValidationError(f"{f.name} must be finite, got {value!r}", key=f.name)
        for key in ("winding_conductivity", "yoke_conductivity"):
            value = getattr(self, key)
            if value < 0.0:
                raise ValidationError(f"{key} must be nonnegative, got {value!r}", key=key)
        if not self.yoke_permeability > 0.0:
            message = f"yoke_permeability must be positive, got {self.yoke_permeability!r}"
            raise ValidationError(message, key="yoke_permeability")
        if self.amplitude == 0.0:  # fig4 and fig5 divide by the response it drives
            message = f"amplitude must be nonzero, got {self.amplitude!r}"
            raise ValidationError(message, key="amplitude")

    def to_text(self) -> str:
        return "".join(f"{f.name} = {getattr(self, f.name)!r}\n" for f in fields(self))

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_text().encode("ascii")).hexdigest()


def read_text(path, encoding: str) -> str:
    """The text of the file ``path``; a byte that ``encoding`` cannot decode raises
    :class:`ParseError` at its line."""
    data = Path(path).read_bytes()
    try:
        return data.decode(encoding)
    except UnicodeDecodeError as exc:
        # the lines of the decodable prefix plus one character for the bad byte
        line = len((data[: exc.start].decode(encoding) + "?").splitlines())
        raise ParseError(
            f"{path}: byte 0x{data[exc.start]:02x} is not valid {encoding}", line=line
        ) from None


def load_config(path, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Read a flat ``key = value`` UTF-8 config file on top of the defaults.

    A value that :class:`ExperimentConfig` rejects raises its
    :class:`ValidationError`, located at the key's line.
    """
    base = base or ExperimentConfig()
    field_types = {f.name: f.type for f in fields(ExperimentConfig)}
    overrides, key_lines = {}, {}
    for line_no, raw in enumerate(read_text(path, "utf-8").splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParseError("expected 'key = value'", line=line_no)
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in field_types:
            raise ParseError(f"unknown configuration key {key!r}", line=line_no)
        convert = {"int": int, "float": float}.get(field_types[key], str)
        try:
            overrides[key] = convert(value)
        except ValueError as exc:
            raise ParseError(f"bad value {value!r} for {key}", line=line_no) from exc
        key_lines[key] = line_no
    try:
        return replace(base, **overrides)
    except ValidationError as exc:
        raise ValidationError(exc.message, key=exc.key, line=key_lines.get(exc.key)) from None


def build_geometry(cfg: ExperimentConfig) -> GeometrySpec:
    return GeometrySpec(
        yoke_outer_radius=cfg.yoke_outer_radius,
        yoke_height=cfg.yoke_height,
        air_gap_length=cfg.air_gap_length,
        limb_radius=cfg.limb_radius,
        window_outer_radius=cfg.window_outer_radius,
        window_bottom=cfg.window_bottom,
        window_top=cfg.window_top,
        winding_inner_radius=cfg.winding_inner_radius,
        winding_thickness=cfg.n_turns * cfg.foil_pitch,
        winding_height=cfg.winding_height,
    )


def build_winding_spec(cfg: ExperimentConfig) -> FoilWindingSpec:
    return FoilWindingSpec(
        n_turns=cfg.n_turns,
        fill_factor=cfg.fill_factor,
        foil_pitch=cfg.foil_pitch,
        height=cfg.winding_height,
        inner_radius=cfg.winding_inner_radius,
        z_center=0.5 * cfg.yoke_height,
        sigma_c=cfg.winding_conductivity,
    )


def mesh_edge_length(level: int) -> float:
    """Target edge length of a mesh level; a level whose halving underflows to 0 m is rejected."""
    if level in MESH_LEVEL_H:
        return MESH_LEVEL_H[level]
    top = max(MESH_LEVEL_H)
    h = math.ldexp(MESH_LEVEL_H[top], top - level)
    if h == 0.0:
        raise ValidationError(
            f"mesh_level {level} halves the edge length below the smallest float", key="mesh_level"
        )
    return h


def build_mesh(cfg: ExperimentConfig, level: int | None = None) -> Mesh:
    level = cfg.mesh_level if level is None else level
    return generate_parametric_mesh(build_geometry(cfg), mesh_edge_length(level))


def build_system(cfg: ExperimentConfig, mesh: Mesh):
    spec = build_winding_spec(cfg)
    materials = device_materials(
        spec, yoke_sigma=cfg.yoke_conductivity, yoke_mu_r=cfg.yoke_permeability
    )
    disc = FieldDiscretization.from_mesh(mesh)
    basis = VoltageBasis(cfg.n_basis, family=cfg.basis_family)
    system = assemble_foil_system(mesh, materials=materials, disc=disc, spec=spec, basis=basis)
    return system, spec, basis


def source_line(cfg: ExperimentConfig, drive: str) -> str:
    name = "I1" if drive == "i" else "V1"
    return (
        f"{name} 1 0 PSIN {cfg.amplitude!r} {cfg.frequency!r} "
        f"{cfg.perturbation_amplitude!r} {cfg.perturbation_frequency!r}"
    )


def time_grid(cfg: ExperimentConfig, dt: float) -> StepperConfig:
    """The time grid of a run over the configured duration; a command builds the grid of
    each of its runs before it meshes, so a rejected ``dt`` or ``duration`` costs no
    assembly."""
    return StepperConfig(t0=0.0, t_end=cfg.duration, dt=dt)


def noise_fit_grid(cfg: ExperimentConfig, dt: float) -> StepperConfig:
    """:func:`time_grid` of a run whose trace feeds :func:`noise_metric`, also rejected when
    its samples are too few for the noise fit."""
    grid = time_grid(cfg, dt)
    noise_tail_start(grid.n_steps + 1)
    return grid


def run_transient(cfg: ExperimentConfig, system, drive: str, mode: str, dt: float) -> TimeSeries:
    """One foil-winding run: compose the two-branch netlist, stamp, integrate."""
    netlist = parse_netlist(f"{source_line(cfg, drive)}\nFW1 1 0 FILE <memory> MODE {mode}")
    dae = mna_stamp(netlist, field_systems={"<memory>": system})
    return integrate(dae, time_grid(cfg, dt), probe_names=["FW1"])


def available_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def run_transients(cfg: ExperimentConfig, runs: dict) -> dict:
    """:func:`run_transient` for each ``key: (system, drive, mode, dt)`` of ``runs``.

    The runs go to a pool of up to one worker process per available CPU, forked where
    the platform can fork, the runs with the most steps first; the series come back in
    the key order of ``runs``.  A worker runs the same code on pickled copies of the
    inputs, so every series is bit for bit the one an in-process run gives.  An error
    raised in a worker is raised here; a worker that ends abruptly raises
    :class:`FoilFemError` naming the first run in key order that it stopped and, where
    known, the worker's exit code.  No worker outlives the call.
    """
    # imported here: the commands that start no pool do not load the process machinery
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    start = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    pool = ProcessPoolExecutor(
        max_workers=min(len(runs), available_cpus()),
        mp_context=multiprocessing.get_context(start),
    )
    series = {}
    try:
        by_steps = sorted(runs, key=lambda key: -time_grid(cfg, runs[key][3]).n_steps)
        futures = {key: pool.submit(run_transient, cfg, *runs[key]) for key in by_steps}
        for key in runs:
            series[key] = futures[key].result()
        return series
    except BrokenProcessPool:
        broken = next(key for key in runs if key not in series)
        workers = list(pool._processes.values())  # private: the pool's worker processes
        pool.shutdown()  # joins the workers, so their exit codes are known
        # the pool ends the workers that outlive the break with SIGTERM
        ends = sorted({p.exitcode for p in workers} - {None, -signal.SIGTERM})
        how = "".join(f", {'exit code' if c >= 0 else 'signal'} {abs(c)}" for c in ends)
        raise FoilFemError(f"run {broken}: a worker process ended abruptly{how}") from None
    finally:
        pool.shutdown(cancel_futures=True)


@dataclass(frozen=True)
class NoiseMetric:
    """Fundamental amplitude and residual noise of one trace.

    The fundamental and its first three harmonics are least-squares fitted
    over the final 60 percent of the run (transient excluded); the noise is
    the RMS of the residual and ``ratio`` its share of the fundamental.
    """

    fundamental_amplitude: float
    noise_rms: float
    ratio: float


def noise_tail_start(n_samples: int) -> int:
    """Index of the first sample of the noise fit's tail in a trace of ``n_samples`` samples.

    Raises :class:`ValidationError` (key ``duration``) when the tail has fewer
    samples than the fit has columns, since such a fit is underdetermined.
    """
    n0 = int(round(n_samples * (1.0 - NOISE_TAIL)))
    if n_samples - n0 < NOISE_FIT_COLUMNS:
        raise ValidationError(
            f"the noise fit needs {NOISE_FIT_COLUMNS} samples in the last {NOISE_TAIL:.0%} of "
            f"the run, got {n_samples - n0}; lengthen the duration",
            key="duration",
        )
    return n0


def noise_metric(times, values, frequency) -> NoiseMetric:
    """Fit the fundamental and harmonics over the run's tail; see :class:`NoiseMetric`.

    The tail starts at :func:`noise_tail_start`, which rejects a trace too short for the fit.
    """
    n0 = noise_tail_start(len(times))
    t = np.asarray(times)[n0:]
    y = np.asarray(values)[n0:]
    columns = [np.ones_like(t)]
    for k in range(1, NOISE_HARMONICS + 2):
        w = 2.0 * math.pi * k * frequency
        columns.append(np.sin(w * t))
        columns.append(np.cos(w * t))
    design = np.column_stack(columns)
    coeffs, *_ = np.linalg.lstsq(design, y, rcond=None)
    amplitude = math.hypot(coeffs[1], coeffs[2])
    residual = y - design @ coeffs
    rms = float(np.sqrt(np.mean(residual**2)))
    ratio = rms / amplitude if amplitude > 0.0 else math.inf
    return NoiseMetric(fundamental_amplitude=amplitude, noise_rms=rms, ratio=ratio)


def response(series: TimeSeries, drive: str):
    """The FW1 trace a drive excites and its axis label: v under current drive, i under voltage."""
    if drive == "i":
        return series.voltages["FW1"], "v [V]"
    return series.currents["FW1"], "i [A]"


def emit_study(out_dir, prefix, runs, plots, report: str) -> None:
    """Write ``<prefix>_<key>.csv`` per run, ``<prefix>_<name>.svg`` per plot and ``report``
    as ``<prefix>_metrics.txt`` to ``out_dir``.  ``plots`` maps a name to ``(drive,
    [(label, series), ...])``: one curve per series, showing the response of ``drive``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for key, series in runs.items():
        emit_csv(out / f"{prefix}_{key}.csv", series, "FW1")
    for name, (drive, labelled) in plots.items():
        curves = []
        for label, series in labelled:
            trace, ylabel = response(series, drive)
            curves.append((label, series.times, trace, series.diverged_at))
        emit_svg_plot(out / f"{prefix}_{name}.svg", curves, xlabel="t [s]", ylabel=ylabel)
    (out / f"{prefix}_metrics.txt").write_text(report, encoding="ascii")


def run_fig4(cfg: ExperimentConfig, out_dir) -> dict:
    """Perturbation-sensitivity study: both drives at two step sizes.

    Uses the consistent conductance on the fine mesh.  The current-driven
    voltage noise grows when the step size shrinks; the voltage-driven
    current noise does not.  The four transients run in worker processes
    (:func:`run_transients`), which leaves every output byte as a serial
    run writes it; the metrics, the report and the files are made here.
    Writes the CSV, SVG and metrics files to ``out_dir`` and returns the
    metrics text as ``results["report"]``.
    """
    for dt in FIG4_DTS:
        noise_fit_grid(cfg, dt)
    system = build_system(cfg, build_mesh(cfg, FINE_LEVEL))[0]
    runs = {f"{d}fed_dt{dt:.0e}": (system, d, "Ge", dt) for d in ("i", "v") for dt in FIG4_DTS}
    series = run_transients(cfg, runs)
    metrics = {
        key: noise_metric(series[key].times, response(series[key], drive)[0], cfg.frequency)
        for key, (_, drive, _, _) in runs.items()
    }
    metrics["vnoise_ratio_small_over_large_dt"] = (
        metrics["ifed_dt1e-05"].noise_rms / metrics["ifed_dt1e-04"].noise_rms
    )
    results = {"series": series, "metrics": metrics}
    results["report"] = format_fig4_metrics(results)
    plots = {
        name: (drive, [(f"dt={dt:.0e} s", series[f"{drive}fed_dt{dt:.0e}"]) for dt in FIG4_DTS[::-1]])
        for name, drive in (("current_driven", "i"), ("voltage_driven", "v"))
    }
    emit_study(out_dir, "fig4", series, plots, results["report"])
    return results


def format_fig4_metrics(results) -> str:
    lines = []
    for key in ("ifed_dt1e-04", "ifed_dt1e-05", "vfed_dt1e-04", "vfed_dt1e-05"):
        metric = results["metrics"][key]
        lines.append(
            f"{key}: fundamental = {metric.fundamental_amplitude:.6e}, "
            f"noise_rms = {metric.noise_rms:.6e}, ratio = {metric.ratio:.3e}"
        )
    lines.append(
        "current-driven noise growth (dt 1e-5 / 1e-4) = "
        f"{results['metrics']['vnoise_ratio_small_over_large_dt']:.3f}"
    )
    return "\n".join(lines) + "\n"


def run_fig5(cfg: ExperimentConfig, out_dir) -> dict:
    """Conductance-variant comparison across mesh refinement, current-driven.

    Four runs in worker processes (:func:`run_transients`): both conductance variants on
    the coarse and fine mesh at dt = 1e-4 s.  The original variant ("G") is the paper's
    exact, mesh-free conductance (:func:`~foilfem.winding.assemble_G_exact`), so
    ``G - Ge`` may be indefinite on a coarse mesh and that run may diverge; the
    consistent variant is ``Ge``.  Reported per mesh: the relative RMS discrepancy
    between the two voltage traces (``inf`` if either run diverged) and any divergence
    markers.  Writes the CSV, SVG and metrics files to ``out_dir`` and returns the
    metrics text as ``results["report"]``.
    """
    time_grid(cfg, FIG5_DT)
    runs = {}
    for mesh_name, level in (("coarse", COARSE_LEVEL), ("fine", FINE_LEVEL)):
        system, spec, basis = build_system(cfg, build_mesh(cfg, level))
        system = replace(system, G=assemble_G_exact(spec, basis))
        runs |= {f"{mesh_name}_{mode}": (system, "i", mode, FIG5_DT) for mode in ("G", "Ge")}
    series = run_transients(cfg, runs)
    diverged = {key: s.diverged_at for key, s in series.items()}
    results = {"series": series, "discrepancy": {}, "diverged": diverged}
    for mesh_name in ("coarse", "fine"):
        # a diverged trace grows until the blow-up bound stops it, so any
        # finite RMS over it would measure that bound, not the models
        results["discrepancy"][mesh_name] = math.inf
        if all(diverged[f"{mesh_name}_{mode}"] is None for mode in ("G", "Ge")):
            v_g, v_ge = (response(series[f"{mesh_name}_{mode}"], "i")[0] for mode in ("G", "Ge"))
            ref = float(np.sqrt(np.mean(v_ge**2)))
            results["discrepancy"][mesh_name] = float(np.sqrt(np.mean((v_g - v_ge) ** 2))) / ref
    lines = [f"{name}: rel RMS discrepancy = {v:.6e}" for name, v in results["discrepancy"].items()]
    lines += [f"diverged[{key}] = {step}" for key, step in results["diverged"].items()]
    results["report"] = "\n".join(lines) + "\n"
    plots = {
        mesh_name: ("i", [(label, series[f"{mesh_name}_{mode}"])
                          for label, mode in (("original G", "G"), ("consistent Ge", "Ge"))])
        for mesh_name in ("coarse", "fine")
    }
    emit_study(out_dir, "fig5", series, plots, results["report"])
    return results


def run_classify(cfg: ExperimentConfig) -> str:
    """Classification report for both conductance variants plus a refinement trend."""
    mesh = build_mesh(cfg)
    system, _, _ = build_system(cfg, mesh)
    lines = [f"mesh level {cfg.mesh_level}: {mesh.n_nodes} nodes, basis {cfg.basis_family}"]
    for mode in ("Ge", "G"):
        cls = classify_element(system, mode)
        lines.append(f"--- mode {mode} ---")
        lines.append(cls.as_report())
    lines.append("--- refinement trend ---")
    for level in range(3):
        if level:
            mesh = refine_uniform(mesh)
            system, _, _ = build_system(cfg, mesh)
        measure = singular_perturbation_measure(system.G, system.G_e, system.c)
        lines.append(
            f"refine x{level}: nodes = {mesh.n_nodes}, frob(G - Ge) = {measure.frob_diff:.6e}, "
            f"rank(X) = {rank(system.X, 1e-10)}"
        )
    return "\n".join(lines) + "\n"


def demo_inductor(cfg: ExperimentConfig) -> str:
    """Lumped-inductor demonstrations: convergence order and noise amplification."""
    noise_grid = noise_fit_grid(cfg, cfg.dt)
    l_val = 1.0e-3
    net = parse_netlist(f"V1 1 0 SIN {cfg.amplitude!r} {cfg.frequency!r}\nL1 1 0 {l_val!r}")
    dae = mna_stamp(net)
    lines = ["voltage-driven inductor, implicit Euler vs closed form:"]
    errors = []
    dts = (1.0e-3, 5.0e-4, 2.5e-4)
    for dt in dts:
        series = integrate(dae, StepperConfig(t0=0.0, t_end=0.02, dt=dt))
        exact = lumped_inductor_voltage_driven(l_val, 0.0, net.branches[0].value, series.times)
        err = float(np.max(np.abs(series.currents["L1"] - exact)))
        errors.append(err)
        lines.append(f"  dt = {dt:.2e}: max error = {err:.6e}")
    for k in range(len(dts) - 1):
        order = math.log(errors[k] / errors[k + 1]) / math.log(dts[k] / dts[k + 1])
        lines.append(f"  observed order ({dts[k]:.0e} -> {dts[k+1]:.0e}) = {order:.3f}")
    net = parse_netlist(f"{source_line(cfg, 'i')}\nL1 0 1 {l_val!r}")
    series = integrate(mna_stamp(net), noise_grid)
    metric = noise_metric(series.times, series.voltages["L1"], cfg.frequency)
    bound = l_val * 2.0 * cfg.perturbation_amplitude / cfg.dt
    lines.append("current-driven inductor with perturbed source:")
    lines.append(f"  backward-difference noise bound = {bound:.6e} V")
    lines.append(f"  measured noise RMS = {metric.noise_rms:.6e} V")
    lines.append(f"  rms / bound = {metric.noise_rms / bound:.3f}")
    return "\n".join(lines) + "\n"


def emit_csv(path, series: TimeSeries, probe: str) -> None:
    """Write one probe as ``t,i,v`` rows (full float precision, LF endings)."""
    columns = (np.asarray(column, dtype=float).tolist() for column in series.probe(probe))
    lines = ["t,i,v"] + [f"{t!r},{i!r},{v!r}" for t, i, v in zip(*columns)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_csv_series(path):
    """Parse a ``t,i,v`` CSV written by :func:`emit_csv`."""
    lines = Path(path).read_text(encoding="ascii").splitlines()
    if not lines or lines[0] != "t,i,v":
        raise ParseError("missing 't,i,v' header", line=1)
    rows = [tuple(float(tok) for tok in line.split(",")) for line in lines[1:] if line]
    data = np.asarray(rows, dtype=float).reshape(-1, 3)
    return data[:, 0], data[:, 1], data[:, 2]


_SVG_COLORS = ("#1b6ca8", "#c23b22", "#2e8b57", "#8856a7")


def emit_svg_plot(path, curves, xlabel: str, ylabel: str) -> None:
    """Static deterministic SVG line plot: one polyline per labeled curve.

    ``curves`` holds ``(label, times, values, diverged_at)`` tuples, with
    ``diverged_at`` as in :class:`TimeSeries`.  The y-range spans the finite
    values of the curves that did not diverge (of all curves if each one did),
    and a diverged curve is clipped to it, so a blow-up cannot flatten the
    bounded curves.
    """
    width, height, margin = 800, 500, 70
    xs = np.concatenate([np.asarray(c[1], dtype=float) for c in curves])
    ranged = [c for c in curves if c[3] is None] or curves
    ys = np.concatenate([np.asarray(c[2], dtype=float) for c in ranged])
    finite = np.isfinite(ys)
    x_min, x_max = float(xs.min()), float(xs.max())
    y_min = float(ys[finite].min()) if finite.any() else -1.0
    y_max = float(ys[finite].max()) if finite.any() else 1.0
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0
    pad = 0.05 * (y_max - y_min)
    y_min -= pad
    y_max += pad

    def sx(x):
        return margin + (x - x_min) / (x_max - x_min) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y_min) / (y_max - y_min) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
    ]
    for k in range(5):
        xv = x_min + k * (x_max - x_min) / 4
        yv = y_min + k * (y_max - y_min) / 4
        parts.append(
            f'<text x="{sx(xv):.1f}" y="{height - margin + 20}" font-size="12" '
            f'text-anchor="middle">{xv:.4g}</text>'
        )
        parts.append(
            f'<text x="{margin - 8}" y="{sy(yv):.1f}" font-size="12" '
            f'text-anchor="end">{yv:.4g}</text>'
        )
    parts.append(
        f'<text x="{width / 2:.0f}" y="{height - 15}" font-size="14" '
        f'text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="20" y="{height / 2:.0f}" font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 20 {height / 2:.0f})">{ylabel}</text>'
    )
    for idx, (label, t, y, diverged_at) in enumerate(curves):
        color = _SVG_COLORS[idx % len(_SVG_COLORS)]
        t = np.asarray(t, dtype=float)
        y = np.asarray(y, dtype=float)
        keep = np.isfinite(y)
        if diverged_at is not None:
            y = np.clip(y, y_min, y_max)
        px, py = sx(t[keep]).tolist(), sy(y[keep]).tolist()
        points = " ".join(f"{tv:.3f},{yv:.3f}" for tv, yv in zip(px, py))
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.2"/>')
        ly = margin + 18 * idx
        parts.append(
            f'<line x1="{width - margin - 150}" y1="{ly}" x2="{width - margin - 120}" '
            f'y2="{ly}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{width - margin - 112}" y="{ly + 4}" font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="ascii")
