"""The benchmark workloads.  Each is a closed loop: one caller, the next
operation starts when the previous one has returned and been checked.

``assemble-ladder``  one op builds mesh + coupled system at levels 0-3
                     (Legendre basis) and at level 2 (hat basis).
``transient``        one op is a 22 ms run at dt = 1e-5 with current drive and
                     Ge, then one with voltage drive and G, on level 0.
``studies``          one op runs ``foilfem.cli.main`` in-process for ``fig4``,
                     ``fig5`` and ``classify`` on a generated config file.

Every workload calls foilfem through module attributes, so the tracer's
wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import tempfile
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

import foilfem.cli as cli
import foilfem.dae_analysis as dae_analysis
import foilfem.experiments as fx

from . import checks, inputs

OUT_DIR = Path(__file__).resolve().parent / "out"
DT = 1.0e-5
PROBE = "FW1"


def _probe_values(series, drive: str):
    return series.voltages[PROBE] if drive == "i" else series.currents[PROBE]


def high_percentile(samples):
    """``(p, value)``: the highest whole percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    return int(100 * (n - 10) // n), ordered[n - 11]


def describe(name: str, unit: str, values) -> str:
    """A median with its sample count and, where it exists, the tail percentile."""
    line = f"{name} = {float(np.median(values)):.6g} {unit} (median of {len(values)}"
    tail = high_percentile(values)
    if tail is None:
        return line + "; fewer than 11 samples, no tail percentile)"
    p, value = tail
    return line + f"; {name}.p{p} = {value:.6g} {unit})"


class Workload:
    """Set-up, one operation, its checks and its reference quantities."""

    name = ""
    setup_repeats = 9

    def __init__(self, seed: int):
        self.seed = seed
        self.cfg = inputs.make_config(seed)
        self.repeat = checks.Repeatability()
        self.reference = None  # stored quantities to match, set on seed 0

    def setup(self) -> None:
        raise NotImplementedError

    def setup_problems(self) -> list:
        return []

    def run_op(self):
        """Run one operation; return ``(timings, outputs)`` with ``timings["op_s"]`` set."""
        raise NotImplementedError

    def check(self, outputs) -> list:
        raise NotImplementedError

    def quantities(self, outputs) -> dict:
        """The Ge-variant quantities compared against ``reference_seed0.json``."""
        raise NotImplementedError

    def check_reference(self, outputs) -> list:
        if self.reference is None:
            return []
        return checks.compare_reference(self.quantities(outputs), self.reference)

    def verify(self, outputs) -> list:
        """All checks of one operation's outputs (reference quantities first)."""
        return self.check_reference(outputs) + self.check(outputs)

    def summary(self, timings: list) -> list:
        return []

    def close(self) -> None:
        pass


class AssembleLadder(Workload):
    name = "assemble-ladder"
    RUNGS = ((0, "legendre"), (1, "legendre"), (2, "legendre"), (3, "legendre"), (2, "hat"))

    def setup(self):
        self.cfgs = {fam: replace(self.cfg, basis_family=fam) for _, fam in self.RUNGS}
        self.warm = fx.build_system(self.cfg, fx.build_mesh(self.cfg, 0))[0]

    def setup_problems(self):
        return checks.check_system(self.warm, 0, "warm-up level 0")

    def run_op(self):
        systems = {}
        t0 = perf_counter()
        for level, fam in self.RUNGS:
            cfg = self.cfgs[fam]
            systems[(level, fam)] = fx.build_system(cfg, fx.build_mesh(cfg, level))[0]
        return {"op_s": perf_counter() - t0}, systems

    def check(self, systems):
        problems = []
        for (level, fam), system in systems.items():
            label = f"level {level} {fam}"
            problems += checks.check_system(system, level, label)
            problems += self.repeat.check(label, checks.fingerprint(
                system.K.data, system.K.indices, system.M.data, system.M.indices,
                system.X, system.G, system.G_e, system.c,
            ))
        return problems

    def quantities(self, systems):
        out = {}
        for (level, fam), system in systems.items():
            out[f"L{level}-{fam}.Ge"] = np.asarray(system.G_e).ravel().tolist()
            out[f"L{level}-{fam}.c"] = np.asarray(system.c).tolist()
        return out

    def summary(self, timings):
        return [describe("build_s", "s", [t["op_s"] for t in timings])]


class Transient(Workload):
    name = "transient"
    RUNS = (("i", "Ge"), ("v", "G"))
    level = 0

    def setup(self):
        self.system = fx.build_system(self.cfg, fx.build_mesh(self.cfg, self.level))[0]

    def setup_problems(self):
        return checks.check_system(self.system, self.level, f"level {self.level}")

    def run_op(self):
        timings, runs = {}, {}
        t_op = perf_counter()
        for drive, mode in self.RUNS:
            t0 = perf_counter()
            series = fx.run_transient(self.cfg, self.system, drive, mode, DT)
            wall = perf_counter() - t0
            runs[(drive, mode)] = series
            timings[f"step_us.{drive}{mode}"] = 1e6 * wall / max(len(series.times) - 1, 1)
        timings["op_s"] = perf_counter() - t_op
        return timings, runs

    def check(self, runs):
        problems = []
        for (drive, mode), series in runs.items():
            label = f"level {self.level} {drive}-drive {mode}"
            values = _probe_values(series, drive)
            problems += checks.check_trace(values, mode, series.diverged_at, label)
            problems += self.repeat.check(label, checks.fingerprint(series.times, values))
        return problems

    def quantities(self, runs):
        series = runs[("i", "Ge")]
        return {f"L{self.level}.ifed_Ge": checks.trace_digest(_probe_values(series, "i"))}

    def summary(self, timings):
        samples = [t[f"step_us.{d}{m}"] for t in timings for d, m in self.RUNS]
        return [describe("step_us.coarse", "us", samples)]


class Studies(Workload):
    name = "studies"
    COMMANDS = ("fig4", "fig5", "classify")

    def __init__(self, seed: int):
        super().__init__(seed)
        self.tmp_root = None

    def setup(self):
        if self.tmp_root is None:
            OUT_DIR.mkdir(parents=True, exist_ok=True)
            self.tmp_root = Path(tempfile.mkdtemp(prefix="studies-", dir=OUT_DIR))
        self.config_path = self.tmp_root / "study.cfg"
        self.config_path.write_text(inputs.config_file_text(self.seed), encoding="ascii")
        self.warm = fx.build_system(self.cfg, fx.build_mesh(self.cfg, 0))[0]

    def setup_problems(self):
        return checks.check_system(self.warm, 0, "warm-up level 0")

    def run_op(self):
        out = Path(tempfile.mkdtemp(prefix="op-", dir=self.tmp_root))
        timings, stdout = {}, {}
        t_op = perf_counter()
        for command in self.COMMANDS:
            buf = io.StringIO()
            t0 = perf_counter()
            with contextlib.redirect_stdout(buf):
                status = cli.main([command, "--config", str(self.config_path), "--out", str(out / command)])
            timings[f"{command}_s"] = perf_counter() - t0
            stdout[command] = (status, buf.getvalue())
        timings["op_s"] = perf_counter() - t_op
        return timings, {"dir": out, "stdout": stdout}

    def _series(self, out: Path, stem: str):
        return fx.read_csv_series(out / stem.split("_", 1)[0] / f"{stem}.csv")

    def check(self, outputs):
        out = outputs["dir"]
        try:
            problems = []
            for command, (status, text) in outputs["stdout"].items():
                if status != 0:
                    problems.append(f"{command}: exit status {status}")
                problems += self.repeat.check(f"{command} stdout", checks.fingerprint(
                    np.frombuffer(text.encode(), dtype=np.uint8)))
            files = sorted(p for p in out.rglob("*") if p.is_file())
            if not files:
                problems.append("no output files written")
            for path in files:
                data = np.frombuffer(path.read_bytes(), dtype=np.uint8)
                problems += self.repeat.check(str(path.relative_to(out)), checks.fingerprint(data))
            for path in files:
                if path.suffix != ".csv":
                    continue
                _, i, v = fx.read_csv_series(path)
                # fig5 drives by current, like fig4's "ifed" runs: the voltage is the response
                values = v if "_ifed_" in path.name or path.name.startswith("fig5_") else i
                mode = "G" if path.stem.endswith("_G") else "Ge"
                problems += checks.check_trace(values[:-1] if mode == "G" else values, mode, None, path.name)
            return problems
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def quantities(self, outputs):
        out = outputs["dir"]
        q = {}
        for key, drive in (("ifed_dt1e-04", "i"), ("ifed_dt1e-05", "i"), ("vfed_dt1e-04", "v"), ("vfed_dt1e-05", "v")):
            t, i, v = self._series(out, f"fig4_{key}")
            values = v if drive == "i" else i
            m = fx.noise_metric(t, values, self.cfg.frequency)
            q[f"fig4.{key}"] = [m.fundamental_amplitude, m.noise_rms, m.ratio]
            q[f"fig4.{key}.trace"] = checks.trace_digest(values)
        for mesh_name in ("coarse", "fine"):
            _, _, v = self._series(out, f"fig5_{mesh_name}_Ge")
            q[f"fig5.{mesh_name}_Ge.trace"] = checks.trace_digest(v)
        q["classify.L"] = [dae_analysis.classify_element(self.warm, "Ge").L]
        return q

    def summary(self, timings):
        lines = [describe(f"{c}_s", "s", [t[f"{c}_s"] for t in timings]) for c in self.COMMANDS]
        lines.append(describe("study_s", "s", [t["op_s"] for t in timings]))
        return lines

    def close(self):
        if self.tmp_root is not None:
            shutil.rmtree(self.tmp_root, ignore_errors=True)


WORKLOADS = {w.name: w for w in (AssembleLadder, Transient, Studies)}
