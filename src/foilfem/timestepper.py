"""Implicit Euler integration of the stamped field-circuit DAE.

Constant step size, one factorization of ``E/dt + A`` per run, deterministic
output.  Every run starts from the all-zero state, checked against the
algebraic rows by :func:`consistent_zero_start`.  The loop keeps only the
state entries the probes read; each probe's (i, v) trace is derived from them
after the loop.  Divergence (a state entry whose magnitude is not at most
``BLOWUP_BOUND``, which includes NaN and inf) is a reportable outcome, not an
error: the integrator marks the step and returns the partial series so
unstable configurations can be plotted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import DAESystem
from .errors import (
    InconsistentInitialStateError,
    SingularMatrixError,
    SingularSystemAtStepError,
    ValidationError,
)
from .linalg import sparse_factorize

MAX_STEPS = 10_000_000
BLOWUP_BOUND = 1e12  # a state entry beyond this magnitude marks divergence
ZERO_START_ATOL = 1e-12  # largest source magnitude a zero start leaves on an algebraic row


@dataclass(frozen=True)
class StepperConfig:
    """Time grid of one integration run."""

    t0: float
    t_end: float
    dt: float

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValidationError(f"dt must be positive, got {self.dt!r}", key="dt")
        if not self.t_end > self.t0:
            raise ValidationError(f"t_end must exceed t0, got {self.t_end!r}", key="duration")
        steps = (self.t_end - self.t0) / self.dt
        if not steps <= MAX_STEPS:
            raise ValidationError(f"step count {steps:.0f} exceeds the {MAX_STEPS} guard", key="dt")

    @property
    def n_steps(self) -> int:
        return int(round((self.t_end - self.t0) / self.dt))


@dataclass
class TimeSeries:
    """Per-step terminal quantities of the probed branches.

    ``times`` has uniform spacing; ``currents``/``voltages`` map branch names
    to aligned arrays.  ``diverged_at`` is the step index where the state
    exceeded the blow-up bound (None for a clean run); the arrays contain the
    partial history up to and including that step.
    """

    times: np.ndarray
    currents: dict
    voltages: dict
    diverged_at: int | None = None

    def probe(self, name: str):
        return self.times, self.currents[name], self.voltages[name]


def consistent_zero_start(dae: DAESystem, t0: float) -> np.ndarray:
    """All-zero initial state, verified against the algebraic rows at ``t0``.

    Rows of ``E`` without any stored entry are purely algebraic; a zero state
    satisfies them only when the source vanishes there.  Sine-type sources at
    t0 = 0 qualify; a DC source does not.
    """
    algebraic = np.flatnonzero(np.diff(dae.E.indptr) == 0)
    residual = dae.source(t0)[algebraic]
    if residual.size and float(np.max(np.abs(residual))) > ZERO_START_ATOL:
        raise InconsistentInitialStateError(
            f"zero state violates algebraic rows at t0 (residual {np.max(np.abs(residual)):.3e})"
        )
    return np.zeros(dae.n)


def integrate(dae: DAESystem, cfg: StepperConfig, probe_names=None) -> TimeSeries:
    """March ``(E/dt + A) y_next = (E/dt) y + s(t_next)`` from the zero state.

    After the loop, R, C and I probes derive their current (``v / R``, the
    backward difference ``C dv/dt``, which is 0 at step 0, and the source
    waveform on the time grid); L, V and FW probes read theirs from the state.
    """
    n_steps = cfg.n_steps
    times = cfg.t0 + cfg.dt * np.arange(n_steps + 1)
    if probe_names is None:
        probe_names = list(dae.probes)
    probes = {name: dae.probes[name] for name in probe_names}
    try:
        lhs = sparse_factorize(dae.E.multiply(1.0 / cfg.dt) + dae.A)
    except SingularMatrixError as exc:
        raise SingularSystemAtStepError(f"iteration matrix singular: {exc}") from exc
    e_over_dt = (dae.E.multiply(1.0 / cfg.dt)).tocsr()

    # the state entries the probes read; ground (-1) reads the last column, which stays 0
    entries = {i for p in probes.values() for i in (p.pos_index, p.neg_index, p.current_index)}
    watched = sorted(entries - {-1})
    column = {index: c for c, index in enumerate([*watched, -1])}
    watched = np.asarray(watched, dtype=np.intp)
    recorded = np.zeros((n_steps + 1, len(watched) + 1))  # row 0 is the zero start

    y = consistent_zero_start(dae, cfg.t0)
    diverged_at = None
    for k in range(1, n_steps + 1):
        y = lhs.solve(e_over_dt @ y + dae.source(times[k]))
        recorded[k, :-1] = y[watched]
        if not np.max(np.abs(y)) <= BLOWUP_BOUND:
            diverged_at = k
            break

    keep = n_steps + 1 if diverged_at is None else diverged_at + 1
    times, recorded = times[:keep], recorded[:keep]
    currents, voltages = {}, {}
    for name, p in probes.items():
        v = recorded[:, column[p.pos_index]] - recorded[:, column[p.neg_index]]
        if p.kind == "R":
            currents[name] = v / p.value
        elif p.kind == "C":
            currents[name] = p.value * np.diff(v, prepend=v[0]) / cfg.dt
        elif p.kind == "I":
            currents[name] = p.value(times)
        else:  # L, V, FW carry their current as an unknown
            currents[name] = recorded[:, column[p.current_index]]
        voltages[name] = v
    return TimeSeries(times=times, currents=currents, voltages=voltages, diverged_at=diverged_at)
