"""Implicit Euler integration of the stamped field-circuit DAE.

Constant step size, one factorization of ``E/dt + A`` per run, deterministic
output.  Divergence (state norm beyond ``BLOWUP_BOUND``, or non-finite values)
is a reportable outcome, not an error: the integrator marks the step
and returns the partial series so unstable configurations can be plotted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import DAESystem, Probe
from .errors import (
    InconsistentInitialStateError,
    SingularMatrixError,
    SingularSystemAtStepError,
)
from .linalg import sparse_factorize

MAX_STEPS = 10_000_000
BLOWUP_BOUND = 1e12  # a state entry beyond this magnitude marks divergence
ZERO_START_ATOL = 1e-12  # largest source magnitude a zero start leaves on an algebraic row


@dataclass(frozen=True)
class StepperConfig:
    """Time grid and policies for one integration run."""

    t0: float
    t_end: float
    dt: float
    snapshot_stride: int = 0  # 0 disables full-state snapshots
    initial_state: np.ndarray | None = None  # zero start when omitted

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.t_end <= self.t0:
            raise ValueError("t_end must exceed t0")
        if self.n_steps > MAX_STEPS:
            raise ValueError(f"step count {self.n_steps} exceeds the {MAX_STEPS} guard")

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
    states: np.ndarray | None = None

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


def _probe_values(probe: Probe, y, y_prev, dt, t):
    phi_p = y[probe.pos_index] if probe.pos_index >= 0 else 0.0
    phi_n = y[probe.neg_index] if probe.neg_index >= 0 else 0.0
    v = phi_p - phi_n
    if probe.kind == "R":
        return v / probe.value, v
    if probe.kind == "C":
        vp_p = y_prev[probe.pos_index] if probe.pos_index >= 0 else 0.0
        vp_n = y_prev[probe.neg_index] if probe.neg_index >= 0 else 0.0
        return probe.value * (v - (vp_p - vp_n)) / dt, v
    if probe.kind == "I":
        return float(probe.value(t)), v
    return y[probe.current_index], v  # L, V, FW carry their current as an unknown


def integrate(dae: DAESystem, cfg: StepperConfig, probe_names=None) -> TimeSeries:
    """March ``(E/dt + A) y_next = (E/dt) y + s(t_next)`` over the time grid."""
    n_steps = cfg.n_steps
    times = cfg.t0 + cfg.dt * np.arange(n_steps + 1)
    if probe_names is None:
        probe_names = list(dae.probes)
    try:
        lhs = sparse_factorize(dae.E.multiply(1.0 / cfg.dt) + dae.A)
    except SingularMatrixError as exc:
        raise SingularSystemAtStepError(f"iteration matrix singular: {exc}", step=0) from exc
    e_over_dt = (dae.E.multiply(1.0 / cfg.dt)).tocsr()

    if cfg.initial_state is not None:
        y = np.asarray(cfg.initial_state, dtype=float).copy()
        if y.shape[0] != dae.n:
            raise ValueError("initial state has wrong length")
    else:
        y = consistent_zero_start(dae, cfg.t0)

    currents = {name: np.empty(n_steps + 1) for name in probe_names}
    voltages = {name: np.empty(n_steps + 1) for name in probe_names}
    snapshots = [] if cfg.snapshot_stride else None

    def record(k, state, prev_state):
        for name in probe_names:
            i, v = _probe_values(dae.probes[name], state, prev_state, cfg.dt, times[k])
            currents[name][k] = i
            voltages[name][k] = v
        if snapshots is not None and k % cfg.snapshot_stride == 0:
            snapshots.append(state.copy())

    record(0, y, y)
    diverged_at = None
    last = n_steps
    for k in range(1, n_steps + 1):
        rhs = e_over_dt @ y + dae.source(times[k])
        y_next = lhs.solve(rhs)
        record(k, y_next, y)
        if not np.all(np.isfinite(y_next)) or float(np.max(np.abs(y_next))) > BLOWUP_BOUND:
            diverged_at = k
            last = k
            break
        y = y_next

    keep = last + 1
    return TimeSeries(
        times=times[:keep],
        currents={name: arr[:keep] for name, arr in currents.items()},
        voltages={name: arr[:keep] for name, arr in voltages.items()},
        diverged_at=diverged_at,
        states=np.asarray(snapshots) if snapshots else None,
    )
