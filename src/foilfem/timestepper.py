"""Implicit Euler integration of the stamped field-circuit DAE.

Constant step size, one factorization of ``E/dt + A`` per run, deterministic
output.  Every run starts from the all-zero state, checked against the
algebraic rows by :func:`consistent_zero_start`.  Each source waveform is
evaluated once on the whole time grid and summed per row before the loop.
A system of at most ``PROPAGATOR_MAX_ROWS`` unknowns steps with the
amplification matrix of :func:`propagator`, one BLAS ``dgemv`` per step; a
larger one solves ``E/dt + A`` at every step.  The loop steps in blocks of
``BLOCK_STEPS`` states: it writes each state into a preallocated block and,
once per block, copies the state entries the probes read and tests the block
for divergence; each probe's (i, v) trace is derived from the copied entries
after the loop.  Divergence (a state entry whose
magnitude is not at most ``BLOWUP_BOUND``, which includes NaN and inf) is a
reportable outcome, not an error: the integrator marks the first diverged
step and returns the partial series up to it, so unstable configurations can
be plotted.  The steps after it in its block (up to ``BLOCK_STEPS - 1 = 63``)
are computed too and thrown away.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemv

from .circuit import DAESystem
from .errors import (
    InconsistentInitialStateError,
    SingularMatrixError,
    SingularSystemAtStepError,
    ValidationError,
)
from .linalg import csr_product, sparse_factorize

MAX_STEPS = 10_000_000
BLOWUP_BOUND = 1e12  # a state entry beyond this magnitude marks divergence
BLOCK_STEPS = 64  # states stepped between two divergence tests and probe copies
ZERO_START_ATOL = 1e-12  # largest source magnitude a zero start leaves on an algebraic row
GRID_RTOL = 1e-9  # how far n_steps * dt may miss the duration, relative to it
# Largest system stepped with its amplification matrix, one dgemv per step, instead of a CSR
# product and a SuperLU solve.  Per step (2-vCPU Xeon, OpenBLAS 0.3.31, one thread): 3.4 vs
# 12.4 us at 91 rows and 10.8 vs 35.7 us at 238 (levels 0 and 1), but 564 vs 179 us at 1203
# (level 2, where T takes 11.6 MB); dgemv takes 36 us at 400 rows and 68 us at 500, so the
# per-step crossover is near 500 rows.  Forming T costs one solve per row (4.8 ms at 238), and
# at 300 rows T takes 0.72 MB, which stays in a core's 2 MB L2 cache.
PROPAGATOR_MAX_ROWS = 300


@dataclass(frozen=True)
class StepperConfig:
    """Time grid of one integration run; ``dt`` must divide ``t_end - t0``."""

    t0: float
    t_end: float
    dt: float

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValidationError(f"dt must be positive, got {self.dt!r}", key="dt")
        if not self.t_end > self.t0:
            raise ValidationError(f"t_end must exceed t0, got {self.t_end!r}", key="duration")
        span = self.t_end - self.t0
        steps = span / self.dt
        if not steps <= MAX_STEPS:
            raise ValidationError(f"step count {steps:.0f} exceeds the {MAX_STEPS} guard", key="dt")
        if self.n_steps < 1:
            raise ValidationError(
                f"dt {self.dt!r} leaves no step in the duration {span!r}", key="dt"
            )
        if abs(self.n_steps * self.dt - span) > GRID_RTOL * span:
            raise ValidationError(f"dt {self.dt!r} does not divide the duration {span!r}", key="dt")

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
    return np.zeros(dae.E.shape[0])


def propagator(lhs, e_over_dt, rows):
    """Implicit Euler's amplification matrix and source columns, each from one block solve.

    ``lhs`` is the :class:`~foilfem.linalg.Factorization` of ``E/dt + A``.  Returns
    ``T = lhs^-1 (E/dt)``, Fortran-ordered for BLAS ``dgemv``, and ``W`` whose column
    ``r`` is ``lhs^-1 e_{rows[r]}``, so that a step with the source values ``s_r`` on
    ``rows`` is ``y <- T y + sum_r s_r W[:, r]``.  The spectral radius of ``T`` above 1
    is the instability of a run.
    """
    amplification = np.asfortranarray(lhs.solve(e_over_dt.toarray()))
    columns = lhs.solve(np.eye(lhs.n)[:, rows])
    return amplification, columns


def integrate(dae: DAESystem, cfg: StepperConfig, probe_names=None) -> TimeSeries:
    """March ``(E/dt + A) y_next = (E/dt) y + s(t_next)`` from the zero state.

    ``s`` is :meth:`DAESystem.row_sources` on the whole grid, evaluated once.  Up to
    ``PROPAGATOR_MAX_ROWS`` unknowns a step is ``y <- T y + f_k`` (:func:`propagator`),
    which differs from a per-step solve only in round-off and gives the same bits under
    any BLAS thread count; larger systems solve with SuperLU's factors at each step.
    The states go into a block of ``BLOCK_STEPS`` rows.  After each block,
    one test of ``max|y| <= BLOWUP_BOUND`` per state finds the first diverged
    step, if any, and one copy moves the probed entries into the trace table.
    A run that diverges is cut at that step, exactly as a test after every
    step would cut it; the up to 63 later steps of its block are computed and
    thrown away.
    After the loop, R, C and I probes derive their current (``v / R``, the
    backward difference ``C dv/dt``, which is 0 at step 0, and the source
    waveform on the time grid); L, V and FW probes read theirs from the state.
    """
    n_steps = cfg.n_steps
    times = cfg.t0 + cfg.dt * np.arange(n_steps + 1)
    if probe_names is None:
        probe_names = list(dae.probes)
    probes = {name: dae.probes[name] for name in probe_names}
    e_over_dt = dae.E.multiply(1.0 / cfg.dt).tocsr()
    try:
        lhs = sparse_factorize(e_over_dt + dae.A)
    except SingularMatrixError as exc:
        raise SingularSystemAtStepError(f"iteration matrix singular: {exc}") from exc

    # the state entries the probes read; ground (-1) reads the last column, which stays 0
    entries = {i for p in probes.values() for i in (p.pos_index, p.neg_index, p.current_index)}
    watched = sorted(entries - {-1})
    column = {index: c for c, index in enumerate([*watched, -1])}
    watched = np.asarray(watched, dtype=np.intp)
    recorded = np.zeros((n_steps + 1, len(watched) + 1))  # row 0 is the zero start

    y = consistent_zero_start(dae, cfg.t0)
    sources = dae.row_sources(times)
    propagated = y.shape[0] <= PROPAGATOR_MAX_ROWS
    if propagated:
        amplification, columns = propagator(lhs, e_over_dt, list(sources))
        forcing = list(zip(sources.values(), columns.T))
    else:
        product, solve = csr_product(e_over_dt), lhs.solve
        sources = [(row, values.tolist()) for row, values in sources.items()]
    block = np.empty((min(BLOCK_STEPS, n_steps), y.shape[0]))
    diverged_at = None
    for start in range(1, n_steps + 1, BLOCK_STEPS):
        stop = min(start + BLOCK_STEPS, n_steps + 1)
        states = block[: stop - start]
        if propagated:
            # f_k = sum_r s_r(t_k) W[:, r] summed from 0.0 in row order, as one step's sum is
            y = y.copy()  # may be a row of ``states``, which the forcing overwrites
            states.fill(0.0)
            for values, w in forcing:
                states += np.multiply.outer(values[start:stop], w)
            for state in states:
                y = dgemv(1.0, amplification, y, 1.0, state, overwrite_y=True)
        else:
            # a source row's value added as a scalar is bit for bit the full s added: its
            # other rows hold +0.0, and a product entry, summed from +0.0, is never -0.0
            for j, k in enumerate(range(start, stop)):
                rhs = product(y)
                for row, values in sources:
                    rhs[row] += values[k]
                y = solve(rhs)
                states[j] = y
        recorded[start:stop, :-1] = states[:, watched]
        bounded = np.abs(states).max(axis=1) <= BLOWUP_BOUND
        if not bounded.all():
            diverged_at = start + int(np.argmin(bounded))
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
