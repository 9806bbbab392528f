"""Implicit Euler integration of the stamped field-circuit DAE.

Constant step size, one factorization of ``E/dt + A`` per run, deterministic output.  Every
run starts from the all-zero state, checked against the algebraic rows by
:func:`consistent_zero_start`.  Each source waveform is evaluated once on the whole time grid
and summed per row before the loop.  The loop steps in chunks of whole blocks of
``BLOCK_STEPS`` = 16 steps, up to 512 states, so that a chunk's table holds at most
``CHUNK_ENTRIES`` entries.  Up to ``PROPAGATOR_MAX_ROWS`` unknowns, a chunk whose inputs (its
blocks' start states and source values) are small enough to bound every one of its states
within ``BLOWUP_BOUND`` computes only the state entries the probes read, with implicit Euler's
block propagator (:func:`block_propagator`), and cannot diverge.  Every other chunk steps with
a solve of ``E/dt + A`` per step and tests its states for divergence: a state entry whose
magnitude is not at most ``BLOWUP_BOUND``, which includes NaN and inf.  Divergence is a
reportable outcome, not an error: the integrator marks the first diverged step and returns the
partial series up to it, so unstable configurations can be plotted.  The steps after it in its
chunk (up to 511) are computed too and thrown away.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm, dgemv

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
BLOCK_STEPS = 16  # steps in one block of the block propagator (B), a power of 2
# Most rows of one BLAS product: a chunk's blocks, and a panel of a square of T.  With OpenBLAS
# 0.3.31 (x86-64), dgemm products of up to 200 rows gave the same bits under one and two
# threads and products of 239 and 300 rows did not.
BLAS_ROWS = 32
ZERO_START_ATOL = 1e-12  # largest source magnitude a zero start leaves on an algebraic row
GRID_RTOL = 1e-9  # how far n_steps * dt may miss the duration, relative to it
# Largest system stepped with the block propagator instead of a CSR product and a SuperLU
# solve per step.  Per step of a 2,200-step run after its set-up (2-vCPU Xeon, OpenBLAS 0.3.31,
# one thread; medians of three measurements, between which the machine's speed varied by up to
# 40 %): 0.8 vs 13.8 us at 91 rows and 1.7 vs 27.4 us at 238 (levels 0 and 1, current drive, one
# probe), 1.5 vs 18.9 us on a 299-row RLC ladder probed at its source and 17.8 vs 16.9 us with
# every branch probed.  The set-up is one solve per row for T (0.30, 2.4 and 2.3 ms) and the
# block propagator (0.36, 3.7 and 9.1 ms; 36 ms and 14 MB with every ladder branch probed).
PROPAGATOR_MAX_ROWS = 300
# Most entries of the table that holds a chunk's states, the steps between two divergence tests
# and probe copies: BLAS_ROWS blocks (512 steps) up to 150 unknowns, fewer above (256 steps at
# 300), 48 steps at level 2 (1203 unknowns).  The table stays within 600 KB, in a core's 2 MB
# L2 cache; a 2.5 MB table (256 steps at level 2) took the stepping loop's own time in five
# fig5 runs from 27 to 50 ms (cProfile).
CHUNK_ENTRIES = 76_800


@dataclass(frozen=True)
class StepperConfig:
    """Time grid of one integration run, from t = 0 to ``t_end``; ``dt`` must divide ``t_end``."""

    t_end: float
    dt: float

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValidationError(f"dt must be positive, got {self.dt!r}", key="dt")
        if not self.t_end > 0.0:
            raise ValidationError(f"t_end must be positive, got {self.t_end!r}", key="duration")
        steps = self.t_end / self.dt
        if not steps <= MAX_STEPS:
            raise ValidationError(f"step count {steps:.0f} exceeds the {MAX_STEPS} guard", key="dt")
        if self.n_steps < 1:
            raise ValidationError(
                f"dt {self.dt!r} leaves no step in the duration {self.t_end!r}", key="dt"
            )
        if abs(self.n_steps * self.dt - self.t_end) > GRID_RTOL * self.t_end:
            raise ValidationError(
                f"dt {self.dt!r} does not divide the duration {self.t_end!r}", key="dt"
            )

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


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


def consistent_zero_start(dae: DAESystem) -> np.ndarray:
    """All-zero initial state, verified against the algebraic rows at t = 0.

    Rows of ``E`` without any stored entry are purely algebraic; a zero state
    satisfies them only when the source vanishes there at the start.  Sine-type
    sources qualify; a DC source does not.
    """
    algebraic = np.flatnonzero(np.diff(dae.E.indptr) == 0)
    residual = dae.source(0.0)[algebraic]
    if residual.size and float(np.max(np.abs(residual))) > ZERO_START_ATOL:
        raise InconsistentInitialStateError(
            f"zero state violates algebraic rows at t = 0 (residual {np.max(np.abs(residual)):.3e})"
        )
    return np.zeros(dae.E.shape[0])


def propagator(lhs, e_over_dt, rows):
    """Implicit Euler's amplification matrix and source columns, each from one block solve.

    ``lhs`` is the :class:`~foilfem.linalg.Factorization` of ``E/dt + A``.  Returns
    ``T = lhs^-1 (E/dt)``, Fortran-ordered for BLAS, and ``W`` whose column ``r`` is
    ``lhs^-1 e_{rows[r]}``, so that one step with the source values ``s_r`` on ``rows`` is
    ``y <- T y + sum_r s_r W[:, r]``; :func:`block_propagator` chains ``BLOCK_STEPS`` such
    steps.  The spectral radius of ``T`` above 1 is the instability of a run.
    """
    amplification = np.asfortranarray(lhs.solve(e_over_dt.toarray()))
    columns = lhs.solve(np.eye(lhs.n)[:, rows])
    return amplification, columns


def _panels(left, right, out, trans_b=False):
    """``out = left @ right`` (``right.T`` with ``trans_b``), ``BLAS_ROWS`` rows per dgemm."""
    for top in range(0, len(left), BLAS_ROWS):
        panel = left[top : top + BLAS_ROWS].T  # C-ordered operands go in as their transposes
        out[top : top + BLAS_ROWS] = dgemm(1.0, panel, right.T, trans_a=True, trans_b=not trans_b)


def block_propagator(amplification, columns, watched):
    """What a block of ``B = BLOCK_STEPS`` steps needs of implicit Euler's block propagator.

    A block's input row is ``u = [y_0, s_1, ..., s_B]``: its start state and the source values
    of its steps, each ``s_m`` ordered as the columns of ``W = columns``.  Its states are
    ``y_j = T^j y_0 + sum_{m <= j} T^(j-m) W s_m``.  Returns ``final`` with ``final @ u = y_B``
    and ``probed``, whose column ``(j - 1) w + k`` maps ``u`` to entry ``watched[k]`` of
    ``y_j``, ``j < B``, both Fortran-ordered for BLAS, and ``gain``: at least 1, at least the
    abs-sum of the map from ``u`` to any entry of any such ``y_j``, and NaN if ``T`` or ``W``
    holds a NaN.  For ``h = 1, 2, ..., B/2``, the square ``S = T^h`` takes the impulse responses
    ``T^i W``, the watched rows ``T^i[watched]`` and the bounds ``v_i >= |T^i| 1`` from
    ``i < h`` to ``i < 2h`` (``|T^i| <= |S| |T^(i-h)|`` entry by entry) and becomes ``S^2``.
    """
    (n, r), w = columns.shape, len(watched)
    # final^T: (T^B)^T, then (T^(B-m) W)^T for s_m, m = 1 .. B
    last = np.empty((n + BLOCK_STEPS * r, n))
    last[n + (BLOCK_STEPS - 1) * r :] = columns.T
    # row j w + k maps u to entry watched[k] of y_j; row k of y_0 is that unit vector
    rows = np.zeros((BLOCK_STEPS * w, n + BLOCK_STEPS * r))
    rows[np.arange(w), watched] = 1.0
    bounds = np.ones((BLOCK_STEPS, n))  # row i bounds |T^i| 1
    square, h = amplification.T, 1  # S^T
    while h < BLOCK_STEPS:
        edge = n + (BLOCK_STEPS - h) * r
        _panels(last[edge:], square, last[edge - h * r : edge])
        _panels(rows[: h * w, :n], square, rows[h * w : 2 * h * w, :n], trans_b=True)
        _panels(bounds[:h], np.abs(square), bounds[h : 2 * h])
        doubled = last[:n] if 2 * h == BLOCK_STEPS else np.empty((n, n))
        _panels(square, square, doubled)
        square, h = doubled, 2 * h
    responses = last[n:, watched].T  # (T^(B-m) W)[watched] for s_m, m = 1 .. B
    for j in range(1, BLOCK_STEPS):  # s_m acts on y_j through (T^(j-m) W)[watched], m <= j
        rows[j * w : (j + 1) * w, n : n + j * r] = responses[:, (BLOCK_STEPS - j) * r :]
    # y_j's abs-sums: |T^j| 1 plus |T^i W| 1 summed over i < j
    impulses = np.abs(last[n:]).reshape(BLOCK_STEPS, r, n).sum(axis=1)[::-1]
    gain = np.maximum((bounds[1:] + np.cumsum(impulses, axis=0)[:-1]).max(), 1.0)
    return last.T, rows[w:].T, gain


def integrate(dae: DAESystem, cfg: StepperConfig, probe_names=None) -> TimeSeries:
    """March ``(E/dt + A) y_next = (E/dt) y + s(t_next)`` from the zero state.

    ``s`` is :meth:`DAESystem.row_sources` on the whole grid, evaluated once.  Up to
    ``PROPAGATOR_MAX_ROWS`` unknowns, one ``dgemv`` per block of ``BLOCK_STEPS`` steps carries
    the state from a block's start to the next (:func:`block_propagator`).  A chunk whose
    inputs (its blocks' rows ``u`` and its end state) are all within ``0.5 * BLOWUP_BOUND``
    over the propagator's gain is certified bounded, and one ``dgemm`` of its input rows with
    ``probed`` gives the probed entries of the states inside its blocks.  These differ from a
    per-step solve only in round-off, and no BLAS product has more than ``BLAS_ROWS`` rows, so
    that the bits do not depend on the BLAS thread count.  Any other chunk, and every chunk of
    a larger system, steps from its start state with SuperLU's factors, one solve of
    ``(E/dt) y`` plus the source rows per step, the same bits as the textbook step; one test of
    ``max|y| <= BLOWUP_BOUND`` per state then finds the first diverged step, where a test after
    every step would cut the run.  After the loop, R, C and I probes derive their current
    (``v / R``, the backward difference ``C dv/dt``, which is 0 at step 0, and the source
    waveform on the time grid); L, V and FW probes read theirs from the state.
    """
    n_steps = cfg.n_steps
    times = cfg.dt * np.arange(n_steps + 1)
    if probe_names is None:
        probe_names = list(dae.probes)
    probes = {name: dae.probes[name] for name in probe_names}
    e_over_dt = dae.E.multiply(1.0 / cfg.dt).tocsr()
    try:
        lhs = sparse_factorize(e_over_dt + dae.A)
    except SingularMatrixError as exc:
        raise SingularSystemAtStepError(
            f"iteration matrix singular: E/dt + A at dt = {cfg.dt!r}: {exc}"
        ) from exc

    # the state entries the probes read; ground (-1) reads the last column, which stays 0
    entries = {i for p in probes.values() for i in (p.pos_index, p.neg_index, p.current_index)}
    watched = sorted(entries - {-1})
    column = {index: c for c, index in enumerate([*watched, -1])}
    watched = np.asarray(watched, dtype=np.intp)
    # row 0 is the zero start; the BLOCK_STEPS spare rows take the tail of the last block
    recorded = np.zeros((n_steps + 1 + BLOCK_STEPS, len(watched) + 1))

    y = consistent_zero_start(dae)
    n = y.shape[0]
    sources = dae.row_sources(times)
    # whole blocks, at most BLAS_ROWS of them, in a table of at most CHUNK_ENTRIES entries
    chunk = np.empty((BLOCK_STEPS * max(1, min(BLAS_ROWS, CHUNK_ENTRIES // (BLOCK_STEPS * n))), n))
    propagated = n <= PROPAGATOR_MAX_ROWS
    if propagated:
        final, probed, gain = block_propagator(*propagator(lhs, e_over_dt, list(sources)), watched)
        # a chunk whose inputs are all at most ``input_bound`` has every state within
        # BLOWUP_BOUND: the factor 0.5 absorbs round-off, and a gain of at least 1 covers the
        # block ends, which are inputs; a NaN gain certifies nothing
        input_bound = 0.5 * BLOWUP_BOUND / gain
        # row c of ``forcing`` is block c's source values, s_1 .. s_B, each in row order;
        # the steps past the grid's end, which fill its last block, have no source
        n_blocks = -(-n_steps // BLOCK_STEPS)
        grid = np.zeros((n_blocks * BLOCK_STEPS, len(sources)))
        for r, values in enumerate(sources.values()):
            grid[:n_steps, r] = values[1:]
        forcing = grid.reshape(n_blocks, -1)
        # row c of ``inputs`` is a chunk's block c input [y_0, s_1 .. s_B]; the row after
        # the chunk's last block gets its end state, the start state of the next chunk
        inputs = np.zeros((BLAS_ROWS + 1, n + forcing.shape[1]))
    # the solve kernel's operands, bound once: the product with E/dt, the solve and, once a
    # chunk first steps with it, each source row's values as a list
    product, solve, row_values = csr_product(e_over_dt), lhs.solve, None
    diverged_at = None
    for start in range(1, n_steps + 1, len(chunk)):
        stop = min(start + len(chunk), n_steps + 1)
        if propagated:
            first = (start - 1) // BLOCK_STEPS
            count = min(n_blocks - first, len(chunk) // BLOCK_STEPS)
            inputs[0, :n] = y
            inputs[:count, n:] = forcing[first : first + count]
            for c in range(count):
                inputs[c + 1, :n] = dgemv(1.0, final, inputs[c])
            end = np.abs(inputs[count, :n]).max()  # the end state; the row's sources are stale
            if np.abs(inputs[:count]).max() <= input_bound and end <= input_bound:  # not NaN
                # the probed entries only: entry (c, (j - 1) w + k) is watched entry k of y_j
                # in block c, and y_B is the next block's start, already in ``inputs``
                traces = recorded[start : start + count * BLOCK_STEPS]
                traces = traces.reshape(count, BLOCK_STEPS, -1)
                watched_states = dgemm(1.0, inputs[:count].T, probed, trans_a=True)
                traces[:, :-1, :-1] = watched_states.reshape(count, BLOCK_STEPS - 1, len(watched))
                traces[:, -1, :-1] = inputs[1 : count + 1, watched]
                y = inputs[count, :n].copy()
                continue
        # the solve kernel, for every chunk the certificate leaves out; ``y`` is its start.
        # A source row's value added as a scalar is bit for bit the full s added: its other
        # rows hold +0.0, and a product entry, summed from +0.0, is never -0.0
        states = chunk[: stop - start]
        if row_values is None:
            row_values = [(row, values.tolist()) for row, values in sources.items()]
        for j, k in enumerate(range(start, stop)):
            rhs = product(y)
            for row, values in row_values:
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
