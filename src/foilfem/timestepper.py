"""Implicit Euler integration of the stamped field-circuit DAE.

Constant step size, one factorization of ``E/dt + A`` per run, deterministic
output.  Every run starts from the all-zero state, checked against the
algebraic rows by :func:`consistent_zero_start`.  Each source waveform is
evaluated once on the whole time grid and summed per row before the loop.
A system of at most ``PROPAGATOR_MAX_ROWS`` unknowns carries its state from block to
block of ``BLOCK_STEPS`` steps with implicit Euler's block propagator
(:func:`block_propagator`).  The loop steps in chunks of whole blocks, 256 states up to
``PROPAGATOR_MAX_ROWS`` unknowns and fewer above, so that a chunk's table holds at most
``CHUNK_ENTRIES`` entries.  Each chunk goes through one of two kernels.  A
block-propagator chunk whose inputs (its blocks' start states and source values) are
small enough to bound every one of its states within ``BLOWUP_BOUND`` computes only the
state entries the probes read, and cannot diverge.  Every other chunk, and every chunk
of a larger system, steps from its start state with a solve of ``E/dt + A`` per step: it
writes each state into the preallocated table and, once per chunk, copies the state
entries the probes read and tests the chunk for divergence.  Each probe's (i, v) trace
is derived from the recorded entries after the loop.  Divergence (a state entry whose
magnitude is not at most ``BLOWUP_BOUND``, which includes NaN and inf) is a reportable
outcome, not an error: the integrator marks the first diverged step and returns the
partial series up to it, so unstable configurations can be plotted.  The steps after it
in its chunk (up to 255) are computed too and thrown away.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm, dgemv
from scipy.linalg.lapack import dlange

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
# Steps one row of the block propagator spans (B, see block_propagator).
BLOCK_STEPS = 8
# Most rows of one BLAS product: a chunk's blocks, and a panel of a power of T.  With OpenBLAS
# 0.3.31 (x86-64), dgemm products of up to 200 rows gave the same bits under one and two
# threads and products of 239 and 300 rows did not.
BLAS_ROWS = 32
ZERO_START_ATOL = 1e-12  # largest source magnitude a zero start leaves on an algebraic row
GRID_RTOL = 1e-9  # how far n_steps * dt may miss the duration, relative to it
# Largest system stepped with the block propagator instead of a CSR product and a SuperLU
# solve per step.  Per step of a 2,200-step run (2-vCPU Xeon, OpenBLAS 0.3.31, one thread;
# medians of three measurements, between which the machine's speed varied by up to 40 %):
# 0.9 vs 11.4 us at 91 rows and 2.4 vs 21.7 us at 238 (levels 0 and 1, current drive, one
# probe), 2.7 vs 11.8 us on a 299-row RLC ladder probed at its source and 12.2 vs 16.2 us with
# every branch probed.  The set-up is one solve per row for T (0.25, 2.3 and 0.8 ms) and B - 1
# products for its powers (0.55, 6.8 and 12.9 ms); at 300 rows the block propagator takes 5.9 MB.
PROPAGATOR_MAX_ROWS = 300
# Most entries of the table that holds a chunk's states, the steps between two divergence tests
# and probe copies: BLAS_ROWS blocks (256 steps) up to PROPAGATOR_MAX_ROWS unknowns, 56 steps
# at level 2 (1203 unknowns).  The table stays within 600 KB, in a core's 2 MB L2 cache; a
# 2.5 MB table (256 steps at level 2) took the stepping loop's own time in five fig5 runs from
# 27 to 50 ms (cProfile).
CHUNK_ENTRIES = BLAS_ROWS * BLOCK_STEPS * PROPAGATOR_MAX_ROWS


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
    ``T = lhs^-1 (E/dt)``, Fortran-ordered for BLAS, and ``W`` whose column ``r`` is
    ``lhs^-1 e_{rows[r]}``, so that one step with the source values ``s_r`` on ``rows`` is
    ``y <- T y + sum_r s_r W[:, r]``; :func:`block_propagator` chains ``BLOCK_STEPS`` such
    steps into one product.  The spectral radius of ``T`` above 1 is the instability of a
    run.
    """
    amplification = np.asfortranarray(lhs.solve(e_over_dt.toarray()))
    columns = lhs.solve(np.eye(lhs.n)[:, rows])
    return amplification, columns


def block_propagator(amplification, columns):
    """The states of a block of ``B = BLOCK_STEPS`` steps as linear maps of its inputs.

    A block's input row is ``u = [y_0, s_1, ..., s_B]``: its start state and the source
    values of its steps, each ``s_m`` ordered as the columns of ``W = columns``.  Its
    states are ``y_j = T^j y_0 + sum_{m <= j} T^(j-m) W s_m``.  Returns ``inner`` with
    ``u @ inner = [y_1, ..., y_(B-1)]`` and ``final`` with ``final @ u = y_B``, both
    Fortran-ordered for BLAS.  Forming them takes ``B - 1`` products with ``T``, each in
    panels of at most ``BLAS_ROWS`` rows, which give the powers ``T^j`` together with the
    impulse responses ``T^j W``.
    """
    n, r = columns.shape
    inner = np.zeros((n + BLOCK_STEPS * r, (BLOCK_STEPS - 1) * n), order="F")
    last = np.zeros((n + BLOCK_STEPS * r, n))
    # gains[j - 1] maps u to y_j: (T^j)^T = (T^(j-1))^T T^T, and (T^(j-1) W)^T likewise
    gains = [inner[:, j * n : (j + 1) * n] for j in range(BLOCK_STEPS - 1)] + [last]
    gains[0][:n] = amplification.T
    gains[0][n : n + r] = columns.T
    for j, (previous, gain) in enumerate(zip(gains, gains[1:]), start=1):
        for top in range(0, n + r, BLAS_ROWS):
            rows = slice(top, min(top + BLAS_ROWS, n + r))
            gain[rows] = dgemm(1.0, previous[rows], amplification, trans_b=True)
        # s_m acts on y_(j+1) as s_(m-1) acts on y_j
        gain[n + r : n + (j + 1) * r] = previous[n : n + j * r]
    return inner, last.T


def integrate(dae: DAESystem, cfg: StepperConfig, probe_names=None) -> TimeSeries:
    """March ``(E/dt + A) y_next = (E/dt) y + s(t_next)`` from the zero state.

    ``s`` is :meth:`DAESystem.row_sources` on the whole grid, evaluated once.  The steps go
    in chunks through one of two kernels.  Up to ``PROPAGATOR_MAX_ROWS`` unknowns the steps
    go in blocks of ``BLOCK_STEPS`` (:func:`block_propagator`): one ``dgemv`` per block
    carries the state from a block's start to the next.  Once per run, the largest column
    abs-sum of its ``inner`` (at least 1) bounds how far a block's states can exceed its
    input row ``u``; a chunk whose inputs, block ends included, are all within
    ``0.5 * BLOWUP_BOUND`` over that gain is certified bounded, and one ``dgemm`` of its
    input rows with the probed columns of ``inner`` gives the probed entries of the states
    inside its blocks; no state of it is tested.  These differ from a per-step solve only in
    round-off, and no BLAS product has more than ``BLAS_ROWS`` rows, so that the bits do not
    depend on the BLAS thread count.  Any other chunk (one with an input beyond that bound,
    or NaN), and every chunk of a larger system, is stepped from its start state with
    SuperLU's factors: ``rhs = (E/dt) y`` plus the source rows, then one solve per step, the
    same bits as the textbook step.  Its states go into one preallocated table.  After it,
    one test of ``max|y| <= BLOWUP_BOUND`` per state finds the first diverged step, if any,
    and one copy moves the probed entries into the trace table; the next chunk starts from
    its last state.  A run that diverges is cut at that step, exactly as a test after every
    step would cut it; the up to 255 later steps of its chunk are computed and thrown away.
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
    # row 0 is the zero start; the BLOCK_STEPS spare rows take the tail of the last block
    recorded = np.zeros((n_steps + 1 + BLOCK_STEPS, len(watched) + 1))

    y = consistent_zero_start(dae, cfg.t0)
    n = y.shape[0]
    sources = dae.row_sources(times)
    # whole blocks, at most BLAS_ROWS of them, in a table of at most CHUNK_ENTRIES entries
    chunk = np.empty((BLOCK_STEPS * max(1, min(BLAS_ROWS, CHUNK_ENTRIES // (BLOCK_STEPS * n))), n))
    propagated = n <= PROPAGATOR_MAX_ROWS
    if propagated:
        inner, final = block_propagator(*propagator(lhs, e_over_dt, list(sources)))
        # an entry of u @ inner is at most max|u| times its column's abs-sum, so a chunk whose
        # inputs are all at most ``input_bound`` has every state within BLOWUP_BOUND: the
        # factor 0.5 absorbs a dot product's round-off, and a gain of at least 1 covers the
        # block ends, which are inputs.  The gain is the one-norm, the largest column abs-sum,
        # summed in place; a NaN in ``inner`` makes it NaN, which certifies nothing.
        input_bound = 0.5 * BLOWUP_BOUND / np.maximum(dlange("1", inner), 1.0)
        # column (j - 1) w + k of ``probed`` gives watched entry k of y_j, for j < B
        probed = np.asfortranarray(
            inner[:, (n * np.arange(BLOCK_STEPS - 1)[:, None] + watched).ravel()]
        )
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
    # the solve kernel's operands, bound once: the product with E/dt, the solve and each
    # source row's values
    product, solve = csr_product(e_over_dt), lhs.solve
    sources = [(row, values.tolist()) for row, values in sources.items()]
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
            if np.abs(inputs[: count + 1]).max() <= input_bound:  # False for NaN
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
