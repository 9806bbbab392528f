"""Implicit Euler integrator tests against analytic solutions and the loop-form oracle."""

import math
import os
import subprocess
import sys
from dataclasses import replace
from functools import cache
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg.blas import dgemm

import foilfem
from foilfem import timestepper
from foilfem.circuit import (
    DAESystem,
    Probe,
    SourceWaveform,
    lumped_inductor_voltage_driven,
    mna_stamp,
    parse_netlist,
)
from foilfem.errors import (
    InconsistentInitialStateError,
    SingularSystemAtStepError,
    ValidationError,
)
from foilfem.experiments import ExperimentConfig, build_mesh, build_system, winding_dae
from foilfem.linalg import Factorization, sparse_factorize
from foilfem.timestepper import (
    BLAS_ROWS,
    BLOCK_STEPS,
    BLOWUP_BOUND,
    PROPAGATOR_MAX_ROWS,
    StepperConfig,
    block_propagator,
    consistent_zero_start,
    integrate,
    propagator,
)
from foilfem.winding import assemble_G_exact

from oracles import exact_gain, loop_integrate, whole_block_propagator


def scalar_system(rate):
    """``dy/dt = rate y + 1`` from y(0) = 0, as a 1x1 DAE with a probe reading y."""
    probe = Probe(kind="L", pos_index=-1, neg_index=-1, current_index=0, value=1.0)
    return DAESystem(
        E=sp.csr_matrix(np.array([[1.0]])),
        A=sp.csr_matrix(np.array([[-rate]])),
        source_rows=((0, SourceWaveform(kind="dc", amplitude=1.0), 1.0),),
        layout={},
        probes={"y": probe},
    )


class TestScalarOde:
    # dy/dt = 1 - y from y0 = 0: y = 1 - z, where z decays from 1 exactly as
    # dz/dt = -z does, so implicit Euler gives y_n = 1 - (1/(1 + dt))^n
    def test_single_implicit_euler_step(self):
        series = integrate(scalar_system(-1.0), StepperConfig(t_end=0.5, dt=0.5))
        assert series.currents["y"][1] == pytest.approx(1.0 / 3.0)

    def test_decay_matches_closed_form_rate(self):
        series = integrate(scalar_system(-1.0), StepperConfig(t_end=1.0, dt=0.01))
        assert series.currents["y"][-1] == pytest.approx(1.0 - (1 / 1.01) ** 100)


class TestZeroStart:
    def test_sine_sources_accepted(self):
        net = parse_netlist("V1 1 0 SIN 1 50\nL1 1 0 1e-3")
        dae = mna_stamp(net)
        y0 = consistent_zero_start(dae)
        assert np.all(y0 == 0.0)

    def test_perturbed_sine_accepted(self):
        net = parse_netlist("V1 1 0 PSIN 1 50 1e-3 6.2832e10\nL1 1 0 1e-3")
        assert np.all(consistent_zero_start(mna_stamp(net)) == 0.0)

    def test_dc_source_rejected(self):
        net = parse_netlist("V1 1 0 DC 5\nR1 1 0 2")
        with pytest.raises(InconsistentInitialStateError):
            consistent_zero_start(mna_stamp(net))


class TestLumpedInductorRuns:
    def test_voltage_driven_first_order_convergence(self):
        net = parse_netlist("V1 1 0 SIN 1 50\nL1 1 0 1e-3")
        dae = mna_stamp(net)
        wf = SourceWaveform(kind="sin", amplitude=1.0, frequency=50.0)
        errors = []
        dts = (1e-3, 5e-4, 2.5e-4)
        for dt in dts:
            series = integrate(dae, StepperConfig(t_end=0.02, dt=dt))
            exact = lumped_inductor_voltage_driven(1e-3, 0.0, wf, series.times)
            errors.append(float(np.max(np.abs(series.currents["L1"] - exact))))
        orders = [
            math.log(errors[k] / errors[k + 1]) / math.log(dts[k] / dts[k + 1])
            for k in range(len(dts) - 1)
        ]
        for order in orders:
            assert 0.8 <= order <= 1.2

    def test_current_driven_noise_amplitude(self):
        l_val, eps, dt = 1e-3, 1e-3, 1e-4
        f_eps = 2 * math.pi * 1e10  # aliases to a fast pseudo-random sampled tone
        net = parse_netlist(f"I1 1 0 PSIN 1 50 {eps} {f_eps!r}\nL1 0 1 {l_val}")
        dae = mna_stamp(net)
        series = integrate(dae, StepperConfig(t_end=0.022, dt=dt))
        v = series.voltages["L1"]
        t = series.times
        # remove the smooth 50 Hz response, leaving the backward-difference noise
        design = np.column_stack(
            [np.sin(2 * np.pi * 50 * t), np.cos(2 * np.pi * 50 * t), np.ones_like(t)]
        )
        coeffs, *_ = np.linalg.lstsq(design, v, rcond=None)
        noise = v - design @ coeffs
        bound = l_val * 2 * eps / dt
        rms = float(np.sqrt(np.mean(noise[len(noise) // 3 :] ** 2)))
        assert bound / 3 <= rms <= bound  # within a factor 3 of the bound

    def test_rl_circuit_against_closed_form(self):
        r_val, l_val, f = 1.0, 1e-3, 50.0
        net = parse_netlist(f"V1 1 0 SIN 1 {f}\nR1 1 2 {r_val}\nL1 2 0 {l_val}")
        dae = mna_stamp(net)
        dt = 1e-5
        series = integrate(dae, StepperConfig(t_end=0.02, dt=dt))
        w = 2 * np.pi * f
        z2 = r_val**2 + (w * l_val) ** 2
        t = series.times
        exact = (
            r_val * np.sin(w * t) - w * l_val * np.cos(w * t)
        ) / z2 + w * l_val / z2 * np.exp(-r_val * t / l_val)
        assert np.max(np.abs(series.currents["L1"] - exact)) <= 0.02 * np.max(np.abs(exact))


class TestFoilPowerBalance:
    def test_voltage_driven_discrete_power_balance(self):
        # per step: i*v equals the magnetic-energy increment plus the PSD
        # conduction dissipation, up to the (nonnegative) numerical dissipation
        # of implicit Euler; checked to 5% of the peak power after 10 steps
        cfg = ExperimentConfig(duration=5e-3)
        mesh = build_mesh(cfg, 0)
        system, _, _ = build_system(cfg, mesh)
        dae = winding_dae(cfg, system, "v", "Ge")
        stepper = StepperConfig(t_end=cfg.duration, dt=cfg.dt)
        series, states = loop_integrate(dae, stepper, probe_names=["FW1"], snapshot_stride=1)
        # the full states come from the loop-form oracle, whose FW1 traces are integrate's
        # up to round-off
        assert_close_series(integrate(dae, stepper, probe_names=["FW1"]), series)
        a_slice = dae.layout["extras"]["FW1"]["a"]
        u_slice = dae.layout["extras"]["FW1"]["u"]
        k_mat, m_mat, x_mat, g_mat = system.K, system.M, system.X, system.G_e
        power = series.currents["FW1"] * series.voltages["FW1"]
        scale = float(np.max(np.abs(power)))
        for n in range(11, len(series.times)):
            a_new, a_old = states[n][a_slice], states[n - 1][a_slice]
            u_new = states[n][u_slice]
            da = (a_new - a_old) / cfg.dt
            energy_rate = 0.5 * (a_new @ (k_mat @ a_new) - a_old @ (k_mat @ a_old)) / cfg.dt
            dissipation = (
                da @ (m_mat @ da) - 2.0 * (u_new @ (x_mat.T @ da)) + u_new @ (g_mat @ u_new)
            )
            assert dissipation >= -1e-9 * scale
            assert abs(power[n] - energy_rate - dissipation) <= 0.05 * scale


class TestDivergenceHandling:
    def test_unstable_system_returns_partial_series(self):
        # dy/dt = 100 y + 1 from y0 = 0; implicit Euler at dt = 0.015 amplifies
        # by 1/(1 - 1.5) = -2 per step
        series = integrate(scalar_system(100.0), StepperConfig(t_end=9.0, dt=0.015))
        assert series.diverged_at is not None
        assert len(series.times) == series.diverged_at + 1
        assert np.all(np.isfinite(series.times))

    def test_nan_state_marks_divergence(self):
        dae = replace(scalar_system(-1.0), source_rows=((0, SourceWaveform("dc", math.nan), 1.0),))
        series = integrate(dae, StepperConfig(t_end=1.0, dt=0.1))
        assert series.diverged_at == 1
        assert len(series.times) == 2 and math.isnan(series.currents["y"][1])

    def test_determinism(self):
        net = parse_netlist("V1 1 0 PSIN 1 50 1e-3 6.2832e10\nL1 1 0 1e-3")
        dae = mna_stamp(net)
        cfg = StepperConfig(t_end=0.01, dt=1e-4)
        s1 = integrate(dae, cfg)
        s2 = integrate(dae, cfg)
        assert np.array_equal(s1.currents["L1"], s2.currents["L1"])
        assert np.array_equal(s1.voltages["L1"], s2.voltages["L1"])

    def test_step_guard(self):
        with pytest.raises(ValidationError):
            StepperConfig(t_end=1.0, dt=1e-9)

    @pytest.mark.parametrize(
        "t_end, dt, key",
        [
            (1.0, 0.0, "dt"),
            (1.0, math.nan, "dt"),
            (0.0, 0.1, "duration"),
            (math.nan, 0.1, "duration"),
            (math.inf, 0.1, "dt"),
            (1.0, math.inf, "dt"),
            (0.022, 1.0, "dt"),
            (0.022, 0.015, "dt"),
            (0.022, 0.03, "dt"),
            (0.022, 3.0e-3, "dt"),
        ],
        ids=["dt-zero", "dt-nan", "duration-zero", "duration-nan", "duration-inf", "dt-inf",
             "dt-leaves-no-step", "dt-stops-short", "dt-overshoots", "dt-misses-by-one-step"],
    )
    def test_bad_time_grid_names_the_key(self, t_end, dt, key):
        with pytest.raises(ValidationError) as info:
            StepperConfig(t_end=t_end, dt=dt)
        assert info.value.key == key

    def test_singular_iteration_matrix_is_named(self):
        zero = sp.csr_matrix((1, 1))
        probe = Probe(kind="L", pos_index=-1, neg_index=-1, current_index=0, value=1.0)
        dae = DAESystem(E=zero, A=zero, source_rows=(), layout={}, probes={"y": probe})
        with pytest.raises(SingularSystemAtStepError, match="iteration matrix singular"):
            integrate(dae, StepperConfig(t_end=1.0, dt=0.1))


def assert_same_series(series, expected):
    assert series.diverged_at == expected.diverged_at
    assert np.array_equal(series.times, expected.times)
    assert list(series.currents) == list(expected.currents)
    for name in expected.currents:
        assert series.currents[name].tobytes() == expected.currents[name].tobytes(), name
        assert series.voltages[name].tobytes() == expected.voltages[name].tobytes(), name


def assert_close_series(series, expected):
    """Equal times and divergence step, every trace within 1e-12 of its largest value.

    The block propagator sums a step's products in another order than the per-step
    ``dgemv`` of the loop-form oracle, so the traces agree to round-off, not bit for bit.
    """
    assert series.diverged_at == expected.diverged_at
    assert np.array_equal(series.times, expected.times)
    assert list(series.currents) == list(expected.currents)
    for name in expected.currents:
        for trace, reference in (
            (series.currents[name], expected.currents[name]),
            (series.voltages[name], expected.voltages[name]),
        ):
            scale = np.max(np.abs(reference), initial=0.0)
            assert np.max(np.abs(trace - reference), initial=0.0) <= 1e-12 * scale, name


class TestDivergenceAtBlockEdges:
    # dy/dt = rate y + 1 at dt = 1 grows by 1/(1 - rate) per step; each rate puts the first
    # step beyond BLOWUP_BOUND at the named place among the blocks of BLOCK_STEPS = 16 states
    # and the chunks of BLAS_ROWS = 32 blocks (512 states)
    @pytest.mark.parametrize(
        "rate, n_steps, diverged_at",
        [
            (0.99999999999999, 100, 1),
            (0.8298, 200, 16),
            (0.8102, 200, 17),
            (0.0469, 600, 512),
            (0.04681, 600, 513),
            (0.04004, 600, 598),
            (0.999627, 5, 4),
            (0.6, 40, 30),
            (-1.0, 1027, None),
        ],
        ids=["first-step", "last-of-first-block", "first-of-second-block",
             "last-of-first-chunk", "first-of-second-chunk", "inside-final-partial-block",
             "run-shorter-than-a-block", "run-shorter-than-a-chunk",
             "bounded-two-full-chunks-and-a-partial-block"],
    )
    def test_cut_matches_the_loop(self, rate, n_steps, diverged_at):
        assert (BLOCK_STEPS, BLAS_ROWS) == (16, 32)  # the cases sit at these edges
        dae = scalar_system(rate)
        cfg = StepperConfig(t_end=float(n_steps), dt=1.0)
        series = integrate(dae, cfg)
        expected, _ = loop_integrate(dae, cfg)
        assert expected.diverged_at == diverged_at
        assert_close_series(series, expected)
        assert len(series.times) == (n_steps if diverged_at is None else diverged_at) + 1

    def test_overflow_to_inf_inside_a_chunk_is_a_divergence(self):
        # y_1 = 1e307 / (1 - 0.99) overflows to inf, and so does every later state of the
        # chunk; the block products that carry it raise no warning
        dae = replace(scalar_system(0.99), source_rows=((0, SourceWaveform("dc", 1e307), 1.0),))
        series = integrate(dae, StepperConfig(t_end=100.0, dt=1.0))
        assert series.diverged_at == 1
        assert len(series.times) == 2 and math.isinf(series.currents["y"][1])


def scaled_spike_system(gain, spikes):
    """``y0 = s(t)`` and ``y1 = gain y0`` as an algebraic DAE (E = 0), a probe reading y1.

    ``s`` is 0 except at the times that ``spikes`` maps to a value.  The block propagator
    maps a step's source value to its y1 by ``gain``, which is also its gain bound; the
    probe leaves y0 unwatched, so the product for the probed entries has 15 columns and the
    full table of a block's inner states would have 30.
    """

    def waveform(t):
        return sum((np.where(t == time, value, 0.0) for time, value in spikes.items()), 0.0)

    probe = Probe(kind="L", pos_index=-1, neg_index=-1, current_index=1, value=1.0)
    return DAESystem(
        E=sp.csr_matrix((2, 2)),
        A=sp.csr_matrix(np.array([[1.0, 0.0], [-gain, 1.0]])),
        source_rows=((0, waveform, 1.0),),
        layout={},
        probes={"y1": probe},
    )


@pytest.fixture
def dgemm_widths(monkeypatch):
    """The column count of each ``dgemm`` product that ``integrate`` makes, in order."""
    widths = []

    def counted(alpha, a, b, **kwargs):
        widths.append(b.shape[1])
        return dgemm(alpha, a, b, **kwargs)

    monkeypatch.setattr(timestepper, "dgemm", counted)
    return widths


@pytest.fixture
def vector_solves(monkeypatch):
    """The length of each one-vector ``Factorization.solve`` call, one per step of the solve
    kernel; the block solves that form the propagator are not recorded."""
    calls = []
    solve = Factorization.solve

    def counted(self, b):
        if np.ndim(b) == 1:
            calls.append(len(b))
        return solve(self, b)

    monkeypatch.setattr(Factorization, "solve", counted)
    return calls


class TestBoundCertificate:
    """A chunk whose inputs certify every state bounded computes only the probed entries;
    any other chunk steps with the per-step solve."""

    # BLOWUP_BOUND / 10.5 rounds so that 10.5 times it is one unit in the last place beyond
    # the bound; the spike itself is the certificate's bound without its factor 0.5, and it
    # is below BLOWUP_BOUND / 2, the bound with a gain of 1
    @pytest.mark.parametrize("step", [3, 515], ids=["inside-first-block", "inside-second-chunk"])
    def test_spike_between_zero_block_ends_is_found(self, step):
        spike = BLOWUP_BOUND / 10.5
        assert 10.5 * spike > BLOWUP_BOUND
        dae = scaled_spike_system(10.5, {step: spike})
        cfg = StepperConfig(t_end=600.0, dt=1.0)
        series = integrate(dae, cfg)
        expected, _ = loop_integrate(dae, cfg)
        assert expected.diverged_at == step
        assert_close_series(series, expected)

    def test_bounded_states_beyond_the_certificate_keep_the_later_chunks_certified(
        self, dgemm_widths, vector_solves
    ):
        # y1 = 0.945 BLOWUP_BOUND at steps 3 and 600, in the first and second chunks of three
        dae = scaled_spike_system(10.5, {3: 0.09 * BLOWUP_BOUND, 600: -0.09 * BLOWUP_BOUND})
        cfg = StepperConfig(t_end=1100.0, dt=1.0)
        series = integrate(dae, cfg)
        expected, _ = loop_integrate(dae, cfg)
        assert expected.diverged_at is None
        assert_close_series(series, expected)
        assert series.currents["y1"][[3, 600]].tolist() == [0.945e12, -0.945e12]
        # the two chunks with a spike step with the solve, 512 steps each; the propagator's
        # four products with each of its four squares come first (one panel each, 2 columns),
        # then one product of the probed entries for the certified third chunk, and none of a
        # block's whole inner states (30 columns)
        assert len(vector_solves) == 2 * BLAS_ROWS * BLOCK_STEPS
        assert dgemm_widths == [2] * 16 + [15]

    @pytest.mark.parametrize("step", [600, 850], ids=["in-the-stale-row", "in-the-second-chunk"])
    def test_a_final_partial_chunk_is_certified_from_its_own_inputs(self, step, vector_solves):
        # 1,100 steps go in chunks of 512, 512 and 76 steps; the third has 5 blocks, so its
        # input row 5 takes only its end state, and that row's source values are still those
        # of the second chunk's block 5, steps 593-608.  Only the second chunk steps with the
        # solve, whichever of its steps the spike is at.
        dae = scaled_spike_system(10.5, {step: 0.09 * BLOWUP_BOUND})
        cfg = StepperConfig(t_end=1100.0, dt=1.0)
        series = integrate(dae, cfg)
        expected, _ = loop_integrate(dae, cfg)
        assert series.diverged_at is None
        assert_close_series(series, expected)
        assert len(vector_solves) == BLAS_ROWS * BLOCK_STEPS

    def test_an_overflowed_source_column_steps_with_the_solve(self):
        # y = s / 1e-310: the source column overflows to inf, so the all-zero inputs give a
        # NaN block end (0 * inf), which fails the certificate; the solve then gives the
        # exact y = 0 / 1e-310 = 0 at every step
        probe = Probe(kind="L", pos_index=-1, neg_index=-1, current_index=0, value=1.0)
        dae = DAESystem(
            E=sp.csr_matrix((1, 1)),
            A=sp.csr_matrix(np.array([[1e-310]])),
            source_rows=((0, SourceWaveform("dc", 0.0), 1.0),),
            layout={},
            probes={"y": probe},
        )
        cfg = StepperConfig(t_end=20.0, dt=1.0)
        series = integrate(dae, cfg)
        expected, _ = loop_integrate(dae, cfg, per_step_solve=True)
        assert series.diverged_at is None
        assert_same_series(series, expected)


@cache
def foil_system(basis_family, exact_g=False, level=0):
    cfg = ExperimentConfig(basis_family=basis_family)
    system, spec, basis = build_system(cfg, build_mesh(cfg, level))
    return replace(system, G=assemble_G_exact(spec, basis)) if exact_g else system


def foil_dae(drive, mode, basis_family="legendre", exact_g=False, level=0):
    return winding_dae(ExperimentConfig(), foil_system(basis_family, exact_g, level), drive, mode)


def lumped_dae(text):
    return mna_stamp(parse_netlist(text))


# (DAE, dt, probe names); None probes every branch
ORACLE_CASES = {
    # V, R (both orientations to ground), C between two live nodes, L
    "lumped-v-RCLV": (
        lambda: lumped_dae(
            "V1 1 0 PSIN 1 50 1e-3 6.2832e10\nR1 1 2 2\nC1 2 3 1e-4\nL1 3 0 1e-3\nR2 0 2 10"
        ),
        1e-4,
        None,
    ),
    "lumped-i-RCLI": (
        lambda: lumped_dae("I1 1 0 PSIN 1 50 1e-3 6.2832e10\nR1 1 0 5\nC1 1 2 1e-6\nL1 2 0 1e-3"),
        1e-4,
        None,
    ),
    # one probe that touches no ground node
    "lumped-v-floating-L": (
        lambda: lumped_dae("V1 1 0 SIN 1 50\nR1 1 2 2\nL1 2 3 1e-3\nR2 3 0 1"),
        1e-4,
        ["L1"],
    ),
    # two sources on one node, one into it and one out of it, on a node with a C (E row
    # non-empty): the step must add their pre-summed value, not each in turn
    "lumped-i-two-sources-one-node": (
        lambda: lumped_dae(
            "I1 1 0 PSIN 1 50 1e-3 6.2832e10\nI2 0 1 SIN 0.7 130\nC1 1 0 1e-6\n"
            "R1 1 2 5\nL1 2 0 1e-3"
        ),
        1e-4,
        None,
    ),
    # a floating V, whose source row is its current unknown, and an I on another node
    "lumped-v-floating-source-row": (
        lambda: lumped_dae(
            "V1 2 1 PSIN 2 60 1e-3 6.2832e10\nR1 1 0 4\nL1 2 3 1e-3\nR2 3 0 1\n"
            "I1 3 0 SIN 0.5 50"
        ),
        1e-4,
        None,
    ),
    "foil-i-Ge": (lambda: foil_dae("i", "Ge"), 1e-5, None),
    "foil-v-G": (lambda: foil_dae("v", "G"), 1e-4, None),
    "foil-i-exactG-hat-diverges": (lambda: foil_dae("i", "G", "hat", exact_g=True), 1e-4, None),
}


class TestLoopOracle:
    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_every_probe_matches_the_loop(self, case):
        make_dae, dt, probe_names = ORACLE_CASES[case]
        dae = make_dae()
        cfg = StepperConfig(t_end=22.0e-3, dt=dt)
        series = integrate(dae, cfg, probe_names)
        assert list(series.currents) == (list(dae.probes) if probe_names is None else probe_names)
        if case.endswith("diverges"):
            # its one chunk fails the bound certificate and steps with the per-step solve
            expected, _ = loop_integrate(dae, cfg, probe_names, per_step_solve=True)
            assert_same_series(series, expected)
        else:
            expected, _ = loop_integrate(dae, cfg, probe_names)
            assert_close_series(series, expected)
        assert series.diverged_at == (69 if case.endswith("diverges") else None)

    def test_source_is_evaluated_at_most_once_per_run(self, monkeypatch):
        # the zero-start check may evaluate s(t0); the steps use the grid-wide source values
        calls = []
        source = DAESystem.source

        def counted(dae, t):
            calls.append(t)
            return source(dae, t)

        monkeypatch.setattr(DAESystem, "source", counted)
        make_dae, dt, probe_names = ORACLE_CASES["lumped-i-two-sources-one-node"]
        series = integrate(make_dae(), StepperConfig(t_end=22.0e-3, dt=dt), probe_names)
        assert len(series.times) == 221
        assert len(calls) <= 1

    def test_probe_kinds_covered(self):
        kinds = {p.kind for make_dae, _, _ in ORACLE_CASES.values() for p in make_dae().probes.values()}
        assert kinds == {"R", "C", "L", "V", "I", "FW"}


def relative_deviation(x, ref):
    return float(np.max(np.abs(x - ref)) / np.max(np.abs(ref)))


def foil_propagator(dae, dt):
    """``T`` and ``W`` of a run at ``dt``, as ``integrate`` forms them."""
    e_over_dt = dae.E.multiply(1.0 / dt).tocsr()
    return propagator(sparse_factorize(e_over_dt + dae.A), e_over_dt, list(dae.row_sources([0.0])))


def spectral_radius(dae, dt):
    """Largest |mu| of implicit Euler's amplification matrix, by dense ``eigvals``."""
    amplification, _ = foil_propagator(dae, dt)
    return float(np.max(np.abs(sla.eigvals(amplification))))


class TestBlockPropagator:
    """The formation by repeated squaring against the whole block propagator of the oracle."""

    @pytest.mark.parametrize("dt", [1e-4, 1e-5, 1e-6])
    @pytest.mark.parametrize("mode", ["G", "Ge"])
    @pytest.mark.parametrize("drive", ["i", "v"])
    @pytest.mark.parametrize("basis_family", ["hat", "legendre"])
    @pytest.mark.parametrize("level", [0, 1])
    def test_gain_bounds_the_one_norm(self, level, basis_family, drive, mode, dt):
        dae = foil_dae(drive, mode, basis_family, level=level)
        amplification, columns = foil_propagator(dae, dt)
        n = amplification.shape[0]
        watched = np.array([0, n // 2, n - 1])
        final, probed, gain = block_propagator(amplification, columns, watched)
        inner, exact_final = whole_block_propagator(amplification, columns, BLOCK_STEPS)
        exact = exact_gain(inner)
        # a bound, and not a loose one: at most 7.6 times the one-norm in these cases
        assert exact * (1.0 - 1e-12) <= gain <= 10.0 * exact
        if drive == "i":
            # the index-2 runs, the paper's instability case: the bound is the one-norm itself,
            # so their certified input bounds are the ones the whole map gave
            assert gain == pytest.approx(exact, rel=1e-12)
        # the same maps as the whole block propagator's, to round-off
        columns_read = (n * np.arange(BLOCK_STEPS - 1)[:, None] + watched).ravel()
        for formed, whole in ((final, exact_final), (probed, inner[:, columns_read])):
            assert formed.flags.f_contiguous and formed.shape == whole.shape
            assert np.max(np.abs(formed - whole)) <= 1e-12 * np.max(np.abs(whole))

    @pytest.mark.parametrize("where", ["T", "W"])
    def test_a_nan_certifies_nothing(self, where):
        amplification, columns = foil_propagator(foil_dae("i", "Ge"), 1e-5)
        (amplification if where == "T" else columns)[5, 0] = math.nan
        _, _, gain = block_propagator(amplification, columns, np.array([0]))
        assert math.isnan(gain)
        assert not 0.0 <= 0.5 * BLOWUP_BOUND / gain  # not even all-zero inputs pass

    def test_gain_is_at_least_one(self):
        # T = 0.5 and W = 0.25: every state's map sums to less than 1
        _, _, gain = block_propagator(np.array([[0.5]], order="F"), np.array([[0.25]]), [0])
        assert gain == 1.0


# run in a child process, so that the BLAS thread count is read afresh: a level-1 current-driven
# Ge run at dt = 1e-5 (238 unknowns), a level-0 voltage-driven G run (91 unknowns) and the coarse
# hat run with the exact G that diverges at step 69; the two bounded runs step with the block
# propagator (BLAS dgemm and dgemv) and the diverging one carries its block ends with dgemv, then
# steps its one chunk with the per-step solve; each prints its divergence step and a SHA-256 of
# its traces
THREADED_RUN = """
import hashlib
from dataclasses import replace
from foilfem.experiments import ExperimentConfig, build_mesh, build_system, run_transient
from foilfem.winding import assemble_G_exact
legendre, hat = ExperimentConfig(), ExperimentConfig(basis_family="hat")
coarse_hat, spec, basis = build_system(hat, build_mesh(hat, 0))
runs = [
    (legendre, build_system(legendre, build_mesh(legendre, 1))[0], "i", "Ge", 1e-5),
    (legendre, build_system(legendre, build_mesh(legendre, 0))[0], "v", "G", 1e-5),
    (hat, replace(coarse_hat, G=assemble_G_exact(spec, basis)), "i", "G", 1e-4),
]
for cfg, system, drive, mode, dt in runs:
    series = run_transient(cfg, system, drive, mode, dt)
    digest = hashlib.sha256(series.times.tobytes())
    for name in sorted(series.currents):
        digest.update(series.currents[name].tobytes() + series.voltages[name].tobytes())
    print(series.diverged_at, digest.hexdigest())
"""


class TestPropagator:
    """Up to ``PROPAGATOR_MAX_ROWS`` unknowns the steps go through the block propagator."""

    @pytest.mark.parametrize("dt", [1e-4, 1e-5])
    @pytest.mark.parametrize("mode", ["G", "Ge"])
    @pytest.mark.parametrize("drive", ["i", "v"])
    @pytest.mark.parametrize("basis_family", ["hat", "legendre"])
    @pytest.mark.parametrize("level", [0, 1])
    def test_matches_the_per_step_solve(self, level, basis_family, drive, mode, dt):
        # the textbook step lhs.solve(E/dt y + s); the index-2 current drive amplifies
        # round-off most, to 1e-9 of a trace's largest value
        dae = foil_dae(drive, mode, basis_family, level=level)
        assert dae.E.shape[0] <= PROPAGATOR_MAX_ROWS
        cfg = StepperConfig(t_end=22.0e-3, dt=dt)
        series = integrate(dae, cfg)
        expected, _ = loop_integrate(dae, cfg, per_step_solve=True)
        assert series.diverged_at is None and expected.diverged_at is None
        for name in expected.currents:
            assert relative_deviation(series.currents[name], expected.currents[name]) <= 1e-8
            assert relative_deviation(series.voltages[name], expected.voltages[name]) <= 1e-8

    def test_large_system_keeps_the_per_step_solve_bit_for_bit(self):
        dae = foil_dae("i", "Ge", level=2)
        assert dae.E.shape[0] > PROPAGATOR_MAX_ROWS
        cfg = StepperConfig(t_end=2.0e-4, dt=1e-5)
        expected, _ = loop_integrate(dae, cfg, per_step_solve=True)
        assert_same_series(integrate(dae, cfg), expected)

    # the paper's instability: the exact G on a coarse mesh makes implicit Euler amplify
    # (rho > 1) and the run diverge; the consistent Ge keeps rho < 1 and the run bounded
    @pytest.mark.parametrize(
        "basis_family, mode, dt, n_steps, rho, diverged_at",
        [
            ("hat", "G", 1e-4, 220, 1.551305, 69),
            ("legendre", "G", 5e-8, 64, 4.404353, 20),
            ("hat", "Ge", 1e-4, 220, 0.990035, None),
            ("legendre", "Ge", 5e-8, 64, 0.999995, None),
        ],
        ids=["hat-exactG", "legendre-exactG-short-dt", "hat-Ge", "legendre-Ge-short-dt"],
    )
    def test_spectral_radius_above_one_exactly_when_the_run_diverges(
        self, basis_family, mode, dt, n_steps, rho, diverged_at
    ):
        dae = foil_dae("i", mode, basis_family, exact_g=mode == "G")
        radius = spectral_radius(dae, dt)
        assert radius == pytest.approx(rho, abs=1e-6)
        series = integrate(dae, StepperConfig(t_end=n_steps * dt, dt=dt))
        assert series.diverged_at == diverged_at
        assert (radius > 1.0) == (series.diverged_at is not None)

    # no run forms a product of a block's whole inner states, (BLOCK_STEPS - 1) n columns; a
    # bounded run certifies every chunk and makes no per-step solve, and the diverging run
    # steps its one chunk, the whole 220-step run, with the per-step solve
    @pytest.mark.parametrize(
        "drive, mode, basis_family, dt, diverged_at",
        [
            ("i", "Ge", "legendre", 1e-5, None),
            ("v", "G", "legendre", 1e-5, None),
            ("i", "G", "hat", 1e-4, 69),
        ],
        ids=["i-Ge", "v-G", "hat-exactG-diverges"],
    )
    def test_only_an_uncertified_chunk_forms_the_full_table(
        self, drive, mode, basis_family, dt, diverged_at, dgemm_widths, vector_solves
    ):
        dae = foil_dae(drive, mode, basis_family, exact_g=diverged_at is not None)
        series = integrate(dae, StepperConfig(t_end=22.0e-3, dt=dt))
        assert series.diverged_at == diverged_at
        assert (BLOCK_STEPS - 1) * dae.E.shape[0] not in dgemm_widths
        assert len(vector_solves) == (0 if diverged_at is None else 220)

    def test_trace_bytes_do_not_depend_on_the_blas_thread_count(self):
        source_root = str(Path(foilfem.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": source_root}
            run = subprocess.run(
                [sys.executable, "-c", THREADED_RUN], env=env, capture_output=True, text=True,
                timeout=120,
            )
            assert run.returncode == 0, run.stderr
            outputs.append(run.stdout)
        # the two Legendre runs stay bounded, the exact-G hat run diverges at step 69
        assert [line.split()[0] for line in outputs[0].splitlines()] == ["None", "None", "69"]
        assert outputs[0] == outputs[1]
