"""Implicit Euler integrator tests against analytic solutions and the loop-form oracle."""

import math
from dataclasses import replace
from functools import cache

import numpy as np
import pytest
import scipy.sparse as sp

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
from foilfem.experiments import ExperimentConfig, build_mesh, build_system, source_line
from foilfem.timestepper import StepperConfig, consistent_zero_start, integrate
from foilfem.winding import assemble_G_exact

from oracles import loop_integrate


def scalar_system(rate):
    """``dy/dt = rate y + 1`` from y(0) = 0, as a 1x1 DAE with a probe reading y."""
    probe = Probe(kind="L", pos_index=-1, neg_index=-1, current_index=0, value=1.0)
    return DAESystem(
        E=sp.csr_matrix(np.array([[1.0]])),
        A=sp.csr_matrix(np.array([[-rate]])),
        source_rows=((0, SourceWaveform(kind="dc", amplitude=1.0), 1.0),),
        n=1,
        layout={},
        probes={"y": probe},
    )


class TestScalarOde:
    # dy/dt = 1 - y from y0 = 0: y = 1 - z, where z decays from 1 exactly as
    # dz/dt = -z does, so implicit Euler gives y_n = 1 - (1/(1 + dt))^n
    def test_single_implicit_euler_step(self):
        series = integrate(scalar_system(-1.0), StepperConfig(t0=0.0, t_end=0.5, dt=0.5))
        assert series.currents["y"][1] == pytest.approx(1.0 / 3.0)

    def test_decay_matches_closed_form_rate(self):
        series = integrate(scalar_system(-1.0), StepperConfig(t0=0.0, t_end=1.0, dt=0.01))
        assert series.currents["y"][-1] == pytest.approx(1.0 - (1 / 1.01) ** 100)


class TestZeroStart:
    def test_sine_sources_accepted(self):
        net = parse_netlist("V1 1 0 SIN 1 50\nL1 1 0 1e-3")
        dae = mna_stamp(net)
        y0 = consistent_zero_start(dae, 0.0)
        assert np.all(y0 == 0.0)

    def test_perturbed_sine_accepted(self):
        net = parse_netlist("V1 1 0 PSIN 1 50 1e-3 6.2832e10\nL1 1 0 1e-3")
        assert np.all(consistent_zero_start(mna_stamp(net), 0.0) == 0.0)

    def test_dc_source_rejected(self):
        net = parse_netlist("V1 1 0 DC 5\nR1 1 0 2")
        with pytest.raises(InconsistentInitialStateError):
            consistent_zero_start(mna_stamp(net), 0.0)


class TestLumpedInductorRuns:
    def test_voltage_driven_first_order_convergence(self):
        net = parse_netlist("V1 1 0 SIN 1 50\nL1 1 0 1e-3")
        dae = mna_stamp(net)
        wf = SourceWaveform(kind="sin", amplitude=1.0, frequency=50.0)
        errors = []
        dts = (1e-3, 5e-4, 2.5e-4)
        for dt in dts:
            series = integrate(dae, StepperConfig(t0=0.0, t_end=0.02, dt=dt))
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
        series = integrate(dae, StepperConfig(t0=0.0, t_end=0.022, dt=dt))
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
        series = integrate(dae, StepperConfig(t0=0.0, t_end=0.02, dt=dt))
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
        net = parse_netlist(f"{source_line(cfg, 'v')}\nFW1 1 0 FILE <mem> MODE Ge")
        dae = mna_stamp(net, field_systems={"<mem>": system})
        stepper = StepperConfig(t0=0.0, t_end=cfg.duration, dt=cfg.dt)
        series, states = loop_integrate(dae, stepper, probe_names=["FW1"], snapshot_stride=1)
        # the full states come from the loop-form oracle, whose FW1 traces are integrate's
        stepped = integrate(dae, stepper, probe_names=["FW1"])
        assert np.array_equal(series.currents["FW1"], stepped.currents["FW1"])
        assert np.array_equal(series.voltages["FW1"], stepped.voltages["FW1"])
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
        series = integrate(scalar_system(100.0), StepperConfig(t0=0.0, t_end=10.0, dt=0.015))
        assert series.diverged_at is not None
        assert len(series.times) == series.diverged_at + 1
        assert np.all(np.isfinite(series.times))

    def test_nan_state_marks_divergence(self):
        dae = replace(scalar_system(-1.0), source_rows=((0, SourceWaveform("dc", math.nan), 1.0),))
        series = integrate(dae, StepperConfig(t0=0.0, t_end=1.0, dt=0.1))
        assert series.diverged_at == 1
        assert len(series.times) == 2 and math.isnan(series.currents["y"][1])

    def test_determinism(self):
        net = parse_netlist("V1 1 0 PSIN 1 50 1e-3 6.2832e10\nL1 1 0 1e-3")
        dae = mna_stamp(net)
        cfg = StepperConfig(t0=0.0, t_end=0.01, dt=1e-4)
        s1 = integrate(dae, cfg)
        s2 = integrate(dae, cfg)
        assert np.array_equal(s1.currents["L1"], s2.currents["L1"])
        assert np.array_equal(s1.voltages["L1"], s2.voltages["L1"])

    def test_step_guard(self):
        with pytest.raises(ValidationError):
            StepperConfig(t0=0.0, t_end=1.0, dt=1e-9)

    @pytest.mark.parametrize(
        "t_end, dt, key",
        [
            (1.0, 0.0, "dt"),
            (1.0, math.nan, "dt"),
            (0.0, 0.1, "duration"),
            (math.nan, 0.1, "duration"),
            (math.inf, 0.1, "dt"),
        ],
        ids=["dt-zero", "dt-nan", "duration-zero", "duration-nan", "duration-inf"],
    )
    def test_bad_time_grid_names_the_key(self, t_end, dt, key):
        with pytest.raises(ValidationError) as info:
            StepperConfig(t0=0.0, t_end=t_end, dt=dt)
        assert info.value.key == key

    def test_singular_iteration_matrix_is_named(self):
        zero = sp.csr_matrix((1, 1))
        probe = Probe(kind="L", pos_index=-1, neg_index=-1, current_index=0, value=1.0)
        dae = DAESystem(E=zero, A=zero, source_rows=(), n=1, layout={}, probes={"y": probe})
        with pytest.raises(SingularSystemAtStepError, match="iteration matrix singular"):
            integrate(dae, StepperConfig(t0=0.0, t_end=1.0, dt=0.1))


@cache
def coarse_foil_system(basis_family, exact_g=False):
    cfg = ExperimentConfig(basis_family=basis_family)
    system, spec, basis = build_system(cfg, build_mesh(cfg, 0))
    return replace(system, G=assemble_G_exact(spec, basis)) if exact_g else system


def foil_dae(drive, mode, basis_family="legendre", exact_g=False):
    system = coarse_foil_system(basis_family, exact_g)
    net = parse_netlist(f"{source_line(ExperimentConfig(), drive)}\nFW1 1 0 FILE <mem> MODE {mode}")
    return mna_stamp(net, field_systems={"<mem>": system})


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
    "foil-i-Ge": (lambda: foil_dae("i", "Ge"), 1e-5, None),
    "foil-v-G": (lambda: foil_dae("v", "G"), 1e-4, None),
    "foil-i-exactG-hat-diverges": (lambda: foil_dae("i", "G", "hat", exact_g=True), 1e-4, None),
}


class TestLoopOracle:
    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_every_probe_matches_the_loop_bit_for_bit(self, case):
        make_dae, dt, probe_names = ORACLE_CASES[case]
        dae = make_dae()
        cfg = StepperConfig(t0=0.0, t_end=22.0e-3, dt=dt)
        series = integrate(dae, cfg, probe_names)
        expected, _ = loop_integrate(dae, cfg, probe_names)
        names = list(dae.probes) if probe_names is None else probe_names
        assert series.diverged_at == expected.diverged_at
        assert np.array_equal(series.times, expected.times)
        assert list(series.currents) == list(expected.currents) == names
        for name in names:
            assert np.array_equal(series.currents[name], expected.currents[name]), name
            assert np.array_equal(series.voltages[name], expected.voltages[name]), name
        assert series.diverged_at == (69 if case.endswith("diverges") else None)

    def test_probe_kinds_covered(self):
        kinds = {p.kind for make_dae, _, _ in ORACLE_CASES.values() for p in make_dae().probes.values()}
        assert kinds == {"R", "C", "L", "V", "I", "FW"}
