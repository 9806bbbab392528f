"""Implicit Euler integrator tests against analytic solutions."""

import math

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
from foilfem.errors import InconsistentInitialStateError
from foilfem.timestepper import StepperConfig, consistent_zero_start, integrate


def scalar_decay_system():
    """dy/dt = -y as a 1x1 DAE with a probe reading the state."""
    e = sp.csr_matrix(np.array([[1.0]]))
    a = sp.csr_matrix(np.array([[1.0]]))
    probe = Probe(kind="L", pos_index=-1, neg_index=-1, current_index=0, value=1.0)
    return DAESystem(E=e, A=a, source_rows=(), n=1, layout={}, probes={"y": probe})


class TestScalarOde:
    def test_single_implicit_euler_step(self):
        dae = scalar_decay_system()
        cfg = StepperConfig(t0=0.0, t_end=0.5, dt=0.5, initial_state=np.array([1.0]))
        series = integrate(dae, cfg)
        assert series.currents["y"][1] == pytest.approx(2.0 / 3.0)

    def test_decay_matches_closed_form_rate(self):
        dae = scalar_decay_system()
        cfg = StepperConfig(t0=0.0, t_end=1.0, dt=0.01, initial_state=np.array([1.0]))
        series = integrate(dae, cfg)
        assert series.currents["y"][-1] == pytest.approx((1 / 1.01) ** 100)


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
        from foilfem.experiments import ExperimentConfig, build_mesh, build_system, source_line

        cfg = ExperimentConfig(duration=5e-3)
        mesh = build_mesh(cfg, 0)
        system, _, _ = build_system(cfg, mesh)
        net = parse_netlist(f"{source_line(cfg, 'v')}\nFW1 1 0 FILE <mem> MODE Ge")
        dae = mna_stamp(net, field_systems={"<mem>": system})
        series = integrate(
            dae,
            StepperConfig(t0=0.0, t_end=cfg.duration, dt=cfg.dt, snapshot_stride=1),
            probe_names=["FW1"],
        )
        a_slice = dae.layout["extras"]["FW1"]["a"]
        u_slice = dae.layout["extras"]["FW1"]["u"]
        states = series.states
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
        # dy/dt = +100 y with y0 = 1; implicit Euler at dt = 0.015 amplifies
        # by 1/(1 - 1.5) = -2 per step
        e = sp.csr_matrix(np.array([[1.0]]))
        a = sp.csr_matrix(np.array([[-100.0]]))
        probe = Probe(kind="L", pos_index=-1, neg_index=-1, current_index=0, value=1.0)
        dae = DAESystem(E=e, A=a, source_rows=(), n=1, layout={}, probes={"y": probe})
        cfg = StepperConfig(t0=0.0, t_end=10.0, dt=0.015, initial_state=np.array([1.0]))
        series = integrate(dae, cfg)
        assert series.diverged_at is not None
        assert len(series.times) == series.diverged_at + 1
        assert np.all(np.isfinite(series.times))

    def test_determinism(self):
        net = parse_netlist("V1 1 0 PSIN 1 50 1e-3 6.2832e10\nL1 1 0 1e-3")
        dae = mna_stamp(net)
        cfg = StepperConfig(t0=0.0, t_end=0.01, dt=1e-4)
        s1 = integrate(dae, cfg)
        s2 = integrate(dae, cfg)
        assert np.array_equal(s1.currents["L1"], s2.currents["L1"])
        assert np.array_equal(s1.voltages["L1"], s2.voltages["L1"])

    def test_step_guard(self):
        with pytest.raises(ValueError):
            StepperConfig(t0=0.0, t_end=1.0, dt=1e-9)
