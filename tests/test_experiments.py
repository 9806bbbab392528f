"""Experiment configuration, metrics and output-emission tests."""

import concurrent.futures
import dataclasses
import hashlib
import math
import multiprocessing
import os
import pickle
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from foilfem import cli, experiments
from foilfem.errors import ParseError, SingularSystemAtStepError, ValidationError
from foilfem.experiments import (
    ExperimentConfig,
    available_cpus,
    build_geometry,
    build_mesh,
    build_system,
    build_winding_spec,
    demo_inductor,
    emit_csv,
    emit_svg_plot,
    load_config,
    mesh_edge_length,
    noise_metric,
    read_csv_series,
    response,
    run_classify,
    run_fig4,
    run_fig5,
    run_transient,
    run_transients,
)
from foilfem.mesh import GeometrySpec, RegionTag
from foilfem.timestepper import TimeSeries
from foilfem.winding import FoilWindingSpec, device_materials
from oracles import loop_fig4, loop_fig5

# the y-axis tick labels of an emitted SVG
Y_TICK = re.compile(r'text-anchor="end">([^<]+)<')
DEFAULT_HASH = "a3a25a386e99ff33afdd49543de69962b554d6c3430d65ce3b4f71609234e281"


class TestConfig:
    def test_defaults_match_reference_table(self):
        cfg = ExperimentConfig()
        assert cfg.n_basis == 5
        assert cfg.n_turns == 50
        assert cfg.fill_factor == 0.8
        assert cfg.foil_pitch == 0.28e-3
        assert cfg.winding_height == 50e-3
        assert cfg.air_gap_length == 4.2e-3
        assert cfg.yoke_height == 76.2e-3
        assert cfg.yoke_outer_radius == 40e-3
        assert cfg.frequency == 50.0
        assert cfg.perturbation_frequency == pytest.approx(2 * math.pi * 1e10)
        assert cfg.perturbation_amplitude == 1e-3
        assert cfg.winding_conductivity == 6e7
        assert cfg.yoke_conductivity == 10.0
        assert cfg.yoke_permeability == 1000.0

    def test_default_hash_is_stable(self):
        assert ExperimentConfig().config_hash() == DEFAULT_HASH

    def test_load_config_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("dt = 1e-5\nmode = G\nmesh_level = 2  # fine\n")
        cfg = load_config(path)
        assert cfg.dt == 1e-5
        assert cfg.mode == "G"
        assert cfg.mesh_level == 2
        assert cfg.n_turns == 50  # untouched default

    @pytest.mark.parametrize(
        "key, value",
        [("drive", "I"), ("mode", "ge"), ("basis_family", "chebyshev"), ("n_basis", 0),
         ("mesh_level", -1), ("dt", 0.0), ("dt", -1e-4), ("dt", float("inf")), ("duration", 0.0),
         ("duration", float("nan")), ("duration", float("inf")), ("frequency", 0.0),
         ("frequency", -50.0), ("amplitude", 0.0)],
    )
    def test_invalid_value_rejected_naming_the_key(self, tmp_path, key, value):
        with pytest.raises(ValidationError, match=f"^{key} must") as err:
            ExperimentConfig(**{key: value})
        assert err.value.key == key and err.value.line is None
        path = tmp_path / "run.cfg"
        path.write_text(f"mesh_level = 0\n# comment\n{key} = {value}\n")
        with pytest.raises(ValidationError, match=f"^{key} must.*\\(line 3\\)$") as err:
            load_config(path)
        assert err.value.line == 3

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("bogus = 3\n")
        with pytest.raises(ParseError):
            load_config(path)

    def test_geometry_derives_winding_thickness(self):
        geom = build_geometry(ExperimentConfig())
        assert geom.winding_thickness == pytest.approx(50 * 0.28e-3)

    def test_the_config_is_the_only_description_of_the_device(self):
        with pytest.raises(TypeError):
            GeometrySpec()
        spec = build_winding_spec(ExperimentConfig())
        with pytest.raises(TypeError):
            device_materials(spec)
        assert [f.name for f in dataclasses.fields(FoilWindingSpec)] == [
            "n_turns", "fill_factor", "foil_pitch", "height", "inner_radius", "sigma_c"
        ]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n_turns=st.integers(1, 80),
        foil_pitch=st.floats(0.05e-3, 0.4e-3),
        winding_inner_radius=st.floats(10e-3, 20e-3),
        winding_height=st.floats(5e-3, 55e-3),
        fill_factor=st.floats(0.3, 1.0),
        level=st.integers(0, 1),
    )
    def test_geometry_winding_and_mesh_share_one_winding_rectangle(self, level, **winding):
        cfg = ExperimentConfig(**winding)
        try:
            geom = build_geometry(cfg)
        except ValidationError:
            assume(False)
        spec = build_winding_spec(cfg)
        assert geom.winding_inner_radius == spec.inner_radius
        assert geom.winding_thickness == spec.radial_extent
        assert geom.winding_height == spec.height
        mesh = build_mesh(cfg, level)
        corners = mesh.nodes[mesh.triangles[mesh.regions == int(RegionTag.FOIL_WINDING)]]
        r, z = corners[..., 0], corners[..., 1]
        assert (r.min(), r.max()) == (geom.winding_inner_radius, geom.winding_outer_radius)
        assert (z.min(), z.max()) == geom.winding_z_bounds
        ends = spec.alpha_normalized(np.array([r.min(), r.max()]))
        assert np.max(np.abs(ends - [-1.0, 1.0])) <= 1e-13

    def test_mesh_levels(self):
        assert mesh_edge_length(0) == 8.0e-3
        assert mesh_edge_length(2) == 1.7e-3
        assert mesh_edge_length(4) == pytest.approx(0.425e-3)
        coarse = build_mesh(ExperimentConfig(), 0)
        assert 80 <= coarse.n_nodes <= 150

    def test_levels_below_the_float_range_name_the_key(self):
        # halving stays exact down to the subnormals: 1067 is the last level above 0 m
        assert mesh_edge_length(7) == 0.85e-3 / 16
        assert mesh_edge_length(1067) > 0.0
        for level in (1068, 1100, 10**400):
            with pytest.raises(ValidationError) as exc:
                mesh_edge_length(level)
            assert exc.value.key == "mesh_level"


class TestErrorPickling:
    """Errors cross from the studies' worker processes to the command line by pickle."""

    def test_validation_error_keeps_message_key_and_line(self):
        err = pickle.loads(pickle.dumps(ValidationError("dt must be positive", key="dt", line=3)))
        assert type(err) is ValidationError
        assert str(err) == "dt must be positive (line 3)"
        assert (err.message, err.key, err.line) == ("dt must be positive", "dt", 3)

    def test_parse_error_keeps_message_line_and_column(self):
        err = pickle.loads(pickle.dumps(ParseError("bad value", line=4, column=7)))
        assert type(err) is ParseError
        assert str(err) == "bad value (line 4, column 7)"
        assert (err.line, err.column) == (4, 7)


class TestNoiseMetric:
    def test_pure_sine_has_negligible_noise(self):
        t = np.arange(0.0, 0.04, 1e-5)
        y = 2.5 * np.sin(2 * np.pi * 50 * t)
        metric = noise_metric(t, y, 50.0)
        assert metric.fundamental_amplitude == pytest.approx(2.5, rel=1e-9)
        assert metric.noise_rms <= 1e-9 * metric.fundamental_amplitude

    def test_detects_high_frequency_tone(self):
        t = np.arange(0.0, 0.04, 1e-5)
        rng = np.random.default_rng(7)
        noise = 0.01 * rng.standard_normal(t.size)
        y = np.sin(2 * np.pi * 50 * t) + noise
        metric = noise_metric(t, y, 50.0)
        assert metric.noise_rms == pytest.approx(0.01, rel=0.15)

    def test_harmonics_are_removed(self):
        t = np.arange(0.0, 0.04, 1e-5)
        y = np.sin(2 * np.pi * 50 * t) + 0.3 * np.sin(2 * np.pi * 150 * t)
        metric = noise_metric(t, y, 50.0)
        assert metric.noise_rms <= 1e-9

    def test_underdetermined_fit_is_a_named_error(self):
        # 15 samples leave a tail of 9, one per fitted column; 14 leave 8
        t = np.arange(15) * 1e-3
        y = np.sin(2 * np.pi * 50 * t)
        assert math.isfinite(noise_metric(t, y, 50.0).fundamental_amplitude)
        with pytest.raises(ValidationError) as exc:
            noise_metric(t[:14], y[:14], 50.0)
        assert exc.value.key == "duration"
        assert "the noise fit needs 9 samples" in str(exc.value)


class TestCsv:
    def test_roundtrip_exact(self, tmp_path):
        times = np.array([0.0, 1e-4, 2e-4])
        series = TimeSeries(
            times=times,
            currents={"FW1": np.array([0.0, 0.123456789012345, -3.5e-7])},
            voltages={"FW1": np.array([0.0, -1.0 / 3.0, 2.0])},
        )
        path = tmp_path / "run.csv"
        emit_csv(path, series, "FW1")
        t, i, v = read_csv_series(path)
        assert np.array_equal(t, series.times)
        assert np.array_equal(i, series.currents["FW1"])
        assert np.array_equal(v, series.voltages["FW1"])

    def test_empty_series_header_only(self, tmp_path):
        series = TimeSeries(
            times=np.empty(0), currents={"FW1": np.empty(0)}, voltages={"FW1": np.empty(0)}
        )
        path = tmp_path / "empty.csv"
        emit_csv(path, series, "FW1")
        assert path.read_text() == "t,i,v\n"

    def test_two_point_series(self, tmp_path):
        series = TimeSeries(
            times=np.array([0.0, 0.5]),
            currents={"FW1": np.array([1.0, 2.0])},
            voltages={"FW1": np.array([3.0, 4.0])},
        )
        path = tmp_path / "two.csv"
        emit_csv(path, series, "FW1")
        assert path.read_text().count("\n") == 3

    def test_rows_are_the_shortest_repr_of_each_float(self, tmp_path):
        special = [-0.0, 5e-324, 1e16, 0.1, math.nan]
        series = TimeSeries(
            times=np.array([0.0, 1e-4, 2e-4, 3e-4, 4e-4]),
            currents={"FW1": np.array(special)},
            voltages={"FW1": np.array(special[::-1])},
        )
        emit_csv(tmp_path / "s.csv", series, "FW1")
        assert (tmp_path / "s.csv").read_text() == (
            "t,i,v\n0.0,-0.0,nan\n0.0001,5e-324,0.1\n0.0002,1e+16,1e+16\n"
            "0.0003,0.1,5e-324\n0.0004,nan,-0.0\n"
        )


class TestSvg:
    def test_deterministic_and_labeled(self, tmp_path):
        t = np.linspace(0.0, 1.0, 50)
        curves = [("a", t, np.sin(t), None), ("b", t, np.cos(t), None)]
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_svg_plot(p1, curves, xlabel="t [s]", ylabel="v [V]")
        emit_svg_plot(p2, curves, xlabel="t [s]", ylabel="v [V]")
        text = p1.read_text()
        assert text == p2.read_text()
        assert text.count("<polyline") == 2
        assert "t [s]" in text and "v [V]" in text

    def test_handles_nonfinite_values(self, tmp_path):
        t = np.linspace(0.0, 1.0, 10)
        y = np.where(t > 0.5, np.inf, 1.0)
        emit_svg_plot(tmp_path / "n.svg", [("d", t, y, None)], xlabel="x", ylabel="y")
        assert "inf" not in (tmp_path / "n.svg").read_text().split("polyline")[1]

    def test_diverged_curve_neither_sets_the_range_nor_leaves_the_plot(self, tmp_path):
        t = np.linspace(0.0, 1.0, 20)
        blow_up = np.where(t > 0.5, -1e12, 0.5)
        curves = [("bounded", t, np.sin(t), None), ("diverged", t, blow_up, 11)]
        emit_svg_plot(tmp_path / "d.svg", curves, xlabel="x", ylabel="y")
        text = (tmp_path / "d.svg").read_text()
        pad = 0.05 * np.sin(1.0)
        assert [float(v) for v in Y_TICK.findall(text)] == pytest.approx(
            np.linspace(-pad, np.sin(1.0) + pad, 5), rel=1e-3, abs=1e-6
        )
        for points in re.findall(r'<polyline points="([^"]*)"', text):
            ys = [float(p.split(",")[1]) for p in points.split()]
            assert 70.0 <= min(ys) and max(ys) <= 430.0  # inside the 500 px plot's 70 px margins

    def test_polyline_points_over_special_floats(self, tmp_path):
        t = np.array([-0.0, 5e-324, 0.1, 0.7, 1.0])
        curves = [("a", t, np.array([-0.0, 5e-324, 1e16, 0.1, math.nan]), None),
                  ("b", t, np.array([0.1, math.nan, -1e16, 5e-324, -0.0]), 2)]
        emit_svg_plot(tmp_path / "s.svg", curves, xlabel="x", ylabel="y")
        # the NaN points are left out and the diverged curve is clipped to the range
        assert re.findall(r'<polyline points="([^"]*)"', (tmp_path / "s.svg").read_text()) == [
            "70.000,413.636 70.000,413.636 136.000,86.364 532.000,413.636",
            "70.000,413.636 136.000,430.000 532.000,413.636 730.000,413.636",
        ]


class TestRunners:
    def test_response_is_the_trace_the_drive_excites(self):
        voltage, current = np.array([0.0, 3.0]), np.array([0.0, 4.0])
        series = TimeSeries(np.arange(2.0), currents={"FW1": current}, voltages={"FW1": voltage})
        assert response(series, "i")[0] is voltage and response(series, "i")[1] == "v [V]"
        assert response(series, "v")[0] is current and response(series, "v")[1] == "i [A]"

    def test_simulate_coarse_deterministic(self):
        cfg = ExperimentConfig(duration=2e-3)
        mesh = build_mesh(cfg, 0)
        system, _, _ = build_system(cfg, mesh)
        s1 = run_transient(cfg, system, "v", "Ge", cfg.dt)
        s2 = run_transient(cfg, system, "v", "Ge", cfg.dt)
        assert np.array_equal(s1.currents["FW1"], s2.currents["FW1"])
        assert s1.diverged_at is None

    def test_fig5_coarse_svg_axis_spans_the_bounded_trace(self, tmp_path):
        results = run_fig5(ExperimentConfig(basis_family="hat"), out_dir=tmp_path)
        assert results["diverged"]["coarse_G"] is not None
        v_ge = results["series"]["coarse_Ge"].voltages["FW1"]
        pad = 0.05 * (v_ge.max() - v_ge.min())
        ticks = [float(v) for v in Y_TICK.findall((tmp_path / "fig5_coarse.svg").read_text())]
        assert len(ticks) == 5
        tol = 1e-3 * (v_ge.max() - v_ge.min())  # the labels carry four significant digits
        assert all(v_ge.min() - pad - tol <= v <= v_ge.max() + pad + tol for v in ticks)
        assert ticks[0] == pytest.approx(v_ge.min() - pad, abs=tol)
        assert ticks[-1] == pytest.approx(v_ge.max() + pad, abs=tol)

    def test_fig5_diverging_original_variant_is_reproducible(self, tmp_path):
        cfg = ExperimentConfig(basis_family="hat")
        results = run_fig5(cfg, out_dir=tmp_path / "a")
        run_fig5(cfg, out_dir=tmp_path / "b")
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        assert "fig5_coarse_G.csv" in names
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        step = results["diverged"]["coarse_G"]
        assert step is not None
        assert results["discrepancy"]["coarse"] == math.inf
        _, i, v = read_csv_series(tmp_path / "a" / "fig5_coarse_G.csv")
        assert len(v) == step + 1
        assert np.all(np.isfinite(i[:step])) and np.all(np.isfinite(v[:step]))

    def test_classify_report_mentions_both_modes(self, tmp_path):
        text = run_classify(ExperimentConfig(basis_family="hat"), tmp_path)["report"]
        assert "mode Ge" in text and "mode G" in text
        assert "inductance-like" in text
        assert "resistance-like" in text
        assert "refinement trend" in text

    def test_unperturbed_source_noise_floor(self):
        # zero perturbation leaves only the physical transient; the slowest
        # device mode decays over ~0.1 s, so a long run is needed before the
        # fitted-harmonic residual reaches the numerical floor
        cfg = ExperimentConfig(perturbation_amplitude=0.0, duration=3.0)
        mesh = build_mesh(cfg, 0)
        system, _, _ = build_system(cfg, mesh)
        for drive in ("i", "v"):
            series = run_transient(cfg, system, drive, "Ge", cfg.dt)
            trace = series.voltages["FW1"] if drive == "i" else series.currents["FW1"]
            metric = noise_metric(series.times, trace, cfg.frequency)
            assert metric.noise_rms <= 1e-9 * metric.fundamental_amplitude

    def test_demo_inductor_orders_and_noise(self, tmp_path):
        text = demo_inductor(ExperimentConfig(), tmp_path)["report"]
        orders = [
            float(line.rsplit("=", 1)[1])
            for line in text.splitlines()
            if line.strip().startswith("observed order")
        ]
        assert orders and all(0.8 <= o <= 1.2 for o in orders)
        ratio = [
            float(line.rsplit("=", 1)[1])
            for line in text.splitlines()
            if "rms / bound" in line
        ]
        assert ratio and 1.0 / 3.0 <= ratio[0] <= 3.0

    def test_demo_inductor_labels_each_order_with_its_two_step_sizes(self, tmp_path):
        text = demo_inductor(ExperimentConfig(duration=2.0e-3), tmp_path)["report"]
        dts = re.findall(r"^  dt = (\S+):", text, re.M)
        pairs = re.findall(r"observed order \((\S+) -> (\S+)\)", text)
        assert len(dts) == 3 and pairs == list(zip(dts, dts[1:]))


def _digests(directory):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


class TestWorkerRuns:
    # a short run keeps the level-2 study quick; both step sizes still fit the noise fit
    CFG = ExperimentConfig(duration=5.0e-3)

    def test_longest_runs_go_first_and_come_back_in_key_order(self, monkeypatch):
        calls = []

        class InlinePool:
            def __init__(self, max_workers, mp_context):
                calls.append(max_workers)

            def submit(self, fn, *args):
                calls.append(args[-1])
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, cancel_futures):
                calls.append("shutdown")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        cfg = ExperimentConfig(duration=1.0e-3)
        system = build_system(cfg, build_mesh(cfg, 0))[0]
        runs = {"a": (system, "v", "Ge", 1.0e-4), "b": (system, "i", "Ge", 1.0e-5),
                "c": (system, "v", "G", 1.0e-4)}
        series = run_transients(cfg, runs)
        assert calls == [min(3, available_cpus()), 1.0e-5, 1.0e-4, 1.0e-4, "shutdown"]
        assert list(series) == ["a", "b", "c"]
        assert [len(s.times) for s in series.values()] == [11, 101, 11]

    @staticmethod
    def assert_same_study(results, oracle, workers, loop):
        assert list(results["series"]) == list(oracle["series"])
        for key, series in results["series"].items():
            expected = oracle["series"][key]
            assert series.diverged_at == expected.diverged_at
            for got, want in ((series.times, expected.times),
                              (series.currents["FW1"], expected.currents["FW1"]),
                              (series.voltages["FW1"], expected.voltages["FW1"])):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert results["report"] == oracle["report"]
        assert _digests(workers) == _digests(loop)
        assert multiprocessing.active_children() == []

    def test_series_and_files_match_the_serial_loop(self, tmp_path):
        results = run_fig4(self.CFG, tmp_path / "workers")
        oracle = loop_fig4(self.CFG, tmp_path / "loop")
        self.assert_same_study(results, oracle, tmp_path / "workers", tmp_path / "loop")

    @pytest.mark.parametrize("basis_family", ["hat", "legendre"])
    def test_fig5_matches_the_serial_loop(self, tmp_path, basis_family):
        # the default duration: the coarse hat run with the exact G diverges at step 69
        cfg = ExperimentConfig(basis_family=basis_family)
        results = run_fig5(cfg, tmp_path / "workers")
        oracle = loop_fig5(cfg, tmp_path / "loop")
        self.assert_same_study(results, oracle, tmp_path / "workers", tmp_path / "loop")
        assert results["diverged"] == oracle["diverged"]
        assert results["discrepancy"] == oracle["discrepancy"]
        assert results["diverged"]["coarse_G"] == (69 if basis_family == "hat" else None)

    def test_worker_error_is_one_cli_error_line(self, tmp_path, monkeypatch, capsys):
        def singular(*args, **kwargs):
            raise SingularSystemAtStepError("iteration matrix is singular")

        # forked workers inherit the patched module
        monkeypatch.setattr(experiments, "integrate", singular)
        status = cli.main(["fig4", "--duration", "5e-3", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert status == 1
        assert captured.out == ""
        assert captured.err == "foilfem: error: iteration matrix is singular\n"
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("command, first_run", [("fig4", "ifed_dt1e-04"), ("fig5", "coarse_G")])
    def test_dying_worker_is_one_cli_error_line(self, tmp_path, monkeypatch, capsys, command,
                                                first_run):
        def die(*args, **kwargs):
            os._exit(9)

        # forked workers inherit the patched module; the parent steps nothing
        monkeypatch.setattr(experiments, "integrate", die)
        status = cli.main([command, "--duration", "5e-3", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert status == 1
        assert captured.out == ""
        assert captured.err == (
            f"foilfem: error: run {first_run}: a worker process ended abruptly, exit code 9\n"
        )
        assert multiprocessing.active_children() == []
