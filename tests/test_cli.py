"""CLI subcommand smoke tests (fast paths; studies run in the acceptance suite)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import foilfem
from foilfem.cli import build_parser, main
from foilfem.experiments import read_csv_series
from foilfem.mesh import read_mesh
from foilfem.winding import load_system


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return out


# a valid value for every behaviour flag the command line has ever taken
FLAG_VALUES = {
    "--format": "csv",
    "--seed": "5",
    "--mesh-level": "0",
    "--mode": "Ge",
    "--drive": "i",
    "--dt": "1e-4",
    "--duration": "1e-3",
    "--basis": "hat",
}
# the behaviour flags each subcommand reads; the argv prefix that selects it
ACCEPTED = {
    ("mesh", "gen"): {"--mesh-level"},
    ("assemble",): {"--mesh-level", "--basis"},
    ("classify",): {"--mesh-level", "--basis"},
    ("simulate",): {"--format", "--mesh-level", "--mode", "--drive", "--dt", "--duration", "--basis"},
    ("fig4",): {"--duration", "--basis"},
    ("fig5",): {"--duration", "--basis"},
    ("demo-inductor",): {"--dt", "--duration"},
}
TABLE = [(command, flag, flag in accepted) for command, accepted in ACCEPTED.items()
         for flag in FLAG_VALUES]


class TestFlagScope:
    @pytest.mark.parametrize("command, flag, accepted", TABLE,
                             ids=[f"{c[0]}{f}" for c, f, _ in TABLE])
    def test_behaviour_flag_scope(self, command, flag, accepted, capsys):
        argv = [*command, flag, FLAG_VALUES[flag]]
        if accepted:
            build_parser().parse_args(argv)
            return
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", list(ACCEPTED), ids=[c[0] for c in ACCEPTED])
    def test_config_and_out_on_every_subcommand(self, command, tmp_path):
        args = build_parser().parse_args(
            [*command, "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path)]
        )
        assert args.config == str(tmp_path / "run.cfg") and args.out == str(tmp_path)

    def test_fig5_defaults_to_the_hat_basis(self):
        assert build_parser().parse_args(["fig5"]).basis_family == "hat"
        assert build_parser().parse_args(["fig5", "--basis", "legendre"]).basis_family == "legendre"
        assert build_parser().parse_args(["fig4"]).basis_family is None


class TestMeshCommands:
    def test_gen_info_refine(self, tmp_path, capsys):
        out = run_cli(capsys, "mesh", "gen", "--mesh-level", "0", "--out", str(tmp_path))
        assert "nodes" in out
        mesh_path = tmp_path / "mesh_level0.txt"
        mesh = read_mesh(mesh_path.read_text())
        assert 80 <= mesh.n_nodes <= 150

        info = run_cli(capsys, "mesh", "info", "--mesh", str(mesh_path))
        assert "FOIL_WINDING" in info

        run_cli(capsys, "mesh", "refine", "--mesh", str(mesh_path), "--out", str(tmp_path))
        refined = read_mesh((tmp_path / "mesh_level0_refined.txt").read_text())
        assert refined.n_triangles == 4 * mesh.n_triangles


    @pytest.mark.parametrize("action", ["info", "refine"])
    def test_unknown_region_tags_are_rejected_with_their_line(self, action, tmp_path, capsys):
        run_cli(capsys, "mesh", "gen", "--mesh-level", "0", "--out", str(tmp_path))
        mesh_path = tmp_path / "mesh_level0.txt"
        lines = mesh_path.read_text().splitlines()
        first = next(i for i, line in enumerate(lines) if line.startswith("triangles")) + 1
        for row, tag in ((first + 4, -5), (first + 7, 9)):
            lines[row] = " ".join(lines[row].split()[:3] + [str(tag)])
        mesh_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert main(["mesh", action, "--mesh", str(mesh_path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"foilfem: error: unknown region tag -5 (line {first + 5})\n"
        assert not out.exists()


class TestAssembleCommand:
    def test_assemble_writes_loadable_system(self, tmp_path, capsys):
        out = run_cli(capsys, "assemble", "--mesh-level", "0", "--out", str(tmp_path), "--mtx")
        assert "n_dofs" in out
        system = load_system(tmp_path / "system_level0_legendre.npz")
        assert system.n_basis == 5
        assert (tmp_path / "K.mtx").exists()
        assert (tmp_path / "Ge.mtx").exists()

    def test_cli_import_leaves_out_the_matrix_market_writer(self):
        # scipy.io is loaded by ``assemble --mtx`` alone
        env = {**os.environ, "PYTHONPATH": str(Path(foilfem.__file__).resolve().parents[1])}
        check = "import sys, foilfem.cli; print('scipy.io' in sys.modules)"
        run = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True,
                             text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout == "False\n"


class TestSimulateCommand:
    def test_simulate_emits_csv_and_svg(self, tmp_path, capsys):
        out = run_cli(
            capsys,
            "simulate",
            "--mesh-level", "0",
            "--drive", "i",
            "--mode", "Ge",
            "--duration", "2e-3",
            "--out", str(tmp_path),
        )
        assert "fundamental" in out
        csv_path = tmp_path / "simulate_ifed_Ge_level0.csv"
        t, i, v = read_csv_series(csv_path)
        assert t.size == 21  # duration 2 ms at dt = 1e-4
        assert np.all(np.isfinite(v))
        assert (tmp_path / "simulate_ifed_Ge_level0.svg").exists()

    def test_config_file_plumbs_through(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("duration = 2e-3\ndrive = i\nmesh_level = 0\n")
        run_cli(capsys, "simulate", "--config", str(cfg_path), "--out", str(tmp_path))
        t, _, _ = read_csv_series(tmp_path / "simulate_ifed_Ge_level0.csv")
        assert t.size == 21

    def test_config_value_outside_its_set_is_rejected_with_its_line(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("duration = 1e-3\ndrive = I\n")
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == "foilfem: error: drive must be one of v, i, got 'I' (line 2)\n"
        assert not list(tmp_path.glob("*.csv"))


class TestProgramErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "--dt", "0"], "dt must be positive, got 0.0"),
            (["simulate", "--dt", "inf"], "dt must be finite, got inf"),
            (["demo-inductor", "--dt", "inf"], "dt must be finite, got inf"),
            (["simulate", "--duration", "inf"], "duration must be finite, got inf"),
            (["mesh", "gen", "--mesh-level", "-1"], "mesh_level must be at least 0, got -1"),
            (["classify", "--config", "{tmp}/absent.cfg"], "No such file or directory"),
            (["mesh", "info", "--mesh", "{tmp}/absent.txt"], "No such file or directory"),
            (["mesh", "info"], "mesh info needs --mesh <file>"),
            (["mesh", "refine"], "mesh refine needs --mesh <file>"),
        ],
        ids=["dt-zero", "dt-inf", "demo-dt-inf", "duration-inf", "mesh-level-negative",
             "config-absent", "mesh-absent", "mesh-info-no-mesh", "mesh-refine-no-mesh"],
    )
    def test_one_line_on_stderr_and_status_1(self, argv, message, tmp_path, capsys):
        argv = [arg.format(tmp=tmp_path) for arg in argv] + ["--out", str(tmp_path / "out")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("foilfem: error: ") and captured.err.count("\n") == 1
        assert message in captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["simulate", "--drive", "i"], ["classify"]])
    def test_n_basis_beyond_what_the_mesh_resolves_is_one_line(self, argv, tmp_path, capsys):
        # level 0 resolves 6 voltage basis functions; without the check the run ended on a
        # singular iteration matrix and the report on a singular consistent conductance
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("mesh_level = 0\nn_basis = 7\n")
        out = tmp_path / "out"
        assert main([*argv, "--config", str(cfg_path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "foilfem: error: n_basis = 7 exceeds rank(X) = 6 on a mesh of 126 nodes (84 DoFs); "
            "use a finer mesh (mesh_level) or a smaller n_basis\n"
        )
        assert not out.exists()

    def test_zero_frequency_is_rejected_with_its_line(self, tmp_path, capsys):
        # the inductor demo would otherwise divide by w = 0 and print nan
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("frequency = 0\n")
        assert main(["demo-inductor", "--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "foilfem: error: frequency must be positive, got 0.0 (line 1)\n"

    @pytest.mark.parametrize("command", ["fig4", "fig5"])
    def test_zero_amplitude_is_rejected_before_meshing(
        self, command, tmp_path, capsys, monkeypatch
    ):
        # the studies would run every transient and then divide by a zero response
        def forbidden(*args, **kwargs):
            raise AssertionError("meshed before the configuration was checked")

        monkeypatch.setattr("foilfem.experiments.build_mesh", forbidden)
        monkeypatch.setattr("foilfem.cli.build_mesh", forbidden)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("mesh_level = 0\namplitude = 0.0\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "foilfem: error: amplitude must be nonzero, got 0.0 (line 2)\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("winding_conductivity", "nan", "winding_conductivity must be finite, got nan"),
            ("winding_conductivity", "inf", "winding_conductivity must be finite, got inf"),
            ("yoke_permeability", "nan", "yoke_permeability must be finite, got nan"),
            ("yoke_permeability", "-5", "yoke_permeability must be positive, got -5.0"),
            ("yoke_permeability", "0", "yoke_permeability must be positive, got 0.0"),
            ("yoke_conductivity", "-1", "yoke_conductivity must be nonnegative, got -1.0"),
            ("winding_conductivity", "-6e7",
             "winding_conductivity must be nonnegative, got -60000000.0"),
            ("amplitude", "-inf", "amplitude must be finite, got -inf"),
        ],
    )
    def test_bad_material_value_is_one_line_naming_its_config_line(
        self, key, value, message, tmp_path, capsys, monkeypatch
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("meshed before the configuration was checked")

        monkeypatch.setattr("foilfem.cli.build_mesh", forbidden)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"mesh_level = 0\n{key} = {value}\n")
        out = tmp_path / "out"
        assert main(["assemble", "--config", str(cfg_path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"foilfem: error: {message} (line 2)\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, data, message",
        [
            (["classify", "--config"], b"\x7fELF\x02\x01\x01\x00\xd0\n\x00",
             "byte 0xd0 is not valid utf-8 (line 1)"),
            (["classify", "--config"],
             "mesh_level = 0\n# a comment: \u00b5m\nbasis_family = hat # \xff\n".encode("latin-1"),
             "byte 0xb5 is not valid utf-8 (line 2)"),
            (["classify", "--config"],
             "mesh_level = 0\n# a comment: \u00b5m\nbasis_family = hat\n".encode("utf-8") + b"#\xff\n",
             "byte 0xff is not valid utf-8 (line 4)"),
            (["mesh", "info", "--mesh"], b"foilmesh v1\nnodes 1\n0.0 0.0\n\r\n\xe9\n",
             "byte 0xe9 is not valid ascii (line 5)"),
            (["mesh", "refine", "--mesh"], b"\x7fELF\x02\x01\x01\x00\xd0\n",
             "byte 0xd0 is not valid ascii (line 1)"),
        ],
        ids=["config-binary", "config-latin-1", "config-0xff", "mesh-info", "mesh-refine-binary"],
    )
    def test_undecodable_file_is_one_line_at_the_bad_byte(self, argv, data, message, tmp_path, capsys):
        path = tmp_path / "input"
        path.write_bytes(data)
        out = tmp_path / "out"
        assert main([*argv, str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"foilfem: error: {path}: {message}\n"
        assert not out.exists()

    def test_config_comment_may_hold_utf8(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_bytes("# foil pitch 0.28 mm, h = 8 \u00b5m\nmesh_level = 0\n".encode("utf-8"))
        assert "mesh level 0" in run_cli(capsys, "classify", "--config", str(cfg_path))

    @pytest.mark.parametrize(
        "command, dt, message",
        [
            ("simulate", "1e-12", "step count 22000000000 exceeds the 10000000 guard"),
            ("demo-inductor", "1e-12", "step count 22000000000 exceeds the 10000000 guard"),
            ("simulate", "1", "dt 1.0 leaves no step in the duration 0.022"),
            ("demo-inductor", "1", "dt 1.0 leaves no step in the duration 0.022"),
            ("simulate", "0.015", "dt 0.015 does not divide the duration 0.022"),
        ],
        ids=["simulate", "demo-inductor", "simulate-no-step", "demo-inductor-no-step",
             "simulate-dt-does-not-divide"],
    )
    def test_step_guard_is_one_line(self, command, dt, message, tmp_path, capsys):
        assert main([command, "--dt", dt, "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"foilfem: error: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "--dt", "0.015", "--mesh-level", "3"],
             "dt 0.015 does not divide the duration 0.022"),
            (["fig4", "--duration", "0.00015"], "dt 0.0001 does not divide the duration 0.00015"),
            (["fig4", "--duration", "200"], "step count 20000000 exceeds the 10000000 guard"),
            (["fig5", "--duration", "0.00015"], "dt 0.0001 does not divide the duration 0.00015"),
            (["demo-inductor", "--dt", "0.015"], "dt 0.015 does not divide the duration 0.022"),
        ],
        ids=["simulate", "fig4-large-dt", "fig4-small-dt", "fig5", "demo-inductor"],
    )
    def test_time_grid_is_checked_before_any_assembly(
        self, argv, message, tmp_path, capsys, monkeypatch
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("called before the time grid was checked")

        for name in ("cli.build_mesh", "cli.build_system", "experiments.build_mesh",
                     "experiments.build_system", "experiments.integrate"):
            monkeypatch.setattr(f"foilfem.{name}", forbidden)
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"foilfem: error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, tail",
        [
            (["fig4", "--duration", "0.0002"], 2),
            (["simulate", "--duration", "0.0002", "--dt", "0.0001"], 2),
            (["demo-inductor", "--duration", "1e-4", "--dt", "1e-4"], 1),
        ],
        ids=["fig4", "simulate", "demo-inductor"],
    )
    def test_underdetermined_noise_fit_is_one_line(
        self, argv, tail, tmp_path, capsys, monkeypatch
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("called before the noise-fit length was checked")

        for name in ("cli.build_mesh", "cli.build_system", "experiments.build_mesh",
                     "experiments.build_system", "experiments.integrate"):
            monkeypatch.setattr(f"foilfem.{name}", forbidden)
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"foilfem: error: the noise fit needs 9 samples in the last 60% of the run, "
            f"got {tail}; lengthen the duration\n"
        )
        assert not out.exists()

    def test_mesh_size_guard_is_one_line_before_any_tick(self, tmp_path, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("ticks expanded before the node guard")

        monkeypatch.setattr("foilfem.mesh._ticks", forbidden)
        assert main(["mesh", "gen", "--mesh-level", "40", "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "foilfem: error: edge length h = 6.1846e-15 m gives 6.47e+12 x 1.23e+13 mesh nodes, "
            "above the 2000000 node guard\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [["mesh", "gen"], ["classify"]], ids=["mesh-gen", "classify"])
    def test_level_whose_edge_length_underflows_is_one_line(self, command, tmp_path, capsys):
        # 0.85 mm halved 1097 times is below the smallest subnormal float
        argv = [*command, "--mesh-level", "1100", "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "foilfem: error: mesh_level 1100 halves the edge length below the smallest float\n"
        )
        assert not (tmp_path / "out").exists()


class TestStudyCommands:
    def test_fig5_prints_the_metrics_it_writes(self, tmp_path, capsys):
        out = run_cli(capsys, "fig5", "--out", str(tmp_path))
        assert out == (tmp_path / "fig5_metrics.txt").read_text(encoding="ascii")
        assert "diverged[coarse_G] = " in out

    def test_fig5_calls_the_study_bound_at_call_time(self, tmp_path, capsys, monkeypatch):
        calls = []

        def stub(cfg, out_dir):
            calls.append((cfg.basis_family, out_dir))
            return {"report": "stub report\n"}

        monkeypatch.setattr("foilfem.cli.run_fig5", stub)
        assert run_cli(capsys, "fig5", "--out", str(tmp_path)) == "stub report\n"
        assert calls == [("hat", tmp_path)]
        assert not list(tmp_path.iterdir())  # the command itself writes and reads no file


class TestReportCommands:
    def test_classify_runs(self, capsys):
        out = run_cli(capsys, "classify", "--mesh-level", "0", "--basis", "hat")
        assert "resistance-like" in out

    def test_demo_inductor_runs(self, capsys):
        out = run_cli(capsys, "demo-inductor")
        assert "observed order" in out
