"""CLI subcommand smoke tests (fast paths; studies run in the acceptance suite)."""

import numpy as np
import pytest

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


class TestAssembleCommand:
    def test_assemble_writes_loadable_system(self, tmp_path, capsys):
        out = run_cli(capsys, "assemble", "--mesh-level", "0", "--out", str(tmp_path), "--mtx")
        assert "n_dofs" in out
        system = load_system(tmp_path / "system_level0_legendre.npz")
        assert system.n_basis == 5
        assert (tmp_path / "K.mtx").exists()
        assert (tmp_path / "Ge.mtx").exists()


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
        cfg_path.write_text("duration = 1e-3\ndrive = i\nmesh_level = 0\n")
        run_cli(capsys, "simulate", "--config", str(cfg_path), "--out", str(tmp_path))
        t, _, _ = read_csv_series(tmp_path / "simulate_ifed_Ge_level0.csv")
        assert t.size == 11

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
            (["mesh", "gen", "--mesh-level", "-1"], "mesh_level must be at least 0, got -1"),
            (["classify", "--config", "{tmp}/absent.cfg"], "No such file or directory"),
            (["mesh", "info", "--mesh", "{tmp}/absent.txt"], "No such file or directory"),
            (["mesh", "info"], "mesh info needs --mesh <file>"),
            (["mesh", "refine"], "mesh refine needs --mesh <file>"),
        ],
        ids=["dt-zero", "mesh-level-negative", "config-absent", "mesh-absent", "mesh-info-no-mesh",
             "mesh-refine-no-mesh"],
    )
    def test_one_line_on_stderr_and_status_1(self, argv, message, tmp_path, capsys):
        argv = [arg.format(tmp=tmp_path) for arg in argv] + ["--out", str(tmp_path / "out")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("foilfem: error: ") and captured.err.count("\n") == 1
        assert message in captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "demo-inductor"])
    def test_step_guard_is_one_line(self, command, tmp_path, capsys):
        assert main([command, "--dt", "1e-12", "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "foilfem: error: step count 22000000000 exceeds the 10000000 guard\n"
        )


class TestReportCommands:
    def test_classify_runs(self, capsys):
        out = run_cli(capsys, "classify", "--mesh-level", "0", "--basis", "hat")
        assert "resistance-like" in out

    def test_demo_inductor_runs(self, capsys):
        out = run_cli(capsys, "demo-inductor")
        assert "observed order" in out
