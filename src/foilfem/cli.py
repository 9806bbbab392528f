"""Command-line front end.

Subcommands::

    foilfem mesh gen|refine|info   structured meshes of the device cross-section
    foilfem assemble               build and save the coupled field blocks
    foilfem classify               element classification report
    foilfem simulate               one transient run per the configuration
    foilfem fig4                   perturbation-sensitivity study (both drives)
    foilfem fig5                   exact G vs consistent Ge mesh study (current drive)
    foilfem demo-inductor          lumped-inductor analytic demonstrations

Every subcommand takes ``--config <path>``, a flat ``key = value`` file, and
``--out``, the output directory.  Each declares only the behaviour flags it
reads (``SUBCOMMAND_FLAGS``); a flag overrides the file, the file the command's
default config.  A usage error exits with status 2, a rejected input or an
unreadable or unwritable file with a one-line ``foilfem: error:`` message and
status 1.  One handler serves the five report commands: it prints the report
that each one's study writes to ``--out`` as ``<prefix>_metrics.txt``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import __version__
from .errors import FoilFemError, ValidationError
from .experiments import (
    DRIVES,
    ExperimentConfig,
    build_mesh,
    build_system,
    demo_inductor,
    load_config,
    mesh_edge_length,
    read_text,
    run_classify,
    run_fig4,
    run_fig5,
    run_simulate,
)
from .linalg import write_matrix_market
from .mesh import RegionTag, read_mesh, refine_uniform, write_mesh
from .winding import BASIS_FAMILIES, MODES, save_system

# behaviour flags; the dest of each one is an ExperimentConfig key
BEHAVIOUR_FLAGS = {
    "--mesh-level": dict(type=int),
    "--mode": dict(choices=MODES),
    "--drive": dict(choices=DRIVES),
    "--dt": dict(type=float),
    "--duration": dict(type=float),
    "--basis": dict(choices=BASIS_FAMILIES, dest="basis_family"),
}
# the behaviour flags each subcommand reads; any other one is an argparse error
SUBCOMMAND_FLAGS = {
    "mesh": ("--mesh-level",),
    "assemble": ("--mesh-level", "--basis"),
    "classify": ("--mesh-level", "--basis"),
    "simulate": ("--mesh-level", "--mode", "--drive", "--dt", "--duration", "--basis"),
    "fig4": ("--duration", "--basis"),
    "fig5": ("--duration", "--basis"),
    "demo-inductor": ("--dt", "--duration"),
}


def _config_from(args) -> ExperimentConfig:
    cfg = load_config(args.config, args.defaults) if args.config else args.defaults
    keys = {f.name for f in fields(ExperimentConfig)}
    overrides = {key: v for key, v in vars(args).items() if key in keys and v is not None}
    return replace(cfg, **overrides)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_mesh(args) -> int:
    if args.mesh_action != "gen" and args.mesh is None:
        raise ValidationError(f"mesh {args.mesh_action} needs --mesh <file>")
    cfg = _config_from(args)
    if args.mesh_action == "gen":
        mesh = build_mesh(cfg)
        out = _out_dir(args) / f"mesh_level{cfg.mesh_level}.txt"
        out.write_text(write_mesh(mesh), encoding="ascii")
        print(f"wrote {out} ({mesh.n_nodes} nodes, {mesh.n_triangles} triangles, "
              f"h = {mesh_edge_length(cfg.mesh_level):.4e} m)")
        return 0
    mesh = read_mesh(read_text(args.mesh, "ascii"))
    if args.mesh_action == "refine":
        refined = refine_uniform(mesh)
        out = _out_dir(args) / (Path(args.mesh).stem + "_refined.txt")
        out.write_text(write_mesh(refined), encoding="ascii")
        print(f"wrote {out} ({refined.n_nodes} nodes, {refined.n_triangles} triangles)")
        return 0
    print(f"nodes: {mesh.n_nodes}")
    print(f"triangles: {mesh.n_triangles}")
    print(f"boundary nodes: {int(mesh.boundary.sum())}")
    for tag in RegionTag:
        count = int((mesh.regions == int(tag)).sum())
        print(f"region {tag.name}: {count} triangles, area {mesh.region_area(tag):.6e} m^2")
    return 0


def cmd_assemble(args) -> int:
    cfg = _config_from(args)
    system = build_system(cfg, build_mesh(cfg))[0]
    out = _out_dir(args)
    path = out / f"system_level{cfg.mesh_level}_{cfg.basis_family}.npz"
    save_system(path, system)
    print(f"wrote {path} (n_dofs = {system.n_dofs}, n_basis = {system.n_basis})")
    if args.mtx:
        dumps = {"K": system.K, "M": system.M, "X": system.X, "G": system.G, "Ge": system.G_e}
        for name, matrix in dumps.items():
            write_matrix_market(out / f"{name}.mtx", matrix)
        print(f"wrote Matrix Market dumps to {out}")
    return 0


def cmd_study(args) -> int:
    run = {"classify": run_classify, "simulate": run_simulate, "fig4": run_fig4, "fig5": run_fig5,
           "demo-inductor": demo_inductor}[args.command]
    sys.stdout.write(run(_config_from(args), out_dir=Path(args.out))["report"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foilfem",
        description="Axisymmetric magnetoquasistatic foil-winding solver and experiments",
    )
    parser.add_argument("--version", action="version", version=f"foilfem {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "mesh": (cmd_mesh, "generate, refine or inspect meshes"),
        "assemble": (cmd_assemble, "assemble and save the coupled system"),
        "classify": (cmd_study, "element classification report"),
        "simulate": (cmd_study, "one transient run"),
        "fig4": (cmd_study, "perturbation-sensitivity study"),
        "fig5": (
            cmd_study,
            "conductance-variant mesh study: the exact, mesh-free original G "
            "against the consistent Ge on a coarse and a fine mesh; defaults to the "
            "hat basis family, whose profiles are not exactly representable on the "
            "mesh, so the coarse run with G diverges",
        ),
        "demo-inductor": (cmd_study, "lumped-inductor analytics"),
    }
    subparsers = {}
    for name, (func, help_text) in commands.items():
        p = subparsers[name] = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=str, default=None, help="flat key = value config file")
        p.add_argument("--out", type=str, default="out", help="output directory")
        for flag in SUBCOMMAND_FLAGS[name]:
            p.add_argument(flag, **BEHAVIOUR_FLAGS[flag])
        p.set_defaults(func=func, defaults=ExperimentConfig())
    subparsers["mesh"].add_argument("mesh_action", choices=("gen", "refine", "info"))
    subparsers["mesh"].add_argument("--mesh", type=str, default=None, help="mesh file (refine/info)")
    subparsers["assemble"].add_argument(
        "--mtx", action="store_true", help="also dump Matrix Market files"
    )
    subparsers["fig5"].set_defaults(defaults=ExperimentConfig(basis_family="hat"))
    return parser


def main(argv=None) -> int:
    """Run one subcommand; a program error is one stderr line and status 1."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FoilFemError, OSError) as exc:
        print(f"foilfem: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
