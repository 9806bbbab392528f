"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line with the measured quantities.  Shared device systems are built
once per module; each criterion measures its own runtime against its budget.
"""

import math
import time

import numpy as np
import pytest

from oracles import brute_force_li_bonds, build_projectors

from foilfem.assembly import FieldDiscretization
from foilfem.circuit import mna_stamp, parse_netlist
from foilfem.dae_analysis import (
    ElementKind,
    classify_element,
    kernel_basis,
    schur_stranded_form,
    singular_perturbation_measure,
)
from foilfem.experiments import (
    ExperimentConfig,
    build_mesh,
    noise_metric,
    run_fig4,
    run_fig5,
    run_transient,
)
from foilfem.linalg import max_abs, rank
from foilfem.mesh import refine_uniform
from foilfem.timestepper import StepperConfig, integrate
from foilfem.winding import (
    VoltageBasis,
    assemble_foil_system,
    build_solid_system,
    device_materials,
)
from foilfem.circuit import SourceWaveform, lumped_inductor_voltage_driven

CFG = ExperimentConfig()


def report(number, name, elapsed, checks):
    ok = all(checks.values())
    status = "PASS" if ok else "FAIL"
    detail = "; ".join(f"{key}={'ok' if val else 'FAIL'}" for key, val in checks.items())
    print(f"[ACCEPTANCE {number}] {name}: {status} ({elapsed:.1f} s) [{detail}]")
    return ok, detail


@pytest.fixture(scope="module")
def coarse_mesh():
    return build_mesh(CFG, 0)


@pytest.fixture(scope="module")
def fine_mesh():
    return build_mesh(CFG, 2)


@pytest.fixture(scope="module")
def device_parts():
    from foilfem.experiments import build_winding_spec

    spec = build_winding_spec(CFG)
    mats = device_materials(spec, yoke_sigma=CFG.yoke_conductivity, yoke_mu_r=CFG.yoke_permeability)
    return spec, mats


@pytest.fixture(scope="module")
def coarse_legendre(coarse_mesh, device_parts):
    spec, mats = device_parts
    disc = FieldDiscretization.from_mesh(coarse_mesh)
    return assemble_foil_system(coarse_mesh, materials=mats, disc=disc, spec=spec, basis=VoltageBasis(5))


@pytest.fixture(scope="module")
def coarse_hat(coarse_mesh, device_parts):
    spec, mats = device_parts
    disc = FieldDiscretization.from_mesh(coarse_mesh)
    return assemble_foil_system(
        coarse_mesh, materials=mats, disc=disc, spec=spec, basis=VoltageBasis(5, family="hat")
    )


@pytest.fixture(scope="module")
def fine_hat(fine_mesh, device_parts):
    spec, mats = device_parts
    disc = FieldDiscretization.from_mesh(fine_mesh)
    return assemble_foil_system(
        fine_mesh, materials=mats, disc=disc, spec=spec, basis=VoltageBasis(5, family="hat")
    )


def test_criterion_1_solid_equivalence(coarse_mesh, device_parts):
    t0 = time.monotonic()
    spec, mats = device_parts
    disc = FieldDiscretization.from_mesh(coarse_mesh)
    foil = assemble_foil_system(
        coarse_mesh, materials=mats, disc=disc, spec=spec, basis=VoltageBasis(1)
    )
    solid = build_solid_system(coarse_mesh, mats, disc)

    conductance_gap = np.linalg.norm(foil.G - foil.G_e) <= 1e-12 * np.linalg.norm(foil.G)
    coupling_match = np.max(np.abs(foil.X[:, 0] - solid.x_sol)) <= 1e-13 * np.max(np.abs(solid.x_sol))

    # the constant-profile foil model is the solid conductor seen through the
    # n-turn ratio: v = N u1 and c = N, so driving the solid model at 1/N of
    # the foil voltage must reproduce exactly N times the foil current
    dt, steps = 1e-4, 100
    n_ratio = float(spec.n_turns)
    cfg = ExperimentConfig(duration=steps * dt)
    series_foil = run_transient(cfg, foil, "v", "Ge", dt)
    net = parse_netlist(
        f"V1 1 0 PSIN {cfg.amplitude / n_ratio!r} {cfg.frequency!r} "
        f"{cfg.perturbation_amplitude!r} {cfg.perturbation_frequency!r}\n"
        "FW1 1 0 FILE <mem> MODE SOLID"
    )
    dae = mna_stamp(net, field_systems={"<mem>": solid})
    series_solid = integrate(dae, StepperConfig(t_end=steps * dt, dt=dt), probe_names=["FW1"])
    i_foil = series_foil.currents["FW1"]
    i_solid = series_solid.currents["FW1"]
    scale = np.max(np.abs(i_solid))
    series_match = np.max(np.abs(n_ratio * i_foil - i_solid)) <= 1e-9 * scale

    elapsed = time.monotonic() - t0
    ok, detail = report(
        1,
        "solid-conductor equivalence",
        elapsed,
        {
            "conductance_gap<=1e-12": conductance_gap,
            "X==Mx<=1e-13": coupling_match,
            "series_match<=1e-9": series_match,
            "runtime<10s": elapsed < 10.0,
        },
    )
    assert ok, detail


def test_criterion_2_conductance_consistency(coarse_mesh, device_parts):
    t0 = time.monotonic()
    spec, mats = device_parts
    frob_norms = []
    psd_ok = True
    rank_ok = True
    mesh = coarse_mesh
    for level in range(3):
        disc = FieldDiscretization.from_mesh(mesh)
        sys_l = assemble_foil_system(mesh, materials=mats, disc=disc, spec=spec, basis=VoltageBasis(5))
        diff = 0.5 * ((sys_l.G - sys_l.G_e) + (sys_l.G - sys_l.G_e).T)
        min_eig = float(np.linalg.eigvalsh(diff).min())
        psd_ok = psd_ok and min_eig >= -1e-10 * np.linalg.norm(sys_l.G)
        rank_ok = rank_ok and rank(sys_l.X, 1e-10) == 5
        frob_norms.append(float(np.linalg.norm(diff)))
        if level < 2:
            mesh = refine_uniform(mesh)
    monotone = all(a >= b for a, b in zip(frob_norms[:-1], frob_norms[1:]))
    elapsed = time.monotonic() - t0
    ok, detail = report(
        2,
        "conductance-matrix consistency",
        elapsed,
        {
            "min_eig>=-1e-10||G||": psd_ok,
            "frob_nonincreasing": monotone,
            "rank(X)==5": rank_ok,
            "runtime<60s": elapsed < 60.0,
        },
    )
    assert ok, detail


def test_criterion_3_classification(coarse_legendre, coarse_hat, fine_hat):
    # the shipped polynomial basis keeps the terminal direction inside the
    # kernel of G - Ge (constant and linear profiles are exactly representable),
    # so the generic resistance-like behavior is exercised with the hat family
    t0 = time.monotonic()
    cls_ge = classify_element(coarse_legendre, "Ge")
    inductance_like = cls_ge.kind is ElementKind.INDUCTANCE_LIKE and (cls_ge.L or 0.0) > 0.0

    cls_g = classify_element(coarse_hat, "G")
    resistance_like = cls_g.kind is ElementKind.RESISTANCE_LIKE and (cls_g.g_R or 0.0) > 0.0

    fine_measure = singular_perturbation_measure(fine_hat.G, fine_hat.G_e, fine_hat.c)
    refinement = (
        fine_measure.g_R is not None
        and cls_g.g_R is not None
        and 0.0 < fine_measure.g_R < cls_g.g_R
    )
    guard_ok = coarse_legendre.n_dofs <= 500  # dense projector machinery stayed desk-scale
    elapsed = time.monotonic() - t0
    ok, detail = report(
        3,
        "element classification",
        elapsed,
        {
            "Ge->inductance-like,L>0": inductance_like,
            "G->resistance-like,g_R>0": resistance_like,
            "fine_g_R<coarse_g_R": refinement,
            "dense_guard<=500": guard_ok,
        },
    )
    assert ok, detail


INDEX_CORPUS = [
    # (netlist, field classes, expected index)
    ("I1 1 0 SIN 1 50\nL1 1 0 1e-3", None, 2),  # LI-cutset
    ("V1 1 0 SIN 1 50\nL1 1 0 1e-3", None, 1),  # RL-V loop
    ("V1 1 0 SIN 1 50\nC1 1 0 1e-6", None, 2),  # CV-loop
    ("V1 1 0 SIN 1 50\nR1 1 2 5\nC1 2 0 1e-6", None, 1),  # RC-V chain
    ("I1 1 0 SIN 1 50\nR1 1 0 5\nC1 1 0 1e-6", None, 1),  # RC-I
    ("I1 1 0 SIN 1 50\nR1 1 0 5\nL1 1 0 1e-3", None, 1),  # parallel-R shunted LI
    ("V1 1 0 SIN 1 50\nL1 1 2 1e-3\nI1 2 0 SIN 1 50", None, 2),  # series L with I
    ("C1 1 0 1e-6\nC2 1 0 2e-6\nR1 1 0 5", None, 1),  # capacitor pair, no source
    (
        "I1 1 0 PSIN 1 50 1e-3 6.2832e10\nFW1 1 0 FILE s MODE Ge",
        {"FW1": ElementKind.INDUCTANCE_LIKE},
        2,
    ),  # current-driven field element
    (
        "V1 1 0 PSIN 1 50 1e-3 6.2832e10\nFW1 1 0 FILE s MODE Ge",
        {"FW1": ElementKind.INDUCTANCE_LIKE},
        1,
    ),  # voltage-driven field element
    (
        "I1 1 0 PSIN 1 50 1e-3 6.2832e10\nFW1 1 0 FILE s MODE G",
        {"FW1": ElementKind.RESISTANCE_LIKE},
        1,
    ),  # current-driven, resistance-like variant
]


def test_criterion_4_index_prediction():
    from foilfem.circuit import detect_li_cutsets, predict_index

    t0 = time.monotonic()
    corpus_ok = True
    for text, classes, expected in INDEX_CORPUS:
        got = predict_index(parse_netlist(text), classes)
        corpus_ok = corpus_ok and got == expected

    rng = np.random.default_rng(1234)
    kinds_pool = ["R", "L", "C", "V", "I"]
    brute_ok = True
    checked = 0
    while checked < 30:
        n_nodes = int(rng.integers(2, 5))
        n_branches = int(rng.integers(2, 12))
        lines = []
        for k in range(n_branches):
            kind = kinds_pool[int(rng.integers(0, len(kinds_pool)))]
            a, b = rng.choice(n_nodes + 1, size=2, replace=False)
            value = {"R": "5", "L": "1e-3", "C": "1e-6", "V": "SIN 1 50", "I": "SIN 1 50"}[kind]
            lines.append(f"{kind}{k} {a} {b} {value}")
        try:
            net = parse_netlist("\n".join(lines))
        except Exception:
            continue
        checked += 1
        detected = {frozenset(c) for c in detect_li_cutsets(net)}
        brute_ok = brute_ok and detected == brute_force_li_bonds(net)

    elapsed = time.monotonic() - t0
    ok, detail = report(
        4,
        "index prediction",
        elapsed,
        {
            f"corpus({len(INDEX_CORPUS)}_cases)": corpus_ok,
            "cutsets_match_bruteforce(30_random)": brute_ok,
        },
    )
    assert ok, detail


def test_criterion_5_perturbation_sensitivity(tmp_path):
    t0 = time.monotonic()
    results = run_fig4(CFG, out_dir=tmp_path)
    metrics = results["metrics"]
    ratio = metrics["vnoise_ratio_small_over_large_dt"]
    current_driven_growth = ratio >= 3.0
    eps = CFG.perturbation_amplitude
    voltage_driven_flat = all(
        metrics[key].noise_rms <= 10.0 * eps * metrics[key].fundamental_amplitude
        for key in ("vfed_dt1e-04", "vfed_dt1e-05")
    )
    elapsed = time.monotonic() - t0
    ok, detail = report(
        5,
        "perturbation sensitivity",
        elapsed,
        {
            f"vnoise_ratio={ratio:.1f}>=3": current_driven_growth,
            "inoise<=10*eps*amp": voltage_driven_flat,
            "runtime<600s": elapsed < 600.0,
        },
    )
    assert ok, detail


def test_criterion_6_stabilization(tmp_path):
    # fig5's original variant is the paper's exact, mesh-free conductance
    # (assemble_G_exact), not the quadrature G of the assembled system: on the
    # coarse mesh G - Ge is then indefinite and the current-driven run with G
    # must blow up (or depart by 100 percent), while Ge stays bounded on both
    # meshes and the two coincide on the fine mesh.  The quadrature G, whose
    # G - Ge is a PSD Gram matrix, is what criteria 2, 3 and 8 check.
    t0 = time.monotonic()
    from dataclasses import replace

    results = run_fig5(replace(CFG, basis_family="hat"), out_dir=tmp_path)
    fine_close = results["discrepancy"]["fine"] <= 0.05
    coarse_departs = (
        results["discrepancy"]["coarse"] >= 1.0 or results["diverged"]["coarse_G"] is not None
    )
    ge_bounded = (
        results["diverged"]["coarse_Ge"] is None and results["diverged"]["fine_Ge"] is None
    )
    elapsed = time.monotonic() - t0
    ok, detail = report(
        6,
        "stabilization vs original conductance",
        elapsed,
        {
            f"fine_discrepancy={results['discrepancy']['fine']:.2e}<=0.05": fine_close,
            f"coarse_discrepancy={results['discrepancy']['coarse']:.2e}>=1_or_diverged": coarse_departs,
            "Ge_bounded_both_meshes": ge_bounded,
            "runtime<300s": elapsed < 300.0,
        },
    )
    assert ok, detail


def test_criterion_7_lumped_inductor_analytics():
    t0 = time.monotonic()
    l_val = 1e-3
    wf = SourceWaveform(kind="sin", amplitude=1.0, frequency=50.0)
    errors = []
    dts = (1e-3, 5e-4, 2.5e-4)
    for dt in dts:
        net = parse_netlist(f"V1 1 0 SIN 1 50\nL1 1 0 {l_val!r}")
        series = integrate(mna_stamp(net), StepperConfig(t_end=0.02, dt=dt))
        exact = lumped_inductor_voltage_driven(l_val, 0.0, wf, series.times)
        errors.append(float(np.max(np.abs(series.currents["L1"] - exact))))
    orders = [
        math.log(errors[k] / errors[k + 1]) / math.log(dts[k] / dts[k + 1])
        for k in range(len(dts) - 1)
    ]
    order_ok = all(0.8 <= o <= 1.2 for o in orders)

    eps, dt = 1e-3, 1e-4
    f_eps = 2 * math.pi * 1e10
    net = parse_netlist(f"I1 1 0 PSIN 1 50 {eps!r} {f_eps!r}\nL1 0 1 {l_val!r}")
    series = integrate(mna_stamp(net), StepperConfig(t_end=0.022, dt=dt))
    metric = noise_metric(series.times, series.voltages["L1"], 50.0)
    bound = l_val * 2 * eps / dt
    noise_ok = bound / 3.0 <= metric.noise_rms <= 3.0 * bound

    elapsed = time.monotonic() - t0
    ok, detail = report(
        7,
        "lumped-inductor analytics",
        elapsed,
        {
            f"orders={[round(o, 2) for o in orders]}in[0.8,1.2]": order_ok,
            f"noise/bound={metric.noise_rms / bound:.2f}in[1/3,3]": noise_ok,
        },
    )
    assert ok, detail


def test_criterion_8_structural_invariants(coarse_legendre, fine_hat):
    t0 = time.monotonic()
    sys = coarse_legendre
    symmetry = max_abs(sys.K - sys.K.T) == 0.0 and max_abs(sys.M - sys.M.T) == 0.0

    rng = np.random.default_rng(42)
    psd = True
    for _ in range(100):
        z = rng.standard_normal(sys.n_dofs)
        psd = psd and z @ (sys.K @ z) >= 0.0 and z @ (sys.M @ z) >= 0.0

    sf = schur_stranded_form(sys)
    pair = build_projectors(sf.M_bar)
    projector_ok = np.max(np.abs(pair.Q @ pair.Q - pair.Q)) <= 1e-10

    q_sigma = build_projectors(sys.M.toarray())
    annihilation = np.linalg.norm(q_sigma.Q @ sys.X) <= 1e-10 * np.linalg.norm(sys.X)

    m_bar_fine = schur_stranded_form(fine_hat).M_bar.toarray()
    eig_min = float(np.linalg.eigvalsh(0.5 * (m_bar_fine + m_bar_fine.T)).min())
    schur_psd = eig_min >= -1e-10 * np.linalg.norm(m_bar_fine)

    # the sparse kernel basis that L depends on: orthonormal, and annihilated by the Schur
    # mass, applied as M B - X Ge^-1 (X^T B) without forming it
    orthonormal = kernel_annihilated = True
    for live in (coarse_legendre, fine_hat):
        basis = kernel_basis(live)
        gram = (basis.T @ basis).toarray()
        orthonormal = orthonormal and max_abs(gram - np.eye(gram.shape[0])) <= 1e-12
        coupled = live.X @ np.linalg.solve(live.G_e, (basis.T @ live.X).T)
        schur_b = (live.M @ basis).toarray() - coupled
        kernel_annihilated = kernel_annihilated and max_abs(schur_b) <= 1e-12 * max_abs(live.M)

    # consistent conductance against a dense pseudo-inverse oracle
    m_dense = sys.M.toarray()
    w, v = np.linalg.eigh(m_dense)
    inv = np.where(w > 1e-12 * w.max(), 1.0 / np.where(w == 0, 1.0, w), 0.0)
    ge_oracle = sys.X.T @ (v @ (inv[:, None] * (v.T @ sys.X)))
    ge_match = np.max(np.abs(sys.G_e - ge_oracle)) <= 1e-10 * np.max(np.abs(ge_oracle))

    elapsed = time.monotonic() - t0
    ok, detail = report(
        8,
        "structural invariants",
        elapsed,
        {
            "K,M_exactly_symmetric": symmetry,
            "psd_spot_checks": psd,
            "Q^2==Q": projector_ok,
            "Qsigma_X==0": annihilation,
            "Schur_mass_psd_fine": schur_psd,
            "kernel_basis_BtB==I": orthonormal,
            "kernel_basis_Schur_mass_B==0": kernel_annihilated,
            "Ge==Xt_pinvM_X": ge_match,
            "runtime<120s": elapsed < 120.0,
        },
    )
    assert ok, detail
