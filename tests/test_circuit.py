"""Netlist parsing, topology analysis, MNA stamping and inductor analytics."""

import math
from collections import Counter
from functools import cache
from itertools import product

import numpy as np
import pytest
import scipy.sparse as sp
from oracles import brute_force_li_bonds, loop_stamp
from hypothesis import given, settings
from hypothesis import strategies as st

from foilfem.assembly import FieldDiscretization
from foilfem.circuit import (
    FieldElementRef,
    Netlist,
    SourceWaveform,
    detect_li_cutsets,
    lumped_inductor_voltage_driven,
    mna_stamp,
    parse_netlist,
    predict_index,
)
from foilfem.dae_analysis import ElementKind
from foilfem.errors import ParseError, UnclassifiedElementError, ValidationError
from foilfem.experiments import ExperimentConfig, build_mesh, build_system, build_winding_spec
from foilfem.linalg import canonical_csr
from foilfem.winding import AssembledFoilSystem, build_solid_system, device_materials, save_system

INDUCTIVE = {"FW1": ElementKind.INDUCTANCE_LIKE}
RESISTIVE = {"FW1": ElementKind.RESISTANCE_LIKE}


def toy_field_system(m=2.0, x=3.0, k=5.0, n_turns=4.0):
    return AssembledFoilSystem(
        K=canonical_csr(sp.csr_matrix(np.array([[k]]))),
        M=canonical_csr(sp.csr_matrix(np.array([[m]]))),
        X=np.array([[x]]),
        G=np.array([[x * x / m]]),
        G_e=np.array([[x * x / m]]),
        c=np.array([n_turns]),
        x=np.array([x / m]),
        E=np.array([[x / m]]),
        support=np.array([0]),
    )


def branch(net, name):
    """The branch of ``net`` named ``name``."""
    return next(b for b in net.branches if b.name == name)


class TestParser:
    def test_current_driven_field_element(self):
        net = parse_netlist("I1 1 0 PSIN 1 50 1e-3 6.2832e10\nFW1 1 0 FILE sys.bin MODE Ge")
        assert len(net.branches) == 2
        i1 = branch(net, "I1")
        assert i1.kind == "I"
        assert i1.value.kind == "psin"
        assert i1.value.f_eps == pytest.approx(6.2832e10)
        fw = branch(net, "FW1")
        assert fw.kind == "FW"
        assert fw.value == FieldElementRef(path="sys.bin", mode="Ge")

    def test_voltage_driven_inductor(self):
        net = parse_netlist("V1 1 0 SIN 1 50\nL1 1 0 1e-3")
        assert branch(net, "L1").value == pytest.approx(1e-3)
        assert net.nodes == ("1",)

    def test_negative_value_rejected(self):
        with pytest.raises(ValidationError):
            parse_netlist("R1 1 2 -5\nR2 2 0 1")

    def test_comments_and_case(self):
        net = parse_netlist("* a comment\nv1 1 0 sin 2 50  * trailing\nr1 1 0 5")
        assert branch(net, "v1").value.amplitude == 2.0

    def test_parse_error_has_position(self):
        with pytest.raises(ParseError) as err:
            parse_netlist("R1 1 0 abc")
        assert err.value.line == 1
        assert err.value.column == 8

    @pytest.mark.parametrize(
        "text, line, column",
        [
            ("R1 1 0 nan", 1, 8),
            ("V1 1 0 SIN 1 50\nL1 1 0 inf", 2, 8),
            ("V1 1 0 SIN 1 50\nC1 1 0 -inf", 2, 8),
            ("I1 1 0 PSIN 1 50 1e-3 NaN\nR1 1 0 1", 1, 23),
            ("V1 1 0 SIN 1 1e999", 1, 14),
        ],
        ids=["R-nan", "L-inf", "C-minus-inf", "psin-feps-nan", "sin-frequency-overflow"],
    )
    def test_non_finite_number_is_located(self, text, line, column):
        with pytest.raises(ParseError, match="expected a finite number") as err:
            parse_netlist(text)
        assert (err.value.line, err.value.column) == (line, column)

    def test_missing_ground_rejected(self):
        with pytest.raises(ValidationError):
            parse_netlist("R1 1 2 5")

    def test_disconnected_rejected(self):
        with pytest.raises(ValidationError):
            parse_netlist("R1 1 0 5\nR2 2 3 5")

    def test_disconnected_nodes_are_listed_sorted(self):
        with pytest.raises(ValidationError) as err:
            parse_netlist("R1 1 0 5\nR2 b a 5\nL3 2 1 1e-3\nC4 3 c 1e-6")
        assert str(err.value) == "disconnected node(s): ['3', 'a', 'b', 'c']"
        assert err.value.line is None

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValidationError):
            parse_netlist("R1 1 0 5\nR1 1 0 5")

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            parse_netlist("R1 1 1 5")

    @pytest.mark.parametrize(
        "text, line",
        [
            ("V1 1 0 SIN 1 50\nR1 1 0 5\nR1 1 0 5", 3),
            ("V1 1 0 SIN 1 50\nR2 1 1 5", 2),
            ("V1 1 0 SIN 1 50\nR1 1 0 5\n* a comment\nL1 1 0 -5", 4),
            ("C1 1 0 0\nR1 1 0 5", 1),
        ],
        ids=["duplicate-name", "self-loop", "negative-L", "zero-C"],
    )
    def test_branch_validation_error_is_located(self, text, line):
        with pytest.raises(ValidationError) as err:
            parse_netlist(text)
        assert err.value.line == line

    def test_unknown_mode_rejected(self):
        with pytest.raises(ParseError):
            parse_netlist("FW1 1 0 FILE sys.npz MODE Gx")


class TestCutsets:
    def test_current_source_with_inductor(self):
        net = parse_netlist("I1 1 0 SIN 1 50\nL1 1 0 1e-3")
        cuts = detect_li_cutsets(net)
        assert [sorted(c) for c in cuts] == [["I1", "L1"]]

    def test_voltage_source_with_inductor(self):
        net = parse_netlist("V1 1 0 SIN 1 50\nL1 1 0 1e-3")
        assert detect_li_cutsets(net) == []

    def test_resistor_shunt_breaks_cutset(self):
        net = parse_netlist("I1 1 0 SIN 1 50\nR1 1 0 5\nL1 1 0 1e-3")
        assert detect_li_cutsets(net) == []

    def test_series_inductor_current_source(self):
        net = parse_netlist("V1 1 0 SIN 1 50\nL1 1 2 1e-3\nI1 2 0 SIN 1 50")
        cuts = detect_li_cutsets(net)
        assert [sorted(c) for c in cuts] == [["I1", "L1"]]

    def test_field_element_requires_classification(self):
        net = parse_netlist("I1 1 0 SIN 1 50\nFW1 1 0 FILE sys.npz MODE Ge")
        with pytest.raises(UnclassifiedElementError):
            detect_li_cutsets(net)

    def test_inductance_like_field_element_forms_cutset(self):
        net = parse_netlist("I1 1 0 SIN 1 50\nFW1 1 0 FILE sys.npz MODE Ge")
        assert detect_li_cutsets(net, INDUCTIVE)

    def test_resistance_like_field_element_breaks_cutset(self):
        net = parse_netlist("I1 1 0 SIN 1 50\nFW1 1 0 FILE sys.npz MODE G")
        assert detect_li_cutsets(net, RESISTIVE) == []





class TestCutsetBruteForce:
    def test_detector_matches_enumeration_on_random_netlists(self):
        rng = np.random.default_rng(99)
        kinds_pool = ["R", "L", "C", "V", "I"]
        for case in range(40):
            n_nodes = int(rng.integers(2, 5))
            n_branches = int(rng.integers(2, 9))
            lines = []
            for k in range(n_branches):
                kind = kinds_pool[int(rng.integers(0, len(kinds_pool)))]
                a, b = rng.choice(n_nodes + 1, size=2, replace=False)
                spec = {
                    "R": "5", "L": "1e-3", "C": "1e-6", "V": "SIN 1 50", "I": "SIN 1 50",
                }[kind]
                lines.append(f"{kind}{k} {a} {b} {spec}")
            try:
                net = parse_netlist("\n".join(lines))
            except ValidationError:
                continue  # disconnected sample; skip
            detected = {frozenset(c) for c in detect_li_cutsets(net)}
            assert detected == brute_force_li_bonds(net), "\n".join(lines)


class TestPredictIndex:
    def test_examples(self):
        assert predict_index(parse_netlist("I1 1 0 SIN 1 50\nL1 1 0 1e-3")) == 2
        assert predict_index(parse_netlist("V1 1 0 SIN 1 50\nL1 1 0 1e-3")) == 1
        assert predict_index(parse_netlist("V1 1 0 SIN 1 50\nC1 1 0 1e-6")) == 2
        assert predict_index(parse_netlist("I1 1 0 SIN 1 50\nR1 1 0 5\nL1 1 0 1e-3")) == 1

    @pytest.mark.parametrize(
        "text, index",
        [
            ("V1 1 0 SIN 1 50\nC1 1 0 1e-6", 2),
            ("V1 1 0 SIN 1 50\nC1 1 2 1e-6\nC2 2 0 1e-6", 2),
            ("V1 1 0 SIN 1 50\nR1 1 2 5\nC1 2 0 1e-6", 1),
            ("C1 1 0 1e-6\nC2 1 0 2e-6\nR1 1 0 5", 1),
            ("V1 1 0 SIN 1 50\nV2 1 0 DC 2\nR1 1 0 5", 2),
        ],
        ids=["source-parallel-capacitor", "source-capacitor-chain", "resistor-in-loop",
             "capacitors-without-source", "parallel-sources"],
    )
    def test_cv_loops(self, text, index):
        assert predict_index(parse_netlist(text)) == index

    def test_field_element_both_drives(self):
        i_net = parse_netlist("I1 1 0 PSIN 1 50 1e-3 6.2832e10\nFW1 1 0 FILE s.npz MODE Ge")
        v_net = parse_netlist("V1 1 0 PSIN 1 50 1e-3 6.2832e10\nFW1 1 0 FILE s.npz MODE Ge")
        assert predict_index(i_net, INDUCTIVE) == 2
        assert predict_index(v_net, INDUCTIVE) == 1
        assert predict_index(i_net, RESISTIVE) == 1

    def test_invariant_under_relabeling(self):
        base = parse_netlist("I1 1 0 SIN 1 50\nL1 1 2 1e-3\nR1 2 0 5\nL2 2 0 1e-3")
        renamed = parse_netlist("Ix 7 0 SIN 1 50\nLy 7 4 1e-3\nRz 4 0 5\nLw 4 0 1e-3")
        assert predict_index(base) == predict_index(renamed)

    def test_lumped_substitution_preserves_index(self):
        fw = parse_netlist("I1 1 0 SIN 1 50\nFW1 1 0 FILE s.npz MODE Ge")
        lumped = parse_netlist("I1 1 0 SIN 1 50\nL1 1 0 1e-3")
        assert predict_index(fw, INDUCTIVE) == predict_index(lumped)

    def test_inductor_chain_beyond_cutset_enumeration(self):
        # V1 and R1 join nodes 1 and 21 to ground, leaving 19 supernodes besides ground's,
        # more than detect_li_cutsets enumerates; the cut around any inner node is two inductors
        lines = ["V1 1 0 SIN 1 50", *(f"L{k} {k} {k + 1} 1e-3" for k in range(1, 21)), "R1 21 0 5"]
        net = parse_netlist("\n".join(lines))
        with pytest.raises(ValidationError, match="desk-scale netlists: 19 supernodes"):
            detect_li_cutsets(net)
        assert predict_index(net) == 2

    def test_matches_the_detectors_on_random_netlists(self):
        seen = Counter()
        for seed in range(200):
            net = parse_netlist(random_lumped_netlist(seed))
            cutsets, loops = bool(detect_li_cutsets(net)), has_cv_loop(net)
            assert predict_index(net) == (2 if cutsets or loops else 1), seed
            seen[cutsets, loops] += 1
        assert len(seen) == 4  # every combination of the detector and the oracle occurs


class TestMnaStamp:
    def test_pure_resistor_network(self):
        net = parse_netlist("R1 1 0 2\nR2 1 2 4\nR3 2 0 4")
        dae = mna_stamp(net)
        assert dae.E.nnz == 0
        expected = np.array([[0.5 + 0.25, -0.25], [-0.25, 0.25 + 0.25]])
        assert np.allclose(dae.A.toarray(), expected)

    def test_voltage_divider_closed_form(self):
        net = parse_netlist("V1 1 0 DC 6\nR1 1 2 10\nR2 2 0 20")
        dae = mna_stamp(net)
        y = np.linalg.solve(dae.A.toarray(), dae.source(0.0))
        phi = dae.layout["potentials"]
        assert y[phi["1"]] == pytest.approx(6.0)
        assert y[phi["2"]] == pytest.approx(4.0)
        # source current follows the passive sign convention
        assert y[dae.layout["extras"]["V1"]["current"]] == pytest.approx(-0.2)

    def test_current_driven_inductor_structure(self):
        net = parse_netlist("I1 1 0 SIN 2 50\nL1 1 0 1e-3")
        dae = mna_stamp(net)
        j = dae.layout["extras"]["L1"]["current"]
        phi1 = dae.layout["potentials"]["1"]
        e = dae.E.toarray()
        a = dae.A.toarray()
        assert e[j, j] == pytest.approx(1e-3)
        assert a[phi1, j] == pytest.approx(1.0)
        assert a[j, phi1] == pytest.approx(-1.0)
        # node row: i_L = i_s(t); inductor row: L di/dt = phi_1
        assert dae.source(0.005)[phi1] == pytest.approx(2 * math.sin(2 * math.pi * 50 * 0.005))

    def test_field_element_adds_expected_rows(self):
        sys = toy_field_system()
        net = parse_netlist("I1 1 0 SIN 1 50\nFW1 1 0 FILE mem MODE Ge")
        dae = mna_stamp(net, field_systems={"mem": sys})
        # one node potential + (n_dofs + n_basis + 1) field extras
        assert dae.E.shape[0] == 1 + (1 + 1 + 1)
        info = dae.layout["extras"]["FW1"]
        assert info["a"] == slice(1, 2)
        assert info["u"] == slice(2, 3)
        assert info["current"] == 3

    def test_solid_mode_reduces_unknowns(self):
        sys = toy_field_system()
        net = parse_netlist("V1 1 0 SIN 1 50\nFW1 1 0 FILE mem MODE SOLID")
        dae = mna_stamp(net, field_systems={"mem": sys})
        assert dae.E.shape[0] == 1 + 1 + (1 + 1)  # node, source current, field dof + terminal current


@cache
def device_system(level, basis_family):
    cfg = ExperimentConfig(basis_family=basis_family)
    return build_system(cfg, build_mesh(cfg, level))[0]


@cache
def device_solid_system():
    cfg = ExperimentConfig()
    mesh = build_mesh(cfg, 0)
    materials = device_materials(build_winding_spec(cfg), cfg.yoke_conductivity, cfg.yoke_permeability)
    return build_solid_system(mesh, materials, FieldDiscretization.from_mesh(mesh))


def has_cv_loop(net):
    """Whether a voltage source lies on a loop of capacitors and sources: deleting its
    column of the C/V incidence matrix leaves the rank unchanged."""
    cv = [b for b in net.branches if b.kind in "CV"]
    row = {n: i for i, n in enumerate(net.nodes)}  # ground's row is dropped
    incidence = np.zeros((len(row), len(cv)))
    for k, b in enumerate(cv):
        for node, sign in ((b.node_pos, 1.0), (b.node_neg, -1.0)):
            if node in row:
                incidence[row[node], k] = sign
    rank = np.linalg.matrix_rank(incidence)
    return any(
        np.linalg.matrix_rank(np.delete(incidence, k, axis=1)) == rank
        for k, b in enumerate(cv)
        if b.kind == "V"
    )


def random_lumped_netlist(seed):
    """A connected netlist of 2-8 random lumped branches on up to 4 live nodes."""
    rng = np.random.default_rng(seed)
    while True:
        n_nodes = int(rng.integers(2, 5))
        lines = []
        for k in range(int(rng.integers(2, 9))):
            kind = "RLCVI"[int(rng.integers(0, 5))]
            a, b = rng.choice(n_nodes + 1, size=2, replace=False)
            value = float(rng.uniform(0.1, 10.0))
            if kind in "VI":
                spec = f"SIN {value!r} 50" if rng.integers(0, 2) else f"DC {value!r}"
            else:
                spec = repr(value * {"R": 1.0, "L": 1e-3, "C": 1e-6}[kind])
            lines.append(f"{kind}{k} {a} {b} {spec}")
        text = "\n".join(lines)
        try:
            parse_netlist(text)
        except ValidationError:
            continue  # disconnected or no ground; draw again
        return text


def field_from_disk(tmp):
    """One field element read from a saved archive, one held in memory."""
    path = tmp / "sys.npz"
    save_system(path, device_system(0, "legendre"))
    text = f"I1 1 0 SIN 1 50\nFW1 1 0 FILE {path} MODE Ge\nFW2 1 0 FILE <m> MODE G"
    return text, {"<m>": device_system(0, "hat")}


# each case maps a scratch directory to (netlist text, in-memory field systems)
STAMP_CASES = {
    # every lumped kind, ground on the negative terminal
    "RLCVI-ground-neg": lambda tmp: (
        "V1 1 0 SIN 1 50\nR1 1 2 2\nC1 2 3 1e-4\nL1 3 0 1e-3\nI1 2 0 DC 0.5", None
    ),
    # every lumped kind, ground on the positive terminal
    "RLCVI-ground-pos": lambda tmp: (
        "V1 0 1 SIN 1 50\nR1 0 1 5\nL1 0 2 1e-3\nC1 0 2 1e-6\nI1 0 2 SIN 2 60\nR2 1 2 3", None
    ),
    # a voltage source between two live nodes
    "V-floating": lambda tmp: (
        "R1 1 0 5\nV1 1 2 PSIN 1 50 1e-3 6.2832e10\nR2 2 0 3\nC1 1 2 1e-6", None
    ),
    # node 2 meets 5 resistors and 3 capacitors, and R3-R5 and C2-C3 share nodes 2 and 3,
    # so diagonal and off-diagonal entries sum 3 or more terms
    "RC-star": lambda tmp: (
        "V1 1 0 SIN 1 50\nR1 1 2 3\nR2 2 0 7\nR3 2 3 0.1\nR4 3 2 0.3\nR5 2 3 11\n"
        "C1 2 0 1e-6\nC2 3 2 3e-6\nC3 2 3 7e-7\nL1 3 0 1e-3",
        None,
    ),
    **{
        f"random-{seed}": (lambda tmp, seed=seed: (random_lumped_netlist(seed), None))
        for seed in range(24)
    },
    # the foil element in each mode, at two mesh levels, with both bases (Legendre c has
    # zeros) and with ground on either terminal or on neither
    **{
        f"FW-{mode}-level{level}-{basis}-{where}": (
            lambda tmp, mode=mode, level=level, basis=basis, line=line: (
                line.format(mode=mode), {"<mem>": device_system(level, basis)}
            )
        )
        for mode, level, basis, (where, line) in product(
            ("G", "Ge", "SOLID"),
            (0, 2),
            ("hat", "legendre"),
            (
                ("ground-neg", "I1 1 0 PSIN 1 50 1e-3 6.2832e10\nFW1 1 0 FILE <mem> MODE {mode}"),
                ("ground-pos", "V1 1 0 SIN 1 50\nFW1 0 1 FILE <mem> MODE {mode}"),
                ("floating", "V1 1 0 SIN 1 50\nFW1 1 2 FILE <mem> MODE {mode}\nR1 2 0 0.25"),
            ),
        )
    },
    # a solid-conductor system stamps as SOLID whatever mode the netlist names
    **{
        f"solid-system-mode-{mode}": (
            lambda tmp, mode=mode: (
                f"V1 1 0 SIN 1 50\nFW1 1 0 FILE <solid> MODE {mode}",
                {"<solid>": device_solid_system()},
            )
        )
        for mode in ("SOLID", "G")
    },
    "three-field-elements": lambda tmp: (
        "V1 1 0 SIN 1 50\nFW1 1 2 FILE <hat> MODE Ge\nFW2 2 0 FILE <legendre> MODE G\n"
        "FW3 0 2 FILE <solid> MODE SOLID\nC1 1 2 1e-9",
        {
            "<hat>": device_system(0, "hat"),
            "<legendre>": device_system(0, "legendre"),
            "<solid>": device_solid_system(),
        },
    ),
    "field-from-disk": field_from_disk,
}


class TestStampOracle:
    @pytest.mark.parametrize("case", list(STAMP_CASES))
    def test_stamp_matches_the_loop_bit_for_bit(self, case, tmp_path):
        text, field_systems = STAMP_CASES[case](tmp_path)
        net = parse_netlist(text)
        dae, expected = mna_stamp(net, field_systems), loop_stamp(net, field_systems)
        for name in ("E", "A"):
            got, want = getattr(dae, name), getattr(expected, name)
            assert got.format == want.format == "csr" and got.shape == want.shape, name
            for part in ("data", "indices", "indptr"):
                a, b = getattr(got, part), getattr(want, part)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, part)
        # repr tells a Python int from a numpy integer and pins the order of dict keys
        for field in ("source_rows", "layout", "probes"):
            assert repr(getattr(dae, field)) == repr(getattr(expected, field)), field

    def test_corpus_covers_every_kind_and_mode(self, tmp_path):
        nets = [parse_netlist(make(tmp_path)[0]) for make in STAMP_CASES.values()]
        assert {b.kind for net in nets for b in net.branches} == {"R", "L", "C", "V", "I", "FW"}
        modes = {b.value.mode for net in nets for b in net.branches if b.kind == "FW"}
        assert modes == {"G", "Ge", "SOLID"}


class TestWaveforms:
    @settings(max_examples=40, deadline=None)
    @given(t=st.floats(0.0, 0.1), f=st.floats(1.0, 200.0), eps=st.floats(0.0, 0.1))
    def test_integral_is_antiderivative(self, t, f, eps):
        wf = SourceWaveform(kind="psin", amplitude=1.3, frequency=f, eps=eps, f_eps=7.0 * f)
        h = 1e-6
        numeric = (wf.integral(t + h) - wf.integral(t)) / h  # approximates wf(t + h/2)
        assert numeric == pytest.approx(float(wf(t + 0.5 * h)), abs=1e-5)

    def test_vanishes_at_origin(self):
        for kind in ("sin", "psin"):
            wf = SourceWaveform(kind=kind, amplitude=2.0, frequency=50.0, eps=1e-3, f_eps=1e10)
            assert float(wf(0.0)) == 0.0


class TestLumpedInductorAnalytics:
    def test_voltage_driven_sine(self):
        wf = SourceWaveform(kind="sin", amplitude=1.0, frequency=50.0)
        i = lumped_inductor_voltage_driven(1e-3, 0.0, wf, 5e-3)
        assert i == pytest.approx((1.0 - math.cos(math.pi / 2)) / (2 * math.pi * 50 * 1e-3))
        assert i == pytest.approx(3.1831, rel=1e-4)

    def test_zero_voltage_keeps_initial_flux(self):
        wf = SourceWaveform(kind="dc", amplitude=0.0)
        assert lumped_inductor_voltage_driven(2.0, 3.0, wf, 7.0) == pytest.approx(1.5)
