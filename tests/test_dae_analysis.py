"""Schur reduction, kernel basis, projector oracle and classification diagnostics."""

import numpy as np
import pytest
import scipy.sparse as sp

from foilfem.circuit import mna_stamp, parse_netlist
from foilfem.dae_analysis import (
    KERNEL_TOL,
    ElementKind,
    classify_element,
    inductance_value,
    kernel_basis,
    schur_stranded_form,
    singular_perturbation_measure,
    StrandedForm,
)
from foilfem.errors import IndefiniteDifferenceError, NonpositiveInductanceError
from foilfem.experiments import ExperimentConfig, build_mesh, build_system
from foilfem.linalg import canonical_csr, rank
from foilfem.winding import BASIS_FAMILIES, AssembledFoilSystem

from oracles import build_projectors, nullspace_basis, projector_inductance, terminal_impedance

SINGLE_FUNCTION = ExperimentConfig(n_basis=1)


def scalar_toy(m=2.0, x=3.0, k=5.0, n_turns=4.0):
    """One-dof foil system with exactly known Schur quantities."""
    m_mat = canonical_csr(sp.csr_matrix(np.array([[m]])))
    k_mat = canonical_csr(sp.csr_matrix(np.array([[k]])))
    big_x = np.array([[x]])
    ge = np.array([[x * x / m]])
    g = ge.copy()
    c = np.array([n_turns])
    return AssembledFoilSystem(
        K=k_mat, M=m_mat, X=big_x, G=g, G_e=ge, c=c, x=np.array([x / m]),
        E=np.array([[x / m]]), support=np.array([0]),
    )


@pytest.fixture(scope="module")
def coarse_pair(device_systems):
    return device_systems(0, "legendre"), device_systems(0, "hat")


@pytest.fixture(scope="module")
def fine_hat_system(device_systems):
    return device_systems(2, "hat")


class TestStrandedForm:
    def test_scalar_toy_closed_form(self):
        m, x, k, n = 2.0, 3.0, 5.0, 4.0
        sf = schur_stranded_form(scalar_toy(m, x, k, n))
        assert sf.M_bar.toarray() == pytest.approx(np.zeros((1, 1)), abs=1e-14)
        assert sf.x_bar == pytest.approx([m * n / x])
        assert sf.R == pytest.approx(n * n * m / (x * x))

    def test_residual_equivalence_with_full_system(self, coarse_pair):
        sys, _ = coarse_pair
        sf = schur_stranded_form(sys)
        rng = np.random.default_rng(31)
        a = rng.standard_normal(sys.n_dofs)
        a_dot = rng.standard_normal(sys.n_dofs)
        i = 1.7
        # voltage coefficients solving the current-condition block exactly
        u = np.linalg.solve(sys.G_e, sys.X.T @ a_dot + sys.c * i)
        r_full = sys.M @ a_dot + sys.K @ a - sys.X @ u
        r_stranded = sf.M_bar @ a_dot + sys.K @ a - sf.x_bar * i
        scale = np.linalg.norm(r_full) + np.linalg.norm(sf.x_bar) * abs(i)
        assert np.linalg.norm(r_full - r_stranded) <= 1e-9 * scale
        v_full = float(sys.c @ u)
        v_stranded = float(sf.x_bar @ a_dot) + sf.R * i
        assert v_full == pytest.approx(v_stranded, rel=1e-9)

    def test_schur_mass_psd_on_device(self, coarse_pair):
        sys, _ = coarse_pair
        sf = schur_stranded_form(sys)
        m_bar = sf.M_bar.toarray()
        w = np.linalg.eigvalsh(0.5 * (m_bar + m_bar.T))
        assert w.min() >= -1e-10 * np.linalg.norm(m_bar)

    def test_single_function_series_resistance(self, coarse_pair):
        # constant-profile reduction: R = c^T Ge^-1 c = N^2 / G_sol
        sys1 = build_system(SINGLE_FUNCTION, build_mesh(SINGLE_FUNCTION))[0]
        sf = schur_stranded_form(sys1)
        g_sol = float(sys1.x @ (sys1.M @ sys1.x))
        assert sf.R == pytest.approx(SINGLE_FUNCTION.n_turns**2 / g_sol, rel=1e-10)

    def test_quasistatic_terminal_resistance(self, coarse_pair):
        sys, _ = coarse_pair
        sf = schur_stranded_form(sys)
        # steady state: solve the full block system with the time term frozen
        n, p = sys.n_dofs, sys.n_basis
        i = 2.5
        big = np.zeros((n + p, n + p))
        big[:n, :n] = sys.K.toarray()
        big[:n, n:] = -sys.X
        big[n:, n:] = sys.G_e
        rhs = np.concatenate([np.zeros(n), sys.c * i])
        sol = np.linalg.solve(big, rhs)
        v = float(sys.c @ sol[n:])
        assert v == pytest.approx(sf.R * i, rel=1e-9)


class TestProjectors:
    """The dense projector oracle that acceptance criterion 8 and the inductance tests use."""

    def test_diag_example(self):
        pair = build_projectors(np.diag([1.0, 0.0]))
        assert np.allclose(pair.Q, np.diag([0.0, 1.0]))
        assert np.allclose(pair.P, np.diag([1.0, 0.0]))

    def test_spd_has_zero_projector(self):
        pair = build_projectors(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(pair.Q, 0.0)

    def test_idempotent_on_device_schur_mass(self, coarse_pair):
        sys, _ = coarse_pair
        sf = schur_stranded_form(sys)
        pair = build_projectors(sf.M_bar)
        assert np.max(np.abs(pair.Q @ pair.Q - pair.Q)) <= 1e-12
        assert np.max(np.abs(pair.P @ pair.P - pair.P)) <= 1e-12
        assert np.max(np.abs(pair.P @ pair.Q)) <= 1e-12
        assert np.allclose(pair.Q, pair.Q.T)


class TestInductance:
    def test_scalar_toy_value(self):
        m, x, k, n = 2.0, 3.0, 5.0, 4.0
        sys = scalar_toy(m, x, k, n)
        sf = schur_stranded_form(sys)
        # zero Schur mass means Q = I and L = x_bar^2 / k
        assert inductance_value(sf, sys) == pytest.approx((m * n / x) ** 2 / k)

    def test_lumped_equivalent_fixture(self):
        # two-dof fixture built to mimic an ideal inductor of known value
        l_target = 3.7e-4
        m, x, n = 2.0, 5.0, 3.0
        x_bar0 = m * n / x
        k11 = x_bar0**2 / l_target
        sys = AssembledFoilSystem(
            K=canonical_csr(sp.csr_matrix(np.diag([k11, 2.0]))),
            M=canonical_csr(sp.csr_matrix(np.diag([m, 0.0]))),
            X=np.array([[x], [0.0]]),
            G=np.array([[x * x / m]]),
            G_e=np.array([[x * x / m]]),
            c=np.array([n]),
            x=np.array([x / m, 0.0]),
            E=np.array([[x / m], [0.0]]),
            support=np.array([0]),
        )
        sf = schur_stranded_form(sys)
        assert inductance_value(sf, sys) == pytest.approx(l_target, rel=1e-9)

    def test_positive_on_coarse_device(self, coarse_pair):
        sys, _ = coarse_pair
        value = inductance_value(schur_stranded_form(sys), sys)
        assert value > 0.0

    @pytest.mark.parametrize("family", BASIS_FAMILIES)
    @pytest.mark.parametrize("level", [0, 1])
    def test_matches_the_dense_projector_oracle(self, level, family, device_systems):
        system = device_systems(level, family)
        sf = schur_stranded_form(system)
        oracle = projector_inductance(sf, system.K)
        assert abs(inductance_value(sf, system) - oracle) <= 1e-8 * oracle
        # the sparse kernel basis spans the numerical kernel of the Schur mass
        basis = kernel_basis(system).toarray()
        assert basis.shape[1] == nullspace_basis(sf.M_bar.toarray(), KERNEL_TOL).shape[1]
        assert np.max(np.abs(basis @ basis.T - build_projectors(sf.M_bar).Q)) <= 1e-7

    def test_invariant_under_basis_scaling(self, coarse_pair):
        sys, _ = coarse_pair
        scale = np.full(sys.n_basis, 2.0)
        scaled = AssembledFoilSystem(
            K=sys.K,
            M=sys.M,
            X=sys.X * scale,
            G=sys.G * np.outer(scale, scale),
            G_e=sys.G_e * np.outer(scale, scale),
            c=sys.c * scale,
            x=sys.x,
            E=sys.E * scale,
            support=sys.support,
        )
        l0 = inductance_value(schur_stranded_form(sys), sys)
        l1 = inductance_value(schur_stranded_form(scaled), scaled)
        assert abs(l1 - l0) <= 1e-8 * l0

    def test_kernel_coupling_full_rank(self, coarse_pair):
        sys, _ = coarse_pair
        sf = schur_stranded_form(sys)
        pair = build_projectors(sf.M_bar)
        assert rank((pair.Q @ sf.x_bar).reshape(-1, 1), 1e-10) == 1

    def test_kernel_annihilates_coupling_columns(self, coarse_pair):
        sys, _ = coarse_pair
        q_sigma = build_projectors(sys.M.toarray())
        assert np.linalg.norm(q_sigma.Q @ sys.X) <= 1e-10 * np.linalg.norm(sys.X)

    def test_nonpositive_raises(self):
        sf = StrandedForm(
            M_bar=canonical_csr(sp.csr_matrix(np.zeros((1, 1)))),
            x_bar=np.array([0.0]),
            R=1.0,
        )
        with pytest.raises(NonpositiveInductanceError):
            inductance_value(sf, scalar_toy(k=2.0))


class TestPerturbationMeasure:
    def test_equal_matrices_degenerate(self):
        g = np.array([[2.0, 0.1], [0.1, 3.0]])
        measure = singular_perturbation_measure(g, g.copy(), np.array([1.0, 0.0]))
        assert measure.degenerate
        assert measure.g_R is None

    def test_identity_shift_closed_form(self):
        g_e = np.array([[2.0, 0.0], [0.0, 3.0]])
        eps = 1e-3
        g = g_e + eps * np.eye(2)
        measure = singular_perturbation_measure(g, g_e, np.array([1.0, 0.0]))
        assert not measure.degenerate
        assert measure.g_R == pytest.approx(eps)

    def test_kernel_direction_degenerate(self):
        g_e = np.eye(2)
        diff = np.diag([0.0, 1e-2])
        measure = singular_perturbation_measure(g_e + diff, g_e, np.array([5.0, 0.0]))
        assert measure.degenerate

    def test_indefinite_raises(self):
        g = np.eye(2)
        g_e = g + np.diag([0.0, 1e-2])  # difference has eigenvalue -1e-2
        with pytest.raises(IndefiniteDifferenceError):
            singular_perturbation_measure(g, g_e, np.array([1.0, 0.0]))

    def test_refinement_shrinks_g_r(self, coarse_pair, fine_hat_system):
        _, coarse_hat = coarse_pair
        m_coarse = singular_perturbation_measure(coarse_hat.G, coarse_hat.G_e, coarse_hat.c)
        m_fine = singular_perturbation_measure(fine_hat_system.G, fine_hat_system.G_e, fine_hat_system.c)
        assert m_coarse.g_R is not None and m_coarse.g_R > 0.0
        assert m_fine.g_R is not None and m_fine.g_R > 0.0
        assert m_fine.g_R < m_coarse.g_R


class TestClassification:
    def test_consistent_mode_is_inductance_like(self, coarse_pair):
        sys, _ = coarse_pair
        cls = classify_element(sys, "Ge")
        assert cls.kind is ElementKind.INDUCTANCE_LIKE
        assert cls.L is not None and cls.L > 0.0

    def test_original_mode_hat_basis_is_resistance_like(self, coarse_pair):
        _, hat = coarse_pair
        cls = classify_element(hat, "G")
        assert cls.kind is ElementKind.RESISTANCE_LIKE
        assert cls.g_R is not None and cls.g_R > 0.0

    def test_original_mode_legendre_terminal_degenerate(self, coarse_pair):
        # the polynomial basis keeps the terminal direction in the kernel of
        # the conductance difference, collapsing the element to inductance-like
        sys, _ = coarse_pair
        cls = classify_element(sys, "G")
        assert cls.kind is ElementKind.INDUCTANCE_LIKE
        assert cls.degenerate_difference

    def test_single_function_either_mode_inductance_like(self):
        sys = build_system(SINGLE_FUNCTION, build_mesh(SINGLE_FUNCTION))[0]
        for mode in ("G", "Ge"):
            cls = classify_element(sys, mode)
            assert cls.kind is ElementKind.INDUCTANCE_LIKE
            assert cls.L is not None and cls.L > 0.0

    def test_report_text(self, coarse_pair):
        sys, _ = coarse_pair
        text = classify_element(sys, "Ge").as_report()
        assert "inductance-like" in text
        assert "L = " in text


@pytest.fixture(scope="module")
def device_systems():
    """The shipped device's foil system per ``(mesh level, basis family)``, built on demand."""
    cache = {}

    def system(level, family):
        if (level, family) not in cache:
            cfg = ExperimentConfig(mesh_level=level, basis_family=family)
            cache[level, family] = build_system(cfg, build_mesh(cfg))[0]
        return cache[level, family]

    return system


def current_driven(system):
    netlist = parse_netlist("I1 1 0 DC 1\nFW1 1 0 FILE <memory> MODE Ge")
    return mna_stamp(netlist, field_systems={"<memory>": system})


class TestTerminalImpedance:
    """``R`` and ``L`` against the frequency response of the stamped current-driven circuit."""

    @pytest.mark.parametrize("family", BASIS_FAMILIES)
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_low_frequency_resistance_is_the_schur_series_resistance(
        self, level, family, device_systems
    ):
        system = device_systems(level, family)
        r = schur_stranded_form(system).R
        z = terminal_impedance(current_driven(system), 1e-3)
        assert abs(z.real - r) <= 1e-9 * r

    @pytest.mark.parametrize("family", BASIS_FAMILIES)
    @pytest.mark.parametrize("level", [0, 1])
    def test_high_frequency_reactance_is_the_classified_inductance(
        self, level, family, device_systems
    ):
        # eddy currents screen the conductors as omega grows; the error falls like 1/omega^2
        system = device_systems(level, family)
        inductance = classify_element(system, "Ge").L
        omega = 1e14
        z = terminal_impedance(current_driven(system), omega)
        assert abs(z.imag / omega - inductance) <= 1e-7 * inductance

    @pytest.mark.parametrize("family", BASIS_FAMILIES)
    @pytest.mark.parametrize("level", [2, 3])
    def test_extrapolated_high_frequency_reactance_is_the_classified_inductance(
        self, level, family, device_systems
    ):
        # on finer meshes the 1/omega^2 term still shows at omega = 1e14; the Richardson
        # value from omega and 2 omega cancels it
        system = device_systems(level, family)
        inductance = classify_element(system, "Ge").L
        dae = current_driven(system)
        f = [terminal_impedance(dae, omega).imag / omega for omega in (1e14, 2e14)]
        assert abs((4.0 * f[1] - f[0]) / 3.0 - inductance) <= 5e-7 * inductance
