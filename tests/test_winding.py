"""Foil-winding homogenization, coupling blocks and conductance variants."""

import math

import numpy as np
import pytest

from foilfem.assembly import QUADRATURE_RULES, FieldDiscretization, MaterialSpec
from foilfem.circuit import mna_stamp, parse_netlist
from foilfem.errors import ValidationError
from foilfem.experiments import ExperimentConfig, build_mesh
from foilfem.linalg import max_abs, rank
from foilfem.mesh import GeometrySpec, RegionTag, generate_parametric_mesh, rectangle_mesh, refine_uniform
from foilfem.winding import (
    MODES,
    MU0,
    FoilWindingSpec,
    VoltageBasis,
    assemble_G_consistent,
    assemble_G_exact,
    assemble_G_original,
    assemble_X,
    assemble_c,
    assemble_foil_system,
    build_solid_system,
    conductive_support,
    device_materials,
    distribution_coefficients,
    homogenize_materials,
    load_system,
    save_system,
    solid_from_foil,
)

GEOM = GeometrySpec()
SPEC = FoilWindingSpec(
    n_turns=50,
    fill_factor=0.8,
    foil_pitch=0.28e-3,
    height=50.0e-3,
    inner_radius=12.6e-3,
    z_center=0.5 * GEOM.yoke_height,
    sigma_c=6.0e7,
)

R_FAR = 1.0e4
TOY_SPEC = FoilWindingSpec(
    n_turns=2,
    fill_factor=0.8,
    foil_pitch=0.5,
    height=1.0,
    inner_radius=R_FAR,
    z_center=0.5,
    sigma_c=1.0,
)


def toy_setup(h=0.5):
    mesh = rectangle_mesh(R_FAR, R_FAR + 1.0, 0.0, 1.0, h=h, tag=RegionTag.FOIL_WINDING)
    disc = FieldDiscretization.from_mesh(mesh, fix_boundary=False)
    mats = MaterialSpec(
        {
            int(RegionTag.FOIL_WINDING): homogenize_materials(
                TOY_SPEC.fill_factor, TOY_SPEC.sigma_c, 0.0, 1.0 / MU0, 1.0 / MU0
            )
        }
    )
    return mesh, disc, mats


@pytest.fixture(scope="module")
def coarse_setup():
    mesh = generate_parametric_mesh(GEOM, 8.0e-3)
    disc = FieldDiscretization.from_mesh(mesh)
    mats = device_materials(SPEC)
    return mesh, disc, mats


@pytest.fixture(scope="module")
def coarse_system(coarse_setup):
    mesh, disc, mats = coarse_setup
    return assemble_foil_system(mesh, disc=disc, materials=mats, spec=SPEC, basis=VoltageBasis(5))


class TestHomogenization:
    def test_mixing_rule_reference_values(self):
        mat = homogenize_materials(0.8, 6.0e7, 0.0, 1.0 / MU0, 1.0 / MU0)
        assert mat.sigma[0] == 0.0
        assert mat.sigma[1] == pytest.approx(4.8e7)

    def test_identical_constituents(self):
        nu0 = 1.0 / MU0
        mat = homogenize_materials(0.37, 1.0, 1.0, nu0, nu0)
        assert mat.nu[0] == pytest.approx(nu0)
        assert mat.nu[1] == pytest.approx(nu0)

    def test_full_fill_degenerate(self):
        mat = homogenize_materials(1.0, 7.0, 0.0, 2.0, 5.0)
        assert mat.sigma[1] == pytest.approx(7.0)
        assert mat.nu[0] == pytest.approx(2.0)
        assert mat.nu[1] == pytest.approx(2.0)


class TestVoltageBasis:
    def test_legendre_constant(self):
        basis = VoltageBasis(5)
        assert np.allclose(basis.eval(0, np.linspace(-1, 1, 7)), 1.0)

    def test_legendre_linear(self):
        assert VoltageBasis(5).eval(1, 0.5) == pytest.approx(0.5)

    def test_legendre_integrals_orthogonal_to_constant(self):
        assert np.allclose(VoltageBasis(5).integrals(), [2.0, 0.0, 0.0, 0.0, 0.0])

    def test_hat_partition_of_unity(self):
        basis = VoltageBasis(4, family="hat")
        alphas = np.linspace(-1.0, 1.0, 33)
        total = sum(basis.eval(l, alphas) for l in range(4))
        assert np.allclose(total, 1.0)

    def test_hat_integrals(self):
        assert np.allclose(VoltageBasis(3, family="hat").integrals(), [0.5, 1.0, 0.5])

    def test_out_of_range_raises(self):
        with pytest.raises(IndexError):
            VoltageBasis(2).eval(2, 0.0)


class TestTurnCountVector:
    def test_legendre_reference(self):
        c = assemble_c(50, VoltageBasis(5))
        assert np.allclose(c, [50.0, 0.0, 0.0, 0.0, 0.0])

    def test_single_constant(self):
        assert np.allclose(assemble_c(7, VoltageBasis(1)), [7.0])

    def test_two_hats(self):
        assert np.allclose(assemble_c(50, VoltageBasis(2, family="hat")), [25.0, 25.0])


class TestDistribution:
    def test_constant_coefficient_value(self):
        mesh, disc, _ = toy_setup(h=1.0)
        x = distribution_coefficients(mesh, disc)
        assert np.allclose(x[np.abs(x) > 0], 1.0 / (2.0 * math.pi))

    def test_zero_outside_winding(self, coarse_setup):
        mesh, disc, _ = coarse_setup
        x = distribution_coefficients(mesh, disc)
        wnodes = np.unique(mesh.triangles[mesh.regions == int(RegionTag.FOIL_WINDING)])
        wdofs = set(disc.dof_index[wnodes].tolist()) - {-1}
        assert set(np.flatnonzero(x).tolist()) <= wdofs

    @pytest.mark.parametrize("level", [0, 2])
    def test_exactly_one_over_two_pi_on_every_winding_dof(self, level):
        # P1 interpolates this constant exactly, so the field has unit azimuthal
        # line integral everywhere in the winding
        mesh = build_mesh(ExperimentConfig(), level)
        disc = FieldDiscretization.from_mesh(mesh)
        wnodes = np.unique(mesh.triangles[mesh.regions == int(RegionTag.FOIL_WINDING)])
        wdofs = disc.dof_index[wnodes]
        assert np.all(wdofs >= 0)  # no winding node is fixed
        expected = np.zeros(disc.n_dofs)
        expected[wdofs] = 1.0 / (2.0 * math.pi)
        assert np.array_equal(distribution_coefficients(mesh, disc), expected)


class TestCouplingBlocks:
    def test_X_equals_mass_times_x_for_constant_basis(self, coarse_setup):
        mesh, disc, mats = coarse_setup
        x = distribution_coefficients(mesh, disc)
        from foilfem.assembly import assemble_mass

        m = assemble_mass(mesh, mats, disc)
        big_x = assemble_X(mesh, mats, disc, SPEC, VoltageBasis(1), x)
        ref = m @ x
        assert np.max(np.abs(big_x[:, 0] - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_X_rows_off_support_vanish(self, coarse_system, coarse_setup):
        mesh, disc, _ = coarse_setup
        wnodes = np.unique(mesh.triangles[mesh.regions == int(RegionTag.FOIL_WINDING)])
        wdofs = set(disc.dof_index[wnodes].tolist()) - {-1}
        nz_rows = set(np.flatnonzero(np.abs(coarse_system.X).sum(axis=1)).tolist())
        assert nz_rows <= wdofs

    def test_X_full_column_rank(self, coarse_system):
        assert rank(coarse_system.X, 1e-10) == 5

    def test_G_matches_direct_quadrature(self):
        mesh, disc, mats = toy_setup(h=0.5)
        basis = VoltageBasis(3)
        g = assemble_G_original(mesh, mats, disc, TOY_SPEC, basis)
        # independent oracle: loop quadrature points directly
        bary, weights = QUADRATURE_RULES[disc.quad_degree]
        sigma = mats.material(int(RegionTag.FOIL_WINDING)).sigma[1]
        zeta = 1.0 / (2.0 * math.pi)
        areas = mesh.triangle_areas()
        oracle = np.zeros((3, 3))
        for e in range(mesh.n_triangles):
            pts = bary @ mesh.nodes[mesh.triangles[e]]
            for q, w in enumerate(weights):
                r = pts[q, 0]
                common = 2.0 * math.pi * areas[e] * w * sigma * zeta**2 / r
                pvals = [basis.eval(l, TOY_SPEC.alpha_normalized(r)) for l in range(3)]
                for k in range(3):
                    for l in range(3):
                        oracle[k, l] += common * pvals[k] * pvals[l]
        assert np.max(np.abs(g - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    def test_G_basis_permutation(self):
        mesh, disc, mats = toy_setup(h=0.5)

        class Permuted:
            def __init__(self, base, perm):
                self.base, self.perm = base, perm
                self.n_functions = base.n_functions

            def eval(self, l, alpha):
                return self.base.eval(self.perm[l], alpha)

        base = VoltageBasis(3)
        perm = [2, 0, 1]
        g = assemble_G_original(mesh, mats, disc, TOY_SPEC, base)
        gp = assemble_G_original(mesh, mats, disc, TOY_SPEC, Permuted(base, perm))
        assert np.array_equal(gp, g[np.ix_(perm, perm)])

    def test_Ge_scalar_toy(self):
        # single-dof system: Ge must equal x^2 / m
        import scipy.sparse as sp

        from foilfem.linalg import RestrictedSpdSolver

        m = sp.csr_matrix(np.array([[2.0]]))
        x_vec = np.array([3.0])
        e = RestrictedSpdSolver(m, [0]).solve(x_vec)
        ge = x_vec @ e
        assert ge == pytest.approx(9.0 / 2.0)

    def test_Ge_matches_dense_pinv(self):
        mesh, disc, mats = toy_setup(h=0.5)
        basis = VoltageBasis(3)
        x = distribution_coefficients(mesh, disc)
        big_x = assemble_X(mesh, mats, disc, TOY_SPEC, basis, x)
        from foilfem.assembly import assemble_mass

        m_csr = assemble_mass(mesh, mats, disc)
        ge, _ = assemble_G_consistent(m_csr, big_x, conductive_support(mesh, mats, disc))
        m = m_csr.toarray()
        w, v = np.linalg.eigh(m)
        inv = np.where(w > 1e-12 * w.max(), 1.0 / np.where(w == 0, 1.0, w), 0.0)
        oracle = big_x.T @ (v @ (inv[:, None] * (v.T @ big_x)))
        assert np.max(np.abs(ge - oracle)) <= 1e-10 * np.max(np.abs(oracle))

    def test_difference_is_psd_and_decays_under_refinement(self, coarse_setup):
        mesh, disc, mats = coarse_setup
        basis = VoltageBasis(5)
        norms = []
        m = mesh
        for _ in range(3):
            d = FieldDiscretization.from_mesh(m)
            sys = assemble_foil_system(m, materials=mats, disc=d, spec=SPEC, basis=basis)
            diff = sys.G - sys.G_e
            min_eig = float(np.linalg.eigvalsh(0.5 * (diff + diff.T)).min())
            assert min_eig >= -1e-10 * np.linalg.norm(sys.G)
            norms.append(float(np.linalg.norm(diff)))
            m = refine_uniform(m)
        assert norms[1] <= norms[0]
        assert norms[2] <= norms[1]


class TestExactConductance:
    def test_single_function_matches_closed_form(self):
        sigma_beta = homogenize_materials(
            SPEC.fill_factor, SPEC.sigma_c, SPEC.sigma_i, SPEC.nu_c, SPEC.nu_i
        ).sigma[1]
        closed = sigma_beta * SPEC.height * math.log(SPEC.outer_radius / SPEC.inner_radius) / (2.0 * math.pi)
        for family in ("legendre", "hat"):
            g = assemble_G_exact(SPEC, VoltageBasis(1, family=family))
            assert g.shape == (1, 1)
            assert abs(g[0, 0] - closed) <= 1e-14 * closed

    @pytest.mark.parametrize("family", ["legendre", "hat"])
    def test_symmetric_positive_definite(self, family):
        g = assemble_G_exact(SPEC, VoltageBasis(5, family=family))
        assert np.array_equal(g, g.T)
        assert float(np.linalg.eigvalsh(g).min()) > 0.0

    @pytest.mark.parametrize("family", ["legendre", "hat"])
    def test_matches_adaptive_quadrature(self, family):
        from scipy.integrate import quad

        basis = VoltageBasis(5, family=family)
        g = assemble_G_exact(SPEC, basis)
        sigma_beta = homogenize_materials(
            SPEC.fill_factor, SPEC.sigma_c, SPEC.sigma_i, SPEC.nu_c, SPEC.nu_i
        ).sigma[1]
        half_extent = 0.5 * SPEC.radial_extent
        kinks = SPEC.mid_radius + half_extent * np.linspace(-1.0, 1.0, basis.n_functions)
        for k in range(basis.n_functions):
            for l in range(k, basis.n_functions):
                def integrand(r):
                    alpha = (r - SPEC.mid_radius) / half_extent
                    return float(basis.eval(k, alpha) * basis.eval(l, alpha)) / r

                value, _ = quad(
                    integrand, SPEC.inner_radius, SPEC.outer_radius,
                    points=kinks[1:-1], epsabs=1e-13, epsrel=1e-13, limit=200,
                )
                reference = sigma_beta * SPEC.height * value / (2.0 * math.pi)
                assert abs(g[k, l] - reference) <= 1e-12 * np.max(np.abs(g))

    @pytest.mark.parametrize("family", ["legendre", "hat"])
    def test_doubling_gauss_points_changes_nothing(self, family, monkeypatch):
        import foilfem.winding as winding

        basis = VoltageBasis(5, family=family)
        g = assemble_G_exact(SPEC, basis)
        monkeypatch.setattr(winding, "_EXACT_G_GAUSS_POINTS", 2 * winding._EXACT_G_GAUSS_POINTS)
        g2 = assemble_G_exact(SPEC, basis)
        assert np.max(np.abs(g2 - g)) <= 1e-13 * np.max(np.abs(g))

    @pytest.mark.parametrize("family", ["legendre", "hat"])
    def test_quadrature_conductance_converges_to_it(self, coarse_setup, family):
        mesh, _, mats = coarse_setup
        basis = VoltageBasis(5, family=family)
        exact = assemble_G_exact(SPEC, basis)
        errors = []
        for _ in range(3):
            disc = FieldDiscretization.from_mesh(mesh)
            g = assemble_G_original(mesh, mats, disc, SPEC, basis)
            errors.append(float(np.linalg.norm(g - exact) / np.linalg.norm(exact)))
            mesh = refine_uniform(mesh)
        # measured: hat 0.13, 2.4e-6, 4.0e-8; legendre 3.4e-2, 8.4e-4, 1.5e-5
        assert errors[1] <= errors[0] / 10.0
        assert errors[2] <= errors[1] / 10.0
        assert errors[2] <= 1e-4


class TestSolidReduction:
    def test_constant_basis_collapses_everything(self, coarse_setup):
        mesh, disc, mats = coarse_setup
        sys1 = assemble_foil_system(mesh, materials=mats, disc=disc, spec=SPEC, basis=VoltageBasis(1))
        solid = build_solid_system(mesh, mats, disc)
        assert np.linalg.norm(sys1.G - sys1.G_e) <= 1e-12 * np.linalg.norm(sys1.G)
        assert float(sys1.G[0, 0]) == pytest.approx(solid.G_sol, rel=1e-13)
        assert np.max(np.abs(sys1.X[:, 0] - solid.x_sol)) <= 1e-13 * np.max(np.abs(solid.x_sol))

    def test_solid_conductance_positive_and_linear_in_sigma(self, coarse_setup):
        mesh, disc, _ = coarse_setup
        mats1 = device_materials(SPEC)
        spec2 = FoilWindingSpec(
            n_turns=SPEC.n_turns,
            fill_factor=SPEC.fill_factor,
            foil_pitch=SPEC.foil_pitch,
            height=SPEC.height,
            inner_radius=SPEC.inner_radius,
            z_center=SPEC.z_center,
            sigma_c=2.0 * SPEC.sigma_c,
        )
        mats2 = device_materials(spec2)
        g1 = build_solid_system(mesh, mats1, disc).G_sol
        g2 = build_solid_system(mesh, mats2, disc).G_sol
        assert g1 > 0.0
        assert g2 == pytest.approx(2.0 * g1, rel=1e-13)

    def test_solid_from_foil_matches_direct(self, coarse_system, coarse_setup):
        mesh, disc, mats = coarse_setup
        direct = build_solid_system(mesh, mats, disc)
        reduced = solid_from_foil(coarse_system)
        assert reduced.G_sol == pytest.approx(direct.G_sol, rel=1e-13)


class TestSystemRoundtrip:
    def test_save_load(self, tmp_path, coarse_system):
        path = tmp_path / "sys.npz"
        save_system(path, coarse_system)
        again = load_system(path)
        assert max_abs(again.K - coarse_system.K) == 0.0
        assert max_abs(again.M - coarse_system.M) == 0.0
        assert np.array_equal(again.X, coarse_system.X)
        assert np.array_equal(again.G, coarse_system.G)
        assert np.array_equal(again.G_e, coarse_system.G_e)
        assert np.array_equal(again.c, coarse_system.c)

    @pytest.mark.parametrize("mode", MODES)
    def test_file_field_element_stamps_like_the_in_memory_system(self, tmp_path, coarse_system, mode):
        path = tmp_path / "sys.npz"
        save_system(path, coarse_system)
        memory = mna_stamp(parse_netlist(f"V1 1 0 SIN 1 50\nFW1 1 0 FILE mem MODE {mode}"),
                           field_systems={"mem": coarse_system})
        disk = mna_stamp(parse_netlist(f"V1 1 0 SIN 1 50\nFW1 1 0 FILE {path} MODE {mode}"))
        for name in ("E", "A"):
            a, b = getattr(memory, name), getattr(disk, name)
            assert a.shape == b.shape
            for part in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(a, part), getattr(b, part)), (name, part)

    @pytest.mark.parametrize(
        "array, edit, message",
        [
            ("G_e", lambda d: d.pop("G_e"), "missing array 'G_e'"),
            ("K", lambda d: d.update(K_shape=d["K_shape"] + [0, 1]), "K is 84 x 85, not square"),
            ("M", lambda d: d.update(
                M_data=np.ones(3), M_indices=np.arange(3), M_indptr=np.arange(4),
                M_shape=np.array([3, 3]),
            ), "M is 3 x 3 but K is 84 x 84"),
            ("X", lambda d: d.update(X=d["X"][:-1]), "X has shape (83, 5), not 84 rows"),
            ("c", lambda d: d.update(c=d["c"][:3]), "X has 5 columns but len(c) = 3"),
            ("G", lambda d: d.update(G=d["G"][:4, :4]), "G has shape (4, 4), not (5, 5)"),
            ("G", lambda d: d["G"].__setitem__((0, 0), np.nan), "G has non-finite entries"),
            ("G_e", lambda d: d["G_e"].__setitem__((0, 1), 1.001 * d["G_e"][0, 1]),
             "G_e is not symmetric"),
            ("K", lambda d: d["K_indices"].__setitem__(5, 10**6), "malformed sparse matrix K"),
            ("K", lambda d: d["K_data"].__setitem__(5, np.nan), "K has non-finite entries"),
            ("X", lambda d: d["X"].__setitem__((3, 0), np.inf), "X has non-finite entries"),
            ("x", lambda d: d.update(x=d["x"][:-1]), "x has shape (83,), not (84,)"),
            ("E", lambda d: d.update(E=d["E"][:, :4]), "E has shape (84, 4), not (84, 5)"),
            ("support", lambda d: d["support"].__setitem__(-1, 84),
             "support is not a vector of DoF indices in [0, 84)"),
            ("support", lambda d: d.update(support=d["support"].astype(float)),
             "support is not a vector of DoF indices"),
            ("support", lambda d: d.update(support=d["support"][::-1]),
             "support is not strictly increasing"),
            ("support", lambda d: d.update(support=d["support"].repeat(2)),
             "support is not strictly increasing"),
            ("E", lambda d: d.pop("E"), "missing array 'E'"),
            ("support", lambda d: d.pop("support"), "missing array 'support'"),
        ],
        ids=["missing", "K-not-square", "M-size", "X-rows", "X-columns", "G-shape", "G-nan",
             "Ge-asymmetric", "K-index", "K-nan", "X-inf", "x-short", "E-columns",
             "support-range", "support-float", "support-decreasing", "support-duplicated",
             "E-missing", "support-missing"],
    )
    def test_malformed_archive_is_named(self, tmp_path, coarse_system, array, edit, message):
        good = tmp_path / "good.npz"
        save_system(good, coarse_system)
        with np.load(good) as data:
            payload = {name: data[name].copy() for name in data.files}
        edit(payload)
        bad = tmp_path / "bad.npz"
        np.savez(bad, **payload)
        with pytest.raises(ValidationError) as err:
            load_system(bad)
        assert str(bad) in str(err.value)
        assert array in str(err.value) and message in str(err.value)
