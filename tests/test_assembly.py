"""FE assembly tests: stencil oracles, symmetry, PSD and quadrature checks."""

import numpy as np
import pytest

from foilfem.assembly import (
    QUADRATURE_RULE,
    Conduction,
    FieldDiscretization,
    MaterialSpec,
    RegionMaterial,
    assemble_double_modified_mass,
    assemble_mass,
    assemble_modified_mass,
    assemble_stiffness,
)
from foilfem.experiments import ExperimentConfig, build_mesh
from foilfem.linalg import max_abs, sparse_factorize
from foilfem.mesh import Mesh, RegionTag, rectangle_mesh, refine_uniform
from oracles import all_free, loop_mass_like

R_FAR = 1.0e4  # radial offset that makes the axisymmetric weights quasi-planar

AIR_ONLY = MaterialSpec({int(RegionTag.AIR): RegionMaterial.isotropic(0.0, 1.0)})


def far_square(h=1.0, tag=RegionTag.AIR):
    return rectangle_mesh(R_FAR, R_FAR + 1.0, 0.0, 1.0, h=h, tag=tag)


def materials_for(tag, sigma=0.0, nu=1.0):
    return MaterialSpec({int(tag): RegionMaterial.isotropic(sigma, nu)})


def mass(mesh, materials, disc):
    return assemble_mass(mesh, disc, Conduction.of(mesh, materials, disc))


# hand-assembled P1 Laplacian on the unit square split along the (0,0)-(1,1) diagonal,
# node order (r0,z0), (r1,z0), (r0,z1), (r1,z1)
PLANAR_STENCIL = np.array(
    [
        [1.0, -0.5, -0.5, 0.0],
        [-0.5, 1.0, 0.0, -0.5],
        [-0.5, 0.0, 1.0, -0.5],
        [0.0, -0.5, -0.5, 1.0],
    ]
)


class TestStiffness:
    def test_translational_limit_matches_hand_stencil(self):
        mesh = far_square(h=1.0)
        k = assemble_stiffness(mesh, AIR_ONLY, all_free(mesh)).toarray()
        scaled = k * (R_FAR + 0.5) / (2.0 * np.pi)
        assert np.max(np.abs(scaled - PLANAR_STENCIL)) <= 1e-3 * np.max(np.abs(PLANAR_STENCIL))

    def test_linear_in_nu(self):
        mesh = far_square(h=0.5)
        disc = all_free(mesh)
        k1 = assemble_stiffness(mesh, materials_for(RegionTag.AIR, nu=1.0), disc)
        k2 = assemble_stiffness(mesh, materials_for(RegionTag.AIR, nu=2.0), disc)
        assert max_abs(k2 - 2.0 * k1) == 0.0

    def test_anisotropic_equal_pair_matches_isotropic(self):
        mesh = far_square(h=0.5)
        disc = all_free(mesh)
        iso = assemble_stiffness(mesh, materials_for(RegionTag.AIR, nu=3.0), disc)
        aniso = assemble_stiffness(
            mesh, MaterialSpec({int(RegionTag.AIR): RegionMaterial(nu=(3.0, 3.0))}), disc
        )
        assert max_abs(iso - aniso) == 0.0

    def test_exact_symmetry_and_psd(self):
        mesh = build_mesh(ExperimentConfig(), 0)
        disc = FieldDiscretization.from_mesh(mesh)
        mats = MaterialSpec(
            {
                int(RegionTag.AIR): RegionMaterial.isotropic(0.0, 1.0),
                int(RegionTag.AIR_GAP): RegionMaterial.isotropic(0.0, 1.0),
                int(RegionTag.YOKE): RegionMaterial.isotropic(10.0, 1e-3),
                int(RegionTag.FOIL_WINDING): RegionMaterial(sigma=4.8e7, nu=(1.0, 1.0)),
            }
        )
        k = assemble_stiffness(mesh, mats, disc)
        m = mass(mesh, mats, disc)
        assert max_abs(k - k.T) == 0.0
        assert max_abs(m - m.T) == 0.0
        rng = np.random.default_rng(2024)
        for _ in range(100):
            x = rng.standard_normal(disc.n_dofs)
            assert x @ (k @ x) >= 0.0
            assert x @ (m @ x) >= -1e-12 * max_abs(m) * (x @ x)

    def test_pencil_regular_on_shipped_geometry(self):
        mesh = build_mesh(ExperimentConfig(), 0)
        disc = FieldDiscretization.from_mesh(mesh)
        mats = MaterialSpec(
            {
                int(RegionTag.AIR): RegionMaterial.isotropic(0.0, 1.0 / (4e-7 * np.pi)),
                int(RegionTag.AIR_GAP): RegionMaterial.isotropic(0.0, 1.0 / (4e-7 * np.pi)),
                int(RegionTag.YOKE): RegionMaterial.isotropic(10.0, 1.0 / (4e-7 * np.pi) / 1000.0),
                int(RegionTag.FOIL_WINDING): RegionMaterial(
                    sigma=4.8e7, nu=(1.0 / (4e-7 * np.pi), 1.0 / (4e-7 * np.pi))
                ),
            }
        )
        k = assemble_stiffness(mesh, mats, disc)
        m = mass(mesh, mats, disc)
        sparse_factorize(m + k)  # must not raise

    def test_interpolated_energy_converges_under_refinement(self):
        mats = materials_for(RegionTag.AIR, nu=1.0)
        mesh = rectangle_mesh(1.0, 2.0, 0.0, 1.0, h=0.25)
        energies = []
        for _ in range(4):
            disc = all_free(mesh)
            k = assemble_stiffness(mesh, mats, disc)
            vals = np.sin(np.pi * mesh.nodes[:, 1]) * (mesh.nodes[:, 0] - 1.0) * (2.0 - mesh.nodes[:, 0])
            energies.append(float(vals @ (k @ vals)))
            mesh = refine_uniform(mesh)
        diffs = np.abs(np.diff(energies))
        assert diffs[1] < diffs[0]
        assert diffs[2] < diffs[1]


class TestMaterialLookup:
    @pytest.mark.parametrize("tag", [int(RegionTag.YOKE), 9, -5])
    def test_tag_missing_from_the_table_raises_key_error(self, tag):
        # a hand-built mesh skips validate_mesh, so the table lookup is the check
        square = far_square(h=0.5)
        regions = square.regions.copy()
        regions[1] = tag
        mesh = Mesh(square.nodes, square.triangles, regions, square.boundary)
        for assemble in (assemble_stiffness, mass):
            with pytest.raises(KeyError, match=f"no material for region tag {tag}"):
                assemble(mesh, AIR_ONLY, all_free(mesh))


class TestMass:
    def test_zero_sigma_gives_zero_matrix(self):
        mesh = far_square(h=0.5)
        m = mass(mesh, materials_for(RegionTag.AIR, sigma=0.0), all_free(mesh))
        assert m.nnz == 0

    def test_partition_of_unity_against_analytic(self):
        mesh = far_square(h=0.5)
        m = mass(mesh, materials_for(RegionTag.AIR, sigma=3.0), all_free(mesh))
        total = float(m.sum())
        analytic = 2.0 * np.pi * 3.0 * np.log((R_FAR + 1.0) / R_FAR) * 1.0
        assert total == pytest.approx(analytic, rel=1e-12)

    def test_partition_of_unity_against_independent_quadrature(self):
        mesh = far_square(h=0.5)
        disc = all_free(mesh)
        m = mass(mesh, materials_for(RegionTag.AIR, sigma=3.0), disc)
        bary, weights = QUADRATURE_RULE
        total = 0.0
        areas = mesh.triangle_areas()
        for e in range(mesh.n_triangles):
            pts = bary @ mesh.nodes[mesh.triangles[e]]
            total += 2.0 * np.pi * areas[e] * np.sum(weights * 3.0 / pts[:, 0])
        assert float(m.sum()) == pytest.approx(total, rel=1e-13)

    def test_winding_only_support(self):
        mesh = build_mesh(ExperimentConfig(), 0)
        disc = FieldDiscretization.from_mesh(mesh)
        mats = MaterialSpec(
            {
                int(RegionTag.AIR): RegionMaterial.isotropic(0.0, 1.0),
                int(RegionTag.AIR_GAP): RegionMaterial.isotropic(0.0, 1.0),
                int(RegionTag.YOKE): RegionMaterial.isotropic(0.0, 1.0),
                int(RegionTag.FOIL_WINDING): RegionMaterial(sigma=1.0, nu=(1.0, 1.0)),
            }
        )
        m = mass(mesh, mats, disc)
        winding_nodes = np.unique(mesh.triangles[mesh.regions == int(RegionTag.FOIL_WINDING)])
        winding_dofs = set(disc.dof_index[winding_nodes].tolist()) - {-1}
        row_norms = np.abs(m).sum(axis=1).A1 if hasattr(np.abs(m).sum(axis=1), "A1") else np.asarray(np.abs(m).sum(axis=1)).ravel()
        nonzero_rows = set(np.flatnonzero(row_norms > 0.0).tolist())
        assert nonzero_rows <= winding_dofs


class TestModifiedMass:
    def test_constant_profile_equals_winding_mass(self):
        mesh = far_square(h=0.5, tag=RegionTag.FOIL_WINDING)
        disc = all_free(mesh)
        mats = materials_for(RegionTag.FOIL_WINDING, sigma=2.0)
        m = mass(mesh, mats, disc)
        m1 = assemble_modified_mass(mesh, mats, disc, lambda r: np.ones_like(r))
        assert max_abs(m - m1) == 0.0

    def test_zero_profile_gives_zero(self):
        mesh = far_square(h=0.5, tag=RegionTag.FOIL_WINDING)
        mats = materials_for(RegionTag.FOIL_WINDING, sigma=2.0)
        m0 = assemble_modified_mass(mesh, mats, all_free(mesh), lambda r: np.zeros_like(r))
        assert m0.nnz == 0

    def test_linear_profile_quadrature_cross_check(self):
        # a higher-order rule is the oracle: entries must agree to 1e-10
        mesh = far_square(h=0.5, tag=RegionTag.FOIL_WINDING)
        mats = materials_for(RegionTag.FOIL_WINDING, sigma=2.0)
        disc = all_free(mesh)
        profile = lambda r: 2.0 * (r - (R_FAR + 0.5))
        default = assemble_modified_mass(mesh, mats, disc, profile)
        oracle, low = (
            loop_mass_like(mesh, mats, disc, lambda tag: True, profile, degree=degree)
            for degree in (5, 2)
        )
        assert max_abs(low - oracle) > 1e-10 * max_abs(oracle)  # the oracle has teeth
        assert max_abs(default - oracle) <= 1e-10 * max_abs(oracle)

    def test_swap_symmetry_of_double_profile(self):
        mesh = far_square(h=0.5, tag=RegionTag.FOIL_WINDING)
        mats = materials_for(RegionTag.FOIL_WINDING, sigma=2.0)
        disc = all_free(mesh)
        pk = lambda r: r - R_FAR
        pl = lambda r: (r - R_FAR) ** 2 - 0.3
        a = assemble_double_modified_mass(mesh, mats, disc, pk, pl)
        b = assemble_double_modified_mass(mesh, mats, disc, pl, pk)
        assert max_abs(a - b) == 0.0
        assert max_abs(a - a.T) == 0.0

    def test_double_profile_constant_is_winding_mass(self):
        mesh = far_square(h=0.5, tag=RegionTag.FOIL_WINDING)
        mats = materials_for(RegionTag.FOIL_WINDING, sigma=2.0)
        disc = all_free(mesh)
        one = lambda r: np.ones_like(r)
        m = mass(mesh, mats, disc)
        mkl = assemble_double_modified_mass(mesh, mats, disc, one, one)
        assert max_abs(m - mkl) == 0.0
