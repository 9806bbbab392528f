"""The batched assembly and mesher against their loop forms in ``oracles.py``.

K, M, X, Ge, E, the conductive support and every mesh array must be
bit-identical to the loop forms, dtypes included; G is a different quadrature sum of the
same integrand and must agree to round-off.
"""

from dataclasses import replace

import numpy as np
import pytest
from oracles import (
    loop_assemble_G_consistent,
    loop_assemble_G_original,
    loop_assemble_mass,
    loop_assemble_stiffness,
    loop_assemble_X,
    loop_conductive_support,
    loop_edge_counts,
    loop_mass_like,
    loop_refine_uniform,
    loop_tensor_mesh,
    scalar_region_of,
    winding_blocks,
)

from foilfem.assembly import (
    Conduction,
    FieldDiscretization,
    MaterialSpec,
    RegionMaterial,
    assemble_mass,
    assemble_modified_mass,
)
from foilfem.circuit import mna_stamp, parse_netlist
from foilfem.experiments import ExperimentConfig, build_geometry, build_mesh, build_system
from foilfem.linalg import max_abs
from foilfem.mesh import RegionTag, rectangle_mesh, refine_uniform, tensor_mesh
from foilfem.winding import (
    assemble_G_original,
    assemble_X,
    conductive_support,
    device_materials,
    distribution_coefficients,
    solid_from_foil,
)

# levels 0-1 for both families, and level 2 with the hat basis (the ladder's hat rung)
CASES = [(level, family) for level in (0, 1) for family in ("legendre", "hat")] + [(2, "hat")]


def assert_identical(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b)


def assert_same_csr(a, b):
    assert a.shape == b.shape
    for part in ("data", "indices", "indptr"):
        assert_identical(getattr(a, part), getattr(b, part))


def assert_same_mesh(a, b):
    for part in ("nodes", "triangles", "regions", "boundary"):
        assert_identical(getattr(a, part), getattr(b, part))


@pytest.fixture(scope="module", params=CASES, ids=[f"level{l}-{f}" for l, f in CASES])
def built(request):
    level, family = request.param
    cfg = replace(ExperimentConfig(), basis_family=family)
    mesh = build_mesh(cfg, level)
    system, spec, basis = build_system(cfg, mesh)
    return cfg, mesh, system, spec, basis


def _inputs(built):
    cfg, mesh, _, spec, basis = built
    materials = device_materials(
        spec, yoke_sigma=cfg.yoke_conductivity, yoke_mu_r=cfg.yoke_permeability
    )
    return mesh, materials, FieldDiscretization.from_mesh(mesh), spec, basis


class TestMesher:
    def test_tensor_mesh_matches_loop(self, built):
        cfg, mesh = built[0], built[1]
        r_ticks, z_ticks = np.unique(mesh.nodes[:, 0]), np.unique(mesh.nodes[:, 1])
        geom = build_geometry(cfg)
        batched = tensor_mesh(r_ticks, z_ticks, geom.region_of)
        loop = loop_tensor_mesh(r_ticks, z_ticks, lambda r, z: scalar_region_of(geom, r, z))
        assert_same_mesh(batched, loop)
        assert_same_mesh(batched, mesh)

    @pytest.mark.parametrize("level", range(4))
    def test_region_of_matches_scalar_form_on_every_centroid(self, level):
        cfg = ExperimentConfig()
        geom = build_geometry(cfg)
        centroids = build_mesh(cfg, level)
        centroids = centroids.nodes[centroids.triangles].mean(axis=1)
        tags = geom.region_of(centroids[:, 0], centroids[:, 1])
        expected = [int(scalar_region_of(geom, r, z)) for r, z in centroids.tolist()]
        assert tags.tolist() == expected
        assert set(expected) == {int(t) for t in RegionTag}

    def test_region_of_matches_scalar_form_on_and_off_the_breaklines(self):
        geom = build_geometry(ExperimentConfig())
        # the centroids of a rectangle over the device box whose cells ignore the breaklines
        box = rectangle_mesh(0.0, geom.yoke_outer_radius, 0.0, geom.yoke_height, h=0.7e-3)
        centroids = box.nodes[box.triangles].mean(axis=1)
        # every breakline crossing and the midpoints between them, where a non-strict
        # comparison or a reordered test would tag differently
        w0, w1 = geom.winding_z_bounds
        g0, g1 = geom.gap_z_bounds
        r_lines = np.unique([0.0, geom.limb_radius, geom.winding_inner_radius,
                             geom.winding_outer_radius, geom.window_outer_radius,
                             geom.yoke_outer_radius])
        z_lines = np.unique([0.0, geom.window_bottom, w0, g0, g1, w1, geom.window_top,
                             geom.yoke_height])
        rr, zz = np.meshgrid(*(np.sort(np.concatenate([v, 0.5 * (v[1:] + v[:-1])]))
                               for v in (r_lines, z_lines)))
        points = np.concatenate([centroids, np.column_stack([rr.ravel(), zz.ravel()])])
        tags = geom.region_of(points[:, 0], points[:, 1])
        assert tags.tolist() == [int(scalar_region_of(geom, r, z)) for r, z in points.tolist()]
        assert int(geom.region_of(*points[0])) == int(scalar_region_of(geom, *points[0]))

    def test_rectangle_mesh_broadcasts_its_tag(self):
        box = rectangle_mesh(1.0, 2.0, 0.0, 1.0, h=0.25, tag=RegionTag.YOKE)
        loop = loop_tensor_mesh(np.unique(box.nodes[:, 0]), np.unique(box.nodes[:, 1]),
                                lambda r, z: RegionTag.YOKE)
        assert_same_mesh(box, loop)
        assert np.all(box.regions == int(RegionTag.YOKE))

    def test_refine_uniform_matches_loop(self, built):
        mesh = built[1]
        refined = refine_uniform(mesh)
        assert_same_mesh(refined, loop_refine_uniform(mesh))
        assert_same_mesh(refine_uniform(refined), loop_refine_uniform(refined))

    def test_edge_counts_match_loop(self, built):
        mesh = built[1]
        assert mesh.edge_counts() == loop_edge_counts(mesh)


class TestAssembly:
    def test_stiffness_and_mass_match_loop(self, built):
        mesh, materials, disc, _, _ = _inputs(built)
        system = built[2]
        assert_same_csr(system.K, loop_assemble_stiffness(mesh, materials, disc))
        assert_same_csr(system.M, loop_assemble_mass(mesh, materials, disc))
        assert max_abs(system.K - system.K.T) == 0.0
        assert max_abs(system.M - system.M.T) == 0.0

    def test_coupling_blocks_match_loop(self, built):
        mesh, materials, disc, spec, basis = _inputs(built)
        system = built[2]
        loop_x = loop_assemble_X(mesh, materials, disc, spec, basis)
        loop_m = loop_assemble_mass(mesh, materials, disc)
        loop_support = loop_conductive_support(mesh, materials, disc)
        assert_identical(system.X, loop_x)
        assert_identical(system.support, loop_support)
        loop_ge, loop_e = loop_assemble_G_consistent(loop_m, loop_x, loop_support)
        assert_identical(system.G_e, loop_ge)
        assert_identical(system.E, loop_e)

    def test_G_matches_loop_to_round_off(self, built):
        mesh, materials, disc, spec, basis = _inputs(built)
        g = built[2].G
        loop_g = loop_assemble_G_original(mesh, materials, disc, spec, basis)
        assert np.array_equal(g, g.T)
        assert max_abs(g - loop_g) <= 1e-13 * max_abs(loop_g)


class TestEdgeCases:
    def test_zero_conductivity(self, built):
        mesh, _, disc, spec, basis = _inputs(built)
        insulating = MaterialSpec({int(t): RegionMaterial.isotropic(0.0, 1.0) for t in RegionTag})
        conduction = Conduction.of(mesh, insulating, disc)
        m = assemble_mass(mesh, disc, conduction)
        assert m.nnz == 0
        assert_same_csr(m, loop_assemble_mass(mesh, insulating, disc))
        assert_identical(
            conductive_support(mesh, disc, conduction),
            loop_conductive_support(mesh, insulating, disc),
        )
        x = distribution_coefficients(mesh, disc)
        winding, phi = winding_blocks(mesh, insulating, disc, spec, basis)
        assert_identical(
            assemble_X(mesh, disc, winding, phi, x),
            loop_assemble_X(mesh, insulating, disc, spec, basis, x),
        )
        assert not np.any(assemble_G_original(mesh, disc, winding, phi, x))

    def test_empty_winding(self, built):
        _, _, _, spec, basis = _inputs(built)
        mesh = rectangle_mesh(1.0, 2.0, 0.0, 1.0, h=0.25, tag=RegionTag.AIR)
        disc = FieldDiscretization.from_mesh(mesh)
        mats = MaterialSpec({int(RegionTag.AIR): RegionMaterial.isotropic(2.0, 1.0)})
        x = np.ones(disc.n_dofs)

        def profile(r):
            return r - 1.5

        def is_winding(tag):
            return tag == int(RegionTag.FOIL_WINDING)

        assert_same_csr(
            assemble_modified_mass(mesh, mats, disc, profile),
            loop_mass_like(mesh, mats, disc, is_winding, profile),
        )
        winding, phi = winding_blocks(mesh, mats, disc, spec, basis)
        assert_identical(
            assemble_X(mesh, disc, winding, phi, x),
            loop_assemble_X(mesh, mats, disc, spec, basis, x),
        )
        assert not np.any(assemble_G_original(mesh, disc, winding, phi, x))


def test_solid_stamp_couples_x_sol_both_ways():
    cfg = ExperimentConfig()
    system, _, _ = build_system(cfg, build_mesh(cfg, 0))
    solid = solid_from_foil(system)
    net = parse_netlist("V1 1 0 SIN 1.0 50.0\nR1 2 0 1.0\nFW1 1 2 FILE <m> MODE SOLID")
    dae = mna_stamp(net, field_systems={"<m>": system})
    a_sl = dae.layout["extras"]["FW1"]["a"]
    j = dae.layout["extras"]["FW1"]["current"]
    p, q = dae.probes["FW1"].pos_index, dae.probes["FW1"].neg_index
    a, e = dae.A.toarray(), dae.E.toarray()
    assert np.array_equal(a[a_sl, p], -solid.x_sol)
    assert np.array_equal(a[a_sl, q], solid.x_sol)
    assert np.array_equal(e[j, a_sl], -solid.x_sol)
