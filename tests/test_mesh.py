"""Mesh generation, refinement and text-format tests."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foilfem.errors import ParseError, ValidationError
from foilfem.experiments import ExperimentConfig, build_geometry
from foilfem.mesh import (
    Mesh,
    RegionTag,
    generate_parametric_mesh,
    read_mesh,
    rectangle_mesh,
    refine_uniform,
    validate_mesh,
    write_mesh,
)

GEOM = build_geometry(ExperimentConfig())


def analytic_region_areas(geom):
    w0, w1 = geom.winding_z_bounds
    g0, g1 = geom.gap_z_bounds
    winding = geom.winding_thickness * (w1 - w0)
    gap = geom.limb_radius * (g1 - g0)
    window = (geom.window_outer_radius - geom.limb_radius) * (geom.window_top - geom.window_bottom)
    total = geom.yoke_outer_radius * geom.yoke_height
    return {
        RegionTag.FOIL_WINDING: winding,
        RegionTag.AIR_GAP: gap,
        RegionTag.AIR: window - winding,
        RegionTag.YOKE: total - window - gap,
    }


class TestParametricMesh:
    def test_fine_node_count_class(self):
        mesh = generate_parametric_mesh(GEOM, 1.7e-3)
        assert 1200 <= mesh.n_nodes <= 1600

    def test_coarse_node_count_class(self):
        mesh = generate_parametric_mesh(GEOM, 8.0e-3)
        assert 80 <= mesh.n_nodes <= 150

    def test_minimal_square(self):
        mesh = rectangle_mesh(0.0, 1.0, 0.0, 1.0, h=1.0)
        assert mesh.n_nodes == 4
        assert mesh.n_triangles == 2

    def test_node_count_monotone_in_h(self):
        counts = [generate_parametric_mesh(GEOM, h).n_nodes for h in (2e-3, 4e-3, 8e-3, 16e-3)]
        assert all(a >= b for a, b in zip(counts[:-1], counts[1:]))

    def test_region_areas_match_analytic(self):
        mesh = generate_parametric_mesh(GEOM, 8.0e-3)
        for tag, area in analytic_region_areas(GEOM).items():
            assert mesh.region_area(tag) == pytest.approx(area, rel=1e-12)

    def test_all_regions_present_and_conforming(self):
        mesh = generate_parametric_mesh(GEOM, 8.0e-3)
        validate_mesh(mesh)
        assert set(np.unique(mesh.regions)) == {int(t) for t in RegionTag}
        counts = mesh.edge_counts()
        assert set(counts.values()) <= {1, 2}

    def test_winding_has_two_columns_across_thickness(self):
        mesh = generate_parametric_mesh(GEOM, 50.0e-3)  # far coarser than any feature
        radii = np.unique(mesh.nodes[:, 0])
        inside = radii[(radii > GEOM.winding_inner_radius) & (radii < GEOM.winding_outer_radius)]
        assert inside.size >= 1  # mid-radius breakline forces >= 2 columns

    def test_axis_nodes_exact(self):
        mesh = generate_parametric_mesh(GEOM, 8.0e-3)
        assert np.any(mesh.nodes[:, 0] == 0.0)
        assert np.all(mesh.nodes[:, 0] >= 0.0)

    def test_node_guard_counts_the_nodes_before_making_any(self, monkeypatch):
        import foilfem.mesh as mesh_module

        h = 1.0e-3
        n = generate_parametric_mesh(GEOM, h).n_nodes
        monkeypatch.setattr(mesh_module, "MAX_NODES", n)
        assert generate_parametric_mesh(GEOM, h).n_nodes == n
        monkeypatch.setattr(mesh_module, "MAX_NODES", n - 1)
        monkeypatch.setattr(mesh_module, "_ticks", None)  # a call would raise TypeError
        with pytest.raises(ValidationError, match=f"above the {n - 1} node guard"):
            generate_parametric_mesh(GEOM, h)
        with pytest.raises(ValidationError, match="gives inf x inf mesh nodes"):
            generate_parametric_mesh(GEOM, 1e-320)

    def test_degenerate_h_raises(self):
        with pytest.raises(ValueError):
            generate_parametric_mesh(GEOM, -1.0)

    def test_bad_geometry_raises(self):
        with pytest.raises(ValidationError):
            replace(GEOM, winding_inner_radius=5.0e-3)  # would overlap the limb


class TestRefineUniform:
    def test_two_triangle_square(self):
        mesh = rectangle_mesh(0.0, 1.0, 0.0, 1.0, h=1.0)
        r1 = refine_uniform(mesh)
        assert r1.n_triangles == 8
        r2 = refine_uniform(r1)
        assert r2.n_triangles == 32

    def test_node_count_formula(self):
        mesh = generate_parametric_mesh(GEOM, 8.0e-3)
        refined = refine_uniform(mesh)
        n_edges = len(mesh.edge_counts())
        assert refined.n_nodes == mesh.n_nodes + n_edges

    def test_tags_preserved(self):
        mesh = generate_parametric_mesh(GEOM, 8.0e-3)
        refined = refine_uniform(mesh)
        for tag in RegionTag:
            n_parent = int(np.count_nonzero(mesh.regions == int(tag)))
            n_child = int(np.count_nonzero(refined.regions == int(tag)))
            assert n_child == 4 * n_parent

    def test_total_area_preserved(self):
        mesh = generate_parametric_mesh(GEOM, 8.0e-3)
        refined = refine_uniform(mesh)
        a0 = mesh.triangle_areas().sum()
        a1 = refined.triangle_areas().sum()
        assert abs(a1 - a0) <= 1e-13 * a0


class TestMeshFormat:
    def test_roundtrip_two_triangles(self):
        mesh = rectangle_mesh(0.0, 1.0, 0.0, 1.0, h=1.0)
        again = read_mesh(write_mesh(mesh))
        assert np.array_equal(again.nodes, mesh.nodes)
        assert np.array_equal(again.triangles, mesh.triangles)
        assert np.array_equal(again.regions, mesh.regions)
        assert np.array_equal(again.boundary, mesh.boundary)

    def test_roundtrip_fine_mesh_bit_exact(self):
        mesh = generate_parametric_mesh(GEOM, 1.7e-3)
        text = write_mesh(mesh)
        again = read_mesh(text)
        assert np.array_equal(again.nodes, mesh.nodes)
        assert write_mesh(again) == text

    def test_malformed_index_raises_with_line(self):
        mesh = rectangle_mesh(0.0, 1.0, 0.0, 1.0, h=1.0)
        lines = write_mesh(mesh).splitlines()
        # corrupt the first triangle line
        tri_header = lines.index("triangles 2")
        lines[tri_header + 1] = "0 1 bogus 0"
        with pytest.raises(ParseError) as err:
            read_mesh("\n".join(lines) + "\n")
        assert err.value.line == tri_header + 2

    @pytest.mark.parametrize("tag", [-5, 4, 9])
    def test_unknown_region_tag_raises_with_line(self, tag):
        lines = write_mesh(rectangle_mesh(0.0, 1.0, 0.0, 1.0, h=0.5)).splitlines()
        tri_header = next(i for i, line in enumerate(lines) if line.startswith("triangles"))
        corrupt = tri_header + 3
        lines[corrupt] = " ".join(lines[corrupt].split()[:3] + [str(tag)])
        with pytest.raises(ParseError, match=f"unknown region tag {tag}") as err:
            read_mesh("\n".join(lines) + "\n")
        assert err.value.line == corrupt + 1

    @pytest.mark.parametrize("tag", [-5, 4, 9])
    def test_validate_rejects_unknown_region_tag(self, tag):
        mesh = rectangle_mesh(0.0, 1.0, 0.0, 1.0, h=0.5)
        regions = mesh.regions.copy()
        regions[-1] = tag
        with pytest.raises(ValidationError, match=f"unknown region tag {tag}"):
            validate_mesh(Mesh(mesh.nodes, mesh.triangles, regions, mesh.boundary))

    @pytest.mark.parametrize("keyword", ["nodes", "triangles", "boundary"])
    @pytest.mark.parametrize("count", ["negative", "one-above-the-lines-left", "huge"])
    def test_bad_count_raises_at_its_line(self, keyword, count):
        lines = write_mesh(rectangle_mesh(0.0, 1.0, 0.0, 1.0, h=1.0)).splitlines()
        row = next(i for i, line in enumerate(lines) if line.startswith(keyword + " "))
        left = len(lines) - row - 1
        value = {"negative": -3, "one-above-the-lines-left": left + 1, "huge": 10**15}[count]
        lines[row] = f"{keyword} {value}"
        with pytest.raises(ParseError, match=f"^{keyword} count {value} is not between 0 and "
                                             f"the {left} lines left") as err:
            read_mesh("\n".join(lines) + "\n")
        assert err.value.line == row + 1

    def test_truncated_raises(self):
        with pytest.raises(ParseError):
            read_mesh("foilmesh v1\nnodes 2\n0.0 0.0\n")

    def test_invalid_mesh_rejected(self):
        # clockwise triangle -> negative area
        with pytest.raises(ValidationError):
            Mesh(
                np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                np.array([[0, 2, 1]]),
                np.array([0]),
                np.array([True, True, True]),
            ) and validate_mesh(
                Mesh(
                    np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                    np.array([[0, 2, 1]]),
                    np.array([0]),
                    np.array([True, True, True]),
                )
            )

    @settings(max_examples=20, deadline=None)
    @given(
        nr=st.integers(1, 4),
        nz=st.integers(1, 4),
        r0=st.floats(0.0, 5.0),
        scale=st.floats(0.1, 10.0),
    )
    def test_roundtrip_property(self, nr, nz, r0, scale):
        mesh = rectangle_mesh(r0, r0 + scale, 0.0, scale, h=scale / max(nr, nz))
        again = read_mesh(write_mesh(mesh))
        assert np.array_equal(again.nodes, mesh.nodes)
        assert np.array_equal(again.triangles, mesh.triangles)
