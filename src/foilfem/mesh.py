"""Structured triangular meshes of the axisymmetric (r, z) computational domain.

The simulation geometry is a gapped-core inductor cross-section: a closed
ferromagnetic yoke shell with a central limb on the symmetry axis, an air gap
cutting the limb at mid-height, and a foil winding sitting in the air window
between limb and outer yoke wall.  All regions are axis-aligned rectangles, so
the mesher grids the bounding box on a tensor grid whose tick sets include
every region breakline, then splits each cell into two triangles.  This keeps
the mesh conforming and fully deterministic, puts element edges along the
radial (winding stacking) direction, and reaches the desired node-count
classes by tuning the target edge length ``h``.

Mesh text format (ASCII, LF)::

    foilmesh v1
    nodes <n>
    <r> <z>              # n lines, decimal floats
    triangles <m>
    <i> <j> <k> <tag>    # m lines, CCW node indices + RegionTag value (0-3)
    boundary <b>
    <node index>         # b lines

Meshes are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import DegenerateGeometryError, ParseError, ValidationError

MAX_NODES = 2_000_000  # largest mesh generate_parametric_mesh builds


class RegionTag(IntEnum):
    AIR = 0
    YOKE = 1
    AIR_GAP = 2
    FOIL_WINDING = 3


@dataclass(frozen=True)
class Mesh:
    """Conforming triangle mesh with per-triangle region tags.

    ``nodes`` is ``(n, 2)`` float (r, z), ``triangles`` is ``(m, 3)`` int with
    counterclockwise orientation, ``regions`` is ``(m,)`` int (``RegionTag``
    values) and ``boundary`` is an ``(n,)`` bool flag for outer-boundary nodes.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    regions: np.ndarray
    boundary: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", _frozen(np.asarray(self.nodes, dtype=float)))
        object.__setattr__(self, "triangles", _frozen(np.asarray(self.triangles, dtype=np.int32)))
        object.__setattr__(self, "regions", _frozen(np.asarray(self.regions, dtype=np.int32)))
        object.__setattr__(self, "boundary", _frozen(np.asarray(self.boundary, dtype=bool)))

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    def triangle_areas(self) -> np.ndarray:
        p = self.nodes[self.triangles]
        return 0.5 * (
            (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
            - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
        )

    def region_area(self, tag) -> float:
        return float(self.triangle_areas()[self.regions == int(tag)].sum())

    def edge_counts(self) -> dict:
        """Map sorted edge -> number of adjacent triangles, edges in ascending order."""
        edges, _, _, counts = _edge_table(self.triangles)
        return dict(zip(map(tuple, edges.tolist()), counts.tolist()))


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _edge_keys(triangles: np.ndarray):
    """Key ``a * n + b`` of every edge occurrence ``(ab, bc, ca)`` of each triangle, ``a < b``.

    Returns the keys and ``n``, one more than the largest node index.
    """
    t = triangles.astype(np.int64)
    a, b = t.reshape(-1), t[:, [1, 2, 0]].reshape(-1)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    n = int(hi.max()) + 1 if hi.size else 1
    return lo * n + hi, n


def _edge_table(triangles: np.ndarray):
    """One ``np.unique`` pass over the edge occurrences ``(ab, bc, ca)`` of each triangle.

    Returns the ascending sorted node pairs ``(k, 2)``, each one's first
    occurrence, the edge of every occurrence and the adjacent-triangle counts.
    """
    keys, n = _edge_keys(triangles)
    keys, first, inverse, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True
    )
    return np.column_stack([keys // n, keys % n]), first, inverse, counts


def validate_mesh(mesh: Mesh) -> None:
    """Raise :class:`ValidationError` when a mesh invariant is broken."""
    if mesh.nodes.ndim != 2 or mesh.nodes.shape[1] != 2:
        raise ValidationError("nodes must be (n, 2)")
    if not np.all(np.isfinite(mesh.nodes)):
        raise ValidationError("non-finite node coordinates")
    if np.any(mesh.nodes[:, 0] < 0.0):
        raise ValidationError("negative radius")
    if mesh.triangles.size:
        if mesh.triangles.min() < 0 or mesh.triangles.max() >= mesh.n_nodes:
            raise ValidationError("triangle node index out of range")
    if np.any(mesh.triangle_areas() <= 0.0):
        raise ValidationError("nonpositive triangle area (orientation must be CCW)")
    if mesh.regions.shape[0] != mesh.n_triangles:
        raise ValidationError("region tag count mismatch")
    unknown = mesh.regions[~np.isin(mesh.regions, list(RegionTag))]
    if unknown.size:
        raise ValidationError(f"unknown region tag {int(unknown[0])}")
    if mesh.boundary.shape[0] != mesh.n_nodes:
        raise ValidationError("boundary flag count mismatch")
    keys, n = _edge_keys(mesh.triangles)
    keys, counts = np.unique(keys, return_counts=True)
    bad = keys[counts > 2]
    if bad.size:
        edge = (int(bad[0] // n), int(bad[0] % n))
        raise ValidationError(f"non-conforming edge shared by >2 triangles: {edge}")
    on_boundary_edge = np.zeros(mesh.n_nodes, dtype=bool)
    single = keys[counts == 1]
    on_boundary_edge[single // n] = True
    on_boundary_edge[single % n] = True
    if not np.array_equal(on_boundary_edge, mesh.boundary):
        raise ValidationError("boundary flags do not match topological boundary")


@dataclass(frozen=True)
class GeometrySpec:
    """Axis-aligned cross-section geometry of the gapped-core test device.

    Lengths in meters.  The winding rectangle is vertically centered in the
    yoke, its radial thickness must equal turn count times foil pitch of the
    companion winding specification.
    """

    yoke_outer_radius: float
    yoke_height: float
    air_gap_length: float
    limb_radius: float
    window_outer_radius: float
    window_bottom: float
    window_top: float
    winding_inner_radius: float
    winding_thickness: float
    winding_height: float

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            if getattr(self, name) <= 0.0:
                raise ValidationError(f"{name} must be strictly positive")
        if not self.limb_radius < self.window_outer_radius < self.yoke_outer_radius:
            raise ValidationError("window must sit between limb and outer yoke wall")
        if not 0.0 < self.window_bottom < self.window_top < self.yoke_height:
            raise ValidationError("window must sit inside the yoke")
        w0, w1 = self.winding_z_bounds
        if not (
            self.limb_radius < self.winding_inner_radius
            and self.winding_outer_radius < self.window_outer_radius
            and self.window_bottom < w0
            and w1 < self.window_top
        ):
            raise ValidationError("winding rectangle must lie strictly inside the window")
        g0, g1 = self.gap_z_bounds
        if not (self.window_bottom < g0 and g1 < self.window_top):
            raise ValidationError("air gap must cut the limb inside the window height")

    @property
    def winding_outer_radius(self) -> float:
        return self.winding_inner_radius + self.winding_thickness

    @property
    def winding_z_bounds(self) -> tuple:
        zc = 0.5 * self.yoke_height
        return (zc - 0.5 * self.winding_height, zc + 0.5 * self.winding_height)

    @property
    def gap_z_bounds(self) -> tuple:
        zc = 0.5 * self.yoke_height
        return (zc - 0.5 * self.air_gap_length, zc + 0.5 * self.air_gap_length)

    def region_of(self, r, z) -> np.ndarray:
        """Region tags of interior points (not on a breakline).

        ``r`` and ``z`` are arrays (or scalars) of one broadcast shape; the
        result is an int array of :class:`RegionTag` values of that shape.
        The strict comparisons are tested in priority order: winding, air
        gap, air window, and the yoke for every other point.
        """
        r, z = np.asarray(r, dtype=float), np.asarray(z, dtype=float)
        w0, w1 = self.winding_z_bounds
        g0, g1 = self.gap_z_bounds
        inside = [
            (self.winding_inner_radius < r) & (r < self.winding_outer_radius) & (w0 < z) & (z < w1),
            (r < self.limb_radius) & (g0 < z) & (z < g1),
            (self.limb_radius < r) & (r < self.window_outer_radius)
            & (self.window_bottom < z) & (z < self.window_top),
        ]
        tags = [int(RegionTag.FOIL_WINDING), int(RegionTag.AIR_GAP), int(RegionTag.AIR)]
        return np.select(inside, tags, default=int(RegionTag.YOKE))


def _tick_count(breaks, h: float) -> float:
    """Number of ticks :func:`_ticks` makes, computed without making them.

    A float, so that a vanishing ``h`` counts as inf rather than overflowing.
    """
    gaps = np.diff(np.unique(np.asarray(breaks, dtype=float)))
    with np.errstate(over="ignore"):
        return 1.0 + float(np.maximum(1.0, np.ceil(gaps / h - 1e-12)).sum())


def _ticks(breaks, h: float) -> np.ndarray:
    """Subdivide each interval between consecutive breaklines at pitch <= h."""
    breaks = sorted(set(float(b) for b in breaks))
    out = [breaks[0]]
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        n = max(1, math.ceil((hi - lo) / h - 1e-12))
        for k in range(1, n):
            out.append(lo + (hi - lo) * k / n)
        out.append(hi)
    return np.asarray(out)


def tensor_mesh(r_ticks, z_ticks, region_of) -> Mesh:
    """Triangulate the tensor grid, tagging each triangle by its centroid.

    ``region_of(r, z)`` is called once on the centroid coordinate arrays; its
    result is broadcast to one tag per triangle, so a constant tag serves a
    single-region mesh.  Cells run r-fastest and split into ``(a, b, c)``,
    ``(a, c, d)`` from the lower-left corner ``a``, counterclockwise.
    """
    r_ticks = np.asarray(r_ticks, dtype=float)
    z_ticks = np.asarray(z_ticks, dtype=float)
    nr, nz = r_ticks.size, z_ticks.size
    if nr < 2 or nz < 2:
        raise DegenerateGeometryError("need at least a 2x2 tick grid")
    rr, zz = np.meshgrid(r_ticks, z_ticks)  # index [iz, ir]
    nodes = np.column_stack([rr.ravel(), zz.ravel()])
    ids = np.arange(nr * nz).reshape(nz, nr)
    a, b = ids[:-1, :-1], ids[:-1, 1:]
    d, c = ids[1:, :-1], ids[1:, 1:]
    triangles = np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)
    centroids = nodes[triangles].mean(axis=1)
    regions = np.broadcast_to(region_of(centroids[:, 0], centroids[:, 1]), triangles.shape[:1])
    boundary = np.ones((nz, nr), dtype=bool)
    boundary[1:-1, 1:-1] = False
    mesh = Mesh(nodes, triangles, regions, boundary.ravel())
    validate_mesh(mesh)
    return mesh


def rectangle_mesh(r0, r1, z0, z1, h, tag=RegionTag.AIR) -> Mesh:
    """Mesh a single axis-aligned rectangle (test domains, toy fixtures)."""
    if r1 <= r0 or z1 <= z0:
        raise DegenerateGeometryError("rectangle has nonpositive extent")
    return tensor_mesh(_ticks([r0, r1], h), _ticks([z0, z1], h), lambda r, z: tag)


def generate_parametric_mesh(geom: GeometrySpec, h: float) -> Mesh:
    """Mesh the full device cross-section at target edge length ``h``.

    Deterministic for fixed inputs; node count is nonincreasing in ``h``.
    A mesh of more than ``MAX_NODES`` nodes is rejected with a
    :class:`ValidationError` before any tick is made.
    Every region tick set contains the region breaklines, so the winding is
    meshed with at least one element layer per rectangle strip and at least
    two element columns across its radial thickness are guaranteed by adding
    the winding mid-radius as an extra breakline.
    """
    if h <= 0.0:
        raise ValueError("h must be positive")
    w0, w1 = geom.winding_z_bounds
    g0, g1 = geom.gap_z_bounds
    r_mid = geom.winding_inner_radius + 0.5 * geom.winding_thickness
    r_breaks = [
        0.0,
        geom.limb_radius,
        geom.winding_inner_radius,
        r_mid,
        geom.winding_outer_radius,
        geom.window_outer_radius,
        geom.yoke_outer_radius,
    ]
    z_breaks = [0.0, geom.window_bottom, w0, g0, g1, w1, geom.window_top, geom.yoke_height]
    n_r, n_z = _tick_count(r_breaks, h), _tick_count(z_breaks, h)
    if not n_r * n_z <= MAX_NODES:
        raise ValidationError(
            f"edge length h = {h:.4e} m gives {n_r:.3g} x {n_z:.3g} mesh nodes, "
            f"above the {MAX_NODES} node guard"
        )
    mesh = tensor_mesh(_ticks(r_breaks, h), _ticks(z_breaks, h), geom.region_of)
    present = set(np.flatnonzero(np.bincount(mesh.regions)).tolist())
    expected = {int(t) for t in RegionTag}
    if present != expected:
        missing = sorted(expected - present)
        raise DegenerateGeometryError(f"region(s) {missing} produced no elements")
    return mesh


def refine_uniform(mesh: Mesh) -> Mesh:
    """Split every triangle into four via edge midpoints; tags are inherited.

    Midpoints are numbered after the parent nodes in the order their edges are
    first met, triangle by triangle as ``(ab, bc, ca)``.
    """
    edges, first, inverse, counts = _edge_table(mesh.triangles)
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(mesh.n_nodes, mesh.n_nodes + order.size)
    mab, mbc, mca = number[inverse].reshape(-1, 3).T
    a, b, c = mesh.triangles.T
    triangles = np.stack([a, mab, mca, mab, b, mbc, mca, mbc, c, mab, mbc, mca], -1).reshape(-1, 3)
    ends = mesh.nodes[edges[order]]
    refined = Mesh(
        np.concatenate([mesh.nodes, 0.5 * (ends[:, 0] + ends[:, 1])]),
        triangles,
        np.repeat(mesh.regions, 4),
        np.concatenate([mesh.boundary, counts[order] == 1]),
    )
    validate_mesh(refined)
    return refined


def write_mesh(mesh: Mesh) -> str:
    """Serialize to the plain-text mesh format (exact float round-trip)."""
    lines = ["foilmesh v1", f"nodes {mesh.n_nodes}"]
    for r, z in mesh.nodes:
        lines.append(f"{float(r)!r} {float(z)!r}")
    lines.append(f"triangles {mesh.n_triangles}")
    for t, tag in zip(mesh.triangles, mesh.regions):
        lines.append(f"{t[0]} {t[1]} {t[2]} {tag}")
    idx = np.flatnonzero(mesh.boundary)
    lines.append(f"boundary {idx.size}")
    for i in idx:
        lines.append(str(int(i)))
    return "\n".join(lines) + "\n"


def read_mesh(text: str) -> Mesh:
    """Parse the plain-text mesh format; inverse of :func:`write_mesh`.

    Raises :class:`ParseError` with the line of the first malformed entry, a
    region tag outside :class:`RegionTag` included, and
    :class:`ValidationError` when the parsed mesh breaks an invariant of
    :func:`validate_mesh`.
    """
    lines = text.splitlines()
    pos = 0

    def take(expected=None):
        nonlocal pos
        if pos >= len(lines):
            raise ParseError("unexpected end of input", line=pos + 1)
        raw = lines[pos]
        pos += 1
        if expected is not None and raw.strip() != expected:
            raise ParseError(f"expected {expected!r}", line=pos)
        return raw.strip(), pos

    def take_count(keyword):
        raw, ln = take()
        parts = raw.split()
        if len(parts) != 2 or parts[0] != keyword:
            raise ParseError(f"expected '{keyword} <count>'", line=ln)
        try:
            count = int(parts[1])
        except ValueError as exc:
            raise ParseError(f"bad count {parts[1]!r}", line=ln) from exc
        if not 0 <= count <= len(lines) - pos:
            raise ParseError(
                f"{keyword} count {count} is not between 0 and the {len(lines) - pos} lines left",
                line=ln,
            )
        return count, ln

    take("foilmesh v1")
    n, _ = take_count("nodes")
    nodes = np.empty((n, 2))
    for i in range(n):
        raw, ln = take()
        parts = raw.split()
        if len(parts) != 2:
            raise ParseError("node line needs 'r z'", line=ln)
        try:
            nodes[i] = (float(parts[0]), float(parts[1]))
        except ValueError as exc:
            raise ParseError(f"bad coordinate in {raw!r}", line=ln) from exc
    m, triangles_line = take_count("triangles")
    tris = np.empty((m, 3), dtype=np.int32)
    tags = np.empty(m, dtype=np.int32)
    for i in range(m):
        raw, ln = take()
        parts = raw.split()
        if len(parts) != 4:
            raise ParseError("triangle line needs 'i j k tag'", line=ln)
        try:
            vals = [int(p) for p in parts]
        except ValueError as exc:
            raise ParseError(f"bad index in {raw!r}", line=ln) from exc
        tris[i] = vals[:3]
        tags[i] = vals[3]
    unknown = np.flatnonzero(~np.isin(tags, list(RegionTag)))
    if unknown.size:
        i = int(unknown[0])
        raise ParseError(f"unknown region tag {tags[i]}", line=triangles_line + 1 + i)
    b, _ = take_count("boundary")
    boundary = np.zeros(n, dtype=bool)
    for _ in range(b):
        raw, ln = take()
        try:
            idx = int(raw)
        except ValueError as exc:
            raise ParseError(f"bad boundary index {raw!r}", line=ln) from exc
        if not 0 <= idx < n:
            raise ParseError(f"boundary index {idx} out of range", line=ln)
        boundary[idx] = True
    while pos < len(lines):
        raw, ln = take()
        if raw:
            raise ParseError(f"trailing content {raw!r}", line=ln)
    mesh = Mesh(nodes, tris, tags, boundary)
    validate_mesh(mesh)
    return mesh
