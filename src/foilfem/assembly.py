"""First-order FE assembly for the axisymmetric magnetoquasistatic problem.

Formulation
-----------
The unknown is the scaled azimuthal vector potential ``A' = r * A_phi``,
discretized with P1 nodal hats ``w'`` on triangles in the (r, z) plane.  The
flux density components are ``B_r = -(1/r) dA'/dz`` and ``B_z = (1/r) dA'/dr``,
so with an anisotropic reluctivity pair (radial, axial) the curl-curl energy
becomes::

    K_ij = 2*pi * int (1/r) [ nu_r dz(w'_j) dz(w'_i) + nu_z dr(w'_j) dr(w'_i) ] dr dz

and the conduction (mass) term, with only the azimuthal conductivity active,::

    M_ij = 2*pi * int (sigma/r) w'_j w'_i dr dz

The 2*pi azimuthal factor is included so currents, voltages and inductances
come out in physical units.  The 1/r weight is evaluated at interior
quadrature points; together with the ``A' = r A_phi`` substitution this keeps
elements touching the axis regular (the Dirichlet condition fixes A' = 0 on
the axis anyway).

The element data that depends only on the mesh (triangle areas and
quadrature-point radii) is computed once per discretization, in
:meth:`FieldDiscretization.from_mesh`, and every kernel indexes into it; the
arrays are bit-identical to computing them afresh in each kernel.  The
conduction term's data is formed once per build, with one conductivity lookup,
by :meth:`Conduction.of`; a region's is a row subset of it.

Assembly is batched over elements and bit-identical to a per-element loop
(the reference forms are in ``tests/oracles.py``): element matrices come from
elementwise arithmetic, the mass-like element matrices are one stacked
row-vector ``np.matmul`` of each element's quadrature weights with the hat
products (the 2-D ``w @ hat_products`` is a gemm, which reorders the quadrature
sum and moves the last bits; the stacked row-vector product does not), and
:func:`_scatter` feeds one COO accumulation in element-major ``(e, a, b)``
order, so duplicates are summed in a fixed order.  The hat products are bitwise
symmetric, so K and M are exactly symmetric.

:func:`_scatter` drops the entries of constrained DoFs with one ``np.compress``
over the flattened ``(n_blocks, m * 9)`` values, hands scipy int32 COO indices
(scipy narrows wider ones to int32 anyway), stacks block offsets only when
there is more than one block, and converts with ``coo.tocsr()``, which already
sums the duplicates and sorts the columns, followed by ``eliminate_zeros()``;
the result is the canonical CSR matrix of :func:`foilfem.linalg.canonical_csr`
without its extra copy.  Material values are looked up once per region tag
present (found with ``np.bincount``) and spread to the elements through a
per-tag table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh, RegionTag

# The degree-4 barycentric quadrature rule on the reference triangle (6 points); its
# weights sum to 1.  Every assembly routine integrates with it.
_W1, _A1 = 0.223381589678011, 0.445948490915965
_W2, _A2 = 0.109951743655322, 0.091576213509771
QUADRATURE_RULE = (
    np.array(
        [
            [1.0 - 2.0 * _A1, _A1, _A1],
            [_A1, 1.0 - 2.0 * _A1, _A1],
            [_A1, _A1, 1.0 - 2.0 * _A1],
            [1.0 - 2.0 * _A2, _A2, _A2],
            [_A2, 1.0 - 2.0 * _A2, _A2],
            [_A2, _A2, 1.0 - 2.0 * _A2],
        ]
    ),
    np.array([_W1, _W1, _W1, _W2, _W2, _W2]),
)
TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class RegionMaterial:
    """Material of one region.

    ``sigma`` is the azimuthal conductivity in S/m, the only component that
    drives eddy currents in this formulation; ``nu`` is the (radial, axial)
    reluctivity pair in m/H.
    """

    sigma: float = 0.0
    nu: tuple = (1.0, 1.0)

    def __post_init__(self):
        if self.sigma < 0.0:
            raise ValueError("conductivity must be nonnegative")
        if min(self.nu) <= 0.0:
            raise ValueError("reluctivity must be strictly positive")

    @classmethod
    def isotropic(cls, sigma: float, nu: float) -> "RegionMaterial":
        return cls(sigma=sigma, nu=(nu, nu))


@dataclass(frozen=True)
class MaterialSpec:
    """Per-region material table keyed by :class:`RegionTag` values."""

    regions: Mapping[int, RegionMaterial]

    def material(self, tag: int) -> RegionMaterial:
        try:
            return self.regions[int(tag)]
        except KeyError as exc:
            raise KeyError(f"no material for region tag {tag}") from exc


@dataclass(frozen=True)
class FieldDiscretization:
    """Node-to-DoF map with Dirichlet nodes excluded, and the element data of its mesh.

    ``dof_index[node] == -1`` marks a constrained node: the outer boundary
    carries ``A' = 0``.  Free nodes are numbered consecutively in node order.
    ``areas`` is the ``(m,)`` triangle areas and ``quad_r`` the ``(m, q)`` radii
    of each element's points of :data:`QUADRATURE_RULE`; every kernel indexes
    into them.  No kernel reads the axial coordinate of a quadrature point: the
    conductivities are constant per element and the voltage profiles vary only
    with the radius.
    """

    dof_index: np.ndarray
    n_dofs: int
    areas: np.ndarray
    quad_r: np.ndarray

    @classmethod
    def from_mesh(cls, mesh: Mesh):
        dof = np.full(mesh.n_nodes, -1, dtype=np.int64)
        free = np.flatnonzero(~mesh.boundary)
        dof[free] = np.arange(free.size)
        areas = mesh.triangle_areas()
        quad_r = _quad_radii(mesh)
        for a in (dof, areas, quad_r):
            a.setflags(write=False)
        return cls(dof_index=dof, n_dofs=int(free.size), areas=areas, quad_r=quad_r)


def _quad_radii(mesh: Mesh) -> np.ndarray:
    """The radius of every element's quadrature points, ``(m, q)``.

    Point ``q`` is ``sum_a bary[q, a] * corner_a``, summed left to right as a
    per-element loop sums it.
    """
    bary = QUADRATURE_RULE[0]
    c = mesh.nodes[:, 0][mesh.triangles.T]  # (3, m)
    points = bary[:, 0, None] * c[0] + bary[:, 1, None] * c[1] + bary[:, 2, None] * c[2]
    return np.ascontiguousarray(points.T)


def _hat_gradients(mesh: Mesh, det: np.ndarray):
    """Per-element P1 hat gradients (d/dr, d/dz); ``det`` is twice each element's area."""
    p = mesh.nodes[mesh.triangles]
    r1, z1 = p[:, 0, 0], p[:, 0, 1]
    r2, z2 = p[:, 1, 0], p[:, 1, 1]
    r3, z3 = p[:, 2, 0], p[:, 2, 1]
    grad_r = np.stack([(z2 - z3), (z3 - z1), (z1 - z2)], axis=1) / det[:, None]
    grad_z = np.stack([(r3 - r2), (r1 - r3), (r2 - r1)], axis=1) / det[:, None]
    return grad_r, grad_z


def _per_element(regions: np.ndarray, materials: MaterialSpec, pick) -> np.ndarray:
    """``pick(material)`` for every element, looked up once per region tag present."""
    if regions.size and regions.min() < 0:
        raise KeyError(f"no material for region tag {regions.min()}")
    counts = np.bincount(regions)
    table = np.zeros(counts.size)
    tags = np.flatnonzero(counts)
    table[tags] = [pick(materials.material(tag)) for tag in tags]
    return table[regions]


def _scatter(idx: np.ndarray, vals: np.ndarray, n_dofs: int) -> sp.csr_matrix:
    """Sum element matrices into a canonical CSR matrix of ``n_blocks`` stacked blocks.

    ``idx`` is ``(m, 3)`` DoF indices (-1 for a constrained node) and ``vals``
    is ``(n_blocks, m, 9)``.  Block ``k`` fills rows ``k * n_dofs`` onward.
    Entries enter the COO in element-major ``(e, a, b)`` order.
    """
    n_blocks = vals.shape[0]
    shape = (n_blocks * n_dofs, n_dofs)
    idx = idx.astype(np.int32 if max(shape) <= np.iinfo(np.int32).max else np.int64)
    rows, cols = np.repeat(idx, 3, axis=1).ravel(), np.tile(idx, 3).ravel()
    keep = (rows >= 0) & (cols >= 0)
    rows, cols = rows[keep], cols[keep]
    data = np.compress(keep, vals.reshape(n_blocks, -1), axis=1).ravel()
    if n_blocks > 1:
        rows = (n_dofs * np.arange(n_blocks, dtype=idx.dtype)[:, None] + rows).ravel()
        cols = np.tile(cols, n_blocks)
    csr = sp.coo_matrix((data, (rows, cols)), shape=shape).tocsr()
    csr.eliminate_zeros()
    return csr


def assemble_stiffness(mesh: Mesh, materials: MaterialSpec, disc: FieldDiscretization) -> sp.csr_matrix:
    """Curl-curl stiffness matrix; symmetric positive semidefinite.

    The element matrix ``2 pi area <1/r> (nu_r gz gz^T + nu_z gr gr^T)``, with
    ``<1/r>`` the quadrature mean of ``1/r``, is built in place in one
    ``(m, 3, 3)`` buffer.
    """
    grad_r, grad_z = _hat_gradients(mesh, 2.0 * disc.areas)
    weights = QUADRATURE_RULE[1]
    inv_r = np.einsum("q,mq->m", weights, 1.0 / disc.quad_r)
    ke = grad_z[:, :, None] * grad_z[:, None, :]
    ke *= _per_element(mesh.regions, materials, lambda mat: mat.nu[0])[:, None, None]
    gr_gr = grad_r[:, :, None] * grad_r[:, None, :]
    gr_gr *= _per_element(mesh.regions, materials, lambda mat: mat.nu[1])[:, None, None]
    ke += gr_gr
    ke *= (TWO_PI * disc.areas * inv_r)[:, None, None]
    return _scatter(disc.dof_index[mesh.triangles], ke.reshape(1, -1, 9), disc.n_dofs)


def conductivities(mesh: Mesh, materials: MaterialSpec) -> np.ndarray:
    """The azimuthal conductivity of every element."""
    return _per_element(mesh.regions, materials, lambda mat: mat.sigma)


@dataclass(frozen=True)
class Conduction:
    """Quadrature data of a set of conductive elements.

    ``elements`` holds the element indices, ``r`` their ``(m, q)`` quadrature radii,
    ``w_eff = w_q * sigma / r_q`` and ``scale = 2*pi*area``.  An element's mass
    entry weighted by the per-point factors ``f`` is
    ``scale * sum_q w_eff * f * N_a * N_b``.
    """

    elements: np.ndarray
    r: np.ndarray
    w_eff: np.ndarray
    scale: np.ndarray

    @classmethod
    def of(cls, mesh: Mesh, materials: MaterialSpec, disc: FieldDiscretization) -> "Conduction":
        """Every element of nonzero conductivity."""
        sigma = conductivities(mesh, materials)
        elements = np.flatnonzero(sigma != 0.0)
        r = disc.quad_r[elements]
        w_eff = QUADRATURE_RULE[1] * sigma[elements][:, None] / r
        return cls(elements, r, w_eff, TWO_PI * disc.areas[elements])

    def region(self, mesh: Mesh, tag: int) -> "Conduction":
        """The elements of region ``tag``, a row subset."""
        keep = mesh.regions[self.elements] == tag
        return Conduction(self.elements[keep], self.r[keep], self.w_eff[keep], self.scale[keep])

    def masses(self, mesh: Mesh, disc: FieldDiscretization, factors=None) -> sp.csr_matrix:
        """The conduction mass over these elements, or with ``factors``, an
        ``(n, m, q)`` array of per-point weights, its ``n`` weighted blocks stacked
        vertically into one ``(n * n_dofs, n_dofs)`` matrix."""
        bary = QUADRATURE_RULE[0]
        hat_products = (bary[:, :, None] * bary[:, None, :]).reshape(-1, 9)
        w = self.w_eff[None] if factors is None else self.w_eff * factors
        vals = np.matmul(w[..., None, :], hat_products)[..., 0, :]
        vals *= self.scale[:, None]
        return _scatter(disc.dof_index[mesh.triangles[self.elements]], vals, disc.n_dofs)


def assemble_mass(mesh: Mesh, disc: FieldDiscretization, conduction: Conduction) -> sp.csr_matrix:
    """Conduction mass matrix over the elements of ``conduction``."""
    return conduction.masses(mesh, disc)


def assemble_modified_mass(
    mesh: Mesh,
    materials: MaterialSpec,
    disc: FieldDiscretization,
    profile: Callable[[np.ndarray], np.ndarray],
) -> sp.csr_matrix:
    """Winding mass matrix weighted by one voltage-basis profile ``profile(r)``."""
    winding = Conduction.of(mesh, materials, disc).region(mesh, RegionTag.FOIL_WINDING)
    return winding.masses(mesh, disc, profile(winding.r)[None])


def assemble_double_modified_mass(
    mesh: Mesh,
    materials: MaterialSpec,
    disc: FieldDiscretization,
    profile_k: Callable[[np.ndarray], np.ndarray],
    profile_l: Callable[[np.ndarray], np.ndarray],
) -> sp.csr_matrix:
    """Winding mass matrix weighted by a product of two voltage-basis profiles."""
    return assemble_modified_mass(mesh, materials, disc, lambda r: profile_k(r) * profile_l(r))
