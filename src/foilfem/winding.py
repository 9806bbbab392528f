"""Foil-winding homogenization and field-circuit coupling blocks.

A foil winding of ``N`` turns is modeled as a homogenized anisotropic block.
The azimuthal distribution field spreads the terminal current over the block
with unit line integral along every closed azimuthal path; in the
``A' = r A_phi`` discretization its coefficient vector is the constant nodal
profile ``1 / (2 pi)`` on winding nodes, so it is represented exactly in the
FE space.  The voltage profile across the winding thickness is expanded in a
small 1D basis (Legendre polynomials by default, nodal hats as an
alternative), giving the coupling column block ``X``, the turn-count vector
``c`` and two variants of the turn-by-turn conductance matrix:

* the original ``G``, the natural quadratic form of the profile products,
  in two forms:

  - exact (:func:`assemble_G_exact`): the paper's integral along the stack,
    free of the FE mesh; ``fig5`` runs it as the original variant;
  - quadrature-consistent (:func:`assemble_G_original`, the ``G`` of
    :class:`AssembledFoilSystem`): ``x^T M^(kl) x`` summed directly over the
    quadrature points of ``M`` and ``X``; the classification, the netlist
    ``MODE G`` and the PSD checks use it;

* ``G_e`` from the source-field coefficients ``e_l`` solving
  ``M e_l = M^(l) x`` on the conductive support, i.e. the mass pseudo-inverse
  applied column-wise; equivalently ``G_e = X^T pinv(M) X``.

With the quadrature-consistent ``G``, ``G - G_e`` is a Gram matrix of FE
projection residuals, hence positive semidefinite on every mesh, shrinking
under refinement.  With the exact ``G`` it can be indefinite on a coarse mesh
(the circuit inconsistency that ``G_e`` removes); the quadrature form converges
to the exact one under refinement.

:func:`assemble_foil_system` derives the conduction data once: one
:class:`~foilfem.assembly.Conduction` of the conductive elements gives ``M``
and the conductive support, and its winding rows, with the voltage basis
evaluated once on their quadrature radii, give ``X`` and ``G``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import (
    QUADRATURE_RULE,
    Conduction,
    FieldDiscretization,
    MaterialSpec,
    RegionMaterial,
    assemble_mass,
    assemble_stiffness,
)
from .errors import EmptyWindingError, ValidationError
from .linalg import RestrictedSpdSolver, canonical_csr, max_abs, rank
from .mesh import Mesh, RegionTag

MU0 = 4.0e-7 * math.pi
TWO_PI = 2.0 * math.pi
# Gauss-Legendre points per polynomial piece of the exact conductance integrand.
_EXACT_G_GAUSS_POINTS = 32
BASIS_FAMILIES = ("legendre", "hat")
MODES = ("G", "Ge", "SOLID")  # the conductance variants a foil element runs with


@dataclass(frozen=True)
class FoilWindingSpec:
    """Geometry and materials of one homogenized foil winding.

    ``foil_pitch`` is the per-turn period across the stacking direction; the
    conductor occupies ``fill_factor * foil_pitch`` of it.  The winding block
    spans ``n_turns * foil_pitch`` radially starting at ``inner_radius`` and
    ``height`` axially.  The foils conduct with ``sigma_c`` and are separated
    by nonconducting insulation; both have the vacuum reluctivity.
    """

    n_turns: int
    fill_factor: float
    foil_pitch: float
    height: float
    inner_radius: float
    sigma_c: float

    def __post_init__(self):
        if self.n_turns < 1:
            raise ValidationError("need at least one turn")
        if not 0.0 < self.fill_factor <= 1.0:
            raise ValidationError("fill factor must be in (0, 1]")
        if min(self.foil_pitch, self.height, self.inner_radius) <= 0.0:
            raise ValidationError("winding dimensions must be positive")
        if self.sigma_c < 0.0:
            raise ValidationError("conductivity must be nonnegative")

    @property
    def radial_extent(self) -> float:
        return self.n_turns * self.foil_pitch

    @property
    def mid_radius(self) -> float:
        return self.inner_radius + 0.5 * self.radial_extent

    def alpha_normalized(self, r):
        """Map radius to the normalized stacking coordinate in [-1, 1]."""
        return (np.asarray(r) - self.mid_radius) / (0.5 * self.radial_extent)


def homogenize_materials(fill_factor, sigma_c) -> RegionMaterial:
    """Anisotropic mixing rule for the homogenized winding block.

    The foils conduct with ``sigma_c`` and fill ``fill_factor`` of the stack;
    the insulation between them is nonconducting, and both have the vacuum
    reluctivity ``nu0 = 1 / MU0``.  Across the stack (radial) no current flows;
    along the foils the conductivity is ``fill_factor * sigma_c``.  Reluctivity
    mixes linearly across the stack and harmonically along it.  Both mixes are
    written out in full rather than as ``nu0``: at some fill factors they round
    an ulp away from it (the harmonic one does at 0.8), and the stiffness keeps
    those bits.
    """
    lam = fill_factor
    if not 0.0 < lam <= 1.0:
        raise ValidationError("fill factor must be in (0, 1]")
    nu0 = 1.0 / MU0
    sigma_beta = lam * sigma_c
    nu_alpha = lam * nu0 + (1.0 - lam) * nu0
    nu_beta = 1.0 / (lam / nu0 + (1.0 - lam) / nu0)
    return RegionMaterial(sigma=sigma_beta, nu=(nu_alpha, nu_beta))


def device_materials(spec: FoilWindingSpec, yoke_sigma: float, yoke_mu_r: float) -> MaterialSpec:
    """Material table of the gapped-core device; the yoke has conductivity
    ``yoke_sigma`` and relative permeability ``yoke_mu_r``."""
    nu_air = 1.0 / MU0
    return MaterialSpec(
        {
            int(RegionTag.AIR): RegionMaterial.isotropic(0.0, nu_air),
            int(RegionTag.AIR_GAP): RegionMaterial.isotropic(0.0, nu_air),
            int(RegionTag.YOKE): RegionMaterial.isotropic(yoke_sigma, 1.0 / (MU0 * yoke_mu_r)),
            int(RegionTag.FOIL_WINDING): homogenize_materials(spec.fill_factor, spec.sigma_c),
        }
    )


@dataclass(frozen=True)
class VoltageBasis:
    """1D basis for the voltage profile over the normalized stacking coordinate.

    ``legendre`` uses Legendre polynomials of degree ``0 .. n-1`` (the
    constant is the first function, which makes the solid-conductor limit and
    the turn-count vector analytically checkable).  ``hat`` uses nodal hats on
    a uniform grid over [-1, 1]; a single hat degenerates to the constant.
    """

    n_functions: int
    family: str = "legendre"

    def __post_init__(self):
        if self.n_functions < 1:
            raise ValidationError("need at least one basis function")
        if self.family not in BASIS_FAMILIES:
            raise ValidationError(f"unknown basis family {self.family!r}")

    def eval(self, l: int, alpha):
        """Evaluate basis function ``l`` at normalized coordinate(s)."""
        if not 0 <= l < self.n_functions:
            raise IndexError(f"basis index {l} out of range")
        alpha = np.asarray(alpha, dtype=float)
        if self.family == "legendre":
            coeffs = np.zeros(l + 1)
            coeffs[l] = 1.0
            return np.polynomial.legendre.legval(alpha, coeffs)
        if self.n_functions == 1:
            return np.ones_like(alpha)
        nodes = np.linspace(-1.0, 1.0, self.n_functions)
        h = nodes[1] - nodes[0]
        return np.clip(1.0 - np.abs(alpha - nodes[l]) / h, 0.0, None)

    def values(self, alpha) -> np.ndarray:
        """Every basis function at normalized coordinate(s), stacked on a new first axis."""
        return np.stack([self.eval(l, alpha) for l in range(self.n_functions)])

    def integrals(self) -> np.ndarray:
        """Exact integrals over [-1, 1] of every basis function."""
        if self.family == "legendre":
            out = np.zeros(self.n_functions)
            out[0] = 2.0
            return out
        if self.n_functions == 1:
            return np.array([2.0])
        h = 2.0 / (self.n_functions - 1)
        out = np.full(self.n_functions, h)
        out[0] = out[-1] = 0.5 * h
        return out


def _marked_nodes(mesh: Mesh, elements: np.ndarray) -> np.ndarray:
    """Boolean ``(n_nodes,)`` flag of the nodes of the chosen elements."""
    marked = np.zeros(mesh.n_nodes, dtype=bool)
    marked[mesh.triangles[elements]] = True
    return marked


def winding_nodes(mesh: Mesh) -> np.ndarray:
    """Ascending indices of the nodes of winding-tagged elements."""
    nodes = np.flatnonzero(_marked_nodes(mesh, mesh.regions == int(RegionTag.FOIL_WINDING)))
    if nodes.size == 0:
        raise EmptyWindingError("mesh has no winding-tagged elements")
    return nodes


def distribution_coefficients(mesh: Mesh, disc: FieldDiscretization) -> np.ndarray:
    """Coefficient vector of the azimuthal distribution field.

    In the ``A' = r A_phi`` convention the field with unit azimuthal line
    integral is the constant ``1 / (2 pi)`` on every winding node, zero
    elsewhere, so it lies exactly in the FE space restricted to the
    conductive support.
    """
    x = np.zeros(disc.n_dofs)
    dofs = disc.dof_index[winding_nodes(mesh)]
    x[dofs[dofs >= 0]] = 1.0 / TWO_PI
    return x


def conductive_support(mesh: Mesh, disc: FieldDiscretization, conduction: Conduction) -> np.ndarray:
    """DoF indices adjacent to at least one element of ``conduction``."""
    dofs = disc.dof_index[_marked_nodes(mesh, conduction.elements)]  # ascending: node order
    return dofs[dofs >= 0].astype(np.intp, copy=False)


def assemble_c(n_turns: int, basis: VoltageBasis) -> np.ndarray:
    """Turn-count vector: (N / 2) times the exact basis integrals."""
    return 0.5 * n_turns * basis.integrals()


def assemble_X(
    mesh: Mesh, disc: FieldDiscretization, winding: Conduction, phi: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Coupling block: column ``l`` is ``M^(l) x``, one matvec on the stacked ``M^(l)``,
    the winding masses weighted by the ``(n, m, q)`` basis values ``phi``."""
    stacked = winding.masses(mesh, disc, phi)
    return np.ascontiguousarray((stacked @ x).reshape(len(phi), disc.n_dofs).T)


def assemble_G_original(
    mesh: Mesh, disc: FieldDiscretization, winding: Conduction, phi: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Turn-by-turn conductance ``G_kl = x^T M^(kl) x`` as the direct quadrature sum
    ``sum_e 2 pi area_e sum_q w_q sigma phi_k phi_l x_q^2 / r_q`` over the winding."""
    nodal = np.where(disc.dof_index >= 0, np.asarray(x)[disc.dof_index], 0.0)
    x_q = nodal[mesh.triangles[winding.elements]] @ QUADRATURE_RULE[0].T
    g = np.einsum("kmq,lmq,mq->kl", phi, phi, winding.scale[:, None] * winding.w_eff * x_q**2)
    return 0.5 * (g + g.T)


def assemble_G_exact(spec: FoilWindingSpec, basis: VoltageBasis) -> np.ndarray:
    """The paper's original conductance, without a mesh:
    ``G_kl = sigma_beta H / (2 pi) int_{r_i}^{r_o} phi_k phi_l / r dr``.

    Between the kinks of the basis (the hat nodes; none for Legendre) the
    profiles are polynomials in ``r``, so ``_EXACT_G_GAUSS_POINTS``
    Gauss-Legendre points per piece integrate ``phi_k phi_l / r`` to round-off.
    ``sigma_beta`` is the homogenized conductivity along the foils and ``H``
    the winding height.
    """
    sigma_beta = homogenize_materials(spec.fill_factor, spec.sigma_c).sigma
    n_pieces = max(basis.n_functions - 1, 1) if basis.family == "hat" else 1
    kinks = np.linspace(-1.0, 1.0, n_pieces + 1)
    nodes, weights = np.polynomial.legendre.leggauss(_EXACT_G_GAUSS_POINTS)
    half = 0.5 * np.diff(kinks)[:, None]
    alpha = (0.5 * (kinks[:-1] + kinks[1:])[:, None] + half * nodes).ravel()
    r = spec.mid_radius + 0.5 * spec.radial_extent * alpha
    w = (half * weights).ravel() * (0.5 * spec.radial_extent) / r
    phi = basis.values(alpha)
    g = (sigma_beta * spec.height / TWO_PI) * ((phi * w) @ phi.T)
    return 0.5 * (g + g.T)


def assemble_G_consistent(M: sp.csr_matrix, X: np.ndarray, support: np.ndarray):
    """FE-space-consistent conductance via the mass pseudo-inverse.

    Solves ``M e_l = X[:, l]`` on the conductive support for every column, in
    one multi-column solve, and returns ``(G_e, E)`` with ``G_e = X^T E``
    symmetrized by averaging.
    """
    E = RestrictedSpdSolver(M, support).solve(X)
    ge = X.T @ E
    ge = 0.5 * (ge + ge.T)
    return ge, E


@dataclass(frozen=True)
class AssembledFoilSystem:
    """All discrete blocks of one foil winding on one mesh."""

    K: sp.csr_matrix
    M: sp.csr_matrix
    X: np.ndarray
    G: np.ndarray
    G_e: np.ndarray
    c: np.ndarray
    x: np.ndarray
    E: np.ndarray
    support: np.ndarray

    @property
    def n_dofs(self) -> int:
        return self.K.shape[0]

    @property
    def n_basis(self) -> int:
        return self.c.shape[0]

    def conductance(self, mode: str) -> np.ndarray:
        if mode == "G":
            return self.G
        if mode == "Ge":
            return self.G_e
        raise ValueError(f"unknown conductance mode {mode!r}")


def assemble_foil_system(
    mesh: Mesh,
    materials: MaterialSpec,
    disc: FieldDiscretization,
    spec: FoilWindingSpec,
    basis: VoltageBasis,
) -> AssembledFoilSystem:
    """Assemble stiffness, mass, coupling blocks and both conductances.

    Raises :class:`ValidationError` (``key="n_basis"``) when the mesh resolves fewer voltage
    basis functions than ``n_basis``: a rank-deficient ``X`` makes ``G_e = X^T M^+ X``
    singular, and every transient and classification with it fails.
    """
    k = assemble_stiffness(mesh, materials, disc)
    conduction = Conduction.of(mesh, materials, disc)
    m = assemble_mass(mesh, disc, conduction)
    support = conductive_support(mesh, disc, conduction)
    winding = conduction.region(mesh, RegionTag.FOIL_WINDING)
    del conduction  # X's assembly is the build's memory peak; it reads only the winding
    phi = basis.values(spec.alpha_normalized(winding.r))
    x = distribution_coefficients(mesh, disc)
    big_x = assemble_X(mesh, disc, winding, phi, x)
    resolved = rank(big_x, 1e-10)  # the tolerance of the classify report's rank(X)
    if resolved < basis.n_functions:
        raise ValidationError(
            f"n_basis = {basis.n_functions} exceeds rank(X) = {resolved} on a mesh of "
            f"{mesh.n_nodes} nodes ({disc.n_dofs} DoFs); use a finer mesh (mesh_level) or a "
            "smaller n_basis",
            key="n_basis",
        )
    c = assemble_c(spec.n_turns, basis)
    g = assemble_G_original(mesh, disc, winding, phi, x)
    ge, e = assemble_G_consistent(m, big_x, support)
    return AssembledFoilSystem(K=k, M=m, X=big_x, G=g, G_e=ge, c=c, x=x, E=e, support=support)


@dataclass(frozen=True)
class SolidSystem:
    """Classic solid-conductor coupling (single voltage unknown)."""

    K: sp.csr_matrix
    M: sp.csr_matrix
    x_sol: np.ndarray
    G_sol: float

    @property
    def n_dofs(self) -> int:
        return self.K.shape[0]


def build_solid_system(
    mesh: Mesh, materials: MaterialSpec, disc: FieldDiscretization
) -> SolidSystem:
    """Solid-conductor reduction of the winding region: ``x_sol = M x`` and
    scalar ``G_sol = x^T M x``."""
    k = assemble_stiffness(mesh, materials, disc)
    m = assemble_mass(mesh, disc, Conduction.of(mesh, materials, disc))
    x = distribution_coefficients(mesh, disc)
    x_sol = m @ x
    return SolidSystem(K=k, M=m, x_sol=x_sol, G_sol=float(x @ x_sol))


def solid_from_foil(sys: AssembledFoilSystem) -> SolidSystem:
    """Collapse a foil system to its solid-conductor equivalent."""
    x_sol = sys.M @ sys.x
    return SolidSystem(K=sys.K, M=sys.M, x_sol=x_sol, G_sol=float(sys.x @ x_sol))


def save_system(path, sys: AssembledFoilSystem) -> None:
    """Serialize a foil system to an npz archive."""
    payload = {
        "K_data": sys.K.data, "K_indices": sys.K.indices, "K_indptr": sys.K.indptr,
        "K_shape": np.asarray(sys.K.shape),
        "M_data": sys.M.data, "M_indices": sys.M.indices, "M_indptr": sys.M.indptr,
        "M_shape": np.asarray(sys.M.shape),
        "X": sys.X, "G": sys.G, "G_e": sys.G_e, "c": sys.c, "x": sys.x,
        "E": sys.E, "support": sys.support,
    }
    np.savez(path, **payload)


def load_system(path) -> AssembledFoilSystem:
    """Load a foil system saved by :func:`save_system`.

    Raises :class:`ValidationError`, naming the file and the array, when an
    array is missing or the blocks do not fit together: K and M well-formed
    CSR (every index in bounds), square and of one size; X with a row per DoF
    and a column per entry of ``c``; ``x`` of shape ``(n,)``; G and G_e
    ``(n_basis, n_basis)`` and symmetric; E ``(n, n_basis)``; K, M, X, ``c``,
    ``x``, G, G_e and E finite; ``support`` a strictly increasing vector of
    DoF indices in ``[0, n)``.
    """

    def invalid(message):
        return ValidationError(f"{path}: {message}")

    with np.load(path) as data:

        def array(name):
            if name not in data:
                raise invalid(f"missing array {name!r}")
            return data[name]

        def csr(name):
            parts = [array(f"{name}_{part}") for part in ("data", "indices", "indptr", "shape")]
            try:
                a = sp.csr_matrix(tuple(parts[:3]), shape=tuple(parts[3]))
                a.check_format(full_check=True)
            except ValueError as exc:
                raise invalid(f"malformed sparse matrix {name}: {exc}") from exc
            return canonical_csr(a)

        k, m = csr("K"), csr("M")
        big_x, g, g_e, c, x, e, support = map(array, ("X", "G", "G_e", "c", "x", "E", "support"))
    for name, a in (("K", k), ("M", m)):
        if a.shape[0] != a.shape[1]:
            raise invalid(f"{name} is {a.shape[0]} x {a.shape[1]}, not square")
    n = k.shape[0]
    if m.shape != k.shape:
        raise invalid(f"M is {m.shape[0]} x {m.shape[0]} but K is {n} x {n}")
    if c.ndim != 1:
        raise invalid(f"c has shape {c.shape}, not a vector")
    n_basis = c.shape[0]
    if big_x.ndim != 2 or big_x.shape[0] != n:
        raise invalid(f"X has shape {big_x.shape}, not {n} rows (the DoFs of K)")
    if big_x.shape[1] != n_basis:
        raise invalid(f"X has {big_x.shape[1]} columns but len(c) = {n_basis}")
    dense = {"X": big_x, "c": c, "x": x, "G": g, "G_e": g_e, "E": e}
    shapes = {"x": (n,), "G": (n_basis, n_basis), "G_e": (n_basis, n_basis), "E": (n, n_basis)}
    for name, shape in shapes.items():
        if dense[name].shape != shape:
            raise invalid(f"{name} has shape {dense[name].shape}, not {shape}")
    for name, values in (("K", k.data), ("M", m.data), *dense.items()):
        if not np.all(np.isfinite(values)):
            raise invalid(f"{name} has non-finite entries")
    for name, a in (("G", g), ("G_e", g_e)):
        if max_abs(a - a.T) > 1e-12 * max_abs(a):
            raise invalid(f"{name} is not symmetric to 1e-12 relative")
    if support.ndim != 1 or support.dtype.kind not in "iu" or (
        support.size and (support.min() < 0 or support.max() >= n)
    ):
        raise invalid(f"support is not a vector of DoF indices in [0, {n})")
    if np.any(support[1:] <= support[:-1]):
        raise invalid("support is not strictly increasing")
    return AssembledFoilSystem(K=k, M=m, X=big_x, G=g, G_e=g_e, c=c, x=x, E=e, support=support)
