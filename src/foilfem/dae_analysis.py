"""Element classification diagnostics for the coupled field model.

The foil system can be reduced by eliminating the voltage coefficients:
with the consistent conductance the result has the classic stranded-conductor
structure (Schur mass ``M - X Ge^-1 X^T``, source vector ``X Ge^-1 c`` and
series resistance ``c^T Ge^-1 c``).  The stiffness on the kernel of the Schur
mass, which has a sparse basis, gives the terminal inductance; the quadratic
form ``(c^T (G - Ge)^-1 c)^-1`` measures how strongly the original
conductance variant behaves like a singularly perturbed resistance.

The dense kernel projectors are desk-scale only (coarse meshes); neither the
inductance nor the time stepper forms them.  Operations are pure functions of
immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp

from .errors import (
    IndefiniteDifferenceError,
    NonpositiveInductanceError,
    SingularConductanceError,
    SizeGuardError,
)
from .linalg import canonical_csr, nullspace_basis, sparse_factorize
from .winding import MODES, AssembledFoilSystem

DENSE_SIZE_GUARD = 500  # largest DoF count of the dense projector diagnostics
KERNEL_TOL = 1e-10  # eigenvalues below KERNEL_TOL * max|lambda| span a kernel
COND_LIMIT = 1e12  # largest condition number of Ge for the Schur reduction
INDEFINITE_RTOL = 1e-8  # most negative eig(G - Ge) allowed, relative to ||G||


@dataclass(frozen=True)
class StrandedForm:
    """Schur reduction of the foil system to stranded-conductor structure."""

    M_bar: sp.csr_matrix
    x_bar: np.ndarray
    R: float


def schur_stranded_form(sys: AssembledFoilSystem) -> StrandedForm:
    """Eliminate the voltage coefficients using the consistent conductance.

    Raises :class:`SingularConductanceError` when ``Ge`` is numerically
    singular (condition number above ``COND_LIMIT``), which violates the
    full-column-rank coupling assumption.
    """
    ge = sys.G_e
    if not np.all(np.isfinite(ge)) or np.linalg.cond(ge) > COND_LIMIT:
        raise SingularConductanceError("consistent conductance is numerically singular")
    rows = np.flatnonzero(np.abs(sys.X).sum(axis=1))
    x_s = sys.X[rows]
    corr_block = x_s @ np.linalg.solve(ge, x_s.T)
    corr = sp.coo_matrix(
        (corr_block.ravel(), (np.repeat(rows, rows.size), np.tile(rows, rows.size))),
        shape=sys.M.shape,
    )
    m_bar = canonical_csr(sys.M - corr.tocsr())
    x_bar = sys.X @ np.linalg.solve(ge, sys.c)
    r_series = float(sys.c @ np.linalg.solve(ge, sys.c))
    return StrandedForm(M_bar=m_bar, x_bar=x_bar, R=r_series)


@dataclass(frozen=True)
class ProjectorPair:
    """Orthogonal projector onto a kernel and its complement."""

    Q: np.ndarray
    P: np.ndarray


def build_projectors(a) -> ProjectorPair:
    """Projector onto the numerical kernel of a symmetric matrix (dense, guarded)."""
    if sp.issparse(a):
        a = a.toarray()
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if n > DENSE_SIZE_GUARD:
        raise SizeGuardError(
            f"dense projector construction limited to {DENSE_SIZE_GUARD} DoFs, got {n}"
        )
    basis = nullspace_basis(a, KERNEL_TOL)
    q = basis @ basis.T
    return ProjectorPair(Q=q, P=np.eye(n) - q)


def inductance_value(sf: StrandedForm, sys: AssembledFoilSystem) -> float:
    """Terminal inductance of the stranded-form element.

    ``L = (B^T x_bar)^T (B^T K B)^-1 (B^T x_bar)`` with ``B`` a sparse orthonormal
    basis of the kernel of the Schur mass: unit vectors off the conductive
    support, where ``M`` vanishes, and an orthonormal basis of ``span(E)`` on
    it, since ``X = M E``.  With the kernel projector ``Q = B B^T`` this is
    ``(Q x_bar)^T (Q K Q + P P)^-1 (Q x_bar)``.  Must be positive; a
    nonpositive value signals a violated assumption and raises.
    """
    off_support = np.ones(sys.n_dofs, dtype=bool)
    off_support[sys.support] = False
    span = np.zeros((sys.n_dofs, sys.n_basis))
    span[sys.support] = np.linalg.qr(sys.E[sys.support])[0]
    basis = sp.hstack([sp.identity(sys.n_dofs, format="csc")[:, off_support], sp.csc_matrix(span)])
    coords = basis.T @ sf.x_bar
    value = float(coords @ sparse_factorize(basis.T @ sys.K @ basis).solve(coords))
    if not np.isfinite(value) or value <= 0.0:
        raise NonpositiveInductanceError(f"extracted inductance {value!r} is not positive")
    return value


@dataclass(frozen=True)
class PerturbationMeasure:
    """Result of the resistance-like strength measurement.

    ``g_R`` is ``(c^T (G - Ge)^+ c)^-1`` when the terminal direction carries
    weight in the range of the difference; ``None`` with ``degenerate=True``
    when the difference vanishes or the terminal direction lies in its kernel
    (the element degenerates to inductance-like behavior).
    """

    g_R: float | None
    degenerate: bool
    frob_diff: float
    min_eig: float


def singular_perturbation_measure(
    g: np.ndarray, g_e: np.ndarray, c: np.ndarray
) -> PerturbationMeasure:
    """Measure the singularly-perturbed-resistance strength of a conductance pair.

    Raises :class:`IndefiniteDifferenceError` when ``G - Ge`` has an
    eigenvalue below ``-INDEFINITE_RTOL * ||G||``; the difference is a Gram
    matrix of projection residuals, so indefiniteness signals an assembly bug.
    """
    diff = 0.5 * ((g - g_e) + (g - g_e).T)
    g_norm = float(np.linalg.norm(g))
    w, v = np.linalg.eigh(diff)
    min_eig = float(w.min()) if w.size else 0.0
    frob = float(np.linalg.norm(diff))
    if min_eig < -INDEFINITE_RTOL * g_norm:
        raise IndefiniteDifferenceError(
            f"min eigenvalue {min_eig:.3e} below -{INDEFINITE_RTOL:.1e} * ||G||"
        )
    if frob <= KERNEL_TOL * g_norm:
        return PerturbationMeasure(g_R=None, degenerate=True, frob_diff=frob, min_eig=min_eig)
    keep = w > KERNEL_TOL * w.max()
    coords = v[:, keep].T @ c
    c_norm = float(np.linalg.norm(c))
    if np.linalg.norm(coords) <= 1e-8 * c_norm:
        # terminal direction entirely inside the kernel of the difference
        return PerturbationMeasure(g_R=None, degenerate=True, frob_diff=frob, min_eig=min_eig)
    g_r = float(1.0 / np.sum(coords**2 / w[keep]))
    return PerturbationMeasure(g_R=g_r, degenerate=False, frob_diff=frob, min_eig=min_eig)


class ElementKind(Enum):
    INDUCTANCE_LIKE = "inductance-like"
    RESISTANCE_LIKE = "resistance-like"
    SOLID_DEGENERATE = "solid-degenerate"


@dataclass(frozen=True)
class Classification:
    """Generalized circuit-element classification of an assembled system."""

    kind: ElementKind
    L: float | None
    g_R: float | None
    frob_diff: float
    min_eig_diff: float
    degenerate_difference: bool = False

    def as_report(self) -> str:
        lines = [f"kind = {self.kind.value}"]
        if self.L is not None:
            lines.append(f"L = {self.L:.6e} H")
        if self.g_R is not None:
            lines.append(f"g_R = {self.g_R:.6e}")
        lines.append(f"frob(G - Ge) = {self.frob_diff:.6e}")
        lines.append(f"min eig(G - Ge) = {self.min_eig_diff:.3e}")
        lines.append(f"degenerate difference = {self.degenerate_difference}")
        return "\n".join(lines)


def classify_element(sys: AssembledFoilSystem, mode: str) -> Classification:
    """Classify the element behavior for conductance variant ``mode``.

    The consistent variant is always inductance-like.  The original variant is
    resistance-like as long as the terminal direction sees a nonvanishing
    conductance difference; otherwise it degenerates to inductance-like (the
    single-function solid limit is the canonical case).  The terminal
    inductance is attached to every non-resistance-like element, at every
    mesh level.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    measure = singular_perturbation_measure(sys.G, sys.G_e, sys.c)
    resistance_like = mode == "G" and not measure.degenerate
    if resistance_like:
        kind = ElementKind.RESISTANCE_LIKE
    elif mode == "SOLID":
        kind = ElementKind.SOLID_DEGENERATE
    else:
        kind = ElementKind.INDUCTANCE_LIKE
    return Classification(
        kind=kind,
        L=None if resistance_like else inductance_value(schur_stranded_form(sys), sys),
        g_R=measure.g_R if resistance_like else None,
        frob_diff=measure.frob_diff,
        min_eig_diff=measure.min_eig,
        degenerate_difference=measure.degenerate,
    )
