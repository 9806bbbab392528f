"""Sparse and dense linear-algebra kernels used throughout the package.

Conventions
-----------
Sparse matrices are ``scipy.sparse.csr_matrix`` instances kept in canonical
form: sorted column indices within each row, duplicates summed, no explicitly
stored zeros.  Dense matrices and vectors are ``numpy.ndarray``.  All inputs
are treated as immutable; every public function is re-entrant and a
:class:`Factorization` may be shared read-only between threads.

:func:`csr_product` is ``a @ x`` for a CSR matrix, bit for bit, without the
operator's dispatch; the time stepper calls it once per step of a chunk it steps
with the solve.

The direct solver is SuperLU with a fill-reducing column ordering; a
:class:`Factorization` solves with ``SuperLU.solve``, one right-hand side or a
block of them per call.  The one dense decomposition, the SVD in :func:`rank`,
is meant for narrow blocks such as the coupling columns ``X``.  Pseudo-inverses
of singular mass matrices are never formed: :class:`RestrictedSpdSolver`
applies them as an operator on the SPD support block, to one right-hand side
or to a block of them in one call.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import InconsistentRhsError, SingularMatrixError

PIVOT_RTOL = 1e-14  # smallest LU pivot allowed, relative to max|A|
SYM_RTOL = 1e-10  # largest asymmetry of a restricted SPD matrix, relative to max|M|
RHS_RTOL = 1e-12  # largest rhs norm outside the support, relative to ||b||


def canonical_csr(a) -> sp.csr_matrix:
    """Return ``a`` as a canonical CSR matrix (sorted, deduplicated, no stored zeros)."""
    m = sp.csr_matrix(a, copy=True)
    m.sum_duplicates()
    m.sort_indices()
    m.eliminate_zeros()
    return m


def max_abs(a) -> float:
    """Largest absolute entry of a sparse or dense matrix (0.0 if empty)."""
    if sp.issparse(a):
        return float(np.max(np.abs(a.data))) if a.data.size else 0.0
    arr = np.asarray(a)
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def csr_product(a):
    """Return the product ``x -> a @ x`` of a float64 CSR matrix, bit for bit, without ``@``.

    Each call runs scipy's CSR mat-vec kernel, the one ``a @ x`` dispatches to, into a
    freshly zeroed vector: every entry is its row's stored products summed from 0.0 in
    stored order, exactly as ``a @ x``.  Skipping the dispatch saves a few microseconds per
    product, which matters in a stepping loop.  ``x`` must be a vector of ``a.shape[1]``
    entries; the kernel itself does not check its length.
    """
    from scipy.sparse import _sparsetools  # private: the kernel behind ``csr_matrix @ vector``

    if not (sp.issparse(a) and a.format == "csr" and a.dtype == np.float64):
        raise ValueError("csr_product needs a float64 CSR matrix")
    n_rows, n_cols = a.shape
    indptr, indices, data = a.indptr, a.indices, a.data
    kernel, zeros, shape = _sparsetools.csr_matvec, np.zeros, (n_cols,)

    def product(x):
        if x.shape != shape:
            raise ValueError(f"vector of shape {x.shape} does not have {n_cols} entries")
        y = zeros(n_rows)
        kernel(n_rows, n_cols, indptr, indices, data, x, y)
        return y

    return product


class Factorization:
    """Reusable sparse LU factorization of a square matrix (SuperLU's, in ``_lu``).

    A solve is ``SuperLU.solve`` on the factors; it holds no state between calls, so
    threads may share one factorization.
    """

    def __init__(self, lu, n: int):
        self._lu = lu
        self.n = n

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``A^-1 b`` for a vector of length ``n`` or an ``(n, k)`` block."""
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self.n:
            raise ValueError(f"rhs length {b.shape[0]} != {self.n}")
        return self._lu.solve(b)


def sparse_factorize(a) -> Factorization:
    """LU-factorize a square sparse matrix with partial pivoting (SuperLU, COLAMD).

    Raises :class:`SingularMatrixError` when an entry is not finite, or when a
    pivot falls below ``PIVOT_RTOL * max|a|``, which signals a rank-deficient
    system.  The returned :class:`Factorization` solves with ``SuperLU.solve``.
    """
    m = canonical_csr(a)
    n_rows, n_cols = m.shape
    if n_rows != n_cols:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(m.data)):
        raise SingularMatrixError("matrix has non-finite entries")
    scale = max_abs(m)
    if scale == 0.0:
        raise SingularMatrixError("zero matrix")
    try:
        lu = spla.splu(m.tocsc(), permc_spec="COLAMD")
    except RuntimeError as exc:  # SuperLU reports exact singularity this way
        raise SingularMatrixError(str(exc)) from exc
    pivots = np.abs(lu.U.diagonal())
    if pivots.size and pivots.min() < PIVOT_RTOL * scale:
        raise SingularMatrixError(
            f"pivot {pivots.min():.3e} below {PIVOT_RTOL:.1e} * max|A| = {PIVOT_RTOL * scale:.3e}"
        )
    return Factorization(lu, n_rows)


class RestrictedSpdSolver:
    """Apply the pseudo-inverse of a symmetric PSD matrix on its SPD support.

    ``support`` lists DoF indices in strictly increasing order, as
    :func:`~foilfem.winding.conductive_support` returns them.  The matrix
    restricted to ``support x support`` must be SPD; right-hand sides must
    vanish outside ``support``.  For such inputs the solve realizes
    ``pinv(M) @ b`` without ever forming the pseudo-inverse; ``b`` may be one
    vector or an ``(n, k)`` block of them (see :meth:`solve`).
    """

    def __init__(self, m, support):
        m = canonical_csr(m)
        n = m.shape[0]
        if m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        scale = max_abs(m)
        asym = max_abs(m - m.T)
        if scale > 0.0 and asym > SYM_RTOL * scale:
            raise ValueError("matrix is not symmetric")
        support = np.asarray(support, dtype=np.intp)
        if support.ndim != 1 or support.size == 0:
            raise ValueError("support must be a non-empty vector of DoF indices")
        if np.any(support[1:] <= support[:-1]):
            raise ValueError("support is not strictly increasing")
        if support[0] < 0 or support[-1] >= n:
            raise ValueError("support index out of bounds")
        block = m[np.ix_(support, support)].tocsc()
        try:
            lu = spla.splu(
                block,
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
        except RuntimeError as exc:
            raise SingularMatrixError(f"restricted block not SPD: {exc}") from exc
        diag_u = lu.U.diagonal()
        if np.any(diag_u <= 0.0):
            raise SingularMatrixError("restricted block not SPD (nonpositive pivot)")
        if not np.array_equal(lu.perm_r, lu.perm_c):
            # row pivoting kicked in; a symmetric factorization would not need it
            raise SingularMatrixError("restricted block not SPD (unsymmetric pivoting)")
        self.n = n
        self.support = support
        self._mask = np.zeros(n, dtype=bool)
        self._mask[support] = True
        self._lu = lu

    def solve(self, b) -> np.ndarray:
        """``pinv(M) @ b`` for a vector ``b`` of length ``n`` or an ``(n, k)`` block.

        A block is solved in one call, each column bit-identical to its own
        vector solve.  Every column must vanish outside the support (to
        ``RHS_RTOL`` of its norm), else :class:`InconsistentRhsError` names
        the first bad column.
        """
        b = np.asarray(b, dtype=float)
        if b.ndim not in (1, 2) or b.shape[0] != self.n:
            raise ValueError(f"rhs of shape {b.shape} does not have {self.n} rows")
        b_norm = np.linalg.norm(b, axis=0)
        outside = np.linalg.norm(b[~self._mask], axis=0)
        bad = np.flatnonzero(outside > RHS_RTOL * b_norm)
        if bad.size:
            column = f" column {bad[0]}" if b.ndim == 2 else ""
            raise InconsistentRhsError(
                f"rhs{column} norm outside support {np.ravel(outside)[bad[0]]:.3e} exceeds "
                f"{RHS_RTOL:.1e} * ||b||"
            )
        y = np.zeros(b.shape)
        y[self.support] = self._lu.solve(b[self.support])
        return y


def restricted_spd_solve(m, b, support) -> np.ndarray:
    """One-shot :class:`RestrictedSpdSolver` solve (factor once, use once)."""
    return RestrictedSpdSolver(m, support).solve(b)


def rank(a, tol: float) -> int:
    """Numerical rank by counting singular values >= ``tol * sigma_max``."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    s_max = float(s[0]) if s.size else 0.0
    if s_max == 0.0:
        return 0
    return int(np.count_nonzero(s >= tol * s_max))


def write_matrix_market(path, a) -> None:
    """Dump a sparse matrix, dense matrix or vector in Matrix Market format."""
    import scipy.io  # imported here: only ``assemble --mtx`` writes Matrix Market files

    if sp.issparse(a):
        scipy.io.mmwrite(str(path), a.tocoo())
        return
    arr = np.asarray(a, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    scipy.io.mmwrite(str(path), arr)

