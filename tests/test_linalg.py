"""Unit and property tests for the linear-algebra kernels."""

import inspect
import sys
import threading
from functools import cache
from pathlib import Path

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import foilfem
from foilfem.errors import InconsistentRhsError, SingularMatrixError
from foilfem.experiments import ExperimentConfig, build_mesh, build_system, winding_dae
from foilfem.linalg import (
    RestrictedSpdSolver,
    canonical_csr,
    csr_product,
    rank,
    restricted_spd_solve,
    sparse_factorize,
    write_matrix_market,
)

from oracles import nullspace_basis


def random_spd(n, rng, shift=0.1):
    b = rng.standard_normal((n, n))
    return b @ b.T + shift * np.eye(n)


def dense_pinv_apply(m, b):
    """Oracle: apply the Moore-Penrose pseudo-inverse via eigendecomposition."""
    w, v = np.linalg.eigh(m)
    inv = np.where(np.abs(w) > 1e-12 * np.max(np.abs(w)), 1.0 / np.where(w == 0, 1.0, w), 0.0)
    return v @ (inv * (v.T @ b))


class TestSparseFactorize:
    def test_identity(self):
        f = sparse_factorize(sp.eye(3, format="csr"))
        assert np.allclose(f.solve(np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])

    def test_diagonal(self):
        a = sp.diags([2.0, 4.0]).tocsr()
        y = sparse_factorize(a).solve(np.array([2.0, 4.0]))
        assert np.allclose(y, [1.0, 1.0])

    def test_random_spd_residual(self):
        rng = np.random.default_rng(1234)
        a = random_spd(5, rng)
        b = rng.standard_normal(5)
        a_sp = canonical_csr(a)
        y = sparse_factorize(a_sp).solve(b)
        res = np.linalg.norm(a @ y - b)
        bound = 1e-10 * (np.max(np.abs(a)) * np.linalg.norm(y) + np.linalg.norm(b))
        assert res <= bound

    def test_singular_raises(self):
        a = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
        with pytest.raises(SingularMatrixError):
            sparse_factorize(a)

    def test_zero_matrix_raises(self):
        with pytest.raises(SingularMatrixError):
            sparse_factorize(sp.csr_matrix((3, 3)))

    def test_nonsquare_raises(self):
        with pytest.raises(ValueError):
            sparse_factorize(sp.csr_matrix((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_raises_before_factoring(self, bad):
        a = sp.eye(3, format="lil")
        a[1, 2] = bad
        with pytest.raises(SingularMatrixError, match="^matrix has non-finite entries$"):
            sparse_factorize(a.tocsr())

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 12), seed=st.integers(0, 10_000))
    def test_resolve_reproduces_rhs(self, n, seed):
        rng = np.random.default_rng(seed)
        a = random_spd(n, rng)
        b = rng.standard_normal(n)
        f = sparse_factorize(canonical_csr(a))
        y = f.solve(b)
        res = np.linalg.norm(a @ y - b)
        assert res <= 1e-10 * (np.max(np.abs(a)) * np.linalg.norm(y) + np.linalg.norm(b))

    def test_threads_share_one_factorization(self):
        rng = np.random.default_rng(5)
        a = sp.random(200, 200, density=0.03, random_state=5) + sp.diags(1e-3 + rng.random(200))
        f = sparse_factorize(a)
        rhs = rng.standard_normal((8, 200))
        expected = [f.solve(b).tobytes() for b in rhs]
        mismatches = []

        def work():
            for k in range(3000):
                if f.solve(rhs[k % 8]).tobytes() != expected[k % 8]:
                    mismatches.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work) for _ in range(4)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert mismatches == []


class TestRestrictedSpdSolve:
    def test_diagonal_pseudo_inverse(self):
        m = sp.diags([2.0, 0.0, 3.0]).tocsr()
        y = restricted_spd_solve(m, np.array([4.0, 0.0, 9.0]), [0, 2])
        assert np.allclose(y, [2.0, 0.0, 3.0])

    def test_zero_rhs(self):
        m = sp.diags([1.0, 0.0]).tocsr()
        y = restricted_spd_solve(m, np.zeros(2), [0])
        assert np.allclose(y, 0.0)

    def test_matches_dense_pinv(self):
        rng = np.random.default_rng(77)
        block = random_spd(2, rng)
        m = np.zeros((4, 4))
        m[np.ix_([1, 3], [1, 3])] = block
        z = rng.standard_normal(4)
        z[[0, 2]] = 0.0
        b = m @ z  # rhs in the range of m
        y = restricted_spd_solve(canonical_csr(m), b, [1, 3])
        assert np.allclose(y, dense_pinv_apply(m, b), atol=1e-9)

    def test_inconsistent_rhs_raises(self):
        m = sp.diags([1.0, 0.0]).tocsr()
        with pytest.raises(InconsistentRhsError):
            restricted_spd_solve(m, np.array([1.0, 1.0]), [0])

    def test_not_spd_raises(self):
        m = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(SingularMatrixError):
            restricted_spd_solve(m, np.array([1.0, 1.0]), [0, 1])

    @staticmethod
    def _block_problem(seed, n=7, k=4, n_rhs=5):
        rng = np.random.default_rng(seed)
        support = np.sort(rng.choice(n, size=k, replace=False))
        m = np.zeros((n, n))
        m[np.ix_(support, support)] = random_spd(k, rng)
        b = np.zeros((n, n_rhs))
        b[support] = rng.standard_normal((k, n_rhs))
        return RestrictedSpdSolver(canonical_csr(m), support), b

    @pytest.mark.parametrize("seed", range(5))
    def test_block_rhs_columns_match_vector_solves_bit_for_bit(self, seed):
        solver, b = self._block_problem(seed)
        y = solver.solve(b)
        assert y.shape == b.shape and y.dtype == np.float64
        for l in range(b.shape[1]):
            assert np.array_equal(y[:, l], solver.solve(b[:, l]))

    def test_block_rhs_with_one_bad_column_raises(self):
        solver, b = self._block_problem(0)
        outside = np.flatnonzero(~np.isin(np.arange(solver.n), solver.support))[0]
        b[outside, 3] = 1.0
        with pytest.raises(InconsistentRhsError, match="column 3"):
            solver.solve(b)
        solver.solve(np.delete(b, 3, axis=1))  # the other columns are consistent

    @pytest.mark.parametrize("shape", [(6, 5), (8, 5), (6,), (7, 2, 2)])
    def test_rhs_with_wrong_rows_or_rank_raises(self, shape):
        solver, _ = self._block_problem(0)
        with pytest.raises(ValueError, match="rows"):
            solver.solve(np.zeros(shape))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_pseudo_inverse_idempotent_on_range(self, seed):
        # M @ pinv(M) @ (M @ y) == M @ y for y supported on the SPD block
        rng = np.random.default_rng(seed)
        n, k = 6, 3
        support = np.sort(rng.choice(n, size=k, replace=False))
        m = np.zeros((n, n))
        m[np.ix_(support, support)] = random_spd(k, rng)
        y = np.zeros(n)
        y[support] = rng.standard_normal(k)
        my = m @ y
        back = restricted_spd_solve(canonical_csr(m), my, support)
        lhs = m @ back
        assert np.linalg.norm(lhs - my) <= 1e-9 * max(np.linalg.norm(my), 1e-30)


@cache
def built_system(level, basis_family="legendre"):
    cfg = ExperimentConfig(basis_family=basis_family)
    return build_system(cfg, build_mesh(cfg, level))[0]


def unique_support_G_consistent(M, X, support):
    """``(G_e, E)`` as built when the solver ran ``np.unique`` on its support."""
    support = np.unique(support)
    block = canonical_csr(M)[np.ix_(support, support)].tocsc()
    lu = spla.splu(
        block, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True}
    )
    E = np.zeros(X.shape)
    E[support] = lu.solve(X[support])
    ge = X.T @ E
    return 0.5 * (ge + ge.T), E


class TestRestrictedSupport:
    @pytest.mark.parametrize(
        "support, message",
        [([2, 0], "strictly increasing"), ([0, 2, 2], "strictly increasing"), ([], "empty")],
        ids=["unsorted", "duplicated", "empty"],
    )
    def test_support_must_be_strictly_increasing(self, support, message):
        m = sp.diags([2.0, 0.0, 3.0]).tocsr()
        with pytest.raises(ValueError, match=message):
            RestrictedSpdSolver(m, support)

    @pytest.mark.parametrize("basis_family", ["legendre", "hat"])
    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_built_E_and_Ge_match_the_unique_support_path(self, level, basis_family):
        system = built_system(level, basis_family)
        assert np.all(np.diff(system.support) > 0)
        ge, e = unique_support_G_consistent(system.M, system.X, system.support)
        assert system.E.tobytes() == e.tobytes()
        assert system.G_e.tobytes() == ge.tobytes()


class TestCsrProduct:
    @pytest.mark.parametrize("dt", [1e-4, 1e-5])
    @pytest.mark.parametrize("drive", ["i", "v"])
    @pytest.mark.parametrize("level", [0, 2])
    def test_matches_matmul_on_stamped_daes_bit_for_bit(self, level, drive, dt):
        dae = winding_dae(ExperimentConfig(), built_system(level), drive, "Ge")
        a = dae.E.multiply(1.0 / dt).tocsr()
        rng = np.random.default_rng(level)
        # magnitudes over 16 decades, so a different summation order would show in the bits
        x = rng.standard_normal(a.shape[1]) * 10.0 ** rng.integers(-8, 8, a.shape[1])
        assert csr_product(a)(x).tobytes() == (a @ x).tobytes()

    def test_matches_matmul_with_empty_rows_bit_for_bit(self):
        a = sp.csr_matrix(np.array([
            [0.0, 0.0, 0.0, 0.0],
            [1.5, 0.0, -2.0, 1e-300],
            [0.0, 0.0, 0.0, 0.0],
            [-3.0, 1e16, 0.0, 0.5],
            [0.0, 0.0, 0.0, 0.0],
        ]))
        x = np.array([-0.0, 1.0, 3.0, -7.0])
        y = csr_product(a)(x)
        assert y.tobytes() == (a @ x).tobytes()
        assert not np.any(np.signbit(y[[0, 2, 4]]))  # an empty row sums to +0.0

    def test_rejects_what_the_kernel_would_misread(self):
        a = sp.eye(3, format="csr")
        with pytest.raises(ValueError, match="3 entries"):
            csr_product(a)(np.ones(2))
        for bad in (a.tocsc(), a.astype(np.float32), a.toarray()):
            with pytest.raises(ValueError, match="float64 CSR"):
                csr_product(bad)

    def test_only_the_helper_names_the_private_kernel(self):
        package = Path(foilfem.__file__).parent
        named = sum(path.read_text().count("_sparsetools") for path in package.glob("*.py"))
        assert named == inspect.getsource(csr_product).count("_sparsetools") > 0


class TestNullspaceBasis:
    """The dense kernel oracle behind ``oracles.build_projectors``."""

    def test_diag_with_kernel(self):
        q = nullspace_basis(np.diag([1.0, 0.0]), 1e-12)
        assert q.shape == (2, 1)
        assert np.allclose(np.abs(q[:, 0]), [0.0, 1.0])

    def test_full_rank_empty(self):
        q = nullspace_basis(np.eye(3), 1e-12)
        assert q.shape == (3, 0)

    def test_rank_one_projector_complement(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        q = nullspace_basis(np.outer(v, v), 1e-10)
        assert q.shape == (3, 2)
        assert np.max(np.abs(q.T @ v)) <= 1e-10

    def test_zero_matrix_full_kernel(self):
        q = nullspace_basis(np.zeros((4, 4)), 1e-10)
        assert q.shape == (4, 4)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 10), k=st.integers(0, 5), seed=st.integers(0, 10_000))
    def test_kernel_properties(self, n, k, seed):
        k = min(k, n - 1)
        rng = np.random.default_rng(seed)
        # symmetric matrix with a kernel of dimension exactly k
        w = np.concatenate([np.zeros(k), rng.uniform(0.5, 2.0, n - k)])
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = (v * w) @ v.T
        a = 0.5 * (a + a.T)
        tol = 1e-10
        q = nullspace_basis(a, tol)
        assert q.shape[1] == k
        if k:
            assert np.linalg.norm(a @ q) <= 10 * tol * np.linalg.norm(a)
            assert np.allclose(q.T @ q, np.eye(k), atol=1e-10)


class TestRank:
    def test_identity(self):
        assert rank(np.eye(3), 1e-12) == 3

    def test_zero(self):
        assert rank(np.zeros((3, 2)), 1e-12) == 0

    def test_rank_one_by_hand(self):
        # singular values of [[1,2],[2,4]] are (5, 0)
        assert rank(np.array([[1.0, 2.0], [2.0, 4.0]]), 1e-12) == 1


class TestCsrInvariants:
    def test_canonical_removes_zeros_and_sorts(self):
        coo = sp.coo_matrix(
            (np.array([1.0, 0.0, 2.0, 3.0]), (np.array([0, 0, 1, 1]), np.array([1, 0, 1, 0])))
        )
        m = canonical_csr(coo)
        assert sp.isspmatrix_csr(m) and m.has_canonical_format
        assert np.array_equal(m.indptr, [0, 1, 3])
        assert np.array_equal(m.indices, [1, 0, 1])
        assert np.array_equal(m.data, [1.0, 3.0, 2.0])


class TestMatrixMarket:
    def test_sparse_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        a = canonical_csr(sp.random(6, 6, density=0.4, random_state=42))
        path = tmp_path / "a.mtx"
        write_matrix_market(path, a)
        b = scipy.io.mmread(str(path))
        assert np.allclose(a.toarray(), b.toarray())

    def test_dense_and_vector_roundtrip(self, tmp_path):
        a = np.array([[1.5, 2.0], [3.0, -4.0]])
        v = np.array([1.0, -2.0, 3.5])
        pa, pv = tmp_path / "a.mtx", tmp_path / "v.mtx"
        write_matrix_market(pa, a)
        write_matrix_market(pv, v)
        assert np.allclose(scipy.io.mmread(str(pa)), a)
        assert np.allclose(scipy.io.mmread(str(pv)).ravel(), v)
