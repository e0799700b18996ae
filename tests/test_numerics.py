import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg, special

from sparsegp import (
    RngState,
    allocation_probe,
    cholesky,
    gauss_hermite_nodes,
    standard_normal,
    tri_solve,
)
from sparsegp.errors import (
    AsymmetricInput,
    ConfigError,
    DimensionMismatch,
    NonFiniteInput,
    NonSquare,
    NotPositiveDefinite,
    SparseGPError,
    ZeroDiagonal,
)
from sparsegp.numerics import (
    block_diag,
    cholesky_vjp,
    default_jitter,
    log_factorial,
    log_ndtr,
    logsumexp,
    ndtr,
    tri_solve_vjp,
)

from conftest import make_spd, random_lower


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(cholesky(np.eye(2)), np.eye(2))

    def test_hand_checked_2x2(self):
        a = np.array([[4.0, 2.0], [2.0, 3.0]])
        expected = np.array([[2.0, 0.0], [1.0, np.sqrt(2.0)]])
        np.testing.assert_allclose(cholesky(a), expected, atol=1e-14)

    def test_reconstructs_random_spd(self, rng):
        a = make_spd(rng, 5)
        l = cholesky(a)
        assert np.linalg.norm(l @ l.T - a) < 1e-10

    def test_refactorizing_product_recovers_factor(self, rng):
        l = random_lower(rng, 6)
        again = cholesky(l @ l.T)
        np.testing.assert_allclose(again, l, atol=1e-12)

    def test_retry_escalation_rescues_indefinite_input(self):
        a = np.diag([1.0, -1e-9])
        l = cholesky(a)
        assert np.all(np.isfinite(l))

    def test_non_square_rejected(self):
        with pytest.raises(NonSquare):
            cholesky(np.ones((2, 3)))

    def test_asymmetric_rejected(self):
        with pytest.raises(AsymmetricInput):
            cholesky(np.array([[1.0, 0.5], [0.1, 1.0]]))

    def test_hopeless_matrix_fails_after_retries(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.diag([1.0, -1e6]))

    def test_default_jitter_env_override(self, monkeypatch):
        assert default_jitter() == 1e-6
        monkeypatch.setenv("SPARSEGP_JITTER", "1e-3")
        assert default_jitter() == 1e-3

    @pytest.mark.parametrize("raw", ["abc", "nan", "inf", "-1"])
    def test_default_jitter_refuses_a_bad_env_value(self, monkeypatch, raw):
        monkeypatch.setenv("SPARSEGP_JITTER", raw)
        with pytest.raises(ConfigError, match="SPARSEGP_JITTER"):
            default_jitter()


class TestTriSolve:
    def test_identity_factor(self, rng):
        b = standard_normal(rng, (3, 2))
        np.testing.assert_array_equal(tri_solve(np.eye(3), b), b)

    def test_hand_checked_2x2(self):
        l = np.array([[2.0, 0.0], [1.0, 1.0]])
        b = np.array([[2.0], [2.0]])
        np.testing.assert_allclose(tri_solve(l, b), [[1.0], [1.0]])

    def test_round_trip(self, rng):
        l = random_lower(rng, 7)
        x = standard_normal(rng, (7, 3))
        np.testing.assert_allclose(tri_solve(l, l @ x), x, atol=1e-12)

    def test_transpose_round_trip(self, rng):
        l = random_lower(rng, 5)
        x = standard_normal(rng, (5, 2))
        np.testing.assert_allclose(tri_solve(l, l.T @ x, transpose=True), x, atol=1e-12)

    def test_zero_diagonal_rejected(self):
        with pytest.raises(ZeroDiagonal):
            tri_solve(np.diag([1.0, 0.0]), np.ones(2))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            tri_solve(np.eye(2), np.ones((3, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["factor", "rhs"])
    def test_non_finite_input_rejected(self, rng, bad, where):
        l, b = random_lower(rng, 20), standard_normal(rng, (20, 3))
        (l if where == "factor" else b)[7, 2] = bad
        with pytest.raises(NonFiniteInput) as err:
            tri_solve(l, b)
        assert isinstance(err.value, SparseGPError)

    @pytest.mark.parametrize("m", [10, 40])  # one block, and three
    def test_reads_only_the_lower_triangle(self, rng, m):
        l, b = random_lower(rng, m), standard_normal(rng, (m, 50))
        junk = l + np.triu(standard_normal(rng, (m, m)), 1)
        for transpose in (False, True):
            np.testing.assert_array_equal(tri_solve(junk, b, transpose), tri_solve(l, b, transpose))

    def test_empty_system(self):
        assert tri_solve(np.eye(0), np.ones((0, 2))).shape == (0, 2)
        assert tri_solve(np.eye(3), np.ones((3, 0))).shape == (3, 0)


def _conditioned_factor(rng, m, decades):
    """The Cholesky factor of an SPD matrix whose eigenvalues span
    ``decades`` decades, so the factor's condition is 10**(decades / 2)."""
    q, _ = np.linalg.qr(standard_normal(rng, (m, m)))
    a = (q * 10.0 ** -np.linspace(0.0, decades, m)) @ q.T
    return np.linalg.cholesky(0.5 * (a + a.T))


@settings(max_examples=150, deadline=None)
@given(
    m=st.sampled_from([1, 15, 16, 17, 31, 32, 33, 100]),
    columns=st.sampled_from([None, 1, 5, 16, 40]),
    transpose=st.booleans(),
    decades=st.floats(0.0, 8.0),
    seed=st.integers(0, 2**16),
)
def test_tri_solve_matches_scipy_within_the_rounding_bound(m, columns, transpose, decades, seed):
    """Against scipy's substitution: every entry of the difference within
    1e-12 of the componentwise bound |A⁻¹| |A| |x| (A = L, or Lᵀ), the
    forward error a backward-stable solve may make, so the tolerance is
    relative and scales with how much the system amplifies rounding.
    Blocks hold at most 16 rows, so M spans one to seven blocks, the
    last of them topped up or not."""
    rng = RngState(seed)
    l = _conditioned_factor(rng, m, decades)
    b = standard_normal(rng.derive(1), (m,) if columns is None else (m, columns))
    got = tri_solve(l, b, transpose=transpose)
    want = linalg.solve_triangular(l, b, lower=True, trans=1 if transpose else 0)
    assert got.shape == want.shape
    a = l.T if transpose else l
    a_inv = linalg.solve_triangular(l, np.eye(m), lower=True, trans=1 if transpose else 0)
    bound = np.abs(a_inv) @ (np.abs(a) @ np.abs(want))
    assert np.all(np.abs(got - want) <= 1e-12 * bound)


def test_tri_solve_is_as_accurate_as_substitution_on_a_kernel_factor():
    """A factor of a smooth kernel's Gram matrix, where the product with a
    block's inverse alone is off by 10-100x the substitution error: the
    solve stays within twice scipy's error against a long-double
    substitution."""
    z = np.linspace(0.0, 1.0, 64)
    factor = np.linalg.cholesky(
        np.exp(-0.5 * (z[:, None] - z) ** 2 / 0.15**2) + 1e-6 * np.eye(64)
    )
    b = np.exp(-0.5 * (z[:, None] - np.linspace(-0.1, 1.1, 50)) ** 2 / 0.15**2)
    exact = np.zeros((64, 50), dtype=np.longdouble)
    lower = factor.astype(np.longdouble)
    for i in range(64):
        exact[i] = (b[i] - lower[i, :i] @ exact[:i]) / lower[i, i]

    def error(x):
        return float(np.max(np.abs(x - exact) / np.max(np.abs(exact), axis=0)))

    assert error(tri_solve(factor, b)) <= 2.0 * error(linalg.solve_triangular(factor, b, lower=True))


DIFF_STEP = 1e-6


def _symmetric_directions(m):
    """E_ij + E_ji for i >= j: the perturbations that keep a symmetric."""
    for i, j in zip(*np.tril_indices(m)):
        e = np.zeros((m, m))
        e[i, j] = e[j, i] = 1.0
        yield e


class TestVjps:
    @pytest.mark.parametrize("jitter", [0.0, 1e-12, 1e-3])
    def test_cholesky_vjp_matches_differences_of_the_shifted_factor(self, rng, jitter):
        # The objective <G, chol(a + j mean(diag a) I)>: its symmetric
        # derivative along E_ij + E_ji is a-bar_ij + a-bar_ji.
        m = 5
        a = make_spd(rng, m)
        g = np.tril(standard_normal(rng.derive(1), (m, m)))

        def objective(b):
            shifted = b + jitter * np.mean(np.diag(b)) * np.eye(m)
            return float(np.sum(g * np.linalg.cholesky(shifted)))

        l = np.linalg.cholesky(a + jitter * np.mean(np.diag(a)) * np.eye(m))
        abar = cholesky_vjp(l, g, jitter)
        np.testing.assert_array_equal(abar, abar.T)
        for e in _symmetric_directions(m):
            fd = (objective(a + DIFF_STEP * e) - objective(a - DIFF_STEP * e)) / (2 * DIFF_STEP)
            assert np.sum(abar * e) == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_cholesky_reports_the_jitter_it_escalated_to(self):
        # A singular matrix fails unshifted; the reported jitter is the
        # shift of the matrix that was factored, which its VJP reads.
        a = np.ones((3, 3))
        applied = []
        l = cholesky(a, applied=applied)
        (j,) = applied
        assert j > 0.0
        np.testing.assert_allclose(l @ l.T, a + j * np.eye(3), rtol=0, atol=1e-12)
        applied = []
        cholesky(np.eye(3) * 2.0, applied=applied)
        assert applied == [0.0]

    @pytest.mark.parametrize("transpose", [False, True])
    def test_tri_solve_vjp_matches_dense_differences(self, rng, transpose):
        m, k = 4, 3
        l = random_lower(rng, m)
        b = standard_normal(rng.derive(1), (m, k))
        g = standard_normal(rng.derive(2), (m, k))

        def objective(factor, rhs):  # dense: the solve by an explicit inverse
            inverse = np.linalg.inv(factor.T if transpose else factor)
            return float(np.sum(g * (inverse @ rhs)))

        dl, db = tri_solve_vjp(l, tri_solve(l, b, transpose), g, transpose)
        assert np.all(np.triu(dl, 1) == 0.0)
        for i, j in np.ndindex(m, k):
            e = np.zeros((m, k))
            e[i, j] = DIFF_STEP
            fd = (objective(l, b + e) - objective(l, b - e)) / (2 * DIFF_STEP)
            assert db[i, j] == pytest.approx(fd, rel=1e-6, abs=1e-8)
        for i, j in zip(*np.tril_indices(m)):
            e = np.zeros((m, m))
            e[i, j] = DIFF_STEP
            fd = (objective(l + e, b) - objective(l - e, b)) / (2 * DIFF_STEP)
            assert dl[i, j] == pytest.approx(fd, rel=1e-6, abs=1e-8)


class TestGaussHermite:
    def test_single_node(self):
        x, w = gauss_hermite_nodes(1)
        np.testing.assert_allclose(x, [0.0])
        np.testing.assert_allclose(w, [1.0])

    def test_second_moment(self):
        x, w = gauss_hermite_nodes(20)
        assert w @ x**2 == pytest.approx(1.0, abs=1e-12)

    def test_fourth_moment(self):
        x, w = gauss_hermite_nodes(20)
        assert w @ x**4 == pytest.approx(3.0, abs=1e-10)

    def test_weights_sum_to_one(self):
        for n in (1, 5, 64, 200):
            _, w = gauss_hermite_nodes(n)
            assert w.sum() == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_exact_for_low_degree_polynomials(self, n):
        # Gaussian moments: E[x^k] = (k-1)!! for even k, 0 for odd k.
        x, w = gauss_hermite_nodes(n)
        for degree in range(2 * n):
            if degree % 2 == 1:
                expected = 0.0
            else:
                expected = float(np.prod(np.arange(degree - 1, 0, -2))) if degree else 1.0
            assert w @ x**degree == pytest.approx(expected, rel=1e-10, abs=1e-10), degree

    def test_node_count_bounds(self):
        with pytest.raises(ValueError):
            gauss_hermite_nodes(0)
        with pytest.raises(ValueError):
            gauss_hermite_nodes(201)


class TestRng:
    def test_fixed_seed_reproduces_stream(self):
        a = standard_normal(RngState(42), (3, 4))
        b = standard_normal(RngState(42), (3, 4))
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = standard_normal(RngState(0), (8,))
        b = standard_normal(RngState(1), (8,))
        assert not np.allclose(a, b)

    def test_derived_streams_are_independent_but_reproducible(self):
        a = standard_normal(RngState(5).derive(3), (4,))
        b = standard_normal(RngState(5).derive(3), (4,))
        c = standard_normal(RngState(5).derive(4), (4,))
        np.testing.assert_array_equal(a, b)
        assert not np.allclose(a, c)

    def test_large_sample_moments(self):
        draws = standard_normal(RngState(9), 10**6)
        assert abs(draws.mean()) < 5.0 / np.sqrt(10**6)
        assert abs(draws.var() - 1.0) < 5.0 * np.sqrt(2.0 / 10**6)


class TestAllocationProbe:
    def test_records_factorization_shapes(self):
        with allocation_probe() as shapes:
            cholesky(np.eye(3))
        assert (3, 3) in shapes

    def test_inactive_outside_context(self):
        with allocation_probe() as shapes:
            pass
        cholesky(np.eye(4))
        assert (4, 4) not in shapes


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_cholesky_idempotent_on_random_factors(seed):
    l = random_lower(RngState(seed), 4)
    np.testing.assert_allclose(cholesky(l @ l.T), l, atol=1e-12)


class TestBlockDiag:
    def test_matches_scipy(self, rng):
        blocks = [standard_normal(rng, (k, k)) for k in (1, 3, 2)]
        np.testing.assert_array_equal(block_diag(*blocks), linalg.block_diag(*blocks))


class TestSpecialFunctions:
    """scipy.special is the oracle of each standard-library replacement."""

    GRID = np.linspace(-60.0, 40.0, 40001)

    @staticmethod
    def _close_where_normal(got, want):
        normal = np.isfinite(want) & (np.abs(want) >= np.finfo(float).tiny)
        assert normal.sum() > 30000
        np.testing.assert_allclose(got[normal], want[normal], rtol=1e-12, atol=0.0)

    def test_ndtr_matches_scipy(self):
        self._close_where_normal(ndtr(self.GRID), special.ndtr(self.GRID))

    def test_log_ndtr_matches_scipy(self):
        self._close_where_normal(log_ndtr(self.GRID), special.log_ndtr(self.GRID))

    def test_log_ndtr_is_finite_where_the_cdf_underflows(self):
        x = np.array([-1e3, -1e6, -1e150])
        np.testing.assert_allclose(log_ndtr(x), special.log_ndtr(x), rtol=1e-12)

    def test_edges_and_shapes(self):
        x = np.array([[-np.inf, np.inf], [np.nan, 0.0]])
        np.testing.assert_array_equal(ndtr(x), [[0.0, 1.0], [np.nan, 0.5]])
        np.testing.assert_array_equal(log_ndtr(x), [[-np.inf, 0.0], [np.nan, np.log(0.5)]])
        assert ndtr(1.0).shape == () and log_ndtr(-30.0).shape == ()

    def test_log_factorial_matches_gammaln_on_counts(self, rng):
        y = np.floor(np.abs(standard_normal(rng, (50, 3, 1))) * 40.0)
        y[0, 0, 0], y[1, 0, 0] = 0.0, 1e6
        np.testing.assert_allclose(log_factorial(y), special.gammaln(y + 1.0), rtol=1e-13)
        assert log_factorial(y).shape == y.shape

    @pytest.mark.parametrize("axis", [0, -1])
    def test_logsumexp_matches_scipy_with_infinite_slices(self, rng, axis):
        a = 300.0 * standard_normal(rng, (6, 5))
        a[1] = -np.inf
        a[2, 3] = np.inf
        a[3, :2] = -np.inf
        a[4, 0], a[4, 1] = np.inf, -np.inf
        a = a if axis == -1 else a.T
        np.testing.assert_allclose(logsumexp(a, axis), special.logsumexp(a, axis=axis), rtol=1e-14)
