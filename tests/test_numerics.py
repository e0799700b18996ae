import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    NonSquare,
    NotPositiveDefinite,
    ZeroDiagonal,
)
from sparsegp.numerics import cholesky_vjp, default_jitter, tri_solve_vjp

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
