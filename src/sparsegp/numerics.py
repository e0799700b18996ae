"""Dense linear algebra, quadrature, special functions and random numbers,
in NumPy and the standard library alone.

Array conventions used throughout the package: matrices are float64 numpy
arrays in row-major (C) element order, so a stacked (N, P) array flattens
with index i = n * P + p.  Reshapes only reinterpret shape metadata, never
reorder elements.  Lower-triangular factors are dense square arrays whose
strict upper triangle is zero; factors produced by :func:`cholesky` have a
strictly positive diagonal.  Covariances, Kuu included, are plain square
arrays, and :func:`cholesky` is the one factorization.

Everything here is a pure function of its inputs.  :class:`RngState` is the
only stateful object and is advanced explicitly by the draw functions.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from .errors import (
    AsymmetricInput,
    ConfigError,
    DimensionMismatch,
    NonFiniteInput,
    NonSquare,
    NotPositiveDefinite,
    ZeroDiagonal,
)

DEFAULT_JITTER = 1e-6
JITTER_ENV_VAR = "SPARSEGP_JITTER"
MAX_CHOLESKY_RETRIES = 5
_RETRY_JITTER_FLOOR = 1e-12
_SYMMETRY_RTOL = 1e-10
_SOLVE_BLOCK = 16  # most rows of a diagonal block in tri_solve


def default_jitter() -> float:
    """Package-wide default jitter, the absolute amount ``covariances.kuu``
    adds to Kuu's diagonal; the SPARSEGP_JITTER env var overrides it with a
    finite, non-negative number."""
    raw = os.environ.get(JITTER_ENV_VAR)
    if raw is None:
        return DEFAULT_JITTER
    try:
        value = float(raw)
    except ValueError:
        value = None
    if value is None or not 0.0 <= value < np.inf:  # nan fails both bounds
        raise ConfigError(f"{JITTER_ENV_VAR}={raw!r} is not a finite, non-negative number")
    return value


# ---------------------------------------------------------------------------
# Allocation probe
#
# When active, a few core routines report the shapes of the large arrays they
# produce.  Tests use this to assert which intermediates a code path
# materializes; it is a diagnostic surface, not part of the numerics.

_PROBE_SHAPES: list[tuple[int, ...]] | None = None


def record_allocation(*arrays) -> None:
    if _PROBE_SHAPES is not None:
        for a in arrays:
            shape = np.shape(a)
            if len(shape) >= 2:
                _PROBE_SHAPES.append(shape)


@contextlib.contextmanager
def allocation_probe():
    """Collect the shapes of matrices allocated by instrumented routines."""
    global _PROBE_SHAPES
    previous = _PROBE_SHAPES
    shapes: list[tuple[int, ...]] = []
    _PROBE_SHAPES = shapes
    try:
        yield shapes
    finally:
        _PROBE_SHAPES = previous


# ---------------------------------------------------------------------------
# Dense factorizations and solves


def cholesky(a: np.ndarray, *, applied=None) -> np.ndarray:
    """Lower Cholesky factor of ``a`` as given.

    As a last resort, when ``a`` fails to factor, a shift j * mean(diag(a))
    * I is added, j starting at 1e-12 and growing tenfold up to
    :data:`MAX_CHOLESKY_RETRIES` times before :class:`NotPositiveDefinite`
    is raised.  ``applied``, a list when given, receives the j that was
    finally applied (0 when none was, or when the diagonal mean is not
    positive and the shift does not scale with ``a``), which
    :func:`cholesky_vjp` needs to differentiate the matrix actually factored.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquare(f"expected a square matrix, got shape {a.shape}")
    record_allocation(a)
    scale = max(float(np.max(np.abs(a))), 1.0) if a.size else 1.0
    if a.size and float(np.max(np.abs(a - a.T))) > _SYMMETRY_RTOL * scale:
        raise AsymmetricInput("matrix is not symmetric within 1e-10 relative")
    diag_mean = float(np.mean(np.diag(a))) if a.size else 1.0
    diag_scale = diag_mean if diag_mean > 0 else 1.0
    j = 0.0
    for _ in range(MAX_CHOLESKY_RETRIES + 1):
        try:
            shifted = a if j == 0.0 else a + (j * diag_scale) * np.eye(a.shape[0])
            factor = np.linalg.cholesky(shifted)
            if applied is not None:
                applied.append(j if diag_mean > 0 else 0.0)
            return factor
        except np.linalg.LinAlgError:
            j = _RETRY_JITTER_FLOOR if j == 0.0 else j * 10.0
    raise NotPositiveDefinite(
        f"cholesky failed after {MAX_CHOLESKY_RETRIES} jitter escalations "
        f"(final jitter {j / 10.0:g})"
    )


def tri_solve(l: np.ndarray, b: np.ndarray, transpose: bool = False) -> np.ndarray:
    """Solve L X = B (or Lᵀ X = B when ``transpose``) for lower-triangular L,
    reading only L's lower triangle.

    Blocked substitution over L's diagonal blocks T_i, each of at most
    :data:`_SOLVE_BLOCK` rows: x_i = T_i⁻¹ (b_i − L_{i,<i} x_{<i}), or with
    ``transpose`` x_i = T_i⁻ᵀ (b_i − L_{>i,i}ᵀ x_{>i}) from the last block
    up, the sums over solved rows being GEMMs.  Every T_i⁻¹ comes from one
    batched solve against the identity, each block passed flipped, J T J,
    which is upper triangular: LAPACK's partial pivoting then swaps no row,
    so the LU is the block itself and the call is one triangular solve.
    Each inverse is applied by GEMM, then once more to the block's
    residual, x_i += T_i⁻¹ (r_i − T_i x_i): that step of refinement makes
    the product with an inverse as accurate as substitution, where without
    it the error grows with T_i's condition.  B's width never changes the
    method, so a column solved in a chunk of B agrees with the same column
    solved in one pass to rounding.
    """
    l = np.asarray(l, dtype=float)
    b = np.asarray(b, dtype=float)
    if (l.diagonal() == 0.0).any():
        raise ZeroDiagonal("triangular factor has a zero diagonal entry")
    if l.shape[0] != b.shape[0]:
        raise DimensionMismatch(
            f"factor dim {l.shape[0]} does not match rhs rows {b.shape[0]}"
        )
    if not (np.isfinite(l).all() and np.isfinite(b).all()):
        raise NonFiniteInput("triangular solve given a NaN or infinite entry")
    m = l.shape[0]
    rhs = b[:, None] if b.ndim == 1 else b
    count = max(-(-m // _SOLVE_BLOCK), 1)
    size = max(-(-m // count), 1)  # blocks as even as they come
    padded = l
    if count * size != m:  # the last block, topped up with the identity
        padded = np.eye(count * size)
        padded[:m, :m] = l
    k = np.arange(count)
    blocks = padded.reshape(count, size, count, size)[k, :, k, :] * _lower_mask(size)
    # np.linalg.inv is LAPACK's gesv against the identity
    inverses = np.linalg.inv(blocks[:, ::-1, ::-1])[:, ::-1, ::-1]
    x = np.empty_like(rhs)
    r, c = np.empty((2, size, rhs.shape[1]))
    for s in range(0, m, size)[::-1] if transpose else range(0, m, size):
        e = min(s + size, m)
        ri, ci, xi = r[: e - s], c[: e - s], x[s:e]
        coef, solved = (l[e:, s:e].T, x[e:]) if transpose else (l[s:e, :s], x[:s])
        if len(solved):
            np.subtract(rhs[s:e], np.matmul(coef, solved, out=ci), out=ri)
        else:
            ri[...] = rhs[s:e]
        t, t_inv = blocks[s // size, : e - s, : e - s], inverses[s // size, : e - s, : e - s]
        if transpose:
            t, t_inv = t.T, t_inv.T
        np.matmul(t_inv, ri, out=xi)
        np.matmul(t, xi, out=ci)
        np.subtract(ri, ci, out=ri)
        xi += np.matmul(t_inv, ri, out=ci)
    x = x.reshape(b.shape)
    record_allocation(x)
    return x


@functools.lru_cache(maxsize=_SOLVE_BLOCK)
def _lower_mask(size: int) -> np.ndarray:
    mask = np.tri(size)
    mask.flags.writeable = False
    return mask


def cholesky_vjp(l: np.ndarray, dl: np.ndarray, jitter: float = 0.0) -> np.ndarray:
    """The gradient with respect to a symmetric ``a`` of an objective of its
    factor ``l``, given the objective's gradient ``dl`` with respect to
    ``l``'s lower triangle, where ``l`` factors ``a + jitter * mean(diag(a))
    * I`` (``jitter`` as :func:`cholesky` applied it).

    Murray 2016 (arXiv:1602.07527), in level-3 form: the symmetric part of
    L⁻ᵀ Φ(Lᵀ L̄) L⁻¹, with Φ the lower triangle with its diagonal halved;
    the jitter adds j·tr(Ā)/M to each diagonal entry.
    """
    p = l.T @ np.tril(dl)
    p = np.tril(p) - 0.5 * np.diag(np.diag(p))
    s = tri_solve(l, tri_solve(l, p, transpose=True).T, transpose=True)  # (L⁻ᵀ P L⁻¹)ᵀ
    out = 0.5 * (s + s.T)
    if jitter:
        out[np.diag_indices_from(out)] += jitter * np.trace(out) / out.shape[0]
    return out


def tri_solve_vjp(l, x, dx, transpose: bool = False):
    """The gradients (with respect to ``l``'s lower triangle, and to B) of
    an objective of X = ``tri_solve(l, B, transpose)``, given its gradient
    ``dx`` with respect to X: B̄ = L⁻ᵀX̄ and L̄ = −tril(B̄ Xᵀ), or when
    ``transpose`` B̄ = L⁻¹X̄ and L̄ = −tril(X B̄ᵀ)."""
    x = np.asarray(x, dtype=float)
    db = tri_solve(l, dx, transpose=not transpose)
    x2, db2 = x.reshape(x.shape[0], -1), db.reshape(db.shape[0], -1)
    dl = -(x2 @ db2.T if transpose else db2 @ x2.T)
    return np.tril(dl), db


def block_diag(*blocks: np.ndarray) -> np.ndarray:
    """The square blocks on the diagonal of one dense matrix, zeros elsewhere."""
    ends = np.cumsum([0] + [np.shape(block)[0] for block in blocks])
    out = np.zeros((ends[-1], ends[-1]))
    for block, start, stop in zip(blocks, ends, ends[1:]):
        out[start:stop, start:stop] = block
    return out


# ---------------------------------------------------------------------------
# Quadrature


def gauss_hermite_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for expectations under a standard normal.

    Probabilists' convention, normalized so the weights sum to one:
    E[f(x)] for x ~ N(0, 1) is approximated by sum(w * f(nodes)).
    """
    if not 1 <= n <= 200:
        raise ValueError(f"node count must be in [1, 200], got {n}")
    x, w = hermegauss(n)
    return x, w / np.sum(w)


# ---------------------------------------------------------------------------
# Special functions
#
# From the standard library's erfc and lgamma, applied elementwise.

_erfc = np.frompyfunc(math.erfc, 1, 1)
_LOG_NDTR_SERIES_BELOW = -20.0
_LOG_NDTR_SERIES_TERMS = 12  # the next term is below 1e-17 from x = -20 down


def _lower_tail(x: np.ndarray) -> np.ndarray:
    """Φ(−|x|), accurate to the last bits however far out in the tail."""
    return 0.5 * np.asarray(_erfc(np.abs(x) / math.sqrt(2.0)), dtype=float)


def ndtr(x) -> np.ndarray:
    """The standard normal CDF Φ(x), elementwise."""
    x = np.asarray(x, dtype=float)
    tail = _lower_tail(x)
    return np.where(x > 0.0, 1.0 - tail, tail)


def log_ndtr(x) -> np.ndarray:
    """log Φ(x), elementwise: log1p(−Φ(−x)) above 0, where Φ(x) is near 1;
    log Φ(x) down to −20; below, the asymptotic series of Abramowitz &
    Stegun 26.2.12, log Φ(x) = −x²/2 − log(−x√(2π)) + log Σ (−1)ⁿ
    (2n−1)!! x⁻²ⁿ, where Φ(x) itself underflows."""
    x = np.asarray(x, dtype=float)
    tail = _lower_tail(x)
    out = np.empty_like(x)
    upper = x > 0.0
    series = x < _LOG_NDTR_SERIES_BELOW
    middle = ~(upper | series)
    out[upper] = np.log1p(-tail[upper])
    out[middle] = np.log(tail[middle])
    t = x[series]
    inv_sq = 1.0 / (t * t)
    term = np.ones_like(t)
    total = np.ones_like(t)
    for n in range(1, _LOG_NDTR_SERIES_TERMS + 1):
        term *= -(2 * n - 1) * inv_sq
        total += term
    out[series] = -0.5 * t * t - np.log(-t) - 0.5 * math.log(2.0 * math.pi) + np.log(total)
    return out


def log_factorial(y) -> np.ndarray:
    """log y! = lgamma(y + 1), elementwise; one lgamma per distinct value,
    since y holds counts."""
    y = np.asarray(y, dtype=float)
    values, inverse = np.unique(y, return_inverse=True)
    logs = np.array([math.lgamma(v + 1.0) for v in values.tolist()])
    return logs[inverse].reshape(y.shape)


def logsumexp(a, axis: int) -> np.ndarray:
    """log Σ exp(a) along ``axis``, shifted by the largest entry so that
    nothing overflows; a slice of −inf sums to −inf, and one holding +inf
    to +inf."""
    a = np.asarray(a, dtype=float)
    peak = np.max(a, axis=axis, keepdims=True)
    peak[~np.isfinite(peak)] = 0.0
    # log 0 for a slice of −inf; exp overflows only beside a +inf
    with np.errstate(divide="ignore", over="ignore"):
        out = np.log(np.sum(np.exp(a - peak), axis=axis))
    return out + np.squeeze(peak, axis=axis)


# ---------------------------------------------------------------------------
# Random numbers


class RngState:
    """Seedable counter-based random stream (Philox).

    Identical seed and call sequence produce an identical stream on every
    platform.  Derived states are independent streams addressed by integer
    salt, which keeps stochastic objectives reproducible without any global
    state.
    """

    def __init__(self, seed: int, _key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self._key = tuple(int(s) for s in _key)
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self._key)
        self._generator = np.random.Generator(np.random.Philox(seq))

    def derive(self, *salt: int) -> "RngState":
        """A fresh, reproducible stream addressed by (seed, salt)."""
        return RngState(self.seed, self._key + tuple(salt))

    @property
    def generator(self) -> np.random.Generator:
        return self._generator

    def __repr__(self):
        return f"RngState(seed={self.seed}, key={self._key})"


def standard_normal(rng: RngState, shape) -> np.ndarray:
    """Draw standard normal variates, advancing ``rng`` explicitly."""
    return rng.generator.standard_normal(shape)
