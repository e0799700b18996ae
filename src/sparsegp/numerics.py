"""Dense linear algebra, quadrature, and random numbers.

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
import os

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from scipy.linalg import solve_triangular

from .errors import (
    AsymmetricInput,
    ConfigError,
    DimensionMismatch,
    NonSquare,
    NotPositiveDefinite,
    ZeroDiagonal,
)

DEFAULT_JITTER = 1e-6
JITTER_ENV_VAR = "SPARSEGP_JITTER"
MAX_CHOLESKY_RETRIES = 5
_RETRY_JITTER_FLOOR = 1e-12
_SYMMETRY_RTOL = 1e-10


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
    """Solve L X = B (or Lᵀ X = B when ``transpose``) for lower-triangular L."""
    l = np.asarray(l, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(np.diag(l) == 0.0):
        raise ZeroDiagonal("triangular factor has a zero diagonal entry")
    if l.shape[0] != b.shape[0]:
        raise DimensionMismatch(
            f"factor dim {l.shape[0]} does not match rhs rows {b.shape[0]}"
        )
    x = solve_triangular(l, b, lower=True, trans=1 if transpose else 0)
    record_allocation(x)
    return x


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
