"""Posterior moments of the approximate GP at new inputs.

``conditional`` dispatches on the (inducing variable, kernel) pair and
supports four covariance output modes, selected by ``full_cov`` (covariances
across inputs) and ``full_output_cov`` (covariances across outputs):

    ==========  ================  ====================
    full_cov    full_output_cov   covariance shape
    ==========  ================  ====================
    True        True              [N, P, N, P]
    True        False             [P, N, N]
    False       True              [N, P, P]
    False       False             [N, P]
    ==========  ================  ====================

The returned mean is always [N, P].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariances import kuf, kuu
from .dispatch import DispatchRegistry
from .errors import ShapeMismatch
from .inducing import (
    InducingPatches,
    InducingPoints,
    InducingVariable,
    LatentInducingVariables,
    num_inducing,
)
from .kernels import (
    Convolutional,
    IndependentOutputs,
    Kernel,
    LinearCoregionalization,
    MultioutputKernel,
    k_diag,
    k_full,
    mo_k,
    mo_k_diag,
)
from .numerics import (
    BlockDiagonal,
    RngState,
    as_structured,
    block_cholesky_factors,
    cholesky,
    densify,
    record_allocation,
    standard_normal,
    tri_solve,
)
from .schema import Param, Schema, Static

# Marginal variances at or below this are treated as exactly zero when
# sampling, so deterministic posteriors reproduce their mean.
SAMPLE_VARIANCE_FLOOR = 1e-12


@dataclass(eq=False)
class VariationalGaussian:
    """Free Gaussian posterior over the inducing variables.

    ``q_mu`` is the stacked mean of length M~.  ``q_sqrt`` is a square-root
    factor of the covariance: a dense [M~, R] array (lower-triangular with
    positive diagonal when produced by training, but any factor with
    S = q_sqrt q_sqrtᵀ is accepted by conditionals), a tuple of per-latent
    factors for mean-field posteriors, or None for a deterministic posterior.
    ``whiten`` marks the parameters as living in the whitened space
    u = L_uu v with a standard-normal prior on v.
    """

    q_mu: np.ndarray
    q_sqrt: np.ndarray | tuple[np.ndarray, ...] | None = None
    whiten: bool = True

    # Untagged: the fields sit in the model document itself.
    schema = Schema(
        None,
        Param("q_mu"),
        Param("q_sqrt", "tril"),
        Static("whiten", "whiten", type=bool),
    )

    def __post_init__(self):
        self.q_mu = np.asarray(self.q_mu, dtype=float).reshape(-1)
        s = self.q_sqrt
        if s is None or (np.isscalar(s) and s == 0):
            self.q_sqrt = None
        elif isinstance(s, (list, tuple)):
            self.q_sqrt = tuple(np.asarray(b, dtype=float) for b in s)
        else:
            s = np.asarray(s, dtype=float)
            if s.ndim != 2:
                raise ShapeMismatch(
                    f"dense q_sqrt must be a matrix, got shape {s.shape}"
                )
            self.q_sqrt = s
        self.whiten = bool(self.whiten)

    @property
    def num_inducing(self) -> int:
        return self.q_mu.shape[0]

    @property
    def is_block(self) -> bool:
        return isinstance(self.q_sqrt, tuple)

    @property
    def mean_vector(self) -> np.ndarray:
        return self.q_mu

    def dense_sqrt(self) -> np.ndarray | None:
        if self.is_block:
            raise ShapeMismatch(
                "this code path needs a dense covariance factor, got per-latent blocks"
            )
        return self.q_sqrt

    def mu_blocks(self, sizes) -> list[np.ndarray]:
        if sum(sizes) != self.num_inducing:
            raise ShapeMismatch(
                f"q_mu of length {self.num_inducing} does not split into {sizes}"
            )
        out, offset = [], 0
        for n in sizes:
            out.append(self.q_mu[offset : offset + n])
            offset += n
        return out

    def sqrt_blocks(self, sizes) -> list[np.ndarray | None]:
        if self.q_sqrt is None:
            return [None] * len(sizes)
        if not self.is_block:
            raise ShapeMismatch(
                "latent-independent paths need per-latent q_sqrt factors "
                "(pass a tuple of [M, R] blocks)"
            )
        if len(self.q_sqrt) != len(sizes):
            raise ShapeMismatch(
                f"{len(self.q_sqrt)} q_sqrt blocks for {len(sizes)} latents"
            )
        for block, n in zip(self.q_sqrt, sizes):
            if block.shape[0] != n:
                raise ShapeMismatch(
                    f"q_sqrt block with {block.shape[0]} rows for a latent of size {n}"
                )
        return list(self.q_sqrt)


@dataclass(eq=False)
class PosteriorMoments:
    """Predictive mean [N, P] and covariance in one of the four mode shapes."""

    mean: np.ndarray
    cov: np.ndarray
    full_cov: bool
    full_output_cov: bool


# ---------------------------------------------------------------------------
# Core computation


def _cov_shape(n, p, full_cov, full_output_cov):
    """Covariance shape of a mode; see the module docstring."""
    if full_cov:
        return (n, p, n, p) if full_output_cov else (p, n, n)
    return (n, p, p) if full_output_cov else (n, p)


def _moments(lm, kmn, knn, mu, sqrt, whiten, full_cov, full_output_cov):
    """Mean [N, P] and covariance in the mode shape for Kmm = lm lmᵀ.

    kmn: [M, N, P].  knn: the prior covariance, already in the mode shape.
    Unwhitened: mean = Kmnᵀ Kmm⁻¹ m and
    cov = Knn − Kmnᵀ Kmm⁻¹ Kmn + Kmnᵀ Kmm⁻¹ S Kmm⁻¹ Kmn.
    Whitened (A = L⁻¹Kmn): mean = Aᵀ m and cov = Knn − AᵀA + Aᵀ S A.
    """
    mt, n, p = kmn.shape
    a = tri_solve(lm, kmn.reshape(mt, n * p))  # [M, NP]
    proj = a if whiten else tri_solve(lm, a, transpose=True)
    mean = (proj.T @ mu).reshape(n, p)

    def gram(x):  # the requested slices of xᵀx, x: [R, NP]
        if full_cov and full_output_cov:
            return x.T @ x
        if not (full_cov or full_output_cov):
            return np.sum(x * x, axis=0)
        x3 = x.reshape(-1, n, p)
        if full_cov:
            return np.matmul(x3.transpose(2, 1, 0), x3.transpose(2, 0, 1))
        return np.einsum("inp,inq->npq", x3, x3)

    shape = _cov_shape(n, p, full_cov, full_output_cov)
    cov = knn - gram(a).reshape(shape)
    if sqrt is not None and sqrt.size:
        d = sqrt.T @ proj  # [R, NP]
        record_allocation(d)
        cov = cov + gram(d).reshape(shape)
    record_allocation(cov)
    return mean, cov


def fully_correlated_conditional(
    kmn, kmm, knn, q: VariationalGaussian, *, full_cov, full_output_cov
) -> PosteriorMoments:
    """Conditional from precomputed blocks with a dense M~ x M~ Kmm.

    kmn: [M~, N, P].  knn: the prior covariance in the shape of the
    requested mode ([N, P, N, P], [P, N, N], [N, P, P] or [N, P]).
    """
    kmn = np.asarray(kmn, dtype=float)
    knn = np.asarray(knn, dtype=float)
    mt, n, p = kmn.shape
    lm = cholesky(densify(as_structured(kmm)), jitter=0.0)
    if mt != lm.shape[0]:
        raise ShapeMismatch(f"Kmn has {mt} rows for Kmm of dim {lm.shape[0]}")
    shape = _cov_shape(n, p, full_cov, full_output_cov)
    if knn.shape != shape:
        raise ShapeMismatch(f"Knn has shape {knn.shape}, the mode needs {shape}")
    mean, cov = _moments(
        lm, kmn, knn, q.mean_vector, q.dense_sqrt(), q.whiten,
        full_cov, full_output_cov,
    )
    return PosteriorMoments(mean, cov, full_cov, full_output_cov)


# ---------------------------------------------------------------------------
# Dispatching conditional

CONDITIONAL = DispatchRegistry("conditional")


def conditional(
    xnew,
    iv: InducingVariable,
    kernel: Kernel,
    q: VariationalGaussian,
    *,
    full_cov: bool = False,
    full_output_cov: bool = False,
    jitter: float | None = None,
) -> PosteriorMoments:
    """Moments of the approximate posterior q(f(Xnew))."""
    expected = num_inducing(iv, kernel)
    if q.num_inducing != expected:
        raise ShapeMismatch(
            f"q has {q.num_inducing} inducing entries, pair requires {expected}"
        )
    impl = CONDITIONAL.resolve(type(iv), type(kernel))
    return impl(
        np.asarray(xnew, dtype=float),
        iv,
        kernel,
        q,
        full_cov=full_cov,
        full_output_cov=full_output_cov,
        jitter=jitter,
    )


# Summed-patch response is a scalar process; the single-output path applies
# once Kuu/Kuf are the patch covariances.
@CONDITIONAL.register(InducingPatches, Convolutional)
@CONDITIONAL.register(InducingVariable, Kernel)
def _single_output_conditional(
    xnew, iv, kernel, q, *, full_cov, full_output_cov, jitter
):
    kmm = kuu(iv, kernel, jitter)
    kmn = kuf(iv, kernel, xnew)[:, :, None]  # [M, N, 1]
    knn = k_full(kernel, xnew) if full_cov else k_diag(kernel, xnew)
    shape = _cov_shape(kmn.shape[1], 1, full_cov, full_output_cov)
    return fully_correlated_conditional(
        kmn, kmm, knn.reshape(shape), q,
        full_cov=full_cov, full_output_cov=full_output_cov,
    )


# ---------------------------------------------------------------------------
# Fully-correlated multioutput inducing points


@CONDITIONAL.register(InducingPoints, MultioutputKernel)
def _inducing_point_conditional(
    xnew, iv, kernel, q, *, full_cov, full_output_cov, jitter
):
    kmm = kuu(iv, kernel, jitter)  # Dense [MP, MP]
    kmn4 = kuf(iv, kernel, xnew)  # [M, P, N, P]
    m, p, n, p2 = kmn4.shape
    if full_cov:
        knn = mo_k(kernel, xnew, full_output_cov=True)  # [N, P, N, P]
        if not full_output_cov:
            knn = np.einsum("npmp->pnm", knn)
    else:
        knn = mo_k_diag(kernel, xnew, full_output_cov=full_output_cov)
    return fully_correlated_conditional(
        kmn4.reshape(m * p, n, p2),
        kmm,
        knn,
        q,
        full_cov=full_cov,
        full_output_cov=full_output_cov,
    )


# ---------------------------------------------------------------------------
# Latent-process inducing variables


def _latent_moments(xnew, iv, kernel, q, full_cov, jitter):
    """Per-latent posterior moments under the mean-field posterior.

    Returns mean [N, L] and variance [N, L] (or covariance [L, N, N]).
    """
    kmm = kuu(iv, kernel, jitter)
    if not isinstance(kmm, BlockDiagonal):
        raise ShapeMismatch("latent conditional expects a block-diagonal Kuu")
    kmn = kuf(iv, kernel, xnew)  # latent blocks of rows, stacked like q_mu
    factors = block_cholesky_factors(kmm)  # shared blocks factorized once
    sizes = [f.shape[0] for f in factors]
    mus = q.mu_blocks(sizes)
    sqrts = q.sqrt_blocks(sizes)
    shape = _cov_shape(kmn.shape[1], 1, full_cov, False)
    priors: dict[int, np.ndarray] = {}  # latents sharing a kernel share a prior
    means, covs = [], []
    start = 0
    for i, k in enumerate(kernel.latent_kernels):
        if id(k) not in priors:
            priors[id(k)] = (k.K(xnew) if full_cov else k.K_diag(xnew)).reshape(shape)
        block = kmn[start : start + sizes[i], :, None]
        start += sizes[i]
        mean, cov = _moments(
            factors[i], block, priors[id(k)], mus[i], sqrts[i],
            q.whiten, full_cov, False,
        )
        means.append(mean)
        covs.append(cov)
    gvar = np.concatenate(covs, axis=0 if full_cov else 1)  # [L, N, N] or [N, L]
    return np.concatenate(means, axis=1), gvar


@CONDITIONAL.register(LatentInducingVariables, IndependentOutputs)
def _independent_outputs_conditional(
    xnew, iv, kernel, q, *, full_cov, full_output_cov, jitter
):
    gmean, gvar = _latent_moments(xnew, iv, kernel, q, full_cov, jitter)
    n, p = gmean.shape
    idx = np.arange(p)
    if full_cov and full_output_cov:
        cov = np.zeros((n, p, n, p))
        cov[:, idx, :, idx] = gvar  # [P, N, N] into the diagonal output blocks
    elif full_cov:
        cov = gvar  # [P, N, N]
    elif full_output_cov:
        cov = np.zeros((n, p, p))
        cov[:, idx, idx] = gvar  # [N, P] onto the per-point diagonals
    else:
        cov = gvar  # [N, P]
    record_allocation(cov)
    return PosteriorMoments(gmean, cov, full_cov, full_output_cov)


@CONDITIONAL.register(LatentInducingVariables, LinearCoregionalization)
def _coregionalization_conditional(
    xnew, iv, kernel, q, *, full_cov, full_output_cov, jitter
):
    # Latent moments first, then the output mixing: mean = W mu_g and
    # cov = W Sigma_g Wᵀ, never materializing anything of output size
    # squared times inducing size.
    gmean, gvar = _latent_moments(xnew, iv, kernel, q, full_cov, jitter)
    w = kernel.w  # [P, L]
    mean = gmean @ w.T
    if full_cov and full_output_cov:
        cov = np.einsum("pl,lnm,ql->npmq", w, gvar, w)
    elif full_cov:
        cov = np.einsum("pl,lnm->pnm", w * w, gvar)
    elif full_output_cov:
        cov = np.einsum("pl,nl,ql->npq", w, gvar, w)
    else:
        cov = gvar @ (w * w).T
    record_allocation(cov)
    return PosteriorMoments(mean, cov, full_cov, full_output_cov)


# ---------------------------------------------------------------------------
# Sampling

SAMPLE_CONDITIONAL = DispatchRegistry("sample_conditional")


def sample_conditional(
    xnew,
    iv: InducingVariable,
    kernel: Kernel,
    q: VariationalGaussian,
    rng: RngState,
    num_samples: int = 1,
    jitter: float | None = None,
) -> np.ndarray:
    """Draw reparameterized samples of f(Xnew); returns [num_samples, N, P]."""
    impl = SAMPLE_CONDITIONAL.resolve(type(iv), type(kernel))
    return impl(
        np.asarray(xnew, dtype=float),
        iv,
        kernel,
        q,
        rng,
        int(num_samples),
        jitter,
    )


def _outputs_correlated(iv, kernel, q) -> bool:
    """Whether per-point outputs can be correlated under the posterior."""
    if isinstance(iv, InducingPatches) and isinstance(kernel, Convolutional):
        return False
    if isinstance(kernel, IndependentOutputs) and isinstance(
        iv, LatentInducingVariables
    ):
        return False  # mean-field posterior keeps outputs independent
    return isinstance(kernel, MultioutputKernel)


def _marginal_sqrt(cov_n):
    """Factor of one P x P marginal; numerically zero slices collapse to 0."""
    if float(np.max(np.abs(np.diag(cov_n)))) <= SAMPLE_VARIANCE_FLOOR:
        return np.zeros_like(cov_n)
    return cholesky(cov_n, jitter=0.0)


@SAMPLE_CONDITIONAL.register(InducingVariable, Kernel)
def _default_sample_conditional(xnew, iv, kernel, q, rng, num_samples, jitter):
    correlated = _outputs_correlated(iv, kernel, q)
    moments = conditional(
        xnew,
        iv,
        kernel,
        q,
        full_cov=False,
        full_output_cov=correlated,
        jitter=jitter,
    )
    n, p = moments.mean.shape
    eps = standard_normal(rng, (num_samples, n, p))
    if correlated:
        factors = np.stack([_marginal_sqrt(c) for c in moments.cov])  # [N, P, P]
        noise = np.einsum("npq,snq->snp", factors, eps)
    else:
        var = np.asarray(moments.cov, dtype=float)
        var = np.where(var <= SAMPLE_VARIANCE_FLOOR, 0.0, var)
        noise = np.sqrt(var) * eps
    return moments.mean[None, :, :] + noise
