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

# Mixed-flag fully-correlated conditionals build the full correction tensor
# and marginalize it when N*P is at most this; larger problems stream the
# requested slices directly.
FULL_TENSOR_CUTOFF = 512

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
        Static("whiten", "whiten"),
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
# Core single-latent computation


def _base_moments(lm, kmn, knn, mu, sqrt, whiten, full_cov):
    """Raw moments for one latent process.

    lm: Cholesky factor of Kmm.  kmn: [M, N].  knn: [N, N] or [N].
    Returns mean [N] and covariance [N, N] or variance [N].
    """
    a = tri_solve(lm, kmn)  # [M, N]
    if full_cov:
        fvar = knn - a.T @ a
    else:
        fvar = knn - np.sum(a * a, axis=0)
    proj = a if whiten else tri_solve(lm, a, transpose=True)
    mean = proj.T @ mu
    if sqrt is not None and sqrt.size:
        d = sqrt.T @ proj  # [R, N]
        record_allocation(d)
        if full_cov:
            fvar = fvar + d.T @ d
        else:
            fvar = fvar + np.sum(d * d, axis=0)
    record_allocation(fvar)
    return mean, fvar


def _expand_single_output(mean, fvar, full_cov, full_output_cov) -> PosteriorMoments:
    """Package single-latent moments into the P = 1 mode shapes."""
    mean = mean[:, None]  # [N, 1]
    n = mean.shape[0]
    if full_cov and full_output_cov:
        cov = fvar.reshape(n, 1, n, 1)
    elif full_cov:
        cov = fvar[None, :, :]
    elif full_output_cov:
        cov = fvar.reshape(n, 1, 1)
    else:
        cov = fvar[:, None]
    return PosteriorMoments(mean, cov, full_cov, full_output_cov)


def base_conditional(kmn, kmm, knn, q: VariationalGaussian, full_cov: bool = False):
    """Single-latent conditional from precomputed covariance blocks.

    Unwhitened: mean = Kmnᵀ Kmm⁻¹ m and
    cov = Knn − Kmnᵀ Kmm⁻¹ Kmn + Kmnᵀ Kmm⁻¹ S Kmm⁻¹ Kmn.
    Whitened (A = L⁻¹Kmn): mean = Aᵀ m and cov = Knn − AᵀA + Aᵀ S A.
    """
    kmn = np.asarray(kmn, dtype=float)
    lm = cholesky(densify(as_structured(kmm)), jitter=0.0)
    if kmn.shape[0] != lm.shape[0]:
        raise ShapeMismatch(
            f"Kmn has {kmn.shape[0]} rows for Kmm of dim {lm.shape[0]}"
        )
    mean, fvar = _base_moments(
        lm, kmn, np.asarray(knn, dtype=float), q.mean_vector, q.dense_sqrt(),
        q.whiten, full_cov,
    )
    return _expand_single_output(mean, fvar, full_cov, False)


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


@CONDITIONAL.register(InducingVariable, Kernel)
def _single_output_conditional(
    xnew, iv, kernel, q, *, full_cov, full_output_cov, jitter
):
    kmm = kuu(iv, kernel, jitter)
    kmn = kuf(iv, kernel, xnew)
    knn = k_full(kernel, xnew) if full_cov else k_diag(kernel, xnew)
    lm = cholesky(densify(kmm), jitter=0.0)
    mean, fvar = _base_moments(
        lm, kmn, knn, q.mean_vector, q.dense_sqrt(), q.whiten, full_cov
    )
    return _expand_single_output(mean, fvar, full_cov, full_output_cov)


@CONDITIONAL.register(InducingPatches, Convolutional)
def _conv_patch_conditional(xnew, iv, kernel, q, **kwargs):
    # Summed-patch response is a scalar process; the single-output path
    # applies once Kuu/Kuf are the patch covariances.
    return _single_output_conditional(xnew, iv, kernel, q, **kwargs)


# ---------------------------------------------------------------------------
# Fully-correlated multioutput inducing points


@CONDITIONAL.register(InducingPoints, MultioutputKernel)
def _inducing_point_conditional(
    xnew, iv, kernel, q, *, full_cov, full_output_cov, jitter
):
    kmm = kuu(iv, kernel, jitter)  # Dense [MP, MP]
    kmn4 = kuf(iv, kernel, xnew)  # [M, P, N, P]
    m, p, n, p2 = kmn4.shape
    mt = m * p

    if full_cov == full_output_cov:
        kmn = kmn4.reshape(mt, n * p2)
        if full_cov:
            knn = mo_k(kernel, xnew, full_output_cov=True).reshape(n * p2, n * p2)
            record_allocation(knn)
        else:
            knn = mo_k_diag(kernel, xnew, full_output_cov=False).reshape(-1)
        lm = cholesky(densify(kmm), jitter=0.0)
        mean, fvar = _base_moments(
            lm, kmn, knn, q.mean_vector, q.dense_sqrt(), q.whiten, full_cov
        )
        mean = mean.reshape(n, p2)
        cov = fvar.reshape(n, p2, n, p2) if full_cov else fvar.reshape(n, p2)
        return PosteriorMoments(mean, cov, full_cov, full_output_cov)

    if full_cov:
        full = mo_k(kernel, xnew, full_output_cov=True)  # [N, P, N, P]
        knn = np.einsum("npmp->pnm", full)
    else:
        knn = mo_k_diag(kernel, xnew, full_output_cov=True)  # [N, P, P]
    return fully_correlated_conditional(
        kmn4.reshape(mt, n, p2),
        kmm,
        knn,
        q,
        full_cov=full_cov,
        full_output_cov=full_output_cov,
    )


def fully_correlated_conditional(
    kmn, kmm, knn, q: VariationalGaussian, *, full_cov, full_output_cov
) -> PosteriorMoments:
    """Mixed-mode conditional for a dense M~ x M~ inducing covariance.

    kmn: [M~, N, P].  knn: [P, N, N] when full_cov else [N, P, P].  The
    equal-flag modes are a plain reshape of the single-latent computation and
    are handled by the caller.
    """
    if full_cov == full_output_cov:
        raise ValueError("equal modes route through base_conditional via reshape")
    kmn = np.asarray(kmn, dtype=float)
    mt, n, p = kmn.shape
    lm = cholesky(densify(as_structured(kmm)), jitter=0.0)

    a = tri_solve(lm, kmn.reshape(mt, n * p))  # [M~, NP]
    proj = a if q.whiten else tri_solve(lm, a, transpose=True)
    mean = (proj.T @ q.mean_vector).reshape(n, p)
    sqrt = q.dense_sqrt()
    d = sqrt.T @ proj if sqrt is not None and sqrt.size else None

    if n * p <= FULL_TENSOR_CUTOFF:
        corr = -a.T @ a
        if d is not None:
            corr = corr + d.T @ d
        record_allocation(corr)
        corr = corr.reshape(n, p, n, p)
        if full_cov:
            cov = knn + np.einsum("npmp->pnm", corr)
        else:
            cov = knn + np.einsum("npnq->npq", corr)
    else:
        a3 = a.reshape(mt, n, p)
        d3 = d.reshape(-1, n, p) if d is not None else None
        if full_cov:
            cov = knn - np.einsum("inp,imp->pnm", a3, a3)
            if d3 is not None:
                cov = cov + np.einsum("inp,imp->pnm", d3, d3)
        else:
            cov = knn - np.einsum("inp,inq->npq", a3, a3)
            if d3 is not None:
                cov = cov + np.einsum("inp,inq->npq", d3, d3)
    record_allocation(cov)
    return PosteriorMoments(mean, cov, full_cov, full_output_cov)


# ---------------------------------------------------------------------------
# Latent-process inducing variables


def _latent_prior_full(kernel, x):
    seen: dict[int, np.ndarray] = {}
    grams = []
    for k in kernel.latent_kernels:
        if id(k) not in seen:
            seen[id(k)] = k.K(x)
        grams.append(seen[id(k)])
    return grams  # list of [N, N]


def _latent_prior_diag(kernel, x):
    seen: dict[int, np.ndarray] = {}
    diags = []
    for k in kernel.latent_kernels:
        if id(k) not in seen:
            seen[id(k)] = k.K_diag(x)
        diags.append(seen[id(k)])
    return diags  # list of [N]


def _latent_moments(xnew, iv, kernel, q, full_cov, jitter):
    """Per-latent posterior moments under the mean-field posterior.

    Returns mean [N, L] and variance [N, L] (or covariance [L, N, N]).
    """
    kmm = kuu(iv, kernel, jitter)
    if not isinstance(kmm, BlockDiagonal):
        raise ShapeMismatch("latent conditional expects a block-diagonal Kuu")
    kmn = kuf(iv, kernel, xnew)  # [L, M, N]
    factors = block_cholesky_factors(kmm)  # shared blocks factorized once
    sizes = [f.shape[0] for f in factors]
    mus = q.mu_blocks(sizes)
    sqrts = q.sqrt_blocks(sizes)
    priors = (
        _latent_prior_full(kernel, xnew)
        if full_cov
        else _latent_prior_diag(kernel, xnew)
    )

    n = xnew.shape[0]
    l = len(factors)
    gmean = np.empty((n, l))
    gvar = np.empty((l, n, n)) if full_cov else np.empty((n, l))
    for i in range(l):
        mean_i, var_i = _base_moments(
            factors[i], kmn[i], priors[i], mus[i], sqrts[i], q.whiten, full_cov
        )
        gmean[:, i] = mean_i
        if full_cov:
            gvar[i] = var_i
        else:
            gvar[:, i] = var_i
    return gmean, gvar


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
