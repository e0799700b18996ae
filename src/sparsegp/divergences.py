"""KL divergence between the variational posterior and the prior.

The unwhitened divergence for q(u) = N(m, S) against p(u) = N(0, Kuu) is

    KL = -1/2 log|S| - M/2 + 1/2 log|Kuu| + 1/2 Tr(Kuu⁻¹ (S + m mᵀ)),

with log|S| read off the factor diagonal.  Whitening removes Kuu entirely:

    KL = -1/2 log|S_v| - M/2 + 1/2 m_vᵀ m_v + 1/2 Tr(S_v).

With per-latent q factors the prior's Kuu is block diagonal, so the
divergence is a sum of independent per-latent ones, each against its own
factor.  Kuu enters only through its Cholesky factor, which the caller's
posterior owns: ``gauss_kl`` never factors.  One routine, ``gauss_kl``,
gives the value and, with ``grads``, its gradients from the same pass over
the blocks; ``Posterior.backward`` reads the gradients.
"""

from __future__ import annotations

import numpy as np

from .covariances import PAIRS
from .errors import ShapeMismatch
from .numerics import tri_solve


def _blocks(q, factor):
    """(mean, factor of S, Kuu factor) per block of q: one block unless q
    has per-latent factors.  Whitened q reads no Kuu factor (None)."""
    mu = q.q_mu
    if not q.whiten and factor is None:
        raise ShapeMismatch("unwhitened KL needs the Cholesky factor of Kuu")
    if not q.is_block:
        return [(mu, q.q_sqrt, None if q.whiten else factor)]
    factors = (None,) * len(q.q_sqrt) if q.whiten else factor
    if len(factors) != len(q.q_sqrt):
        raise ShapeMismatch(
            f"{len(q.q_sqrt)} q_sqrt blocks for {len(factors)} covariance blocks"
        )
    blocks, offset = [], 0
    for luu, block in zip(factors, q.q_sqrt):
        m = block.shape[0]
        blocks.append((mu[offset : offset + m], block, luu))
        offset += m
    if offset != mu.shape[0]:
        raise ShapeMismatch("q_sqrt blocks do not cover q_mu")
    return blocks


def gauss_kl(q, factor=None, grads=False):
    """KL(q(u) || p(u)).

    Unwhitened parameters need the prior's ``factor``, the Cholesky factor
    of Kuu: one lower-triangular matrix, or the per-latent factors when q
    has per-latent blocks.  Whitened parameters need none.

    With ``grads`` it returns (value, dmu, dsqrt, dfactor) from the same
    pass over the blocks: the gradients with respect to q_mu, q_sqrt and
    the prior's factor, each in its argument's shape (None for the factor
    of whitened q, which reads none).  Per block, whitened: m and
    L_S − diag(1 / diag L_S); unwhitened: Kuu⁻¹m and
    Kuu⁻¹L_S − diag(1 / diag L_S), through triangular solves, and for the
    factor L, diag(1 / diag L) − tril(Kuu⁻¹m αᵀ + Kuu⁻¹L_S βᵀ) with
    α = L⁻¹m and β = L⁻¹L_S.
    """
    value, means, sqrts, factors = 0, [], [], []
    for mu, sqrt, luu in _blocks(q, factor):
        m = mu.shape[0]
        if sqrt is None or sqrt.shape != (m, m):
            got = "none" if sqrt is None else f"shape {sqrt.shape}"
            raise ShapeMismatch(f"KL needs a square [{m}, {m}] covariance factor, got {got}")
        logdet_s = 2.0 * float(np.sum(np.log(np.abs(np.diag(sqrt)))))
        if luu is None:
            value += 0.5 * (-logdet_s - m + float(mu @ mu) + float(np.sum(sqrt * sqrt)))
            dmu, dsqrt = mu, sqrt
        else:
            logdet_k = 2.0 * float(np.sum(np.log(np.diag(luu))))
            alpha = tri_solve(luu, mu)  # Kuu⁻¹ enters only through triangular solves
            beta = tri_solve(luu, sqrt)
            trace = float(np.sum(beta * beta))
            value += 0.5 * (-logdet_s - m + logdet_k + trace + float(alpha @ alpha))
            if grads:
                dmu = tri_solve(luu, alpha, transpose=True)
                dsqrt = tri_solve(luu, beta, transpose=True)
                outer = np.outer(dmu, alpha) + dsqrt @ beta.T
                factors.append(np.diag(1.0 / np.diag(luu)) - np.tril(outer))
        if grads:
            means.append(dmu)
            sqrts.append(dsqrt - np.diag(1.0 / np.diag(sqrt)))  # from -1/2 log|S|
    if not grads:
        return value
    if q.is_block:
        return value, np.concatenate(means), tuple(sqrts), factors or None
    return value, means[0], sqrts[0], factors[0] if factors else None


def prior_kl(iv, kernel, q, jitter: float | None = None, *, factor=None) -> float:
    """KL against the prior.  Unwhitened q reads ``factor`` (as in
    ``gauss_kl``) when given, else the factor of the posterior the pair's
    registered class builds, as a model builds its own; that constructor
    checks q's sizes first."""
    if factor is None and not q.whiten:
        factor = PAIRS.resolve(type(iv), type(kernel))(iv, kernel, q, jitter).factor
    return gauss_kl(q, factor)
