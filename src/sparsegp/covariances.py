"""Covariances between inducing variables and function values.

Kuu and Kuf are dispatch functions over the (inducing variable, kernel)
pair.  Kuu returns a structured PSD matrix with the jitter already added, so
downstream factorizations receive pre-stabilized operands.  Kuf shapes are
tagged by dimensionality: [M, N] for single-latent pairs, [M, P, N, P] for
fully-correlated multioutput inducing points, and [M_1 + ... + M_L, N] for
latent-process inducing variables: each latent's block of rows against its
own process, stacked like q_mu (mixing, if any, is applied by the
conditional).
"""

from __future__ import annotations

import numpy as np

from .dispatch import DispatchRegistry
from .errors import UnsupportedCombination
from .inducing import (
    InducingPatches,
    InducingPoints,
    InducingVariable,
    LatentInducingVariables,
    Multiscale,
)
from .kernels import (
    Convolutional,
    IndependentLatent,
    Kernel,
    MultioutputKernel,
    SquaredExponential,
    k_full,
    mo_k,
)
from .numerics import (
    BlockDiagonal,
    Dense,
    StructuredPSD,
    default_jitter,
    densify,
    record_allocation,
)

KUU = DispatchRegistry("Kuu")
KUF = DispatchRegistry("Kuf")


def kuu(iv: InducingVariable, kernel: Kernel, jitter: float | None = None) -> StructuredPSD:
    """Covariance of the inducing variables, plus jitter on the diagonal."""
    if jitter is None:
        jitter = default_jitter()
    impl = KUU.resolve(type(iv), type(kernel))
    return impl(iv, kernel, float(jitter))


def kuf(iv: InducingVariable, kernel: Kernel, xnew) -> np.ndarray:
    """Covariance between the inducing variables and f at new inputs."""
    impl = KUF.resolve(type(iv), type(kernel))
    out = impl(iv, kernel, np.asarray(xnew, dtype=float))
    record_allocation(out)
    return out


# ---------------------------------------------------------------------------
# Inducing points


@KUU.register(InducingPoints, Kernel)
def _kuu_inducing_points(iv, kernel, jitter):
    k = k_full(kernel, iv.z)
    out = k + jitter * np.eye(k.shape[0])
    record_allocation(out)
    return Dense(out)


@KUF.register(InducingPoints, Kernel)
def _kuf_inducing_points(iv, kernel, xnew):
    return k_full(kernel, iv.z, xnew)  # [M, N]


@KUU.register(InducingPoints, MultioutputKernel)
def _kuu_mo_inducing_points(iv, kernel, jitter):
    full = mo_k(kernel, iv.z, full_output_cov=True)  # [M, P, M, P]
    mp = full.shape[0] * full.shape[1]
    dense = full.reshape(mp, mp) + jitter * np.eye(mp)
    record_allocation(dense)
    return Dense(dense)


@KUF.register(InducingPoints, MultioutputKernel)
def _kuf_mo_inducing_points(iv, kernel, xnew):
    return mo_k(kernel, iv.z, xnew, full_output_cov=True)  # [M, P, N, P]


# ---------------------------------------------------------------------------
# Multiscale windows for the squared-exponential kernel
#
# With a Gaussian window of per-dimension width s around z, integrating the
# kernel once (Kuf) widens the effective squared lengthscale to l^2 + s^2;
# integrating twice (Kuu) gives l^2 + s_m^2 + s_m'^2.  The normalization
# prod(sqrt(l^2 / eff^2)) makes s -> 0 recover plain inducing points.


def _multiscale_prefactor(kernel, eff2):
    ls2 = kernel.lengthscales**2
    return kernel.variance * np.prod(np.sqrt(ls2 / eff2), axis=-1)


# Other kernels have no windowed form, so they refuse multiscale inducing
# variables rather than treat them as plain points.  The multioutput entries
# keep the refusal from being ambiguous with the multioutput-points pair.
@KUU.register(Multiscale, Kernel)
@KUF.register(Multiscale, Kernel)
@KUU.register(Multiscale, MultioutputKernel)
@KUF.register(Multiscale, MultioutputKernel)
def _multiscale_other_kernel(iv, kernel, _):
    raise UnsupportedCombination(
        f"multiscale inducing variables have windowed covariances for the "
        f"squared-exponential kernel only, got {type(kernel).__name__}"
    )


@KUU.register(Multiscale, SquaredExponential)
def _kuu_multiscale_sqexp(iv, kernel, jitter):
    z = iv.z
    s2 = iv.scales**2
    ls2 = np.broadcast_to(kernel.lengthscales**2, (z.shape[1],))
    eff2 = ls2[None, None, :] + s2[:, None, :] + s2[None, :, :]  # [M, M, D]
    d2 = (z[:, None, :] - z[None, :, :]) ** 2
    k = _multiscale_prefactor(kernel, eff2) * np.exp(
        -0.5 * np.sum(d2 / eff2, axis=-1)
    )
    out = k + jitter * np.eye(k.shape[0])
    record_allocation(out)
    return Dense(out)


@KUF.register(Multiscale, SquaredExponential)
def _kuf_multiscale_sqexp(iv, kernel, xnew):
    z = iv.z
    s2 = iv.scales**2
    ls2 = np.broadcast_to(kernel.lengthscales**2, (z.shape[1],))
    eff2 = ls2[None, :] + s2  # [M, D]
    d2 = (z[:, None, :] - xnew[None, :, :]) ** 2  # [M, N, D]
    return _multiscale_prefactor(kernel, eff2)[:, None] * np.exp(
        -0.5 * np.sum(d2 / eff2[:, None, :], axis=-1)
    )


# ---------------------------------------------------------------------------
# Inducing patches for convolutional kernels (summed-patch response)


@KUU.register(InducingPatches, Convolutional)
def _kuu_patches_conv(iv, kernel, jitter):
    k = kernel.kernel.K(iv.z)  # patch-response kernel on the patches
    out = k + jitter * np.eye(k.shape[0])
    record_allocation(out)
    return Dense(out)


@KUF.register(InducingPatches, Convolutional)
def _kuf_patches_conv(iv, kernel, xnew):
    patches = kernel.patches(xnew)  # [N, P, h*w]
    n, p, _ = patches.shape
    gram = kernel.kernel.K(iv.z, patches.reshape(n * p, -1))  # [M, N*P]
    return gram.reshape(-1, n, p).sum(axis=2)  # [M, N]


# ---------------------------------------------------------------------------
# Latent-process inducing variables
#
# The prior independence of the latent processes makes Kuu block diagonal.
# Each latent's blocks come from the dispatch on its own (member, latent
# kernel) pair, so a multiscale member keeps its windows.  Blocks shared by
# several latents (shared inducing sets with a shared kernel) are stored
# once with a repeat count, so a single factorization serves all of them.


def _latent_pairs(iv, kernel):
    kernels = kernel.latent_kernels
    ivs = iv.per_latent(len(kernels))
    return list(zip(kernels, ivs))


@KUU.register(LatentInducingVariables, IndependentLatent)
def _kuu_latent(iv, kernel, jitter):
    blocks: list[np.ndarray] = []
    repeats: list[int] = []
    last_key = None
    for k, member in _latent_pairs(iv, kernel):
        key = (id(k), id(member))
        if key == last_key:
            repeats[-1] += 1
            continue
        blocks.append(densify(kuu(member, k, jitter)))
        repeats.append(1)
        last_key = key
    return BlockDiagonal(tuple(blocks), tuple(repeats))


@KUF.register(LatentInducingVariables, IndependentLatent)
def _kuf_latent(iv, kernel, xnew):
    seen: dict[tuple[int, int], np.ndarray] = {}
    grams = []
    for k, member in _latent_pairs(iv, kernel):
        key = (id(k), id(member))
        if key not in seen:
            seen[key] = kuf(member, k, xnew)
        grams.append(seen[key])
    return np.concatenate(grams)  # [M_1 + ... + M_L, N]
