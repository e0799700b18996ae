"""Covariance functions: single-output families and multioutput combinations.

Multioutput evaluations follow a fixed stacking convention: the full
covariance of P outputs at N and N2 points is an [N, P, N2, P] tensor whose
row-major flattening matches index i = n * P + p.  A kernel of independent
latent processes writes its latent-to-output map once, as ``mix_mean`` and
``mix``; its ``K`` and ``K_diag`` and the latent posteriors all apply it.

A stationary kernel has one vector-Jacobian product, ``K_vjp``: the
gradients of Σ G ⊙ K(x, x2) with respect to x, x2, ``variance`` and
``lengthscales``.  Each family gives only its dk/dr² (``dk_dr2``), finite
at r = 0 (Matérn-1/2 takes its central derivative 0 there); a family
without one has no VJP, and training takes differences for its slots.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionMismatch, PatchLargerThanImage, UnsupportedMode
from .numerics import record_allocation
from .schema import Child, Param, Schema, Setting

VARIANCE = Param("variance", "positive", scalar=True, default=1.0)


def _as_2d(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise DimensionMismatch(f"inputs must be [N, D], got shape {x.shape}")
    return x


def _as_pair(x, x2):
    """``x`` and ``x2`` as [N, D] and [N2, D] inputs; ``x2`` None is ``x``."""
    x = _as_2d(x)
    x2 = x if x2 is None else _as_2d(x2)
    if x.shape[1] != x2.shape[1]:
        raise DimensionMismatch(f"input dims differ: {x.shape[1]} vs {x2.shape[1]}")
    return x, x2


class Kernel:
    """Base class for all covariance functions."""


class SingleOutputKernel(Kernel):
    def __init__(self, variance: float = 1.0):
        variance = float(variance)
        if variance <= 0:
            raise ValueError("variance must be positive")
        self.variance = variance

    def K(self, x, x2=None) -> np.ndarray:
        raise NotImplementedError

    def K_diag(self, x) -> np.ndarray:
        """The variance at every row, unless the family says otherwise."""
        x = _as_2d(x)
        return np.full(x.shape[0], self.variance)


class Stationary(SingleOutputKernel):
    """Isotropic-after-scaling kernel with per-dimension lengthscales.

    A subclass declares itself as ``schema = Schema(<tag>, *Stationary.fields)``.
    """

    fields = (VARIANCE, Param("lengthscales", "positive", default=1.0))

    def __init__(self, variance: float = 1.0, lengthscales=1.0):
        super().__init__(variance)
        lengthscales = np.asarray(lengthscales, dtype=float).reshape(-1)
        if lengthscales.size == 0 or np.any(lengthscales <= 0):
            raise ValueError("lengthscales must be one or more positive numbers")
        self.lengthscales = lengthscales

    def _scaled_r2(self, x, x2) -> np.ndarray:
        """Scaled squared distances by the expansion |a|² + |b|² − 2a·b.  Its
        rounding, about 1e-16 of |a|² + |b|², is not small against r² where
        rows nearly coincide, and Matérn-1/2's kink would amplify it: there
        r² is exactly 0 on the diagonal of inputs against themselves (``x2``
        None or ``x``) and taken from the rows' differences elsewhere."""
        same = x2 is None or x2 is x
        x, x2 = _as_pair(x, None if same else x2)
        ls = self.lengthscales
        if ls.shape[0] not in (1, x.shape[1]):
            raise DimensionMismatch(
                f"lengthscales of length {ls.shape[0]} do not broadcast to "
                f"{x.shape[1]} input dims"
            )
        a = x / ls
        b = x2 / ls
        aa, bb = np.sum(a * a, axis=1), np.sum(b * b, axis=1)
        r2 = aa[:, None] + bb[None, :] - 2.0 * (a @ b.T)
        if same:
            np.fill_diagonal(r2, 0.0)
        elif r2.size:
            cancelled = 1e-12 * (aa.max() + bb.max())
            if r2.min() < cancelled:  # one reduction for a gram with no such entry
                cols = np.flatnonzero(r2.min(axis=0) < cancelled)
                i, j = np.nonzero(r2[:, cols] < cancelled)
                r2[i, cols[j]] = np.sum((a[i] - b[cols[j]]) ** 2, axis=1)
        return np.maximum(r2, 0.0, out=r2)

    def _from_r2(self, r2):
        raise NotImplementedError

    # dk/dr² at the scaled squared distances r², 0 at r² = 0 where k has a
    # kink there: a family that gives it (``dk_dr2(self, r2)``) has
    # ``K_vjp``, and training takes differences for one that does not.
    dk_dr2 = None

    def K(self, x, x2=None) -> np.ndarray:
        out = self._from_r2(self._scaled_r2(x, x2))
        record_allocation(out)
        return out

    def K_vjp(self, x, x2, dk):
        """The gradients of Σ dk ⊙ K(x, x2) with respect to x, x2 and the
        kernel's parameters (keyed by their schema names), from ``dk_dr2``."""
        x, x2 = _as_2d(x), _as_2d(x2)
        r2 = self._scaled_r2(x, x2)
        dvariance = float(np.sum(dk * self._from_r2(r2))) / self.variance
        g = self.dk_dr2(r2)
        del r2
        g *= dk  # the gradient with respect to r²
        ls = self.lengthscales
        a, b = x / ls, x2 / ls
        rows, cols = g.sum(axis=1), g.sum(axis=0)
        gb, ga = g @ b, g.T @ a
        # r² = Σ_d (a_d - b_d)², a = x / ℓ and b = x2 / ℓ
        dx = (2.0 / ls) * (a * rows[:, None] - gb)
        dx2 = (2.0 / ls) * (b * cols[:, None] - ga)
        per_dim = rows @ (a * a) - 2.0 * np.sum(a * gb, axis=0) + cols @ (b * b)
        dls = -(2.0 / ls) * per_dim
        if ls.shape[0] == 1:  # one lengthscale for every dimension
            dls = dls.sum(keepdims=True)
        return dx, dx2, {"variance": dvariance, "lengthscales": dls}

    def K_diag_vjp(self, x, dk):
        """``K_vjp`` of ``K_diag``: the diagonal is the variance alone."""
        return np.zeros_like(_as_2d(x)), {"variance": float(np.sum(dk))}


class SquaredExponential(Stationary):
    schema = Schema("sqexp", *Stationary.fields)

    def _from_r2(self, r2):
        return self.variance * np.exp(-0.5 * r2)

    def dk_dr2(self, r2):
        return -0.5 * self.variance * np.exp(-0.5 * r2)


class Matern12(Stationary):
    schema = Schema("matern12", *Stationary.fields)

    def _from_r2(self, r2):
        return self.variance * np.exp(-np.sqrt(r2))

    def dk_dr2(self, r2):
        # k = σ² e^{-r}: dk/dr² = -σ² e^{-r} / 2r, whose kink at r = 0 takes
        # the symmetric (central) derivative 0.
        r = np.sqrt(r2)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = -0.5 * self.variance * np.exp(-r) / r
        return np.where(r > 0.0, out, 0.0)


class Matern32(Stationary):
    schema = Schema("matern32", *Stationary.fields)

    def _from_r2(self, r2):
        r = np.sqrt(3.0 * r2)
        return self.variance * (1.0 + r) * np.exp(-r)

    def dk_dr2(self, r2):
        return -1.5 * self.variance * np.exp(-np.sqrt(3.0 * r2))


class Matern52(Stationary):
    schema = Schema("matern52", *Stationary.fields)

    def _from_r2(self, r2):
        r = np.sqrt(5.0 * r2)
        return self.variance * (1.0 + r + r * r / 3.0) * np.exp(-r)

    def dk_dr2(self, r2):
        r = np.sqrt(5.0 * r2)
        return -(5.0 / 6.0) * self.variance * (1.0 + r) * np.exp(-r)


class Linear(SingleOutputKernel):
    schema = Schema("linear", VARIANCE)

    def K(self, x, x2=None) -> np.ndarray:
        x, x2 = _as_pair(x, x2)
        return self.variance * (x @ x2.T)

    def K_diag(self, x) -> np.ndarray:
        x = _as_2d(x)
        return self.variance * np.sum(x * x, axis=1)


class White(SingleOutputKernel):
    """Unit-impulse kernel: cross-covariance between distinct point sets is 0."""

    schema = Schema("white", VARIANCE)

    def K(self, x, x2=None) -> np.ndarray:
        if x2 is None:
            return self.variance * np.eye(_as_2d(x).shape[0])
        x, x2 = _as_pair(x, x2)
        return np.zeros((x.shape[0], x2.shape[0]))


# ---------------------------------------------------------------------------
# Multioutput kernels


class MultioutputKernel(Kernel):
    @property
    def num_outputs(self) -> int:
        raise NotImplementedError

    def K(self, x, x2=None, full_output_cov: bool = True) -> np.ndarray:
        raise UnsupportedMode(f"{type(self).__name__} has no full covariance mode")

    def K_diag(self, x, full_output_cov: bool = True) -> np.ndarray:
        raise UnsupportedMode(f"{type(self).__name__} has no marginal mode")


class IndependentLatent(MultioutputKernel):
    """Multioutput kernels built from L independent scalar latent processes g,
    whose outputs are a fixed map of the latents.

    ``mix_mean`` and ``mix`` are that map, latent to output moments, written
    once: the kernel's own ``K`` and ``K_diag`` apply it to the latent grams
    and diagonals, and a latent posterior applies it to the latents' moments.
    """

    correlated_outputs = False  # whether the map correlates per-point outputs

    @property
    def latent_kernels(self) -> tuple[SingleOutputKernel, ...]:
        raise NotImplementedError

    @staticmethod
    def _scalar(kernels) -> tuple[SingleOutputKernel, ...]:
        """``kernels`` as latent processes, each a scalar GP: a single-output
        kernel, or ``conv``, whose latent is its summed-patch process."""
        kernels = tuple(kernels)
        for k in kernels:
            if isinstance(k, MultioutputKernel) and not isinstance(k, Convolutional):
                raise ValueError(
                    f"a latent process is a scalar GP, but {type(k).__name__} "
                    f"has {k.num_outputs} outputs"
                )
        return kernels

    def mix_mean(self, mean) -> np.ndarray:
        """Output means [N, P] from latent means [N, L]."""
        raise NotImplementedError

    def mix(self, cov, full_cov: bool, full_output_cov: bool) -> np.ndarray:
        """Output covariance in the mode shape from the latents' covariances,
        [L, N, N2] with ``full_cov`` and [N, L] without."""
        raise NotImplementedError

    def mix_adjoint(self, dmean, dcov, mean, cov, full_output_cov):
        """The adjoint of ``mix_mean`` and ``mix`` in a marginal mode at the
        latents' ``mean`` and ``cov`` [N, L]: an objective's gradients with
        respect to the output moments, as gradients with respect to the
        latents' moments and to the mixing matrix (None if the map has none)."""
        raise NotImplementedError

    def latent_grams(self, x, x2=None) -> np.ndarray:
        """[L, N, N2]; latents sharing a kernel share its gram."""
        seen: dict[int, np.ndarray] = {}
        for k in self.latent_kernels:
            if id(k) not in seen:
                seen[id(k)] = k_full(k, x, x2)
        return np.stack([seen[id(k)] for k in self.latent_kernels])

    def K(self, x, x2=None, full_output_cov: bool = True) -> np.ndarray:
        return self.mix(self.latent_grams(x, x2), True, full_output_cov)

    def K_diag(self, x, full_output_cov: bool = True) -> np.ndarray:
        diags = np.stack([k_diag(k, x) for k in self.latent_kernels], axis=1)  # [N, L]
        return self.mix(diags, False, full_output_cov)


class IndependentOutputs(IndependentLatent):
    """Outputs are the latent processes themselves (identity mixing)."""

    def mix_mean(self, mean):
        return mean

    def mix(self, cov, full_cov, full_output_cov):
        if not full_output_cov:
            return cov
        if full_cov:
            p, n, n2 = cov.shape
            out, idx = np.zeros((n, p, n2, p)), np.arange(p)
            out[:, idx, :, idx] = cov  # [P, N, N2] into the diagonal output blocks
        else:
            n, p = cov.shape
            out, idx = np.zeros((n, p, p)), np.arange(p)
            out[:, idx, idx] = cov  # [N, P] onto the per-point diagonals
        record_allocation(out)
        return out

    def mix_adjoint(self, dmean, dcov, mean, cov, full_output_cov):
        if full_output_cov:  # the per-point diagonals that ``mix`` filled
            idx = np.arange(dmean.shape[1])
            dcov = dcov[:, idx, idx]
        return dmean, dcov, None


class SharedIndependent(IndependentOutputs):
    """One kernel shared by P independent outputs."""

    schema = Schema(
        "shared_independent", Child("base", "kernel"), Setting("outputs", attr="output_dim")
    )

    def __init__(self, kernel: SingleOutputKernel, output_dim: int):
        if output_dim < 1:
            raise ValueError("output_dim must be at least 1")
        self.kernel = self._scalar((kernel,))[0]
        self.output_dim = int(output_dim)

    @property
    def num_outputs(self) -> int:
        return self.output_dim

    @property
    def latent_kernels(self) -> tuple[SingleOutputKernel, ...]:
        return (self.kernel,) * self.output_dim

    def latent_grams(self, x, x2=None):
        gram = k_full(self.kernel, x, x2)  # computed once, shared by all outputs
        return np.broadcast_to(gram, (self.output_dim,) + gram.shape)


class SeparateIndependent(IndependentOutputs):
    """One kernel per independent output."""

    schema = Schema("separate_independent", Child("latents", "kernels", many=True))

    def __init__(self, kernels):
        kernels = self._scalar(kernels)
        if not kernels:
            raise ValueError("at least one kernel is required")
        self.kernels = kernels

    @property
    def num_outputs(self) -> int:
        return len(self.kernels)

    @property
    def latent_kernels(self) -> tuple[SingleOutputKernel, ...]:
        return self.kernels


class LinearCoregionalization(IndependentLatent):
    """P outputs as a fixed linear mixing W of L independent latent GPs."""

    schema = Schema("lmc", Param("w"), Child("latents", "kernels", many=True))
    correlated_outputs = True

    def __init__(self, kernels, w):
        kernels = self._scalar(kernels)
        w = np.asarray(w, dtype=float)
        if w.ndim != 2:
            raise DimensionMismatch("mixing matrix must be [P, L]")
        if w.shape[1] != len(kernels):
            raise DimensionMismatch(
                f"mixing matrix has {w.shape[1]} columns for {len(kernels)} latents"
            )
        self.kernels = kernels
        self.w = w

    @property
    def num_outputs(self) -> int:
        return self.w.shape[0]

    @property
    def latent_kernels(self) -> tuple[SingleOutputKernel, ...]:
        return self.kernels

    def mix_mean(self, mean):
        return mean @ self.w.T

    def mix(self, cov, full_cov, full_output_cov):
        # mean = W mu_g and cov = W Sigma_g Wᵀ, in the requested mode
        w = self.w  # [P, L]
        if full_cov and full_output_cov:
            out = np.einsum("pl,lnm,ql->npmq", w, cov, w)
        elif full_cov:
            out = np.einsum("pl,lnm->pnm", w * w, cov)
        elif full_output_cov:
            out = np.einsum("pl,nl,ql->npq", w, cov, w)
        else:
            out = cov @ (w * w).T
        record_allocation(out)
        return out

    def mix_adjoint(self, dmean, dcov, mean, cov, full_output_cov):
        w = self.w
        dw = dmean.T @ mean  # from mean @ Wᵀ
        if full_output_cov:
            dc = np.einsum("pl,npq,ql->nl", w, dcov, w)
            sym = dcov + dcov.transpose(0, 2, 1)
            dw = dw + np.einsum("npq,nl,ql->pl", sym, cov, w)
        else:
            dc = dcov @ (w * w)
            dw = dw + 2.0 * w * (dcov.T @ cov)
        return dmean @ w, dc, dw


class IntrinsicCoregionalization(LinearCoregionalization):
    """Coregionalization with a single kernel shared by all L latents."""

    schema = Schema("imc", Param("w"), Child("base", "kernel"))

    def __init__(self, kernel, w):
        # one latent per column of w, whose shape the base class checks
        latents = np.shape(w)[-1] if np.ndim(w) else 0
        super().__init__((kernel,) * latents, w)
        self.kernel = kernel


class Convolutional(MultioutputKernel):
    """Patch-response kernel on flattened images.

    Inputs are rows of length H*W.  As a multioutput kernel the P =
    (H-h+1)*(W-w+1) outputs are the per-patch responses; the aggregated
    (summed-patch) response is a single-output kernel exposed through
    :meth:`K_sum` / :meth:`K_sum_diag`.
    """

    schema = Schema(
        "conv",
        Child("base", "kernel"),
        Setting("image", attr="image_shape"),
        Setting("patch", attr="patch_shape"),
    )

    def __init__(self, kernel: SingleOutputKernel, image_shape, patch_shape):
        self.kernel = kernel
        self.image_shape = (int(image_shape[0]), int(image_shape[1]))
        self.patch_shape = (int(patch_shape[0]), int(patch_shape[1]))
        h, w = self.patch_shape
        ih, iw = self.image_shape
        if h > ih or w > iw:
            raise PatchLargerThanImage(
                f"patch {self.patch_shape} exceeds image {self.image_shape}"
            )

    @property
    def num_outputs(self) -> int:
        ih, iw = self.image_shape
        h, w = self.patch_shape
        return (ih - h + 1) * (iw - w + 1)

    @property
    def patch_len(self) -> int:
        return self.patch_shape[0] * self.patch_shape[1]

    def patches(self, x) -> np.ndarray:
        return extract_patches(x, self.image_shape, self.patch_shape)

    def _patch_gram(self, x, x2):
        pa = self.patches(x)
        n, p, d = pa.shape
        pb = None if x2 is None else self.patches(x2).reshape(-1, d)  # None: the self-gram
        flat = self.kernel.K(pa.reshape(n * p, d), pb)
        record_allocation(flat)
        return flat.reshape(n, p, -1, p)

    def K(self, x, x2=None, full_output_cov: bool = True) -> np.ndarray:
        if full_output_cov:
            return self._patch_gram(x, x2)
        # Each output's gram of its own patches, never the whole tensor; x2
        # None keeps the base kernel's exact diagonal of x against itself.
        pa = self.patches(x)
        pb = [None] * pa.shape[1] if x2 is None else self.patches(x2).transpose(1, 0, 2)
        return np.stack([self.kernel.K(a, b) for a, b in zip(pa.transpose(1, 0, 2), pb)])

    def K_diag(self, x, full_output_cov: bool = True) -> np.ndarray:
        pa = self.patches(x)
        out = np.stack([self.kernel.K(rows) for rows in pa])  # [N, P, P]
        if full_output_cov:
            return out
        return np.einsum("npp->np", out)

    def K_sum(self, x, x2=None) -> np.ndarray:
        """Gram of the summed-patch response, a single scalar per image."""
        return np.einsum("npmq->nm", self._patch_gram(x, x2))

    def K_sum_diag(self, x) -> np.ndarray:
        return np.einsum("npq->n", self.K_diag(x, full_output_cov=True))


# ---------------------------------------------------------------------------
# Module-level evaluation helpers


def k_full(kernel, x, x2=None) -> np.ndarray:
    """Single-output Gram matrix [N, N2]; Convolutional uses the patch sum."""
    if isinstance(kernel, Convolutional):
        return kernel.K_sum(x, x2)
    if isinstance(kernel, MultioutputKernel):
        raise UnsupportedMode(
            f"{type(kernel).__name__} is multioutput; use mo_k instead"
        )
    return kernel.K(x, x2)


def k_diag(kernel, x) -> np.ndarray:
    """Diagonal of k_full(x, x), of length N."""
    if isinstance(kernel, Convolutional):
        return kernel.K_sum_diag(x)
    if isinstance(kernel, MultioutputKernel):
        raise UnsupportedMode(
            f"{type(kernel).__name__} is multioutput; use mo_k_diag instead"
        )
    return kernel.K_diag(x)


def mo_k(kernel: MultioutputKernel, x, x2=None, full_output_cov: bool = True):
    """Multioutput covariance [N, P, N2, P], or without ``full_output_cov``
    the outputs' grams [P, N, N2]."""
    if not isinstance(kernel, MultioutputKernel):
        raise UnsupportedMode(f"{type(kernel).__name__} is not multioutput")
    return kernel.K(x, x2, full_output_cov=full_output_cov)


def mo_k_diag(kernel: MultioutputKernel, x, full_output_cov: bool = True):
    """Per-point output covariance [N, P, P], or marginal variances [N, P]."""
    if not isinstance(kernel, MultioutputKernel):
        raise UnsupportedMode(f"{type(kernel).__name__} is not multioutput")
    return kernel.K_diag(x, full_output_cov=full_output_cov)


def extract_patches(x, image_shape, patch_shape) -> np.ndarray:
    """All stride-1 patches of each flattened image, row-major raster order.

    Returns [N, P, h*w] where patch p of image n is the contiguous h-by-w
    window at raster position p.
    """
    x = _as_2d(x)
    ih, iw = int(image_shape[0]), int(image_shape[1])
    h, w = int(patch_shape[0]), int(patch_shape[1])
    if x.shape[1] != ih * iw:
        raise DimensionMismatch(
            f"rows of length {x.shape[1]} do not match image {ih}x{iw}"
        )
    if h > ih or w > iw:
        raise PatchLargerThanImage(f"patch {h}x{w} exceeds image {ih}x{iw}")
    images = x.reshape(-1, ih, iw)
    windows = sliding_window_view(images, (h, w), axis=(1, 2))
    n = x.shape[0]
    p = (ih - h + 1) * (iw - w + 1)
    return windows.reshape(n, p, h * w)
