"""Covariances between inducing variables and function values.

Every (inducing variable, kernel) pair has one entry in the dispatch
registry :data:`PAIRS`: a ``conditionals.Posterior`` subclass, registered
there, that supplies the pair's Kuu, Kuf, shape and conditional.  ``kuu``
and ``kuf`` read the pair's covariances from that entry.

A pair's own Kuu is the plain prior covariance (for latent-process inducing
variables the block diagonal of each latent's own pair Kuu); ``kuu`` adds
the jitter, ``jitter * I``, once, and the posterior factors that.  Kuf shapes
are tagged by dimensionality: [M, N] for single-latent pairs,
[M, P, N, P] for fully-correlated multioutput inducing points, and
[M_1 + ... + M_L, N] for latent-process inducing variables: each latent's
block of rows against its own process, stacked like q_mu (the kernel's
``mix`` maps the latents' moments to outputs).
"""

from __future__ import annotations

import numpy as np

from .dispatch import DispatchRegistry
from .inducing import InducingVariable
from .kernels import Kernel
from .numerics import default_jitter, record_allocation

PAIRS = DispatchRegistry("PAIRS")


def kuu(iv: InducingVariable, kernel: Kernel, jitter: float | None = None) -> np.ndarray:
    """Covariance of the inducing variables plus ``jitter * I`` (default:
    ``numerics.default_jitter()``)."""
    k = PAIRS.resolve(type(iv), type(kernel)).kuu(iv, kernel)
    out = k + float(default_jitter() if jitter is None else jitter) * np.eye(k.shape[0])
    record_allocation(out)
    return out


def kuf(iv: InducingVariable, kernel: Kernel, xnew) -> np.ndarray:
    """Covariance between the inducing variables and f at new inputs."""
    pair = PAIRS.resolve(type(iv), type(kernel))
    out = pair.kuf(iv, kernel, np.asarray(xnew, dtype=float))
    record_allocation(out)
    return out
