"""Inducing variable definitions.

What shape a set takes with a kernel (its count, blocks, outputs and input
columns) is declared by the pair's posterior class; see ``conditionals``.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DimensionMismatch, UnsupportedCombination
from .kernels import Convolutional, IndependentLatent
from .schema import Child, Param, Schema

Z = Param("z", from_data=lambda x, kernel: x)  # from_data: the first M inputs


def _half(spec):  # default window widths
    return np.full(np.shape(spec["z"]), 0.5)


def _patches_from_data(x, kernel):
    if not isinstance(kernel, Convolutional):
        raise ConfigError("inducing patches need a convolutional kernel")
    return kernel.patches(x).reshape(-1, kernel.patch_len)


class InducingVariable:
    """Base class for all inducing variable definitions."""


class InducingPoints(InducingVariable):
    """Plain function evaluations u = f(Z)."""

    schema = Schema("points", Z)

    def __init__(self, z):
        z = np.asarray(z, dtype=float)
        if z.ndim == 1:
            z = z[:, None]
        if z.ndim != 2:
            raise DimensionMismatch(f"inducing inputs must be [M, D], got {z.shape}")
        if z.shape[0] < 1:
            raise ValueError("inducing inputs need at least one row")
        self.z = z

    @property
    def num_rows(self) -> int:
        return self.z.shape[0]


class Multiscale(InducingPoints):
    """Gaussian-window integral transforms of f, one width per dimension."""

    schema = Schema("multiscale", Z, Param("scales", "positive", default=_half))

    def __init__(self, z, scales):
        super().__init__(z)
        scales = np.asarray(scales, dtype=float)
        if scales.ndim == 1:
            scales = scales[:, None]
        if scales.shape != self.z.shape:
            raise DimensionMismatch(
                f"scales shape {scales.shape} must match inputs {self.z.shape}"
            )
        if np.any(scales <= 0):
            raise ValueError("window scales must be strictly positive")
        self.scales = scales


class InducingPatches(InducingPoints):
    """Patch evaluations of the patch-response process of a convolutional GP."""

    schema = Schema("patches", Param("z", from_data=_patches_from_data))


class LatentInducingVariables(InducingVariable):
    """Inducing variables placed in the latent processes of a multioutput GP."""

    def per_latent(self, num_latent: int) -> list[InducingVariable]:
        raise NotImplementedError


class SharedIndependentInducingVariables(LatentInducingVariables):
    """One inducing set shared by every latent process."""

    schema = Schema("shared", Child("base", "base"))

    def __init__(self, base: InducingVariable):
        self.base = base

    def per_latent(self, num_latent: int) -> list[InducingVariable]:
        return [self.base] * num_latent


def _member_data(data, i):
    """The i-th member of a separate set takes ``from_data`` rows for the
    i-th latent kernel, so a ``conv`` latent's member can be patches."""
    x, kernel = data
    if isinstance(kernel, IndependentLatent) and i < len(kernel.latent_kernels):
        return x, kernel.latent_kernels[i]
    return data


class SeparateIndependentInducingVariables(LatentInducingVariables):
    """One inducing set per latent process."""

    schema = Schema(
        "separate", Child("members", "members", many=True, item_data=_member_data)
    )

    def __init__(self, members):
        members = tuple(members)
        if not members:
            raise DimensionMismatch("at least one member inducing set is required")
        self.members = members

    def per_latent(self, num_latent: int) -> list[InducingVariable]:
        if len(self.members) != num_latent:
            raise UnsupportedCombination(
                f"{len(self.members)} inducing sets for {num_latent} latents"
            )
        return list(self.members)
