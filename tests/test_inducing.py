import numpy as np
import pytest

from sparsegp import (
    Convolutional,
    InducingPatches,
    InducingPoints,
    LinearCoregionalization,
    Multiscale,
    SeparateIndependent,
    SeparateIndependentInducingVariables,
    SharedIndependent,
    SharedIndependentInducingVariables,
    SquaredExponential,
    VariationalGaussian,
)
from sparsegp.conditionals import create_posterior, layout
from sparsegp.errors import DimensionMismatch, UnsupportedCombination
from sparsegp.inducing import LatentInducingVariables


def test_single_output_count():
    iv = InducingPoints(np.zeros((3, 1)))
    assert layout(iv, SquaredExponential()).total == 3


def test_inducing_points_with_multioutput_kernel_counts_every_output():
    iv = InducingPoints(np.zeros((3, 2)))
    kernel = SharedIndependent(SquaredExponential(), 2)
    assert layout(iv, kernel).total == 6


def test_shared_latent_count():
    iv = SharedIndependentInducingVariables(InducingPoints(np.zeros((4, 1))))
    kernel = LinearCoregionalization(
        [SquaredExponential(), SquaredExponential(), SquaredExponential()],
        np.ones((5, 3)),
    )
    assert layout(iv, kernel).total == 12


def test_separate_latent_count_sums_members():
    iv = SeparateIndependentInducingVariables(
        [InducingPoints(np.zeros((4, 1))), InducingPoints(np.zeros((2, 1)))]
    )
    kernel = SeparateIndependent([SquaredExponential(), SquaredExponential()])
    assert layout(iv, kernel).total == 6


def test_patches_with_convolutional_count_is_m():
    iv = InducingPatches(np.zeros((7, 4)))
    kernel = Convolutional(SquaredExponential(), (3, 3), (2, 2))
    assert layout(iv, kernel).total == 7


def test_latent_iv_requires_latent_kernel():
    iv = SharedIndependentInducingVariables(InducingPoints(np.zeros((4, 1))))
    with pytest.raises(UnsupportedCombination, match="latent-structured kernel"):
        layout(iv, SquaredExponential())


def test_member_count_must_match_latents():
    iv = SeparateIndependentInducingVariables([InducingPoints(np.zeros((4, 1)))])
    kernel = SeparateIndependent([SquaredExponential(), SquaredExponential()])
    with pytest.raises(UnsupportedCombination, match="1 inducing sets for 2 latents"):
        layout(iv, kernel)


class Undeclared(LatentInducingVariables):
    """A latent set whose member no schema declaration holds."""

    def __init__(self, base):
        self.base = base

    def per_latent(self, num_latent):
        return [self.base] * num_latent


def test_latent_member_without_a_declaration_is_refused():
    # The backward names a member's slots by the schema child that holds
    # it; one that nothing declares has no slots and is refused at build.
    iv = Undeclared(InducingPoints(np.zeros((3, 1))))
    kernel = SharedIndependent(SquaredExponential(), 2)
    q = VariationalGaussian(np.zeros(6), (np.eye(3), np.eye(3)), True)
    with pytest.raises(UnsupportedCombination, match="Undeclared declares no schema child"):
        create_posterior(iv, kernel, q)


def test_multiscale_validation():
    with pytest.raises(DimensionMismatch):
        Multiscale(np.zeros((3, 1)), np.ones((2, 1)))
    with pytest.raises(ValueError):
        Multiscale(np.zeros((3, 1)), np.zeros((3, 1)))


def test_one_dimensional_inputs_are_promoted():
    iv = InducingPoints(np.array([0.0, 1.0, 2.0]))
    assert iv.z.shape == (3, 1)
