import numpy as np
import pytest

from sparsegp import (
    BlockDiagonal,
    Convolutional,
    Dense,
    DispatchRegistry,
    InducingPatches,
    InducingPoints,
    IntrinsicCoregionalization,
    Kernel,
    LinearCoregionalization,
    Matern32,
    Multiscale,
    SeparateIndependent,
    SeparateIndependentInducingVariables,
    SharedIndependent,
    SharedIndependentInducingVariables,
    SquaredExponential,
    densify,
    k_full,
    kuf,
    kuu,
    mo_k,
    standard_normal,
)
from sparsegp.errors import (
    AmbiguityDetected,
    DuplicateRegistration,
    NoImplementation,
)
from sparsegp.inducing import InducingVariable


class TestRegistry:
    def test_ancestor_fallback(self):
        reg = DispatchRegistry("demo")
        reg.register(InducingPoints, Kernel, lambda *a: "generic")
        assert reg.resolve(Multiscale, SquaredExponential)() == "generic"

    def test_specific_beats_ancestor(self):
        reg = DispatchRegistry("demo")
        reg.register(InducingPoints, Kernel, lambda *a: "generic")
        reg.register(Multiscale, SquaredExponential, lambda *a: "specific")
        assert reg.resolve(Multiscale, SquaredExponential)() == "specific"
        assert reg.resolve(InducingPoints, SquaredExponential)() == "generic"

    def test_nearest_ancestor_wins_per_argument(self):
        reg = DispatchRegistry("demo")
        reg.register(InducingVariable, Kernel, lambda *a: "root")
        reg.register(InducingPoints, Kernel, lambda *a: "points")
        assert reg.resolve(InducingPatches, Matern32)() == "points"

    def test_duplicate_registration_rejected(self):
        reg = DispatchRegistry("demo")
        reg.register(InducingPoints, Kernel, lambda *a: 1)
        with pytest.raises(DuplicateRegistration):
            reg.register(InducingPoints, Kernel, lambda *a: 2)

    def test_orphan_type_raises_no_implementation(self):
        reg = DispatchRegistry("demo")
        reg.register(InducingPoints, Kernel, lambda *a: 1)

        class Unrelated:
            pass

        with pytest.raises(NoImplementation):
            reg.resolve(Unrelated, SquaredExponential)

    def test_incomparable_tie_is_ambiguous(self):
        reg = DispatchRegistry("demo")
        # (exact iv, ancestor kernel) vs (ancestor iv, exact kernel):
        # neither candidate dominates the other.
        reg.register(Multiscale, Kernel, lambda *a: "a")
        reg.register(InducingPoints, SquaredExponential, lambda *a: "b")
        with pytest.raises(AmbiguityDetected):
            reg.resolve(Multiscale, SquaredExponential)

    def test_third_party_extension_point(self):
        # New pair types can be registered without touching core tables.
        from sparsegp.covariances import KUU

        class CustomIv(InducingPoints):
            pass

        class CustomKernel(SquaredExponential):
            pass

        marker = object()
        KUU.register(CustomIv, CustomKernel, lambda iv, k, j: marker)
        try:
            got = kuu(CustomIv(np.zeros((2, 1))), CustomKernel(), jitter=0.0)
            assert got is marker
        finally:
            del KUU._table[(CustomIv, CustomKernel)]
            KUU._cache.clear()

    def test_resolution_is_deterministic(self):
        reg = DispatchRegistry("demo")
        reg.register(InducingPoints, Kernel, lambda *a: "x")
        first = reg.resolve(Multiscale, Matern32)
        assert reg.resolve(Multiscale, Matern32) is first

    def test_resolution_is_total_over_shipped_pairs(self):
        # Every shipped (inducing variable, kernel) combination resolves
        # for Kuu, Kuf, and the conditional (which also samples) without
        # ambiguity.
        from sparsegp.conditionals import CONDITIONAL
        from sparsegp.covariances import KUF, KUU
        from sparsegp.inducing import (
            InducingPatches as Patches,
        )
        from sparsegp.kernels import IntrinsicCoregionalization as Imc

        pairs = [
            (InducingPoints, SquaredExponential),
            (InducingPoints, Matern32),
            (Multiscale, SquaredExponential),
            (Patches, Convolutional),
            (InducingPoints, SharedIndependent),
            (InducingPoints, SeparateIndependent),
            (InducingPoints, LinearCoregionalization),
            (InducingPoints, Imc),
            (SharedIndependentInducingVariables, SharedIndependent),
            (SharedIndependentInducingVariables, SeparateIndependent),
            (SharedIndependentInducingVariables, LinearCoregionalization),
            (SharedIndependentInducingVariables, Imc),
            (SeparateIndependentInducingVariables, SharedIndependent),
            (SeparateIndependentInducingVariables, SeparateIndependent),
            (SeparateIndependentInducingVariables, LinearCoregionalization),
            (SeparateIndependentInducingVariables, Imc),
        ]
        for registry in (KUU, KUF, CONDITIONAL):
            for iv_type, kernel_type in pairs:
                assert registry.resolve(iv_type, kernel_type) is not None


class TestKuuPairs:
    def test_inducing_points_single_output(self, rng):
        z = standard_normal(rng, (4, 1))
        k = SquaredExponential(1.2, 0.7)
        got = kuu(InducingPoints(z), k, jitter=1e-4)
        assert isinstance(got, Dense)
        np.testing.assert_allclose(
            got.matrix, k.K(z) + 1e-4 * np.eye(4), atol=1e-14
        )

    def test_inducing_points_multioutput_is_stacked_dense(self, rng):
        z = standard_normal(rng, (3, 1))
        k = LinearCoregionalization(
            [SquaredExponential(1.0, 0.5), Matern32(0.8, 1.0)],
            standard_normal(rng, (2, 2)),
        )
        got = kuu(InducingPoints(z), k, jitter=0.0)
        expected = mo_k(k, z).reshape(6, 6)
        np.testing.assert_allclose(densify(got), expected, atol=1e-13)

    def test_latent_shared_identical_kernels_share_one_block(self, rng):
        z = standard_normal(rng, (4, 1))
        iv = SharedIndependentInducingVariables(InducingPoints(z))
        k = SharedIndependent(SquaredExponential(1.0, 0.9), 2)
        got = kuu(iv, k, jitter=0.0)
        assert isinstance(got, BlockDiagonal)
        assert len(got.blocks) == 1 and got.repeats == (2,)
        np.testing.assert_allclose(got.blocks[0], k.kernel.K(z))

    def test_latent_separate_kernels_get_their_own_blocks(self, rng):
        z = standard_normal(rng, (3, 1))
        iv = SharedIndependentInducingVariables(InducingPoints(z))
        kernels = [SquaredExponential(1.0, 0.5), Matern32(2.0, 1.0)]
        k = SeparateIndependent(kernels)
        got = kuu(iv, k, jitter=0.0)
        assert len(got.blocks) == 2
        np.testing.assert_allclose(got.blocks[0], kernels[0].K(z))
        np.testing.assert_allclose(got.blocks[1], kernels[1].K(z))

    def test_imc_stores_single_shared_block(self, rng):
        z = standard_normal(rng, (4, 1))
        iv = SharedIndependentInducingVariables(InducingPoints(z))
        k = IntrinsicCoregionalization(
            SquaredExponential(1.0, 0.8), standard_normal(rng, (5, 3))
        )
        got = kuu(iv, k, jitter=1e-6)
        assert len(got.blocks) == 1 and got.repeats == (3,)

    def test_separate_members_evaluate_their_own_inputs(self, rng):
        z0, z1 = standard_normal(rng, (3, 1)), standard_normal(rng, (3, 1))
        iv = SeparateIndependentInducingVariables(
            [InducingPoints(z0), InducingPoints(z1)]
        )
        kernels = [SquaredExponential(), SquaredExponential()]
        got = kuu(iv, SeparateIndependent(kernels), jitter=0.0)
        np.testing.assert_allclose(got.blocks[0], kernels[0].K(z0))
        np.testing.assert_allclose(got.blocks[1], kernels[1].K(z1))

    def test_dense_lmc_kuu_matches_block_form_for_identity_mixing(self, rng):
        # With W = I and L = P the stacked covariance of f(Z) is a
        # permutation of the latent block-diagonal; their densified forms
        # must agree once reindexed.
        z = standard_normal(rng, (3, 1))
        kernels = [SquaredExponential(1.0, 0.5), Matern32(0.8, 1.2)]
        k = LinearCoregionalization(kernels, np.eye(2))
        dense = densify(kuu(InducingPoints(z), k, jitter=0.0))  # (m,p) stacking
        blocks = densify(
            kuu(
                SharedIndependentInducingVariables(InducingPoints(z)),
                k,
                jitter=0.0,
            )
        )  # (l,m) stacking
        m, p = 3, 2
        # reindex the latent (l, m) stacking into the output (m, p) stacking
        to_latent = np.array([l * m + m_ for m_ in range(m) for l in range(p)])
        np.testing.assert_allclose(
            dense, blocks[np.ix_(to_latent, to_latent)], atol=1e-12
        )

    def test_every_kuu_densifies_to_symmetric_psd(self, rng):
        z = standard_normal(rng, (4, 1))
        cases = [
            (InducingPoints(z), SquaredExponential(1.0, 0.6)),
            (Multiscale(z, np.full((4, 1), 0.3)), SquaredExponential(1.0, 0.6)),
            (
                SharedIndependentInducingVariables(InducingPoints(z)),
                SeparateIndependent([SquaredExponential(), Matern32()]),
            ),
            (
                InducingPoints(z),
                SharedIndependent(SquaredExponential(0.5, 1.0), 2),
            ),
        ]
        for iv, kern in cases:
            dense = densify(kuu(iv, kern, jitter=0.0))
            np.testing.assert_allclose(dense, dense.T, atol=1e-12)
            assert np.linalg.eigvalsh(dense).min() > -1e-8


class TestKufPairs:
    def test_kuf_at_inducing_inputs_is_kuu_minus_jitter(self, rng):
        z = standard_normal(rng, (4, 1))
        k = SquaredExponential(1.0, 0.8)
        iv = InducingPoints(z)
        jitter = 1e-5
        got = kuf(iv, k, z)
        np.testing.assert_allclose(
            got, densify(kuu(iv, k, jitter)) - jitter * np.eye(4), atol=1e-13
        )

    def test_kuf_equals_kernel_cross_covariance(self, rng):
        z = standard_normal(rng, (4, 2))
        x = standard_normal(rng, (6, 2))
        k = Matern32(1.1, [0.5, 1.5])
        np.testing.assert_array_equal(
            kuf(InducingPoints(z), k, x), k_full(k, z, x)
        )

    def test_multioutput_kuf_matches_mo_k(self, rng):
        z = standard_normal(rng, (3, 1))
        x = standard_normal(rng, (5, 1))
        k = LinearCoregionalization(
            [SquaredExponential(), Matern32()], standard_normal(rng, (3, 2))
        )
        got = kuf(InducingPoints(z), k, x)
        assert got.shape == (3, 3, 5, 3)
        np.testing.assert_allclose(got, mo_k(k, z, x), atol=1e-12)

    def test_latent_kuf_excludes_mixing(self, rng):
        z = standard_normal(rng, (4, 1))
        x = standard_normal(rng, (5, 1))
        kernels = [SquaredExponential(1.0, 0.4), Matern32(2.0, 0.9)]
        k = LinearCoregionalization(kernels, standard_normal(rng, (3, 2)))
        iv = SharedIndependentInducingVariables(InducingPoints(z))
        got = kuf(iv, k, x)
        assert got.shape == (8, 5)  # latent blocks of rows, stacked like q_mu
        for ell in range(2):
            np.testing.assert_allclose(got[4 * ell : 4 * ell + 4], kernels[ell].K(z, x))

    def test_convolutional_kuf_sums_patch_responses(self, rng):
        k = Convolutional(SquaredExponential(1.0, 1.2), (3, 3), (2, 2))
        z = standard_normal(rng, (2, 4))
        x = standard_normal(rng, (3, 9))
        got = kuf(InducingPatches(z), k, x)
        patches = k.patches(x)
        for m in range(2):
            for n in range(3):
                expected = sum(
                    k.kernel.K(z[m : m + 1], patches[n, p : p + 1])[0, 0]
                    for p in range(4)
                )
                assert got[m, n] == pytest.approx(expected, abs=1e-12)

    def test_conv_kuu_is_patch_kernel_gram(self, rng):
        k = Convolutional(SquaredExponential(1.0, 1.2), (3, 3), (2, 2))
        z = standard_normal(rng, (2, 4))
        got = kuu(InducingPatches(z), k, jitter=0.0)
        np.testing.assert_allclose(densify(got), k.kernel.K(z))


class TestMultiscale:
    def test_kuu_delta_window_limit(self, rng):
        z = standard_normal(rng, (4, 1))
        k = SquaredExponential(1.3, 0.7)
        tiny = Multiscale(z, np.full((4, 1), 1e-8))
        near = densify(kuu(tiny, k, jitter=0.0))
        exact = densify(kuu(InducingPoints(z), k, jitter=0.0))
        np.testing.assert_allclose(near, exact, atol=1e-5)

    def test_kuf_delta_window_limit(self, rng):
        z = standard_normal(rng, (4, 2))
        x = standard_normal(rng, (6, 2))
        k = SquaredExponential(0.9, [0.5, 1.1])
        tiny = Multiscale(z, np.full((4, 2), 1e-8))
        np.testing.assert_allclose(
            kuf(tiny, k, x), kuf(InducingPoints(z), k, x), atol=1e-5
        )

    def test_kuu_constant_diagonal_for_equal_rows(self):
        z = np.array([[0.0], [1.0], [2.5]])
        iv = Multiscale(z, np.full((3, 1), 0.4))
        k = SquaredExponential(1.0, 0.8)
        diag = np.diag(densify(kuu(iv, k, jitter=0.0)))
        assert np.ptp(diag) == pytest.approx(0.0, abs=1e-14)

    def test_window_widening_shrinks_covariance_scale(self):
        z = np.array([[0.0], [1.0]])
        k = SquaredExponential(1.0, 0.5)
        wide = densify(kuu(Multiscale(z, np.full((2, 1), 2.0)), k, jitter=0.0))
        narrow = densify(kuu(Multiscale(z, np.full((2, 1), 0.1)), k, jitter=0.0))
        assert wide[0, 0] < narrow[0, 0]

    def test_kuu_is_psd(self, rng):
        z = standard_normal(rng, (5, 1))
        scales = rng.generator.uniform(0.1, 1.0, (5, 1))
        k = SquaredExponential(1.0, 0.7)
        dense = densify(kuu(Multiscale(z, scales), k, jitter=0.0))
        assert np.linalg.eigvalsh(dense).min() > -1e-10
