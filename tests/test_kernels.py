import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsegp import (
    Convolutional,
    IntrinsicCoregionalization,
    Linear,
    LinearCoregionalization,
    Matern12,
    Matern32,
    Matern52,
    RngState,
    SeparateIndependent,
    SharedIndependent,
    SquaredExponential,
    White,
    allocation_probe,
    extract_patches,
    k_diag,
    k_full,
    mo_k,
    mo_k_diag,
    standard_normal,
)
from sparsegp.errors import (
    DimensionMismatch,
    PatchLargerThanImage,
    UnsupportedMode,
)

STATIONARY = [SquaredExponential, Matern12, Matern32, Matern52]


class TestSingleOutput:
    def test_sqexp_at_identical_points_is_variance(self):
        k = SquaredExponential(1.0, 1.0)
        assert k_full(k, [[0.3]])[0, 0] == pytest.approx(1.0)

    def test_sqexp_formula_value(self):
        k = SquaredExponential(2.0, 0.5)
        assert k_full(k, [[0.0]], [[1.0]])[0, 0] == pytest.approx(2.0 * np.exp(-2.0))

    def test_matern32_gram_is_psd(self, rng):
        x = standard_normal(rng, (6, 2))
        gram = k_full(Matern32(1.3, [0.7, 1.1]), x)
        assert np.linalg.eigvalsh(gram).min() > -1e-10

    @pytest.mark.parametrize("family", STATIONARY + [Linear, White])
    def test_diag_matches_full_diagonal(self, rng, family):
        x = standard_normal(rng, (5, 3))
        k = family(1.7) if family in (Linear, White) else family(1.7, [0.5, 1.0, 2.0])
        np.testing.assert_allclose(k_diag(k, x), np.diag(k_full(k, x)), atol=1e-12)

    def test_matern12_gram_diagonal_is_the_variance_exactly(self, rng):
        # Expanded as |a|² + |b|² - 2a·b, r² rounds to ~1e-17 instead of 0
        # on coincident rows of several columns, and Matérn-1/2's kink turns
        # that into ~1e-8 below the variance.
        x = standard_normal(rng, (50, 3))
        k = Matern12(1.7, [0.5, 1.0, 2.0])
        assert np.all(np.diag(k.K(x)) == 1.7)
        assert np.all(np.diag(k.K(x, x)) == 1.7)

    def test_matern12_cross_gram_keeps_rows_near_an_inducing_input(self, rng):
        # A row 5e-8 from z[3] has r² ~ 1e-15, the size of the expansion's
        # rounding of |a|² + |b|², which alone loses most of σ² − K ~ 1e-7.
        z = standard_normal(rng, (8, 3))
        x = np.vstack([z[3] + 5e-8 * np.array([0.6, -0.8, 0.0]), z[0] + 1.0])
        k = Matern12(1.7, [0.5, 1.0, 2.0])
        r = np.linalg.norm((x[0] - z[3]) / k.lengthscales)
        gap = 1.7 - k.K(z, x)[3, 0]
        assert gap == pytest.approx(1.7 * -np.expm1(-r), rel=1e-6)

    def test_sqexp_diag_is_constant_variance(self, rng):
        x = standard_normal(rng, (4, 2))
        np.testing.assert_allclose(k_diag(SquaredExponential(2.5, 1.0), x), 2.5)

    def test_linear_diag_is_scaled_squared_norm(self, rng):
        x = standard_normal(rng, (4, 2))
        np.testing.assert_allclose(
            k_diag(Linear(0.7), x), 0.7 * np.sum(x * x, axis=1)
        )

    def test_white_cross_covariance_is_zero(self, rng):
        x = standard_normal(rng, (3, 1))
        np.testing.assert_array_equal(k_full(White(2.0), x, x.copy()), 0.0)
        np.testing.assert_array_equal(k_full(White(2.0), x), 2.0 * np.eye(3))

    @pytest.mark.parametrize("family", STATIONARY)
    def test_symmetry(self, rng, family):
        x = standard_normal(rng, (5, 2))
        gram = k_full(family(1.1, 0.9), x)
        np.testing.assert_allclose(gram, gram.T, atol=1e-14)

    @pytest.mark.parametrize("family", STATIONARY)
    def test_variance_scaling(self, rng, family):
        x = standard_normal(rng, (4, 2))
        base = k_full(family(1.0, 0.8), x)
        np.testing.assert_allclose(k_full(family(3.0, 0.8), x), 3.0 * base, atol=1e-12)

    @pytest.mark.parametrize("family", STATIONARY)
    def test_stationarity(self, rng, family):
        x = standard_normal(rng, (4, 2))
        x2 = standard_normal(rng, (3, 2))
        shift = standard_normal(rng, (1, 2))
        k = family(1.0, [0.6, 1.4])
        np.testing.assert_allclose(
            k_full(k, x + shift, x2 + shift), k_full(k, x, x2), atol=1e-12
        )

    def test_ard_lengthscale_broadcast(self, rng):
        x = standard_normal(rng, (4, 2))
        shared = k_full(SquaredExponential(1.0, 0.9), x)
        per_dim = k_full(SquaredExponential(1.0, [0.9, 0.9]), x)
        np.testing.assert_allclose(shared, per_dim)

    @pytest.mark.parametrize("family", STATIONARY + [Linear, White])
    def test_input_dim_mismatch(self, family):
        with pytest.raises(DimensionMismatch, match="input dims differ: 2 vs 3"):
            k_full(family(), np.ones((2, 2)), np.ones((2, 3)))

    def test_positivity_validation(self):
        with pytest.raises(ValueError):
            SquaredExponential(-1.0)
        with pytest.raises(ValueError):
            SquaredExponential(1.0, [1.0, -0.1])


def _lmc(rng, p=3, l=2):
    kernels = [SquaredExponential(1.0, 0.6), Matern32(0.8, 1.2)][:l]
    w = standard_normal(rng, (p, l))
    return LinearCoregionalization(kernels, w)


class TestMultioutput:
    def test_shared_independent_full_has_zero_cross_terms(self, rng):
        x = standard_normal(rng, (1, 2))
        k = SharedIndependent(SquaredExponential(1.5, 1.0), 3)
        full = mo_k(k, x)  # [1, 3, 1, 3]
        np.testing.assert_allclose(full[0, :, 0, :], 1.5 * np.eye(3))

    def test_lmc_identity_mixing_is_diagonal(self, rng):
        x = standard_normal(rng, (1, 1))
        kernels = [SquaredExponential(1.0, 0.5), Matern12(2.0, 1.0)]
        k = LinearCoregionalization(kernels, np.eye(2))
        full = mo_k(k, x)
        np.testing.assert_allclose(full[0, :, 0, :], np.diag([1.0, 2.0]), atol=1e-12)

    def test_lmc_matches_brute_force_sum(self, rng):
        x = standard_normal(rng, (4, 1))
        x2 = standard_normal(rng, (3, 1))
        k = _lmc(rng)
        full = mo_k(k, x, x2)
        grams = [lat.K(x, x2) for lat in k.kernels]
        for n in range(4):
            for p in range(3):
                for m in range(3):
                    for q in range(3):
                        expected = sum(
                            k.w[p, ell] * grams[ell][n, m] * k.w[q, ell]
                            for ell in range(2)
                        )
                        assert full[n, p, m, q] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: SharedIndependent(SquaredExponential(1.5, 0.8), 3),
            lambda rng: SeparateIndependent([SquaredExponential(1.0), Matern52(2.0)]),
            _lmc,
            lambda rng: IntrinsicCoregionalization(
                Matern32(0.8, 1.2), standard_normal(rng, (3, 2))
            ),
            lambda rng: Convolutional(SquaredExponential(1.0, 0.7), (3, 3), (2, 2)),
        ],
    )
    def test_marginal_mode_is_the_outputs_grams(self, rng, make):
        # Without full_output_cov every multioutput kernel gives the grams
        # of its outputs: the diagonal output blocks of the full tensor.
        k = make(rng)
        d = 9 if isinstance(k, Convolutional) else 1
        x = standard_normal(rng.derive(1), (4, d))
        x2 = standard_normal(rng.derive(2), (3, d))
        for args in ((x,), (x, x2)):
            full = mo_k(k, *args)  # [N, P, N2, P]
            grams = mo_k(k, *args, full_output_cov=False)  # [P, N, N2]
            assert grams.shape == (k.num_outputs, full.shape[0], full.shape[2])
            np.testing.assert_allclose(
                grams, np.einsum("npmp->pnm", full), rtol=1e-13, atol=1e-15
            )

    def test_conv_marginal_mode_builds_no_patch_tensor(self, rng):
        # Each output's gram comes from its own patches: nothing of the
        # [N P, N2 P] patch gram the full tensor needs.
        k = Convolutional(SquaredExponential(1.0, 0.7), (3, 3), (2, 2))
        x, x2 = standard_normal(rng, (50, 9)), standard_normal(rng.derive(1), (30, 9))
        for args, shape in (((x,), (50, 50)), ((x, x2), (50, 30))):
            with allocation_probe() as shapes:
                grams = mo_k(k, *args, full_output_cov=False)
            assert grams.shape == (k.num_outputs, *shape)
            assert shapes == [shape] * k.num_outputs

    def test_conv_white_base_keeps_its_variance_on_every_diagonal(self, rng):
        # Each patch is its own point to a white base, so the full tensor,
        # the marginal mode and the summed process all read its variance
        # on the diagonal of x against itself.
        k = Convolutional(White(0.5), (3, 3), (2, 2))
        x = standard_normal(rng, (4, 9))
        full = mo_k(k, x)
        np.testing.assert_array_equal(
            np.einsum("npmp->pnm", full), mo_k(k, x, full_output_cov=False)
        )
        np.testing.assert_array_equal(np.einsum("npnp->np", full), mo_k_diag(k, x, False))
        np.testing.assert_array_equal(np.diag(k_full(k, x)), k_diag(k, x))

    def test_independent_marginal_mode_is_per_output(self, rng):
        x = standard_normal(rng, (4, 1))
        k = SeparateIndependent([SquaredExponential(1.0), Matern52(2.0)])
        per_output = mo_k(k, x, full_output_cov=False)
        assert per_output.shape == (2, 4, 4)
        np.testing.assert_allclose(per_output[1], k.kernels[1].K(x))

    def test_full_tensor_symmetry(self, rng):
        x = standard_normal(rng, (3, 1))
        full = mo_k(_lmc(rng), x)
        np.testing.assert_allclose(full, np.einsum("npmq->mqnp", full), atol=1e-12)

    def test_shared_diag_slices_are_scaled_identity(self, rng):
        x = standard_normal(rng, (4, 2))
        k = SharedIndependent(SquaredExponential(0.7, 1.0), 2)
        slices = mo_k_diag(k, x)  # [N, P, P]
        for n in range(4):
            np.testing.assert_allclose(slices[n], 0.7 * np.eye(2))

    def test_lmc_marginal_variances_match_sum(self, rng):
        x = standard_normal(rng, (5, 1))
        k = _lmc(rng)
        marg = mo_k_diag(k, x, full_output_cov=False)  # [N, P]
        diags = np.stack([lat.K_diag(x) for lat in k.kernels], axis=1)
        np.testing.assert_allclose(marg, diags @ (k.w**2).T, atol=1e-12)

    def test_lmc_diag_consistency_with_latents(self, rng):
        x = standard_normal(rng, (3, 1))
        k = _lmc(rng)
        slices = mo_k_diag(k, x, full_output_cov=True)
        diags = np.stack([lat.K_diag(x) for lat in k.kernels], axis=1)
        for n in range(3):
            expected = k.w @ np.diag(diags[n]) @ k.w.T
            np.testing.assert_allclose(slices[n], expected, atol=1e-12)

    def test_imc_shares_one_latent_kernel(self, rng):
        base = SquaredExponential(1.0, 0.5)
        k = IntrinsicCoregionalization(base, standard_normal(rng, (4, 2)))
        assert len(k.latent_kernels) == 2
        assert all(lat is base for lat in k.latent_kernels)

    @pytest.mark.parametrize("w", [0.5, [0.5, 1.0], np.ones((2, 2, 2))])
    @pytest.mark.parametrize("cls", [LinearCoregionalization, IntrinsicCoregionalization])
    def test_mixing_matrix_must_be_two_dimensional(self, cls, w):
        base = SquaredExponential()
        with pytest.raises(DimensionMismatch, match=r"mixing matrix must be \[P, L\]"):
            cls([base] if cls is LinearCoregionalization else base, w)

    @pytest.mark.parametrize(
        "build",
        [
            lambda k: SharedIndependent(k, 3),
            lambda k: SeparateIndependent([k, SquaredExponential()]),
            lambda k: LinearCoregionalization([k, SquaredExponential()], np.ones((2, 2))),
            lambda k: IntrinsicCoregionalization(k, np.ones((2, 2))),
        ],
        ids=["shared", "separate", "lmc", "imc"],
    )
    def test_latent_processes_are_scalar(self, build):
        # A latent is a single-output kernel or the summed-patch process of a
        # convolutional kernel; a multioutput latent is refused when built.
        conv = Convolutional(SquaredExponential(), (3, 3), (2, 2))
        assert build(conv).latent_kernels[0] is conv
        with pytest.raises(ValueError, match="scalar GP, but SharedIndependent has 2 outputs"):
            build(SharedIndependent(SquaredExponential(), 2))

    def test_mo_k_rejects_single_output_kernels(self, rng):
        with pytest.raises(UnsupportedMode):
            mo_k(SquaredExponential(), np.ones((2, 1)))
        with pytest.raises(UnsupportedMode):
            k_full(SharedIndependent(SquaredExponential(), 2), np.ones((2, 1)))


class TestPatches:
    def test_unit_patches_are_pixels(self):
        x = np.arange(8.0).reshape(2, 4)  # two 2x2 images
        patches = extract_patches(x, (2, 2), (1, 1))
        assert patches.shape == (2, 4, 1)
        np.testing.assert_array_equal(patches[:, :, 0], x)

    def test_patch_count_formula(self, rng):
        x = standard_normal(rng, (1, 9))
        patches = extract_patches(x, (3, 3), (2, 2))
        assert patches.shape == (1, 4, 4)

    def test_constant_image_gives_identical_patches(self):
        x = np.full((1, 9), 3.5)
        patches = extract_patches(x, (3, 3), (2, 2))
        assert np.ptp(patches) == 0.0

    def test_raster_order(self):
        img = np.arange(9.0)[None, :]
        patches = extract_patches(img, (3, 3), (2, 2))
        np.testing.assert_array_equal(patches[0, 0], [0, 1, 3, 4])
        np.testing.assert_array_equal(patches[0, 1], [1, 2, 4, 5])
        np.testing.assert_array_equal(patches[0, 2], [3, 4, 6, 7])

    def test_oversized_patch_rejected(self):
        with pytest.raises(PatchLargerThanImage):
            extract_patches(np.ones((1, 4)), (2, 2), (3, 1))

    def test_row_length_checked(self):
        with pytest.raises(DimensionMismatch):
            extract_patches(np.ones((1, 5)), (2, 2), (1, 1))


class TestConvolutional:
    def _kernel(self):
        return Convolutional(SquaredExponential(1.0, 1.5), (3, 3), (2, 2))

    def test_output_count(self):
        assert self._kernel().num_outputs == 4

    def test_sum_gram_matches_brute_force_double_sum(self, rng):
        k = self._kernel()
        x = standard_normal(rng, (3, 9))
        x2 = standard_normal(rng, (2, 9))
        gram = k_full(k, x, x2)
        pa, pb = k.patches(x), k.patches(x2)
        for n in range(3):
            for m in range(2):
                expected = sum(
                    k.kernel.K(pa[n, p : p + 1], pb[m, q : q + 1])[0, 0]
                    for p in range(4)
                    for q in range(4)
                )
                assert gram[n, m] == pytest.approx(expected, abs=1e-10)

    def test_multioutput_entries_are_patch_covariances(self, rng):
        k = self._kernel()
        x = standard_normal(rng, (2, 9))
        full = mo_k(k, x)
        pa = k.patches(x)
        assert full[0, 1, 1, 2] == pytest.approx(
            k.kernel.K(pa[0, 1:2], pa[1, 2:3])[0, 0]
        )

    def test_constant_image_diag_entries_all_equal(self):
        k = self._kernel()
        x = np.full((1, 9), 2.0)
        slices = mo_k_diag(k, x)
        assert np.ptp(slices) == pytest.approx(0.0, abs=1e-14)

    def test_constant_images_give_constant_gram_rows(self):
        k = self._kernel()
        x = np.array([[1.0] * 9, [2.0] * 9, [1.0] * 9])
        gram = k_full(k, x)
        # identical constant images produce identical rows
        np.testing.assert_allclose(gram[0], gram[2], atol=1e-12)
        patch_val = k.kernel.K(np.full((1, 4), 1.0), np.full((1, 4), 2.0))[0, 0]
        assert gram[0, 1] == pytest.approx(16.0 * patch_val)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_gram_symmetry_property(seed):
    rng = RngState(seed)
    x = standard_normal(rng, (4, 2))
    gram = k_full(SquaredExponential(1.0, 0.8), x)
    np.testing.assert_allclose(gram, gram.T, atol=1e-14)
    assert np.linalg.eigvalsh(gram).min() > -1e-10
