import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsegp import (
    Convolutional,
    DispatchRegistry,
    FitConfig,
    Gaussian,
    InducingPatches,
    InducingPoints,
    IntrinsicCoregionalization,
    Kernel,
    LinearCoregionalization,
    Matern12,
    Matern32,
    Multiscale,
    RngState,
    SeparateIndependent,
    SeparateIndependentInducingVariables,
    SharedIndependent,
    SharedIndependentInducingVariables,
    SquaredExponential,
    SVGPModel,
    VariationalGaussian,
    fit,
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
    ShapeMismatch,
    SparseGPError,
    UnsupportedCombination,
)
from sparsegp.conditionals import (
    Layout,
    Posterior,
    SingleOutputPosterior,
    UnwindowedMultiscale,
    layout,
)
from sparsegp.covariances import PAIRS
from sparsegp.inducing import InducingVariable
from sparsegp.models import _initial_q
from sparsegp.training import _fd_coordinate, parameterize
from sparsegp.schema import Param, Schema

from conftest import desk_regression
from test_conditionals import dense_posterior_oracle


class ConvLatents(SeparateIndependent):
    """Separate latents of which the first is convolutional (test-only tag
    for the pair tables below)."""


SHIPPED_PAIRS = [
    (InducingPoints, SquaredExponential),
    (InducingPoints, Matern32),
    (Multiscale, SquaredExponential),
    (InducingPatches, Convolutional),
    (InducingPoints, SharedIndependent),
    (InducingPoints, SeparateIndependent),
    (InducingPoints, LinearCoregionalization),
    (InducingPoints, IntrinsicCoregionalization),
    (SharedIndependentInducingVariables, SharedIndependent),
    (SharedIndependentInducingVariables, SeparateIndependent),
    (SharedIndependentInducingVariables, LinearCoregionalization),
    (SharedIndependentInducingVariables, IntrinsicCoregionalization),
    (SeparateIndependentInducingVariables, SharedIndependent),
    (SeparateIndependentInducingVariables, SeparateIndependent),
    (SeparateIndependentInducingVariables, LinearCoregionalization),
    (SeparateIndependentInducingVariables, IntrinsicCoregionalization),
    (SeparateIndependentInducingVariables, ConvLatents),  # a patch member
]
# Pairs the registry refuses: windows without a windowed kernel, a latent set
# with a kernel that has no latent processes, and a latent that is not a scalar
# process (a convolutional latent with points).  A multioutput latent is
# refused earlier, when its kernel is built (``test_kernels.py``).
REFUSED_PAIRS = [
    (Multiscale, Matern32),
    (Multiscale, SharedIndependent),
    (SharedIndependentInducingVariables, Matern32),
    (SharedIndependentInducingVariables, ConvLatents),
]


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
        # New pair types register a Posterior subclass without touching core
        # tables; its Kuu, plus the jitter, is what ``kuu`` returns.
        class CustomIv(InducingPoints):
            pass

        class CustomKernel(SquaredExponential):
            pass

        marker = np.array([[2.0, 1.0], [1.0, 3.0]])

        class CustomPosterior(Posterior):
            @classmethod
            def kuu(cls, iv, kernel):
                return marker

        PAIRS.register(CustomIv, CustomKernel, CustomPosterior)
        try:
            got = kuu(CustomIv(np.zeros((2, 1))), CustomKernel(), jitter=0.5)
            np.testing.assert_array_equal(got, marker + 0.5 * np.eye(2))
        finally:
            del PAIRS._table[(CustomIv, CustomKernel)]
            PAIRS._cache.clear()

    def test_resolution_is_deterministic(self):
        reg = DispatchRegistry("demo")
        reg.register(InducingPoints, Kernel, lambda *a: "x")
        first = reg.resolve(Multiscale, Matern32)
        assert reg.resolve(Multiscale, Matern32) is first

    def test_resolution_is_total_over_shipped_pairs(self):
        # Every shipped (inducing variable, kernel) combination resolves,
        # without ambiguity, to the one class that gives its Kuu, Kuf, shape
        # and conditional (which also samples).
        for iv_type, kernel_type in SHIPPED_PAIRS:
            assert issubclass(PAIRS.resolve(iv_type, kernel_type), Posterior)


class TestKuuPairs:
    def test_inducing_points_single_output(self, rng):
        z = standard_normal(rng, (4, 1))
        k = SquaredExponential(1.2, 0.7)
        got = kuu(InducingPoints(z), k, jitter=1e-4)
        assert isinstance(got, np.ndarray)
        np.testing.assert_allclose(got, k.K(z) + 1e-4 * np.eye(4), atol=1e-14)

    def test_inducing_points_multioutput_is_stacked_dense(self, rng):
        z = standard_normal(rng, (3, 1))
        k = LinearCoregionalization(
            [SquaredExponential(1.0, 0.5), Matern32(0.8, 1.0)],
            standard_normal(rng, (2, 2)),
        )
        got = kuu(InducingPoints(z), k, jitter=0.0)
        expected = mo_k(k, z).reshape(6, 6)
        np.testing.assert_allclose(got, expected, atol=1e-13)

    def test_latent_separate_kernels_get_their_own_blocks(self, rng):
        z = standard_normal(rng, (3, 1))
        iv = SharedIndependentInducingVariables(InducingPoints(z))
        kernels = [SquaredExponential(1.0, 0.5), Matern32(2.0, 1.0)]
        k = SeparateIndependent(kernels)
        got = kuu(iv, k, jitter=0.0)
        assert got.shape == (6, 6)
        np.testing.assert_allclose(got[:3, :3], kernels[0].K(z))
        np.testing.assert_allclose(got[3:, 3:], kernels[1].K(z))
        assert not got[:3, 3:].any() and not got[3:, :3].any()

    def test_separate_members_evaluate_their_own_inputs(self, rng):
        z0, z1 = standard_normal(rng, (3, 1)), standard_normal(rng, (3, 1))
        iv = SeparateIndependentInducingVariables(
            [InducingPoints(z0), InducingPoints(z1)]
        )
        kernels = [SquaredExponential(), SquaredExponential()]
        got = kuu(iv, SeparateIndependent(kernels), jitter=0.0)
        np.testing.assert_allclose(got[:3, :3], kernels[0].K(z0))
        np.testing.assert_allclose(got[3:, 3:], kernels[1].K(z1))

    def test_dense_lmc_kuu_matches_block_form_for_identity_mixing(self, rng):
        # With W = I and L = P the stacked covariance of f(Z) is a
        # permutation of the latent block-diagonal; the two must agree once
        # reindexed.
        z = standard_normal(rng, (3, 1))
        kernels = [SquaredExponential(1.0, 0.5), Matern32(0.8, 1.2)]
        k = LinearCoregionalization(kernels, np.eye(2))
        dense = kuu(InducingPoints(z), k, jitter=0.0)  # (m,p) stacking
        blocks = kuu(
            SharedIndependentInducingVariables(InducingPoints(z)), k, jitter=0.0
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
            dense = kuu(iv, kern, jitter=0.0)
            np.testing.assert_allclose(dense, dense.T, atol=1e-12)
            assert np.linalg.eigvalsh(dense).min() > -1e-8


    @pytest.mark.parametrize("pair", SHIPPED_PAIRS)
    def test_jitter_is_added_once_as_j_identity(self, pair):
        # A pair's own Kuu carries no jitter: ``kuu`` adds j·I to it once,
        # the latent pairs' block diagonal included.  Compared as a sum,
        # which is exact, where a difference would round.
        iv, kernel, _ = _shipped_pair(*pair, (3, 2, 4), 2, RngState(5))
        plain = kuu(iv, kernel, 0.0)
        for j in (1e-6, 0.5):
            want = plain + j * np.eye(plain.shape[0])
            np.testing.assert_array_equal(kuu(iv, kernel, j), want)


class TestKufPairs:
    def test_kuf_at_inducing_inputs_is_kuu_minus_jitter(self, rng):
        z = standard_normal(rng, (4, 1))
        k = SquaredExponential(1.0, 0.8)
        iv = InducingPoints(z)
        jitter = 1e-5
        got = kuf(iv, k, z)
        np.testing.assert_allclose(
            got, kuu(iv, k, jitter) - jitter * np.eye(4), atol=1e-13
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
        np.testing.assert_allclose(got, k.kernel.K(z))


class TestMultiscale:
    def test_kuu_delta_window_limit(self, rng):
        z = standard_normal(rng, (4, 1))
        k = SquaredExponential(1.3, 0.7)
        tiny = Multiscale(z, np.full((4, 1), 1e-8))
        near = kuu(tiny, k, jitter=0.0)
        exact = kuu(InducingPoints(z), k, jitter=0.0)
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
        diag = np.diag(kuu(iv, k, jitter=0.0))
        assert np.ptp(diag) == pytest.approx(0.0, abs=1e-14)

    def test_window_widening_shrinks_covariance_scale(self):
        z = np.array([[0.0], [1.0]])
        k = SquaredExponential(1.0, 0.5)
        wide = kuu(Multiscale(z, np.full((2, 1), 2.0)), k, jitter=0.0)
        narrow = kuu(Multiscale(z, np.full((2, 1), 0.1)), k, jitter=0.0)
        assert wide[0, 0] < narrow[0, 0]

    def test_kuu_is_psd(self, rng):
        z = standard_normal(rng, (5, 1))
        scales = rng.generator.uniform(0.1, 1.0, (5, 1))
        k = SquaredExponential(1.0, 0.7)
        dense = kuu(Multiscale(z, scales), k, jitter=0.0)
        assert np.linalg.eigvalsh(dense).min() > -1e-10

    def test_windows_match_the_closed_form(self):
        # Kuu_ij = v prod_d sqrt(l² / e) exp(-(z_i - z_j)² / 2e) with
        # e = l² + s_i² + s_j², and Kuf with e = l² + s_i², per dimension.
        z = np.array([[0.0, 1.0], [0.7, -0.4], [2.0, 0.3]])
        s = np.array([[0.3, 0.5], [0.2, 0.9], [1.1, 0.4]])
        x = np.array([[0.1, 0.2], [-1.0, 1.5]])
        ls, v = np.array([0.8, 1.3]), 1.7
        k = SquaredExponential(v, ls)

        def window(a, b, e):
            return v * np.prod(np.sqrt(ls**2 / e) * np.exp(-0.5 * (a - b) ** 2 / e))

        iv = Multiscale(z, s)
        want_kuu = [[window(zi, zj, ls**2 + si**2 + sj**2) for zj, sj in zip(z, s)]
                    for zi, si in zip(z, s)]
        want_kuf = [[window(zi, xn, ls**2 + si**2) for xn in x] for zi, si in zip(z, s)]
        np.testing.assert_allclose(kuu(iv, k, jitter=0.0), want_kuu, rtol=1e-13)
        np.testing.assert_allclose(kuf(iv, k, x), want_kuf, rtol=1e-13)

    @pytest.mark.parametrize(
        "kernel",
        [Matern32(), Matern12(), SharedIndependent(SquaredExponential(), 2)],
        ids=lambda k: type(k).__name__,
    )
    def test_other_kernels_refuse_windows(self, kernel):
        iv = Multiscale(np.zeros((3, 1)), np.full((3, 1), 0.5))
        for covariance in (lambda: kuu(iv, kernel), lambda: kuf(iv, kernel, np.ones((2, 1)))):
            with pytest.raises(UnsupportedCombination, match=type(kernel).__name__):
                covariance()

    def test_latent_members_refuse_through_the_same_tables(self):
        iv = SeparateIndependentInducingVariables(
            [InducingPoints(np.zeros((2, 1))), Multiscale(np.ones((3, 1)), np.ones((3, 1)))]
        )
        kernel = SeparateIndependent([SquaredExponential(), Matern32()])
        with pytest.raises(UnsupportedCombination, match="Matern32"):
            kuu(iv, kernel)
        with pytest.raises(UnsupportedCombination, match="Matern32"):
            kuf(iv, kernel, np.zeros((2, 1)))

    def test_latent_members_refuse_at_build(self):
        iv = SeparateIndependentInducingVariables(
            [InducingPoints(np.zeros((2, 1))), Multiscale(np.ones((3, 1)), np.ones((3, 1)))]
        )
        kernel = SeparateIndependent([SquaredExponential(), Matern32()])
        with pytest.raises(UnsupportedCombination, match="Matern32"):
            SVGPModel(kernel, Gaussian(0.1), iv, VariationalGaussian(np.zeros(5)))


def _shipped_pair(iv_type, kernel_type, sizes, p, rng):
    """An instance of a shipped or refused pair: member sizes from ``sizes`` (the first
    member of a separate set is multiscale, or patches for a convolutional
    latent), ``p`` outputs where the kernel takes a count, and the input
    columns the pair expects."""
    se, w = SquaredExponential(1.0, 0.8), np.linspace(0.5, 1.5, 2 * p).reshape(p, 2)
    kernel = {
        SquaredExponential: lambda: se,
        Matern32: Matern32,
        Convolutional: lambda: Convolutional(se, (3, 3), (2, 2)),
        SharedIndependent: lambda: SharedIndependent(se, p),
        SeparateIndependent: lambda: SeparateIndependent([se, Matern32()]),
        LinearCoregionalization: lambda: LinearCoregionalization([se, Matern32()], w),
        IntrinsicCoregionalization: lambda: IntrinsicCoregionalization(se, w),
        ConvLatents: lambda: ConvLatents([Convolutional(se, (3, 3), (2, 2)), Matern32()]),
    }[kernel_type]()
    columns = 9 if kernel_type in (Convolutional, ConvLatents) else 2

    def points(i, cls=InducingPoints):
        width = 4 if cls is InducingPatches else columns
        z = standard_normal(rng.derive(i), (sizes[i % len(sizes)], width))
        return Multiscale(z, np.full_like(z, 0.3)) if cls is Multiscale else cls(z)

    if iv_type is InducingPatches:
        iv = InducingPatches(standard_normal(rng, (sizes[0], 4)))
    elif iv_type is SharedIndependentInducingVariables:
        iv = iv_type(points(0))
    elif iv_type is SeparateIndependentInducingVariables:
        first = InducingPatches if kernel_type is ConvLatents else Multiscale
        members = [points(0, first)]
        members += [points(i) for i in range(1, len(kernel.latent_kernels))]
        iv = iv_type(members)
    else:
        iv = points(0, iv_type)
    return iv, kernel, columns


def _raised(call):
    """The class of the error ``call`` raises, None when it returns."""
    try:
        call()
    except SparseGPError as err:
        return type(err)
    return None


# One instance of every registered posterior class: the first shipped pair
# that resolves to it, and the refused multiscale pair.
BUILDABLE_PAIRS = [*SHIPPED_PAIRS, (Multiscale, Matern32)]


@pytest.mark.parametrize("whiten", [False, True])
def test_every_registered_posterior_checks_q_when_it_is_built(whiten):
    # Built directly, with no model or create_posterior in front: the class's
    # own constructor must refuse a q one entry short.
    examples = {}
    for pair in BUILDABLE_PAIRS:
        examples.setdefault(PAIRS.resolve(*pair), pair)
    assert set(examples) == set(PAIRS._table.values())  # every class has an example
    for cls, pair in examples.items():
        iv, kernel, _ = _shipped_pair(*pair, (3, 2, 4), 2, RngState(7))
        if cls is UnwindowedMultiscale:
            with pytest.raises(UnsupportedCombination):
                cls(iv, kernel, VariationalGaussian(np.zeros(2), None, whiten))
            continue
        total = layout(iv, kernel).total
        short = VariationalGaussian(np.zeros(total - 1), None, whiten)
        with pytest.raises(ShapeMismatch, match=f"pair requires {total}"):
            cls(iv, kernel, short, 1e-6)


class TestLayout:
    @settings(max_examples=60, deadline=None)
    @given(
        pair=st.sampled_from(SHIPPED_PAIRS + REFUSED_PAIRS),
        sizes=st.lists(st.integers(1, 5), min_size=3, max_size=3),
        p=st.integers(1, 3),
        whiten=st.booleans(),
    )
    def test_layout_agrees_with_kuu_q_and_predictions(self, pair, sizes, p, whiten):
        rng = RngState(sum(sizes) + 7 * p)
        iv, kernel, columns = _shipped_pair(*pair, sizes, p, rng)
        x = standard_normal(rng.derive(9), (4, columns))
        raised = {
            _raised(lambda: layout(iv, kernel)),
            _raised(lambda: kuu(iv, kernel)),
            _raised(lambda: kuf(iv, kernel, x)),
        }
        assert len(raised) == 1, raised  # all succeed, or all refuse alike
        assert (raised == {None}) == (pair in SHIPPED_PAIRS)
        if pair not in SHIPPED_PAIRS:
            return
        shape = layout(iv, kernel)
        q = _initial_q(iv, kernel, whiten)
        assert shape.total == kuu(iv, kernel).shape[0] == q.q_mu.shape[0]
        assert shape.columns == columns
        model = SVGPModel(kernel, Gaussian(0.1), iv, q)
        assert model.predict_f(x).mean.shape == (4, shape.outputs)
        assert model.num_outputs == shape.outputs and model.input_dim == columns

    def test_third_party_pair_needs_only_registrations(self):
        # Pairs of points averaged: u_m = (f(a_m) + f(b_m)) / 2.
        a = np.linspace(0.0, 4.0, 4)[:, None]
        iv, kernel = Midpoints(a, a + 0.5), SquaredExponential(1.0, 0.9)
        with pytest.raises(NoImplementation):  # refused by name until registered
            layout(iv, kernel)
        PAIRS.register(Midpoints, SquaredExponential, MidpointPosterior)
        try:
            assert layout(iv, kernel).total == 4
            x, y = desk_regression(n=12)
            q = _initial_q(iv, kernel, whiten=False)
            model = SVGPModel(kernel, Gaussian(0.1), iv, q, num_data=12)
            trained = fit(model, (x, y), FitConfig(steps=1, learning_rate=0.01)).model
            assert isinstance(trained.posterior, MidpointPosterior)
            assert trained.input_dim == 1

            got = trained.predict_f(x)
            iv, kernel, q = trained.inducing, trained.kernel, trained.q
            mean, cov = dense_posterior_oracle(
                kuf(iv, kernel, x), kuu(iv, kernel), k_full(kernel, x),
                q.q_mu, q.q_sqrt @ q.q_sqrt.T,
            )
            np.testing.assert_allclose(got.mean[:, 0], mean, atol=1e-8)
            np.testing.assert_allclose(got.cov[:, 0], np.diag(cov), atol=1e-8)

            # q trains on its exact gradients, which match the differences.
            _, grads = trained.objective_gradients((x, y), None, None)
            assert {"q_mu", "q_sqrt"} <= set(grads)
            store, build = parameterize(trained)
            free = store.free_vector()

            def objective(s):
                return build(s).objective((x, y), None, None)

            for name, lo, hi in store.spans():
                if name not in ("q_mu", "q_sqrt"):
                    continue
                fd = [_fd_coordinate(objective, store, free, i) for i in range(lo, hi)]
                exact = store.free_gradient(name, grads[name])
                np.testing.assert_allclose(exact, fd, rtol=1e-4, atol=1e-7)
        finally:
            del PAIRS._table[(Midpoints, SquaredExponential)]
            PAIRS._cache.clear()


class Midpoints(InducingVariable):
    """Test-only inducing variables: the average of f at two points."""

    schema = Schema("test_midpoints", Param("a"), Param("b"))

    def __init__(self, a, b):
        self.a, self.b = np.asarray(a, float), np.asarray(b, float)

    @property
    def num_rows(self):
        return self.a.shape[0]


def _midpoint_gram(kernel, iv, other):
    """Covariance of the midpoint variables with ``other`` (midpoints or
    inputs)."""
    ends = (other.a, other.b) if isinstance(other, Midpoints) else (other,)
    grams = [k_full(kernel, e, o) for e in (iv.a, iv.b) for o in ends]
    return sum(grams) / len(grams)


class MidpointPosterior(SingleOutputPosterior):
    @classmethod
    def layout(cls, iv, kernel):
        return Layout((iv.num_rows,), False, 1, iv.a.shape[1])

    @classmethod
    def kuu(cls, iv, kernel):
        return _midpoint_gram(kernel, iv, iv)

    @classmethod
    def kuf(cls, iv, kernel, xnew):
        return _midpoint_gram(kernel, iv, xnew)
