"""Posterior moments of the approximate GP at new inputs.

A :class:`Posterior` holds one (inducing variable, kernel) pair's Kuu
Cholesky factor and q.  Each pair has one entry in the dispatch registry
``covariances.PAIRS``: the ``Posterior`` subclass registered here for it,
the one place that knows the pair.  The class supplies the pair's
covariances (``kuu`` and ``kuf``, read by ``covariances.kuu``/``kuf``), its
shape (``layout``: q's blocks, outputs per point and input columns, read by
``check_q`` and the models) and the blocks of one chunk of rows
(``_blocks``: Kuf and the rows' prior covariance), from which the base
class takes their moments (``_chunk``) and backward (``_chunk_vjp``).  Kuu,
the pair's plain one plus the jitter ``covariances.kuu`` adds, is factored
once, when the posterior is built; its ``kl`` reads that factor.
``backward`` runs the chunks' backward over the rows that ``predict``
streams (``stream``), giving the gradients, by slot name, of an objective
of the marginal moments minus the KL with respect to q (and to W, for a
latent set that mixes with one) from the objective's gradients with respect
to the moments, and the KL's value.  Where the classes that define a pair's
``kuu`` and ``kuf`` define their VJPs beside them (``input_vjp``; inducing points with a
stationary kernel), each chunk's Kuf cotangent goes through ``kuf_vjp``, and the
factor's cotangent, summed over the chunks with the unwhitened KL's, goes
through one Cholesky backward (``numerics.cholesky_vjp``) into
``kuu_vjp``, giving the gradients with respect to Z, the kernel's
parameters and the input rows.  The KL's gradients come from
``divergences.gauss_kl`` with ``grads``.  The exact GP's posterior
(``models.ExactPosterior``) is the single-output points posterior at Z = X.
A pair that is refused raises from ``layout``, ``kuu`` and ``kuf`` alike, so
a model holding it is refused when it is built.  A new pair registers one
such class and nothing else.
``create_posterior`` builds a pair's posterior; ``conditional`` and
``sample_conditional`` use one once, and models keep one.  Every posterior
checks q against its own class's ``layout`` when it is built, however it is
built; ``check_q`` runs the same check for a model that holds q before it
builds one.

A latent inducing set is a :class:`LatentPosterior`: one posterior per
latent process, each of its own (member, latent kernel) pair's class, whose
scalar moments the kernel maps to outputs with ``mix``, the map its own
``K`` and ``K_diag`` apply; the backward runs through ``mix_adjoint`` to
each latent's pullback.  Latents that hold one pair (``_pairs``) share its
Kuf and solves; where the pair has ``input_vjp`` they sum their gradients
with respect to its projection and prior covariance, so the base class's
``backward`` runs the pair's VJPs once per chunk and its Cholesky backward
once per factor.  The pair's slots sit under the prefixes of the
``schema.Child`` declarations that hold its member and latent kernel
(``inducing.base.``, ``inducing.members.<i>.``, ``kernel.base.``,
``kernel.latents.<i>.``), and two pairs that reach one slot add there.

Four covariance output modes are selected by ``full_cov`` (covariances
across inputs) and ``full_output_cov`` (covariances across outputs):

    ==========  ================  ====================
    full_cov    full_output_cov   covariance shape
    ==========  ================  ====================
    True        True              [N, P, N, P]
    True        False             [P, N, N]
    False       True              [N, P, P]
    False       False             [N, P]
    ==========  ================  ====================

The returned mean is always [N, P].  The marginal modes (``full_cov`` off)
are independent per input row, so ``Posterior.predict`` computes them over
chunks of rows, each with a Kuf of at most :data:`CHUNK_FLOATS` floats:
memory stays bounded in N and every row gets the numbers a single pass
would give.  The ``full_cov`` modes run in one pass, since their output is
N² anyway.  The backward streams the marginal modes, the only ones its
pullbacks cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .covariances import PAIRS, kuf, kuu
from .divergences import gauss_kl, prior_kl
from .errors import NonFiniteValue, ShapeMismatch, UnsupportedCombination
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
    Stationary,
    k_diag,
    k_full,
    mo_k,
    mo_k_diag,
)
from .numerics import (
    RngState,
    block_diag,
    cholesky,
    cholesky_vjp,
    record_allocation,
    standard_normal,
    tri_solve,
    tri_solve_vjp,
)
from .schema import Child, Param, Schema, Setting

# Marginal variances at or below this are treated as exactly zero when
# sampling, so deterministic posteriors reproduce their mean.
SAMPLE_VARIANCE_FLOOR = 1e-12

# Floats of Kuf per chunk of a streamed marginal prediction: 2048 rows when
# each row of Kuf holds 128 floats.
CHUNK_FLOATS = 2**18


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
        Setting("whiten", bool),
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

    def dense_sqrt(self) -> np.ndarray | None:
        if self.is_block:
            raise ShapeMismatch(
                "this code path needs a dense covariance factor, got per-latent blocks"
            )
        return self.q_sqrt


class PosteriorMoments(NamedTuple):
    """Predictive mean [N, P] and covariance in one of the four mode shapes."""

    mean: np.ndarray
    cov: np.ndarray


# ---------------------------------------------------------------------------
# Core computation


def _cov_shape(n, p, full_cov, full_output_cov):
    """Covariance shape of a mode; see the module docstring."""
    if full_cov:
        return (n, p, n, p) if full_output_cov else (p, n, n)
    return (n, p, p) if full_output_cov else (n, p)


def _gram(x, n, p, full_cov, full_output_cov):
    """The slices of xᵀx [NP, NP] that a mode keeps, x: [R, NP]."""
    if full_cov and full_output_cov:
        return x.T @ x
    if not (full_cov or full_output_cov):
        return np.sum(x * x, axis=0)
    x3 = x.reshape(-1, n, p)
    if full_cov:
        return np.matmul(x3.transpose(2, 1, 0), x3.transpose(2, 0, 1))
    return np.einsum("inp,inq->npq", x3, x3)


def _gram_adjoint(x, g, n, p, full_output_cov):
    """The gradient with respect to x of the sum of ``g`` times
    ``_gram(x, ...)`` in a marginal mode, both in the mode shape:
    x (G + Gᵀ) point by point."""
    if not full_output_cov:
        return x * (2.0 * g.reshape(-1))
    sym = g + g.transpose(0, 2, 1)  # g: [N, P, P]
    return np.einsum("rnq,npq->rnp", x.reshape(-1, n, p), sym).reshape(x.shape)


def _q_slots(dmu, dsqrt) -> dict:
    """q's gradients by slot name: ``q_mu``, and ``q_sqrt`` or, for per
    latent blocks, ``q_sqrt.<i>`` (none for q without a factor)."""
    if isinstance(dsqrt, tuple):
        return {"q_mu": dmu, **{f"q_sqrt.{i}": block for i, block in enumerate(dsqrt)}}
    return {"q_mu": dmu} if dsqrt is None else {"q_mu": dmu, "q_sqrt": dsqrt}


def _moments_vjp(lm, a, proj, n, p, knn, mu, sqrt, full_cov, full_output_cov):
    """Mean [N, P], covariance in the mode shape, and their pullback (in
    the marginal modes).

    For Kmm = lm lmᵀ and a Kmn of [M, N, P], ``a`` is A = L⁻¹Kmn [M, NP]
    and ``proj`` q's projection: A when whitened, Kmm⁻¹Kmn = L⁻ᵀA when not
    (``Posterior._group_vjp`` gives both); knn is the prior covariance,
    already in the mode shape.  Unwhitened:
    mean = Kmnᵀ Kmm⁻¹ m and
    cov = Knn − Kmnᵀ Kmm⁻¹ Kmn + Kmnᵀ Kmm⁻¹ S Kmm⁻¹ Kmn.
    Whitened (A = L⁻¹Kmn): mean = Aᵀ m and cov = Knn − AᵀA + Aᵀ S A.
    The pullback maps the gradients of an objective with respect to the
    marginal mean and covariance to its gradients with respect to m and the
    factor of S = sqrt sqrtᵀ, by slot name (:func:`_q_slots`): proj ∂mean,
    and proj (D (∂cov + ∂covᵀ))ᵀ with D = sqrtᵀ proj, which for marginal
    variances is 2 proj diag(∂var) projᵀ sqrt (Hensman et al. 2013,
    arXiv:1309.6835).  With ``prior`` it also returns the gradient with
    respect to proj, which :func:`_prior_vjp` carries to Kmn, Knn and lm.
    """
    mean = (proj.T @ mu).reshape(n, p)
    shape = _cov_shape(n, p, full_cov, full_output_cov)
    cov = knn - _gram(a, n, p, full_cov, full_output_cov).reshape(shape)
    d = None
    if sqrt is not None and sqrt.size:
        d = sqrt.T @ proj  # [R, NP]
        record_allocation(d)
        cov = cov + _gram(d, n, p, full_cov, full_output_cov).reshape(shape)
    record_allocation(cov)

    def pullback(dmean, dcov, prior=False):
        dmean = np.reshape(dmean, -1)
        dmu = proj @ dmean
        if d is None:
            q = _q_slots(dmu, None if sqrt is None else np.zeros_like(sqrt))
        else:
            adjoint = _gram_adjoint(d, dcov, n, p, full_output_cov)
            q = _q_slots(dmu, proj @ adjoint.T)
        if not prior:
            return q
        dproj = np.outer(mu, dmean)
        if d is not None:
            dproj += sqrt @ adjoint
        return q, dproj

    return mean, cov, pullback


def _prior_vjp(lm, a, proj, n, p, full_output_cov, dproj, dcov):
    """The gradients with respect to Kmn [M, N, P], Knn (``dcov`` itself)
    and lm's lower triangle of an objective of :func:`_moments_vjp`'s
    moments, from its gradients with respect to ``proj`` and to the
    covariance, through the VJPs of the triangular solves that give A and
    proj.  It is linear in both, so latents that share a pair's A and proj
    sum theirs and run it once."""
    record_allocation(dproj)
    dl = 0.0
    if proj is not a:
        dl, dproj = tri_solve_vjp(lm, proj, dproj, transpose=True)
    dproj -= _gram_adjoint(a, dcov, n, p, full_output_cov)
    dl_a, dkmn = tri_solve_vjp(lm, a, dproj)
    return dkmn.reshape(-1, n, p), dcov, dl + dl_a


def chunk_rows(row_floats: int) -> int:
    """Rows per chunk: the largest power of two whose Kuf, at ``row_floats``
    floats per row, fits in :data:`CHUNK_FLOATS`.  Chunks that start at
    multiples of a power of two line up with the row blocking of the BLAS
    kernels, which in practice keeps every row's numbers equal to those of a
    single pass (an odd chunk length moved the last digit of a few rows)."""
    fit = max(1, CHUNK_FLOATS // max(1, row_floats))
    return 1 << (fit.bit_length() - 1)


def chunk_slices(n: int, row_floats: int) -> list[slice]:
    """The row chunks that stream the marginal modes over ``n`` rows:
    ``chunk_rows(row_floats)`` rows each, a lone last row joining the chunk
    before it (numpy multiplies a lone row by vector kernels)."""
    rows = chunk_rows(row_floats)
    stops = [*range(rows, n, rows), n]
    if len(stops) > 1 and n - stops[-2] == 1:
        del stops[-2]
    return [slice(start, stop) for start, stop in zip([0, *stops], stops)]


# ---------------------------------------------------------------------------
# Posterior objects


def accumulate(total: dict, part: dict, prefix: str = "") -> dict:
    """Add each gradient of ``part`` into ``total`` under ``prefix``."""
    for name, grad in part.items():
        name = prefix + name
        total[name] = grad if name not in total else total[name] + grad
    return total


@dataclass(frozen=True)
class Layout:
    """The shape of an (inducing variable, kernel) pair.

    ``blocks``: q's entries per block, a single block unless ``latent``
    (mean-field q with one block per latent process); ``outputs``: outputs
    per input point; ``columns``: input columns, None when free.
    """

    blocks: tuple[int, ...]
    latent: bool
    outputs: int
    columns: int | None

    @property
    def total(self) -> int:
        return sum(self.blocks)


class Posterior:
    """q(f) of one (inducing variable, kernel) pair with Kuu factored once.

    ``factor`` is the lower Cholesky factor of Kuu, or for latent inducing
    variables the list of per-latent factors; a posterior given the
    ``factor`` of its pair (another latent's) reads it instead of factoring.
    ``factor_jitter`` is the jitter ``cholesky`` escalated to, if any.
    Build one with ``create_posterior``; q's sizes are checked against the
    class's ``layout`` first.
    """

    correlated_outputs = False  # whether per-point outputs can correlate

    def __init__(self, iv: InducingVariable, kernel: Kernel, q, jitter=None, factor=None):
        _check_sizes(q, self.layout(iv, kernel))
        self.inducing = iv
        self.kernel = kernel
        self.q = q
        applied = []
        if factor is None:
            factor = cholesky(kuu(iv, kernel, jitter), applied=applied)
        self.factor = factor
        self.factor_jitter = applied[0] if applied else 0.0

    @property
    def input_vjp(self) -> bool:
        """Whether ``backward`` reaches the pair's parameters and inputs:
        the class that defines ``kuu`` defines ``kuu_vjp`` beside it, and
        the one that defines ``kuf`` defines ``kuf_vjp``."""
        mro = type(self).__mro__
        return all(
            f"{name}_vjp" in next(c for c in mro if name in c.__dict__).__dict__
            for name in ("kuu", "kuf")
        )

    @classmethod
    def layout(cls, iv: InducingVariable, kernel: Kernel) -> Layout:
        """The pair's shape; raises ShapeMismatch or UnsupportedCombination
        when the pair has none."""
        raise NotImplementedError

    @classmethod
    def kuu(cls, iv: InducingVariable, kernel: Kernel) -> np.ndarray:
        """The pair's plain Kuu; ``covariances.kuu`` adds the jitter."""
        raise NotImplementedError

    @classmethod
    def kuf(cls, iv: InducingVariable, kernel: Kernel, xnew) -> np.ndarray:
        """The pair's Kuf at ``xnew`` (``covariances.kuf``)."""
        raise NotImplementedError

    def _row_floats(self) -> int:
        """Floats per input row of the largest Kuf-sized array of a chunk."""
        return self.q.num_inducing

    def _blocks(self, x, full_cov, full_output_cov):
        """Kuf [M~, N, P] at the rows ``x`` and their prior covariance in
        the mode shape, for a dense M~ x M~ Kuu."""
        raise NotImplementedError

    def _group_vjp(self, posts, x, full_cov, full_output_cov):
        """The moments and pullback (:func:`_moments_vjp`) of each posterior
        in ``posts``, this one among them, that holds this posterior's pair
        and factor with its own q (the latents of a latent set that share
        one pair), each computed as the generator reaches it, and the pair's
        ``finish(dproj, dcov)``: :func:`_prior_vjp` at the Kuf and solves
        that they all share."""
        kmn, knn = self._blocks(x, full_cov, full_output_cov)
        mt, n, p = kmn.shape
        a = tri_solve(self.factor, kmn.reshape(mt, n * p))  # [M, NP]
        proj = a if self.q.whiten else tri_solve(self.factor, a, transpose=True)
        moments = (
            _moments_vjp(
                self.factor, a, proj, n, p, knn, post.q.q_mu, post.q.dense_sqrt(),
                full_cov, full_output_cov,
            )
            for post in posts
        )
        return moments, partial(_prior_vjp, self.factor, a, proj, n, p, full_output_cov)

    def _chunk(self, x, full_cov, full_output_cov):
        """(mean, cov) of the rows ``x`` in the requested mode."""
        moments, _ = self._group_vjp([self], x, full_cov, full_output_cov)
        return next(moments)[:2]

    def _chunk_vjp(self, x, full_output_cov):
        """The marginal (mean, cov) of the rows ``x`` and their pullback:
        given an objective's gradients with respect to them, its gradients
        with respect to q (and W) by slot name.  With ``prior`` it also
        returns, per pair of ``_pairs``, the gradients with respect to its
        Kuf, its prior covariance and its Kuu factor (:func:`_prior_vjp`);
        ``backward`` asks for them where some pair has ``input_vjp``, and a
        latent set gives None for each of its pairs without it."""
        moments, finish = self._group_vjp([self], x, False, full_output_cov)
        mean, cov, back = next(moments)

        def pullback(dmean, dcov, prior=False):
            if not prior:
                return back(dmean, dcov)
            q, dproj = back(dmean, dcov, prior=True)
            return q, [finish(dproj, dcov)]

        return mean, cov, pullback

    def _pairs(self):
        """(pair posterior, its latents, the slot prefixes of its inducing
        variable and kernel, whether its VJPs run) of each pair whose Kuu
        factor this posterior holds: its own, under the pair's own names."""
        return [(self, (0,), ("inducing.", "kernel."), self.input_vjp)]

    def predict(
        self, xnew, full_cov: bool = False, full_output_cov: bool = False
    ) -> PosteriorMoments:
        """Moments of q(f(Xnew)).  The marginal modes stream over the
        chunks of :func:`chunk_slices`; only the results are allocated at
        full length."""
        xnew = np.asarray(xnew, dtype=float)
        n = xnew.shape[0]
        chunks = chunk_slices(n, self._row_floats())
        if full_cov or len(chunks) == 1:
            # The chunk's own arrays: copying them into fresh results made a
            # deep GP's 100-sample predict take twice the page faults.
            return PosteriorMoments(*self._chunk(xnew, full_cov, full_output_cov))
        for rows, part_mean, part_cov in self.stream(xnew, full_output_cov):
            if rows.start == 0:
                mean = np.empty((n, *part_mean.shape[1:]))
                cov = np.empty((n, *part_cov.shape[1:]))
            mean[rows], cov[rows] = part_mean, part_cov
        return PosteriorMoments(mean, cov)

    def stream(self, x, full_output_cov: bool = False):
        """(rows, mean, cov) of the marginal moments at ``x``, chunk by
        chunk: the chunks that ``predict`` and ``backward`` stream over."""
        for rows in chunk_slices(x.shape[0], self._row_floats()):
            yield rows, *self._chunk(x[rows], False, full_output_cov)

    def draw(self, xnew, rng: RngState, num_samples: int = 1):
        """Reparameterized draws [S, N, P] of f(Xnew) from its per-point
        marginals, the noise that made them (eps [S, N, P]) and, for
        uncorrelated outputs, the marginal variances [N, P] that scale it,
        zero at or below :data:`SAMPLE_VARIANCE_FLOOR` (else None)."""
        correlated = self.correlated_outputs
        moments = self.predict(xnew, full_cov=False, full_output_cov=correlated)
        n, p = moments.mean.shape
        eps = standard_normal(rng, (int(num_samples), n, p))
        if correlated:
            factors = np.stack([_marginal_sqrt(c) for c in moments.cov])  # [N, P, P]
            noise, var = np.einsum("npq,snq->snp", factors, eps), None
        else:
            var = np.asarray(moments.cov, dtype=float)
            var = np.where(var <= SAMPLE_VARIANCE_FLOOR, 0.0, var)
            noise = np.sqrt(var) * eps
        return moments.mean[None, :, :] + noise, eps, var

    def backward(self, x, seed, full_output_cov: bool = False, prior: bool = True):
        """(slot name under the pair -> gradient, gradient with respect to
        the rows ``x``, the KL) of an objective of the marginal moments at
        ``x`` minus this posterior's KL.  The slots are q's, W's for a latent
        set that mixes with one, and Z's and the kernel's where the pair has
        ``input_vjp``; without it the rows' gradient is None.  The KL is
        ``kl()``'s value, from the pass that gives its gradients; a KL that
        is not finite raises :class:`NonFiniteValue` before they are used.

        ``seed(rows, mean, cov)`` returns the objective's gradients with
        respect to the marginal mean and covariance of the rows ``x[rows]``;
        the rows run in the chunks that ``predict`` streams over.  A model's
        seed is its data term called with ``grads`` (``models._data_term``),
        the same term its objective takes on ``predict``'s moments.

        For each pair of ``_pairs`` (of a latent set, each member's pair
        with its latent kernel) that has ``input_vjp``, each chunk's
        pullback also gives the gradients with respect to its Kuf, its prior
        covariance and its Kuu factor, summed over the latents that share
        the pair.  The first two go through the pair's ``_blocks_vjp`` to
        its parameters and to the rows; the factor's, summed over the chunks
        with the KL's, go through one Cholesky backward at the pair's own
        jitter into ``kuu_vjp``.  Each pair's slots go under its prefixes,
        and where two pairs reach one slot their gradients add.  The slots
        under the prefixes of a pair without ``input_vjp`` stay on
        differences, whichever pair reaches them too, and the rows' gradient
        needs every pair.  ``prior`` False skips these VJPs, for a caller
        that trains none of what they reach.
        """
        x = np.asarray(x, dtype=float)
        pairs = self._pairs() if prior else []
        exact = any(ok for *_, ok in pairs)
        slots, dfactors = {}, [0.0] * len(pairs)
        inputs = np.zeros_like(x) if pairs and all(ok for *_, ok in pairs) else None
        for rows in chunk_slices(x.shape[0], self._row_floats()):
            mean, cov, pullback = self._chunk_vjp(x[rows], full_output_cov)
            dmoments = seed(rows, mean, cov)
            if not exact:
                accumulate(slots, pullback(*dmoments))
                continue
            part, cotangents = pullback(*dmoments, prior=True)
            del pullback  # and the chunk's solves, before the blocks' VJPs
            accumulate(slots, part)
            dx = None
            for i, ((pair, _, names, _), cotangent) in enumerate(zip(pairs, cotangents)):
                if cotangent is None:
                    continue
                dkmn, dknn, dl = cotangent
                dfactors[i] = dfactors[i] + dl
                blocks, drows = pair._blocks_vjp(x[rows], dkmn, dknn)
                accumulate(slots, _renamed(blocks, *names))
                dx = drows if dx is None else dx + drows
            if inputs is not None:
                inputs[rows] = dx
        kl, dmu, dsqrt, kl_factor = gauss_kl(self.q, self.factor, grads=True)
        if not np.isfinite(kl):
            raise NonFiniteValue(f"the KL is {kl}")
        for name, grad in _q_slots(dmu, dsqrt).items():
            slots[name] = slots[name] - grad
        kl_factors = kl_factor if isinstance(kl_factor, list) else [kl_factor]
        for (pair, latents, names, ok), dfactor in zip(pairs, dfactors):
            if not ok:
                continue
            if kl_factor is not None:
                for i in latents:
                    dfactor = dfactor - kl_factors[i]
            dkuu = cholesky_vjp(pair.factor, dfactor, pair.factor_jitter)
            accumulate(slots, _renamed(pair.kuu_vjp(pair.inducing, pair.kernel, dkuu), *names))
        # What a pair without the VJPs reaches too stays on differences whole.
        gaps = tuple(p for _, _, names, ok in pairs if not ok for p in names)
        if gaps:
            slots = {name: g for name, g in slots.items() if not name.startswith(gaps)}
        return slots, inputs, kl

    def kl(self) -> float:
        """KL(q(u) || p(u)), reading the factor instead of refactoring."""
        return prior_kl(self.inducing, self.kernel, self.q, factor=self.factor)


def layout(iv: InducingVariable, kernel: Kernel) -> Layout:
    """The shape of the pair, as its registered posterior class declares it."""
    return PAIRS.resolve(type(iv), type(kernel)).layout(iv, kernel)


def check_q(q, iv: InducingVariable, kernel: Kernel) -> Layout:
    """The pair's layout, once q's sizes are checked against it."""
    return _check_sizes(q, layout(iv, kernel))


def _check_sizes(q, shape: Layout) -> Layout:
    """``shape``, once q's sizes are checked against it: one entry per
    inducing variable, and a dense factor with as many rows, or for a
    latent pair one factor block per latent with its member's rows."""
    if q.num_inducing != shape.total:
        raise ShapeMismatch(
            f"q has {q.num_inducing} inducing entries, pair requires {shape.total}"
        )
    if q.q_sqrt is None:
        return shape
    if not shape.latent:
        if q.dense_sqrt().shape[0] != shape.total:  # raises for per-latent blocks
            raise ShapeMismatch(
                f"q_sqrt has {q.q_sqrt.shape[0]} rows for {shape.total} entries"
            )
        return shape
    if not q.is_block:
        raise ShapeMismatch(
            "latent-independent paths need per-latent q_sqrt factors "
            "(pass a tuple of [M, R] blocks)"
        )
    if len(q.q_sqrt) != len(shape.blocks):
        raise ShapeMismatch(
            f"{len(q.q_sqrt)} q_sqrt blocks for {len(shape.blocks)} latents"
        )
    for block, n in zip(q.q_sqrt, shape.blocks):
        if block.shape[0] != n:
            raise ShapeMismatch(
                f"q_sqrt block with {block.shape[0]} rows for a latent of size {n}"
            )
    return shape


def create_posterior(iv: InducingVariable, kernel: Kernel, q, jitter=None) -> Posterior:
    """The posterior of the pair, its class chosen by dispatch."""
    return PAIRS.resolve(type(iv), type(kernel))(iv, kernel, q, jitter)


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
    post = create_posterior(iv, kernel, q, jitter)
    return post.predict(xnew, full_cov, full_output_cov)


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
    return create_posterior(iv, kernel, q, jitter).draw(xnew, rng, num_samples)[0]


def _marginal_sqrt(cov_n):
    """Factor of one P x P marginal; numerically zero slices collapse to 0."""
    if float(np.max(np.abs(np.diag(cov_n)))) <= SAMPLE_VARIANCE_FLOOR:
        return np.zeros_like(cov_n)
    return cholesky(cov_n)


def _renamed(slots: dict, inducing: str, kernel: str) -> dict:
    """A pair's slots, named under the pair (``inducing.*`` and
    ``kernel.*``), with those prefixes replaced by ``inducing`` and
    ``kernel``: where a latent set holds the pair's components."""
    prefixes = {"inducing": inducing, "kernel": kernel}
    out = {}
    for name, grad in slots.items():
        head, rest = name.split(".", 1)
        out[prefixes[head] + rest] = grad
    return out


def _pair_slots(dz, kernel_grads) -> dict:
    """A pair's gradients by slot name under the pair: its inducing inputs'
    and its kernel's parameters', keyed by the kernel's own schema names."""
    return accumulate({"inducing.z": dz}, kernel_grads, "kernel.")


@PAIRS.register(InducingPoints, Kernel)
class SingleOutputPosterior(Posterior):
    @property
    def input_vjp(self):  # the VJPs below read the kernel's, from its dk/dr²
        k = self.kernel
        return super().input_vjp and isinstance(k, Stationary) and k.dk_dr2 is not None

    @classmethod
    def layout(cls, iv, kernel):
        return Layout((iv.num_rows,), False, 1, iv.z.shape[1])

    @classmethod
    def kuu(cls, iv, kernel):
        return k_full(kernel, iv.z)

    @classmethod
    def kuf(cls, iv, kernel, xnew):
        return k_full(kernel, iv.z, xnew)  # [M, N]

    @classmethod
    def kuu_vjp(cls, iv, kernel, dkuu):
        """Slot name -> gradient of Σ dkuu ⊙ Kuu, for a stationary kernel
        that gives dk/dr²."""
        dz, dz2, grads = kernel.K_vjp(iv.z, iv.z, dkuu)
        return _pair_slots(dz + dz2, grads)

    @classmethod
    def kuf_vjp(cls, iv, kernel, xnew, dkuf):
        """Slot name -> gradient of Σ dkuf ⊙ Kuf, and its gradient with
        respect to ``xnew``, for a stationary kernel that gives dk/dr²."""
        dz, dx, grads = kernel.K_vjp(iv.z, xnew, dkuf)
        return _pair_slots(dz, grads), dx

    def _blocks(self, x, full_cov, full_output_cov):
        kmn = kuf(self.inducing, self.kernel, x)[:, :, None]  # [M, N, 1]
        knn = k_full(self.kernel, x) if full_cov else k_diag(self.kernel, x)
        return kmn, knn.reshape(_cov_shape(kmn.shape[1], 1, full_cov, full_output_cov))

    def _blocks_vjp(self, x, dkmn, dknn):
        """``_blocks``' VJP in the marginal modes: slot name -> gradient,
        and the gradient with respect to the rows ``x``."""
        slots, dx = self.kuf_vjp(self.inducing, self.kernel, x, dkmn[:, :, 0])
        ddiag, grads = self.kernel.K_diag_vjp(x, np.reshape(dknn, -1))
        return accumulate(slots, grads, "kernel."), dx + ddiag


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


@PAIRS.register(Multiscale, SquaredExponential)
class MultiscalePosterior(SingleOutputPosterior):
    @classmethod
    def kuu(cls, iv, kernel):
        z = iv.z
        s2 = iv.scales**2
        ls2 = np.broadcast_to(kernel.lengthscales**2, (z.shape[1],))
        eff2 = ls2[None, None, :] + s2[:, None, :] + s2[None, :, :]  # [M, M, D]
        d2 = (z[:, None, :] - z[None, :, :]) ** 2
        return _multiscale_prefactor(kernel, eff2) * np.exp(
            -0.5 * np.sum(d2 / eff2, axis=-1)
        )

    @classmethod
    def kuf(cls, iv, kernel, xnew):
        z = iv.z
        s2 = iv.scales**2
        ls2 = np.broadcast_to(kernel.lengthscales**2, (z.shape[1],))
        eff2 = ls2[None, :] + s2  # [M, D]
        d2 = (z[:, None, :] - xnew[None, :, :]) ** 2  # [M, N, D]
        return _multiscale_prefactor(kernel, eff2)[:, None] * np.exp(
            -0.5 * np.sum(d2 / eff2[:, None, :], axis=-1)
        )


# Other kernels have no windowed form, so they refuse multiscale inducing
# variables rather than treat them as plain points.  The multioutput entry
# keeps the refusal from being ambiguous with the multioutput-points pair.
@PAIRS.register(Multiscale, Kernel)
@PAIRS.register(Multiscale, MultioutputKernel)
class UnwindowedMultiscale(Posterior):
    @classmethod
    def layout(cls, iv, kernel, *_):
        raise UnsupportedCombination(
            f"multiscale inducing variables have windowed covariances for the "
            f"squared-exponential kernel only, got {type(kernel).__name__}"
        )

    kuu = kuf = layout


# ---------------------------------------------------------------------------
# Inducing patches for convolutional kernels (summed-patch response)


# The summed-patch response is a scalar process; the single-output steps
# apply once Kuu/Kuf are the patch covariances.
@PAIRS.register(InducingPatches, Convolutional)
class PatchPosterior(SingleOutputPosterior):
    @classmethod
    def layout(cls, iv, kernel):  # one variable per patch; inputs are images
        ih, iw = kernel.image_shape
        return Layout((iv.num_rows,), False, 1, ih * iw)

    @classmethod
    def kuu(cls, iv, kernel):
        return kernel.kernel.K(iv.z)  # the patches' own gram

    @classmethod
    def kuf(cls, iv, kernel, xnew):
        patches = kernel.patches(xnew)  # [N, P, h*w]
        n, p, _ = patches.shape
        gram = kernel.kernel.K(iv.z, patches.reshape(n * p, -1))  # [M, N*P]
        return gram.reshape(-1, n, p).sum(axis=2)  # [M, N]

    def _row_floats(self):
        return self.q.num_inducing * self.kernel.num_outputs  # Kuf's patch gram


# ---------------------------------------------------------------------------
# Fully-correlated multioutput inducing points


@PAIRS.register(InducingPoints, MultioutputKernel)
class MultioutputPointsPosterior(Posterior):
    correlated_outputs = True

    @classmethod
    def layout(cls, iv, kernel):
        p = kernel.num_outputs
        return Layout((iv.num_rows * p,), False, p, iv.z.shape[1])

    @classmethod
    def kuu(cls, iv, kernel):
        full = mo_k(kernel, iv.z, full_output_cov=True)  # [M, P, M, P]
        mp = full.shape[0] * full.shape[1]
        return full.reshape(mp, mp)

    @classmethod
    def kuf(cls, iv, kernel, xnew):
        return mo_k(kernel, iv.z, xnew, full_output_cov=True)  # [M, P, N, P]

    def _row_floats(self):
        return self.q.num_inducing * self.kernel.num_outputs  # Kuf [M, P, N, P]

    def _blocks(self, x, full_cov, full_output_cov):
        kmn = kuf(self.inducing, self.kernel, x)  # [M, P, N, P]
        prior = mo_k if full_cov else mo_k_diag
        knn = prior(self.kernel, x, full_output_cov=full_output_cov)
        return kmn.reshape(-1, *kmn.shape[2:]), knn


# ---------------------------------------------------------------------------
# Latent-process inducing variables
#
# Each latent process g_l is a scalar GP whose (member, latent kernel) pair
# has its own entry, so a multiscale member keeps its windows, a patch member
# its convolution, and a refused member is refused with its latent kernel.
# The prior independence of the latents makes Kuu block diagonal and q
# mean-field; the kernel maps the latents' moments to its outputs.


def _slot_prefix(root: str, parent, i: int, child) -> str:
    """The slot prefix of ``child``, the component that ``parent`` (whose
    slots sit under ``root``) gives its ``i``-th latent, read off the
    ``schema.Child`` that holds it.  A component that no declaration holds
    has no slots to name, and is refused."""
    schema = getattr(type(parent), "schema", None)
    for field in schema.fields if schema is not None else ():
        if not isinstance(field, Child):
            continue
        held = getattr(parent, field.attr)
        if field.many and i < len(held) and held[i] is child:
            return f"{field.prefix(root)}{i}."
        if not field.many and held is child:
            return field.prefix(root)
    raise UnsupportedCombination(
        f"{type(parent).__name__} declares no schema child that holds its "
        f"latent {i}'s {type(child).__name__}"
    )


def _latent_pairs(iv, kernel):
    """(member, latent kernel, the pair's posterior class, its layout) per
    latent.  A kernel without latent processes, a member count other than
    the latent count, or a member pair with more than one output is refused."""
    if not isinstance(kernel, IndependentLatent):
        raise UnsupportedCombination(
            f"latent inducing variables need a latent-structured kernel, "
            f"got {type(kernel).__name__}"
        )
    kernels = kernel.latent_kernels
    pairs = []
    for member, k in zip(iv.per_latent(len(kernels)), kernels):
        cls = PAIRS.resolve(type(member), type(k))
        shape = cls.layout(member, k)
        if shape.outputs != 1:
            raise UnsupportedCombination(
                f"a latent process is a scalar GP, but {type(member).__name__} "
                f"with {type(k).__name__} has {shape.outputs} outputs"
            )
        pairs.append((member, k, cls, shape))
    return pairs


# Registered on every kernel so that a latent set with a kernel that has no
# latent processes is refused by its layout, Kuu and Kuf alike.
@PAIRS.register(LatentInducingVariables, Kernel)
class LatentPosterior(Posterior):
    """Latent inducing variables: one posterior per latent, of the class of
    its own (member, latent kernel) pair and holding its slice of q, whose
    moments the kernel mixes into outputs.  Latents that share a pair share
    its Kuu factor, and in the backward its VJPs."""

    def __init__(self, iv, kernel, q, jitter=None):
        _check_sizes(q, self.layout(iv, kernel))
        self.inducing = iv
        self.kernel = kernel
        self.q = q
        pairs = _latent_pairs(iv, kernel)
        sqrts = q.q_sqrt or (None,) * len(pairs)
        # Latent indices per pair, in first-seen order, keyed by the slot
        # prefixes of its member and latent kernel.
        self.groups: dict[tuple[str, str], list[int]] = {}
        self.latents: list[Posterior] = []
        start = 0
        for i, ((member, k, cls, shape), sqrt) in enumerate(zip(pairs, sqrts)):
            stop = start + shape.total
            q_l = VariationalGaussian(q.q_mu[start:stop], sqrt, q.whiten)
            start = stop
            names = (
                _slot_prefix("inducing.", iv, i, member), _slot_prefix("kernel.", kernel, i, k)
            )
            group = self.groups.setdefault(names, [])
            shared = self.latents[group[0]].factor if group else None
            group.append(len(self.latents))
            self.latents.append(cls(member, k, q_l, jitter, shared))
        self.factor = [post.factor for post in self.latents]

    @property
    def input_vjp(self):
        return all(ok for *_, ok in self._pairs())

    def _pairs(self):
        pairs = []
        for names, group in self.groups.items():
            pair = self.latents[group[0]]  # it built the factor and holds its jitter
            pairs.append((pair, group, names, pair.input_vjp))
        return pairs

    @property
    def correlated_outputs(self):
        return self.kernel.correlated_outputs

    @classmethod
    def layout(cls, iv, kernel):
        shapes = [shape for *_, shape in _latent_pairs(iv, kernel)]
        blocks = tuple(shape.total for shape in shapes)
        return Layout(blocks, True, kernel.num_outputs, shapes[0].columns)

    @classmethod
    def kuu(cls, iv, kernel):
        pairs = _latent_pairs(iv, kernel)
        return block_diag(*(pair.kuu(m, k) for m, k, pair, _ in pairs))

    @classmethod
    def kuf(cls, iv, kernel, xnew):  # [M_1 + ... + M_L, N]
        pairs = _latent_pairs(iv, kernel)
        return np.concatenate([pair.kuf(m, k, xnew) for m, k, pair, _ in pairs])

    def _row_floats(self):
        return sum(post._row_floats() for post in self.latents)

    def _latent_moments(self, x, full_cov, pullbacks=None):
        """The latents' means [N, L] and covariances ([L, N, N] or [N, L]) at
        the rows ``x``.  Latents that share a pair share its Kuf, prior
        covariance and solves.  When ``pullbacks`` is given, each pair's
        (latents, their pullbacks, its ``finish``) go into it (see
        ``_group_vjp``); else each latent's pullback is dropped as soon as
        its moments are taken."""
        means, covs = [None] * len(self.latents), [None] * len(self.latents)
        for group in self.groups.values():
            posts = [self.latents[i] for i in group]
            shared, finish = posts[0]._group_vjp(posts, x, full_cov, False)
            backs = []
            for i, (mean, cov, back) in zip(group, shared):
                means[i], covs[i] = mean, cov
                if pullbacks is not None:
                    backs.append(back)
                del back  # else a forward holds this latent's solves through the next
            if pullbacks is not None:
                pullbacks.append((group, backs, finish))
            del shared, finish  # and the group's Kuf and solves through the next group
        mean = np.concatenate(means, axis=1)  # [N, L]
        return mean, np.concatenate(covs, axis=0 if full_cov else 1)  # [L, N, N] or [N, L]

    def _chunk(self, x, full_cov, full_output_cov):
        # Latent moments first, then the kernel's map to outputs, never
        # materializing anything of output size squared times inducing size.
        mean, cov = self._latent_moments(x, full_cov)
        return self.kernel.mix_mean(mean), self.kernel.mix(cov, full_cov, full_output_cov)

    def _chunk_vjp(self, x, full_output_cov):
        groups = []
        mean, cov = self._latent_moments(x, False, groups)
        kernel = self.kernel

        def pullback(dmean, dcov, prior=False):
            # The adjoint of the kernel's map gives the latents' gradients
            # (and W's), which each latent's own pair pulls back to its q;
            # with ``prior`` the latents of a pair with the VJPs sum their
            # gradients with respect to its projection and prior covariance
            # for its one finish.
            dmean, dcov, dw = kernel.mix_adjoint(dmean, dcov, mean, cov, full_output_cov)
            grads, cotangents = [None] * len(self.latents), []
            for (group, backs, finish), (*_, ok) in zip(groups, self._pairs()):
                exact = prior and ok
                dproj = None
                for i, back in zip(group, backs):
                    if not exact:
                        grads[i] = back(dmean[:, [i]], dcov[:, [i]])
                        continue
                    grads[i], part = back(dmean[:, [i]], dcov[:, [i]], prior=True)
                    dproj = part if dproj is None else dproj + part
                dknn = dcov[:, group].sum(axis=1, keepdims=True) if exact else None
                cotangents.append(finish(dproj, dknn) if exact else None)
            sqrts = tuple(g["q_sqrt"] for g in grads) if self.q.q_sqrt else None
            slots = _q_slots(np.concatenate([g["q_mu"] for g in grads]), sqrts)
            if dw is not None:
                slots["kernel.w"] = dw
            return (slots, cotangents) if prior else slots

        return kernel.mix_mean(mean), kernel.mix(cov, False, full_output_cov), pullback
