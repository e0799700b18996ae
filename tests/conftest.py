import csv

import numpy as np
import pytest

from sparsegp import RngState, VariationalGaussian, cholesky, standard_normal, tri_solve
from sparsegp.conditionals import PosteriorMoments, _cov_shape, _moments_vjp


@pytest.fixture
def rng():
    return RngState(1234)


def make_spd(rng: RngState, dim: int, scale: float = 1.0) -> np.ndarray:
    m = standard_normal(rng, (dim, dim))
    return scale * (m @ m.T + dim * np.eye(dim))


def random_lower(rng: RngState, dim: int) -> np.ndarray:
    l = np.tril(standard_normal(rng, (dim, dim)))
    np.fill_diagonal(l, np.abs(np.diag(l)) + 0.3)
    return l


def desk_truth(x):
    return np.sin(1.2 * x) + 0.4 * np.cos(2.9 * x)


def desk_regression(n: int = 30, seed: int = 7, noise: float = 0.15):
    """The 1-D regression set shipped under data/: smooth signal, mild noise."""
    rng = RngState(seed)
    x = np.sort(rng.generator.uniform(0.0, 6.0, size=n))[:, None]
    y = desk_truth(x[:, 0]) + noise * standard_normal(rng.derive(1), n)
    return x, y[:, None]


def write_dataset(path, x, y=None, outputs=None) -> None:
    """A dataset file that ``modelio.read_dataset`` reads back: columns
    ``x0..``, then ``output_index`` when given, then ``y0..``."""
    x = np.asarray(x, float)
    header = [f"x{d}" for d in range(x.shape[1])]
    columns = [x]
    if outputs is not None:
        header.append("output_index")
        columns.append(np.asarray(outputs)[:, None])
    if y is not None:
        y = np.asarray(y, float)
        if y.ndim == 1:
            y = y[:, None]
        header.extend(f"y{p}" for p in range(y.shape[1]))
        columns.append(y)
    table = np.hstack(columns)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for lineno in range(table.shape[0]):
            writer.writerow([repr(float(v)) for v in table[lineno]])


def block_conditional(
    kmn, kmm, knn, q: VariationalGaussian, *, full_cov, full_output_cov
) -> PosteriorMoments:
    """The posterior's moment routine run once on precomputed blocks:
    Kmn [M, N, P], a dense Kmm (factored here) and Knn in the mode's shape;
    the one-shot reference of the streamed and per-pair moments."""
    kmn = np.asarray(kmn, dtype=float)
    mt, n, p = kmn.shape
    assert np.shape(knn) == _cov_shape(n, p, full_cov, full_output_cov)
    lm = cholesky(kmm)
    a = tri_solve(lm, kmn.reshape(mt, n * p))
    proj = a if q.whiten else tri_solve(lm, a, transpose=True)
    mean, cov, _ = _moments_vjp(
        lm, a, proj, n, p, np.asarray(knn, dtype=float), q.q_mu, q.dense_sqrt(),
        full_cov, full_output_cov,
    )
    return PosteriorMoments(mean, cov)
