"""Sparse variational Gaussian processes with interdomain and multioutput
inducing variables, dispatched to the most efficient code path per
(inducing variable, kernel) pair."""

from .conditionals import (
    PosteriorMoments,
    VariationalGaussian,
    conditional,
    num_inducing,
    sample_conditional,
)
from .covariances import kuf, kuu
from .dispatch import DispatchRegistry
from .divergences import gauss_kl, prior_kl
from .errors import SparseGPError
from .inducing import (
    InducingPatches,
    InducingPoints,
    InducingVariable,
    Multiscale,
    SeparateIndependentInducingVariables,
    SharedIndependentInducingVariables,
)
from .kernels import (
    Convolutional,
    IntrinsicCoregionalization,
    Kernel,
    Linear,
    LinearCoregionalization,
    Matern12,
    Matern32,
    Matern52,
    MultioutputKernel,
    SeparateIndependent,
    SharedIndependent,
    SquaredExponential,
    White,
    extract_patches,
    k_diag,
    k_full,
    mo_k,
    mo_k_diag,
)
from .likelihoods import (
    Bernoulli,
    CorrelatedGaussian,
    Gaussian,
    Poisson,
    gauss_hermite_expectations,
    marginalize_outputs,
    predict_observation_moments,
    predictive_log_density,
    variational_expectations,
)
from .models import (
    Constant,
    DGPModel,
    GPLayer,
    GPRModel,
    SVGPModel,
    UncertainSVGP,
    Zero,
    optimal_q,
)
from .numerics import (
    RngState,
    allocation_probe,
    cholesky,
    default_jitter,
    gauss_hermite_nodes,
    standard_normal,
    tri_solve,
)
from .training import (
    FitConfig,
    ParameterStore,
    adam_step,
    fit,
    gradient,
    parameterize,
)

__version__ = "0.1.0"
