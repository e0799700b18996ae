"""Exception types shared across the package."""


class SparseGPError(Exception):
    """Base class for every error raised by this package."""


class NonSquare(SparseGPError):
    """A square matrix was required."""


class AsymmetricInput(SparseGPError):
    """A symmetric matrix was required."""


class NotPositiveDefinite(SparseGPError):
    """Cholesky factorization failed, even after jitter escalation."""


class ZeroDiagonal(SparseGPError):
    """A triangular solve hit a zero diagonal entry."""


class NonFiniteInput(SparseGPError):
    """A linear-algebra routine was given NaN or infinity."""


class DimensionMismatch(SparseGPError):
    """Array dimensions do not conform."""


class UnsupportedMode(SparseGPError):
    """The kernel does not provide the requested evaluation mode."""


class PatchLargerThanImage(SparseGPError):
    """Patch extraction with a patch exceeding the image."""


class DuplicateRegistration(SparseGPError):
    """A dispatch pair was registered twice."""


class AmbiguityDetected(SparseGPError):
    """Two incomparable dispatch entries match equally well."""


class NoImplementation(SparseGPError):
    """No dispatch entry covers the requested type pair."""


class ShapeMismatch(SparseGPError):
    """Value shapes are inconsistent with the model structure."""


class UnsupportedCombination(SparseGPError):
    """The requested combination of components or operations is not defined."""


class EmptySubset(SparseGPError):
    """Output marginalization needs at least one observed output."""


class NonFiniteObjective(SparseGPError):
    """The training objective evaluated to NaN or infinity."""


class NonFiniteValue(NonFiniteObjective):
    """The objective's value was NaN or infinity where its gradients were
    to be taken from it; raised before any of them is."""


class ConfigError(SparseGPError):
    """A configuration file failed to parse or validate."""


class DataError(SparseGPError):
    """A dataset file failed to parse or validate."""
