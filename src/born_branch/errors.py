"""Typed exceptions shared across the package."""


class BornBranchError(Exception):
    """Base class for all package-specific errors."""


class DegenerateSpec(BornBranchError):
    """All branching ratios equal: the log-deviation scale sigma is zero."""


class OutOfRange(BornBranchError):
    """Parameter outside its admissible interval."""


class TooLarge(BornBranchError):
    """Requested enumeration exceeds the path-count guard."""


class StateExplosion(BornBranchError):
    """Dynamic-program state space exceeds the memory budget."""


class BadStart(BornBranchError):
    """Start point at or below the absorbing threshold."""


class ZeroDenominator(BornBranchError):
    """Ratio estimate with no survivors in the denominator arm."""


class RareEventRegime(BornBranchError):
    """Predicted survival too small for naive Monte Carlo."""


class TooFewSurvivors(BornBranchError):
    """Expected surviving sample too small for the requested estimate."""


class DivergentRegime(BornBranchError):
    """Conditional mean has no finite stationary value (beta <= 1)."""


class Extinction(BornBranchError):
    """Entire particle population absorbed in a single step."""


class DegenerateDesign(BornBranchError):
    """Regression design with fewer than two distinct abscissae."""


class EmptySample(BornBranchError):
    """Statistic of an empty sample requested."""


class ConfigError(BornBranchError):
    """Malformed experiment configuration."""
