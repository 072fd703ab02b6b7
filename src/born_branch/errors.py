"""Typed exceptions shared across the package: one base class and four
failure kinds, so one failure raises one type in every module."""


class BornBranchError(Exception):
    """Base class for all package-specific errors."""


class OutOfRange(BornBranchError):
    """An input outside its domain: a parameter outside its interval, a
    zero-variance spec or walk, a start at or below the barrier, a regime
    with no finite answer (beta <= 1), an empty sample or unequal lengths,
    or a regression design with fewer than two distinct abscissae."""


class TooLarge(BornBranchError):
    """A request beyond a size guard: brute-force paths, DP compositions or
    time steps."""


class TooFewSurvivors(BornBranchError):
    """Too few survivors for the requested estimate, whether predicted
    before sampling (the one survivor screen, diffusion._screen_survivors,
    refuses fewer than 50 predicted for an estimate) or drawn (a ratio with
    no survivors in its denominator, an extinct population)."""


class ConfigError(BornBranchError):
    """Malformed experiment configuration."""
