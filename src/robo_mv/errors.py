"""Exception hierarchy for the engine.

Two broad families matter for the CLI exit-code contract: configuration
problems (bad inputs, exit code 2) and numerical failures discovered at run
time (exit code 3). I/O trouble is left to the builtin OSError family
(exit code 4).
"""

from __future__ import annotations


class RoboMVError(Exception):
    """Base class for all engine errors."""


class ConfigError(RoboMVError):
    """Invalid configuration or parameters (CLI exit code 2)."""


class NumericalError(RoboMVError):
    """Numerical failure during computation (CLI exit code 3)."""


# -- market -----------------------------------------------------------------

class NonStochasticRow(ConfigError):
    """A transition-matrix row does not sum to one (or has negative entries)."""


class NegativeVol(ConfigError):
    """A per-regime volatility is zero or negative."""


class BadDimension(ConfigError):
    """Array lengths/shapes inconsistent with the number of regimes."""


class NonErgodic(ConfigError):
    """The regime chain has no unique aperiodic long-run distribution."""


# -- risk profile -----------------------------------------------------------

class WindowLengthMismatch(ConfigError):
    """A bias window does not contain exactly phi returns."""


class NotInteractionTime(ConfigError):
    """An interaction-time operation was invoked off the schedule."""


# -- solver -----------------------------------------------------------------

class GridExhausted(NumericalError):
    """Too much probability mass clamped at the state-grid boundary."""


class DegenerateVariance(NumericalError):
    """The allocation formula's variance denominator is not positive."""


class RootBracketFailure(NumericalError):
    """No admissible implied risk aversion: the closed-form inversion of an
    allocation rule gives no positive value inside the interval where the
    allocation is decreasing in risk aversion."""


# -- analytics --------------------------------------------------------------

class DegenerateDenominator(NumericalError):
    """A closed-form Sharpe denominator vanished."""


class ZeroAllocation(NumericalError):
    """Relative allocation differences undefined: benchmark allocation ~ 0."""


class InsufficientSamples(ConfigError):
    """Fewer samples than the statistic requires."""
