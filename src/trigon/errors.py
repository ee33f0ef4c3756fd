"""Exception hierarchy for trigon, and its one warning category.

Exit-code mapping used by the CLI: ValidationError subclasses are input
problems (exit 1), NumericalError subclasses are runtime numerical
failures (exit 2).  WebEventDropped records a failure that does not stop
the run.
"""


class TrigonError(Exception):
    """Base class for all trigon errors."""


class ValidationError(TrigonError):
    """Bad input data or an invariant violated before any numerics ran."""


class NumericalError(TrigonError):
    """A numerical procedure failed to reach its accuracy/convergence goal."""


# --- curve ---

class NonSimpleRoots(ValidationError):
    """Two roots of the base polynomial are closer than eps_root."""


class AtRamificationPoint(ValidationError):
    """Sheet values requested at (or too close to) a ramification point."""


class SheetAmbiguity(NumericalError):
    """Nearest-root tracking lost its margin even at the minimum step."""


class OpenContour(ValidationError):
    """A basis contour fails the closure check on the covering curve."""


# --- network ---

class GenerationCapExceeded(NumericalError):
    """The junction birth process did not close within the generation cap."""


class PatternViolation(NumericalError):
    """Labels at infinity do not follow the expected alternation."""


class ChargeIdentificationFailed(NumericalError):
    """No (or no unique) integer charge matches a web period."""


# --- bps / tba ---

class RayCollision(NumericalError):
    """Two rays with non-commuting charges share a phase: the integral
    iteration is ill-defined at such a configuration (a wall)."""


class NumericOverflow(NumericalError):
    """An exponent grew past the double-precision range during iteration."""


class NoConvergence(NumericalError):
    """The fixed-point iteration did not meet tolerance within max_iter."""


class OnRayEvaluation(ValidationError):
    """Evaluation point lies on an active ray; offset the phase slightly."""


class OnRayTheta(ValidationError):
    """exp(i*theta) coincides with a contributing ray phase."""


# --- polygon ---

class DegenerateConfiguration(ValidationError):
    """A denominator factor of an invariant expression vanished."""


class UnbalancedExpression(ValidationError):
    """Per-vertex scaling weights of an invariant expression do not cancel."""


# --- warnings ---

class WebEventDropped(UserWarning):
    """A finite-web event seen by the scan was dropped before it gave a web;
    the message names the event, its theta bracket and the reason."""
