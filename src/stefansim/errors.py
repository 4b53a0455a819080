"""Exception types shared across the package."""


class StefanSimError(Exception):
    """Base class for all package-specific errors.  ``run`` stamps each one
    with the index and time of the level it was making (``at_step``)."""

    step = t = None

    def at_step(self, step, t):
        self.step, self.t = step, t
        self.args = (f"step {step} (t={t!r}): {self.args[0]}",) + self.args[1:]


class NonFiniteFieldError(StefanSimError):
    """A field contains NaN or Inf entries."""


class DegenerateTransformError(StefanSimError):
    """The flattening map is not invertible: 1 + phi'(z) rho(x) vanished.

    Carries the offending (x index, z index) pair in ``node``.
    """

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class LinearSolveError(StefanSimError):
    """The lagged-coefficient temperature solve failed to reach tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class FixedPointError(StefanSimError):
    """The per-step fixed-point iteration failed to contract to tolerance."""

    def __init__(self, message, last_ratio=None, last_norm=None):
        super().__init__(message)
        self.last_ratio = last_ratio
        self.last_norm = last_norm


class ConfigError(StefanSimError, ValueError):
    """A run configuration is malformed (unknown key, bad value, missing
    section, or a t_end that is not a whole number of steps of dt)."""


class ResolutionWarning(UserWarning):
    """A field's spectral tail is large enough to distrust derived quantities."""
