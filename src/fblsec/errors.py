"""Exception types shared across the package."""


class DegenerateChannelError(ValueError):
    """Zero SNR: the dispersion vanishes and the decoding exponent is undefined."""


class InfeasibleError(ValueError):
    """No point satisfies the requested constraints (thresholds, boxes, initialization)."""


class ConfigError(ValueError):
    """A run configuration is malformed or references unknown fields."""


class TrendViolationError(RuntimeError):
    """A sweep's expected direction did not hold; results are withheld."""
