"""Exception types shared across the toolkit."""


class ModelError(Exception):
    """Base class for physical/numerical model violations (CLI exit code 1)."""


class DepthOutOfRangeError(ModelError):
    """Modulation depth pushes a pulse outside its symbol period or duty outside (0, 1)."""


class ZeroFrequencyError(ModelError):
    """f = 0 requested where the spectrum carries a separate DC term."""


class ResolutionTooCoarseError(ModelError):
    """Sampling interval too coarse to resolve the impulse response."""


class UnstableStepError(ModelError):
    """Iteration interval too large for the simplified coefficient set (kappa <= 0)."""


class PatternTooShortError(ModelError):
    """Switching pattern shorter than the settling guard."""


class GridMismatchError(ModelError):
    """Two waveforms do not share the same sample grid."""


class TooManyBitsError(ModelError):
    """Exhaustive sequence search requested for more symbols than is tractable."""


class RepeatedPolesError(ModelError):
    """Denominator roots too close together for a distinct-pole expansion."""


class UnstablePoleError(ModelError):
    """A pole with positive real part cannot be inverted to a decaying signal."""


class DegenerateTopologyError(ModelError):
    """Requested circuit extension is not expressible as a single rational transfer model."""


class ConfigError(ValueError):
    """Invalid parameter value or scenario configuration (CLI exit code 2).

    field names the offending value: the argument name when a domain
    constructor raises it, the full config path (e.g. modulation.delta) when
    the CLI does.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}")
