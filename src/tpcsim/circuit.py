"""Physical converter parameters and the quantities derived from them.

The buck converter's LC lowpass with Ohmic load is the second-order system
H(s) = w0^2/(w0^2 + 2a*s + s^2), w0^2 = 1/(L*C) and a = 1/(2*C*R_L), written
once, in _lc_model.  Its poles (find_poles' degree-2 rule) are a pair -a -/+ jb
above the damping boundary R_L = 0.5*sqrt(L/C) and real at or below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .modal import RationalLaplace, _modal_sum, _readonly, expand_strictly_proper, find_poles
from .modal import transfer_at


@dataclass(frozen=True)
class CircuitParams:
    """Buck converter filter and load values, SI units throughout.

    V1 defaults to 1.0 V so results read directly as fractions of the input
    voltage.
    """

    L: float
    C: float
    R_L: float
    V1: float = 1.0

    def __post_init__(self):
        for name in ("L", "C", "R_L", "V1"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(name, f"must be finite and > 0, got {value!r}")

    def damping_boundary(self) -> float:
        """Load resistance at and below which the poles are real."""
        return 0.5 * math.sqrt(self.L / self.C)


def _lc_model(p: CircuitParams) -> RationalLaplace:
    """H(s) = w0^2 / (w0^2 + 2a*s + s^2), the LC lowpass with Ohmic load.

    H(0) is exactly 1, and with den[2] = 1 the engine's c = -a and the pair
    c -/+ jb's gap -/+2jb are exact, so the impulse response starts at 0."""
    den = np.array([1.0 / (p.L * p.C), 1.0 / (p.C * p.R_L), 1.0])
    return RationalLaplace(num=den[:1], den=den)


@dataclass(frozen=True)
class Dynamics:
    """A filter's transfer model at its poles: a is the slowest decay -max Re p
    and b the fastest ringing max |Im p| (0 when every pole is real)."""

    model: RationalLaplace
    poles: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "poles", _readonly(self.poles, dtype=complex))

    @classmethod
    def of(cls, model: RationalLaplace) -> Dynamics:
        """The model at the roots of its denominator."""
        return cls(model, find_poles(model))

    @property
    def a(self) -> float:
        return -float(np.max(self.poles.real))

    @property
    def b(self) -> float:
        return float(np.max(np.abs(self.poles.imag)))


@dataclass(frozen=True)
class InitialConditions:
    """Output voltage and its derivative at t = 0."""

    v2_0: float
    dv2_0: float = 0.0

    def __post_init__(self):
        for name in ("v2_0", "dv2_0"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(name, f"must be finite, got {getattr(self, name)!r}")


def derive_dynamics(p: CircuitParams) -> Dynamics:
    """Dynamics.of(_lc_model(p)); RepeatedPolesError only for a real pair
    within about 1.3e-13 of the damping boundary."""
    return Dynamics.of(_lc_model(p))


def frequency_response(p: CircuitParams, f):
    """Complex gain H(j*2*pi*f) of the filter.

    Accepts a scalar or an array of frequencies in Hz.
    """
    h = transfer_at(_lc_model(p), 2j * np.pi * np.asarray(f, dtype=float))
    return complex(h) if np.isscalar(f) else h


def impulse_response(d: Dynamics, t):
    """h_i(t), 0 before t = 0; exp(-a*t) * sin(b*t) / (L*C*b) if underdamped."""
    return _modal_sum(expand_strictly_proper(d.model.num, d.model.den, d.poles), [0.0], [1.0], t)


def cutoff_frequency(p: CircuitParams) -> float:
    """3 dB cutoff of the LC lowpass; depends only on the product L*C."""
    return math.sqrt((1.0 + math.sqrt(2.0)) / (p.L * p.C)) / (2.0 * math.pi)


def initial_inductor_current(p: CircuitParams, ic: InitialConditions) -> float:
    """Inductor current implied by the output-voltage initial conditions."""
    return ic.v2_0 / p.R_L + p.C * ic.dv2_0
