"""Physical converter parameters and the quantities derived from them.

The buck converter's LC lowpass with Ohmic load is a second-order system.  With
a = 1/(2*C*R_L) and b = sqrt(1/(L*C) - a^2) its poles are the conjugate pair
-a +/- jb, valid whenever R_L > 0.5*sqrt(L/C) (underdamped operation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, OverdampedError


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
        """Load resistance below which the pole pair stops being complex."""
        return 0.5 * math.sqrt(self.L / self.C)

    def underdamped_valid(self) -> bool:
        return self.R_L > self.damping_boundary()


@dataclass(frozen=True)
class Dynamics:
    """Damping rate a, ringing frequency b and the pole pair -a +/- jb."""

    a: float
    b: float

    @property
    def s01(self) -> complex:
        return complex(-self.a, self.b)

    @property
    def s02(self) -> complex:
        return complex(-self.a, -self.b)


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
    """Damping/ringing constants of the underdamped filter.

    Raises OverdampedError when R_L <= 0.5*sqrt(L/C): the closed forms in this
    package assume a distinct complex-conjugate pole pair, and the repeated- or
    real-pole regimes are intentionally rejected.
    """
    if not p.underdamped_valid():
        raise OverdampedError(
            f"R_L = {p.R_L} ohm is not above the damping boundary "
            f"{p.damping_boundary():.6g} ohm (overdamped or critically damped)"
        )
    a = 1.0 / (2.0 * p.C * p.R_L)
    b = math.sqrt(1.0 / (p.L * p.C) - a * a)
    return Dynamics(a=a, b=b)


def frequency_response(p: CircuitParams, f):
    """Complex gain 1 / (1 + j*2*pi*f*L/R_L - (2*pi*f)^2*L*C).

    Accepts a scalar or an array of frequencies in Hz.
    """
    w = 2.0 * np.pi * np.asarray(f, dtype=float)
    h = 1.0 / (1.0 + 1j * w * p.L / p.R_L - w * w * p.L * p.C)
    if np.isscalar(f):
        return complex(h)
    return h


def impulse_response(d: Dynamics, p: CircuitParams, t):
    """h_i(t) = exp(-a*t) * sin(b*t) / (L*C*b) for t >= 0, zero before."""
    t_arr = np.asarray(t, dtype=float)
    tp = np.maximum(t_arr, 0.0)
    h = np.exp(-d.a * tp) * np.sin(d.b * tp) / (p.L * p.C * d.b)
    out = np.where(t_arr >= 0.0, h, 0.0)
    if np.isscalar(t):
        return float(out)
    return out


def cutoff_frequency(p: CircuitParams) -> float:
    """3 dB cutoff of the LC lowpass; depends only on the product L*C."""
    return math.sqrt((1.0 + math.sqrt(2.0)) / (p.L * p.C)) / (2.0 * math.pi)


def initial_inductor_current(p: CircuitParams, ic: InitialConditions) -> float:
    """Inductor current implied by the output-voltage initial conditions."""
    return ic.v2_0 / p.R_L + p.C * ic.dv2_0
