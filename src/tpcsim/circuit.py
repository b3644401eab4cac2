"""Physical converter parameters and the quantities derived from them.

The buck converter's LC lowpass with Ohmic load is a second-order system.  With
a = 1/(2*C*R_L) and b = sqrt(1/(L*C) - a^2) its poles are the conjugate pair
-a +/- jb, valid whenever R_L > 0.5*sqrt(L/C) (underdamped operation).  Its
transfer function is written once, in _lc_model, as a degree-2 rational model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, OverdampedError
from .modal import RationalLaplace, _modal_sum, _readonly, expand_strictly_proper
from .modal import find_poles, transfer_at


def _lc_model(c0: float, c1: float, c2: float) -> RationalLaplace:
    """H(s) = c0 / (c0 + c1*s + c2*s^2), the LC lowpass with Ohmic load.

    The circuit values give (1, L/R_L, L*C), so H(0) is exactly 1, and the
    poles -a +/- jb give (a^2 + b^2, 2a, 1), whose den' = 2a + 2s has no real
    part at the poles, so the impulse response starts at exactly 0."""
    den = np.array([c0, c1, c2])
    return RationalLaplace(num=den[:1], den=den)


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
    """A filter's transfer model at its poles: a is the slowest decay -max Re p
    and b the fastest ringing max |Im p|, so the base filter's poles are -a +/- jb."""

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
    return Dynamics(_lc_model(a * a + b * b, 2.0 * a, 1.0), [complex(-a, b), complex(-a, -b)])


def frequency_response(p: CircuitParams, f):
    """Complex gain H(j*2*pi*f) of the filter, from the circuit values, so it
    also covers overdamped circuits.

    Accepts a scalar or an array of frequencies in Hz.
    """
    model = _lc_model(1.0, p.L / p.R_L, p.L * p.C)
    h = transfer_at(model, 2j * np.pi * np.asarray(f, dtype=float))
    return complex(h) if np.isscalar(f) else h


def impulse_response(d: Dynamics, t):
    """h_i(t) = exp(-a*t) * sin(b*t) / (L*C*b) for t >= 0, zero before."""
    return _modal_sum(expand_strictly_proper(d.model.num, d.model.den, d.poles), [0.0], [1.0], t)


def cutoff_frequency(p: CircuitParams) -> float:
    """3 dB cutoff of the LC lowpass; depends only on the product L*C."""
    return math.sqrt((1.0 + math.sqrt(2.0)) / (p.L * p.C)) / (2.0 * math.pi)


def initial_inductor_current(p: CircuitParams, ic: InitialConditions) -> float:
    """Inductor current implied by the output-voltage initial conditions."""
    return ic.v2_0 / p.R_L + p.C * ic.dv2_0
