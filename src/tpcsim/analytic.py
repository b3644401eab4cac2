"""Exact continuous-time output voltage of the modulated buck converter.

The output splits into a transient part driven by the initial conditions and a
data part that is a sum of per-symbol pulse shapes:

    v2(t) = v2_t(t) + V1 * sum_k g_tx(t - k*T - t_center[k]; T_p[k])

where g_tx is the difference of two shifted unit-step responses of the filter.
A generic convolution path handles arbitrary (e.g. finite-slope) input
waveforms through the impulse response.

Each component puts a circuit.Dynamics (a transfer model at its poles: the
base filter's at -a +/- jb, or a laplace-module circuit extension's) through
the engine in the modal module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .circuit import Dynamics, InitialConditions
from .errors import ResolutionTooCoarseError
from .modal import _modal_sum, _readonly, expand_strictly_proper, ic_numerator, step_expansion
from .modulation import SwitchingPattern


@dataclass(frozen=True)
class Waveform:
    """Uniformly sampled real signal: samples[n] is the value at t0 + n*dt."""

    dt: float
    t0: float
    samples: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and > 0, got {self.dt!r}")
        object.__setattr__(self, "samples", _readonly(self.samples))
        if self.samples.ndim != 1:
            raise ValueError("samples must be 1-d")
        if self.samples.size and not np.all(np.isfinite(self.samples)):
            raise ValueError("samples must be finite")

    def __len__(self) -> int:
        return len(self.samples)

    def times(self) -> np.ndarray:
        return self.t0 + np.arange(len(self.samples)) * self.dt


def transient_component(d: Dynamics, ic: InitialConditions | Mapping[str, float], t):
    """Initial-condition response; identically zero when every initial value is zero.

    ic is InitialConditions or a mapping of the model's initial-condition
    symbols.  On the base filter it is
    exp(-a*t) * (v2_0*cos(b*t) + (a*v2_0 + dv2_0)/b * sin(b*t)) for t >= 0.
    """
    values = {"v2_0": ic.v2_0, "dv2_0": ic.dv2_0} if isinstance(ic, InitialConditions) else ic
    num = ic_numerator(d.model, values)
    return _modal_sum(expand_strictly_proper(num, d.model.den, d.poles), [0.0], [1.0], t)


def unit_step_component(d: Dynamics, t):
    """Normalized step response u(t) = 1 - exp(-a*t)*(cos(b*t) + (a/b)*sin(b*t)), t >= 0."""
    return _modal_sum(step_expansion(d.model, d.poles, 1.0), [0.0], [1.0], t)


def pulse_shape_gtx(d: Dynamics, Tp: float, t):
    """Response to one unit pulse of width Tp centered at t = 0.

    g_tx(t) = u(t + Tp/2) - u(t - Tp/2).  The width is an explicit argument
    because modulation may vary it per symbol.
    """
    if Tp <= 0:
        raise ValueError(f"Tp must be > 0, got {Tp!r}")
    return _modal_sum(step_expansion(d.model, d.poles, 1.0), [-Tp / 2.0, Tp / 2.0], [1.0, -1.0], t)


def data_component(d: Dynamics, pat: SwitchingPattern, V1: float, t):
    """Zero-state response to the pattern: V1 * sum of shifted per-symbol pulse shapes."""
    return _modal_sum(step_expansion(d.model, d.poles, V1), *pat.edges(), t)


def output_voltage(
    d: Dynamics, ic: InitialConditions | Mapping[str, float], pat: SwitchingPattern, V1: float, t
):
    """Total output voltage: transient plus data component."""
    return transient_component(d, ic, t) + data_component(d, pat, V1, t)


def sample_output(
    d: Dynamics,
    ic: InitialConditions | Mapping[str, float],
    pat: SwitchingPattern,
    V1: float,
    dt: float,
    N: int,
) -> Waveform:
    """Point-evaluate the closed form on a uniform grid starting at t = 0."""
    t = np.arange(N) * dt
    return Waveform(dt=dt, t0=0.0, samples=output_voltage(d, ic, pat, V1, t))


def convolve_end_to_end(v1: Waveform, d: Dynamics) -> Waveform:
    """Filter an arbitrary input waveform through the impulse response.

    Rectangle-rule approximation of (v1 * h_i)(t) on the input grid: every
    input sample is an edge of weight v1[n]*dt on the impulse residues of d's
    filter.  Requires the grid to resolve the ringing, dt <= 2*pi/(20*b), or
    on a filter without ringing (b = 0) its fastest pole, with |p| for b.
    """
    rate, what = (d.b, "ringing") if d.b > 0.0 else (float(np.max(np.abs(d.poles))), "a pole")
    dt_max = 2.0 * math.pi / (20.0 * rate)
    if v1.dt > dt_max:
        raise ResolutionTooCoarseError(
            f"dt = {v1.dt:.6g} s is too coarse for {what} at {rate:.6g} rad/s "
            f"(need dt <= {dt_max:.6g} s)"
        )
    t = np.arange(len(v1)) * v1.dt
    impulse = expand_strictly_proper(d.model.num, d.model.den, d.poles)
    out = _modal_sum(impulse, t, v1.samples * v1.dt, t)
    return Waveform(dt=v1.dt, t0=v1.t0, samples=out)
