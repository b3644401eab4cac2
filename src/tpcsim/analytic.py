"""Exact continuous-time output voltage of the modulated buck converter.

The output splits into a transient part driven by the initial conditions and a
data part that is a sum of per-symbol pulse shapes:

    v2(t) = v2_t(t) + V1 * sum_k g_tx(t - k*T - t_center[k]; T_p[k])

where g_tx is the difference of two shifted unit-step responses of the filter.
A generic convolution path handles arbitrary (e.g. finite-slope) input
waveforms through the impulse response.

Every continuous-time output in the package -- these components, the
sampled-input convolution and the Laplace solver's terms -- is one sum of
delayed pole/residue responses, one per edge, evaluated by _modal_sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import CircuitParams, Dynamics, InitialConditions
from .errors import ResolutionTooCoarseError, UnstablePoleError
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
        arr = np.asarray(self.samples, dtype=float).copy()
        if arr.ndim != 1:
            raise ValueError("samples must be 1-d")
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValueError("samples must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    def __len__(self) -> int:
        return len(self.samples)

    def times(self) -> np.ndarray:
        return self.t0 + np.arange(len(self.samples)) * self.dt


def _shaped_like(t, values: np.ndarray):
    if np.isscalar(t):
        return float(values)
    return values


def _step_expansion(d: Dynamics, V1: float = 1.0):
    """Poles and residues of V1*u(t), u(t) = 1 - Re[(1 - j*a/b) * exp(s01*t)]."""
    w = V1 * complex(1.0, -d.a / d.b) / 2.0
    return [0.0, d.s01, d.s02], [V1, -w, -w.conjugate()]


def transient_component(d: Dynamics, ic: InitialConditions, t):
    """Initial-condition response; identically zero when both conditions are zero.

    exp(-a*t) * (v2_0*cos(b*t) + (a*v2_0 + dv2_0)/b * sin(b*t)) for t >= 0.
    """
    r = complex(ic.v2_0, -(d.a * ic.v2_0 + ic.dv2_0) / d.b) / 2.0
    return _shaped_like(t, _modal_sum([d.s01, d.s02], [r, r.conjugate()], [0.0], [1.0], t))


def unit_step_component(d: Dynamics, t):
    """Normalized step response u(t) = 1 - exp(-a*t)*(cos(b*t) + (a/b)*sin(b*t)), t >= 0."""
    return _shaped_like(t, _modal_sum(*_step_expansion(d), [0.0], [1.0], t))


def pulse_shape_gtx(d: Dynamics, Tp: float, t):
    """Response to one unit pulse of width Tp centered at t = 0.

    g_tx(t) = u(t + Tp/2) - u(t - Tp/2).  The width is an explicit argument
    because modulation may vary it per symbol.
    """
    if Tp <= 0:
        raise ValueError(f"Tp must be > 0, got {Tp!r}")
    return _shaped_like(t, _modal_sum(*_step_expansion(d), [-Tp / 2.0, Tp / 2.0], [1.0, -1.0], t))


def _fold_conjugates(poles: np.ndarray, residues: np.ndarray) -> list[tuple[complex, complex]]:
    """One (pole, residue) per conjugate pair, the residue doubled, so the pair's
    sum is the real part.  ArithmeticError unless every pole and residue has its
    conjugate in the expansion to 1e-9 relative, i.e. unless the sum is real."""
    pairs = list(zip(poles.tolist(), residues.tolist()))
    p_tol = 1e-9 * max((abs(p) for p, _ in pairs), default=0.0)
    r_tol = 1e-9 * max((abs(r) for _, r in pairs), default=0.0)
    mirrored = all(
        any(abs(p - q.conjugate()) <= p_tol and abs(r - s.conjugate()) <= r_tol for q, s in pairs)
        for p, r in pairs
    )
    if not mirrored or sum(p.imag > 0.0 for p, _ in pairs) != sum(p.imag < 0.0 for p, _ in pairs):
        raise ArithmeticError("expansion is not conjugate-symmetric; result not real")
    return [(p, 2.0 * r if p.imag > 0.0 else r) for p, r in pairs if p.imag >= 0.0]


def _edge_states(pole: complex, times: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """S_e = sum_{m<=e} w_m * exp(pole*(tau_e - tau_m)) at every edge e.

    Hillis-Steele doubling scan: before the pass at offset k each state covers
    its last k edges and decay[e] = exp(pole*(tau_{e+k} - tau_e)), which only
    shrinks for a stable pole.  Once every k-edge span has decayed below 1e-18,
    older edges add nothing in double precision and the scan stops, so long
    patterns cost O(E) per pole.
    """
    states = weights.astype(complex)
    decay = np.exp(pole * np.diff(times))
    k = 1
    while k < len(states) and pole.real * np.min(times[k:] - times[:-k]) > -41.5:
        states[k:] += decay * states[:-k]
        decay = decay[k:] * decay[:-k]
        k *= 2
    return states


def _modal_sum(poles, residues, edge_times, edge_weights, t) -> np.ndarray:
    """sum over edges tau_e <= t of w_e * sum_p r_p * exp(p*(t - tau_e)), for each t.

    The one evaluation engine behind every continuous-time output.  Edge
    times must be non-decreasing; t may be any array, in any order.  Each
    pole's state at every edge comes from one scan over the edges (the pole
    at 0 is a plain running sum), and each t decays the state of its latest
    edge, so exp(+a*tau) never appears.  Raises UnstablePoleError for a pole
    with positive real part and ArithmeticError for a non-real expansion.
    """
    poles = np.asarray(poles, dtype=complex)
    if np.any(poles.real > 0.0):
        raise UnstablePoleError(f"pole with positive real part in {poles}")
    folded = _fold_conjugates(poles, np.asarray(residues, dtype=complex))
    t_arr = np.asarray(t, dtype=float).ravel()
    times = np.asarray(edge_times, dtype=float)
    # a weightless first edge no later than any t gives every t a latest edge
    start = min(np.fmin.reduce(t_arr, initial=0.0), np.min(times, initial=0.0))
    times = np.concatenate([[start], times])
    weights = np.concatenate([[0.0], np.asarray(edge_weights, dtype=float)])
    latest = np.searchsorted(times, t_arr, side="right") - 1
    lag = t_arr - times[latest]
    out = np.zeros(t_arr.shape)
    for pole, res in folded:
        if pole == 0.0:
            out += (res.real * np.cumsum(weights))[latest]
            continue
        term = pole * lag  # updated in place: fresh N-sized buffers cost page faults
        np.exp(term, out=term)
        term *= (res * _edge_states(pole, times, weights))[latest]
        out += term.real
    return out.reshape(np.shape(t))


def data_component(d: Dynamics, pat: SwitchingPattern, V1: float, t):
    """Zero-state response to the pattern: V1 * sum of shifted per-symbol pulse shapes."""
    return _shaped_like(t, _modal_sum(*_step_expansion(d, V1), *pat.edges(), t))


def output_voltage(d: Dynamics, ic: InitialConditions, pat: SwitchingPattern, V1: float, t):
    """Total output voltage: transient plus data component."""
    return transient_component(d, ic, t) + data_component(d, pat, V1, t)


def sample_output(
    d: Dynamics,
    ic: InitialConditions,
    pat: SwitchingPattern,
    V1: float,
    dt: float,
    N: int,
) -> Waveform:
    """Point-evaluate the closed form on a uniform grid starting at t = 0."""
    t = np.arange(N) * dt
    return Waveform(dt=dt, t0=0.0, samples=output_voltage(d, ic, pat, V1, t))


def convolve_end_to_end(v1: Waveform, d: Dynamics, p: CircuitParams) -> Waveform:
    """Filter an arbitrary input waveform through the impulse response.

    Rectangle-rule approximation of (v1 * h_i)(t) on the input grid: every
    input sample is an edge of weight v1[n]*dt, and h_i(t) = exp(-a*t)*sin(b*t)/(L*C*b)
    has residues +/-1/(2j*b*L*C) at s01 and s02.  Requires the grid to resolve
    the ringing: dt <= 2*pi/(20*b).
    """
    dt_max = 2.0 * math.pi / (20.0 * d.b)
    if v1.dt > dt_max:
        raise ResolutionTooCoarseError(
            f"dt = {v1.dt:.6g} s is too coarse for ringing at {d.b:.6g} rad/s "
            f"(need dt <= {dt_max:.6g} s)"
        )
    t = np.arange(len(v1)) * v1.dt
    r = 1.0 / (2j * d.b * p.L * p.C)
    out = _modal_sum([d.s01, d.s02], [r, -r], t, v1.samples * v1.dt, t)
    return Waveform(dt=v1.dt, t0=v1.t0, samples=out)
