"""Discrete-time iteration models of the converter and the DCM extension.

Three variants of the forward iteration for inductor current and output
voltage at interval dt = T/J:

* EXACT      -- coefficients from resolving the implicit update equations.
* SIMPLIFIED -- the same data flow with v2[n] ~ v2[n-1] coefficient shortcuts.
* PREDICTIVE -- a linear prediction form using only index n-1 values
  (s1[n] ~ s1[n-1], iL[n] ~ iL[n-1]), which shifts the output by about one
  sample.

Discontinuous conduction mode (asynchronous converter with a diode) clips the
inductor current at zero.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .analytic import Waveform
from .circuit import CircuitParams, InitialConditions, initial_inductor_current
from .errors import ConfigError, UnstableStepError
from .modulation import SwitchingPattern, sample_switching


class Variant(Enum):
    EXACT = "exact"
    SIMPLIFIED = "simplified"
    PREDICTIVE = "predictive"


class ConductionMode(Enum):
    CCM = "ccm"
    DCM = "dcm"


@dataclass(frozen=True)
class DiscreteParams:
    alpha: float
    beta: float
    gamma: float
    kappa: float
    mu: float
    dt: float
    variant: Variant


@dataclass(frozen=True)
class SimState:
    iL: float
    v2: float
    n: int = 0


def _check_oversampling(J) -> None:
    """ValueError unless the oversampling factor J is an integer >= 1."""
    if not (isinstance(J, (int, np.integer)) and J >= 1):
        raise ValueError(f"J must be an integer >= 1, got {J!r}")


def derive_params(p: CircuitParams, J: int, T: float, variant: Variant) -> DiscreteParams:
    """Iteration coefficients for interval dt = T/J.

    The simplified/predictive coefficient set requires dt < C*R_L, otherwise
    kappa <= 0 and the voltage update loses its decaying fixed point.  Every
    variant's CCM update matrix A must also pass the Jury test, |det A| < 1 and
    |tr A| < 1 + det A (so PREDICTIVE needs dt < L/R_L), with |det A| clearing 1
    by more than its rounding: at dt = L/R_L the predictive pole pair sits on
    the unit circle and its ringing never decays.
    """
    _check_oversampling(J)
    if T <= 0:
        raise ValueError(f"T must be > 0, got {T!r}")
    dt = T / J
    crl = p.C * p.R_L
    if variant is Variant.EXACT:
        kappa = crl / (crl + dt)
        mu = p.R_L * dt / (crl + dt)
        den = p.L * (crl + dt) + p.R_L * dt * dt
        alpha = p.L * (crl + dt) / den
        beta = dt * (crl + dt) / den
        gamma = -crl * dt / den
    else:
        if dt >= crl:
            raise UnstableStepError(
                f"dt = {dt:.6g} s >= C*R_L = {crl:.6g} s: kappa <= 0 for the "
                f"{variant.value} coefficients; raise J"
            )
        alpha = 1.0
        beta = dt / p.L
        gamma = -beta
        kappa = (crl - dt) / crl
        mu = dt / p.C
    # A = [[alpha, gamma], [a21, a22]]; |tr A| < 1 + det A as P(1) > 0 and P(-1) > 0
    # with P(z) = det(zI - A), a form without cancellation as dt -> 0
    a21, a22 = (mu, kappa) if variant is Variant.PREDICTIVE else (mu * alpha, kappa + mu * gamma)
    cross = gamma * a21
    det = alpha * a22 - cross
    stable = (1.0 - alpha) * (1.0 - a22) > cross and (1.0 + alpha) * (1.0 + a22) > cross
    if not (stable and abs(det) < 1.0 - 4e-15):  # 16 ulp of 1: more than det's rounding
        raise UnstableStepError(
            f"dt = {dt:.6g} s: the {variant.value} update has an eigenvalue on or outside "
            f"the unit circle (det A = {det:.17g}); raise J"
        )
    return DiscreteParams(
        alpha=alpha, beta=beta, gamma=gamma, kappa=kappa, mu=mu, dt=dt, variant=variant
    )


def _iterate(
    dp: DiscreteParams,
    V1: float,
    dcm: bool,
    iL0: float,
    v2_0: float,
    s1,
) -> tuple[array, array]:
    """(iL, v2) trajectories driven by the switching samples s1.

    Single source of truth for the update of all variants, shared by
    `simulate` and brute-force detection; `_advance` runs the same update
    without storing it.  Sample 0 of each output
    buffer holds the initial state; sample n >= 1 is one update of sample
    n - 1.  EXACT/SIMPLIFIED consume s1[n] and the fresh iL[n]; PREDICTIVE
    consumes s1[n-1] and iL[n-1].  In DCM the current clip happens before it
    feeds the voltage update (EXACT/SIMPLIFIED) or before it is stored
    (PREDICTIVE), preserving each variant's data flow.  The loop runs on
    plain floats in the operation order of the update equations, so every
    caller gets bit-identical samples.
    """
    N = len(s1)
    out_iL = array("d", [0.0]) * N
    out_v2 = array("d", [0.0]) * N
    if not N:
        return out_iL, out_v2
    alpha, gamma, kappa, mu = dp.alpha, dp.gamma, dp.kappa, dp.mu
    bV = dp.beta * V1
    # the clip compares against -inf in CCM, which no current falls below
    floor = 0.0 if dcm else -math.inf
    iL = out_iL[0] = iL0
    v2 = out_v2[0] = v2_0
    if dp.variant is Variant.PREDICTIVE:
        for n in range(1, N):
            iL, v2 = iL + bV * s1[n - 1] + gamma * v2, kappa * v2 + mu * iL
            if iL < floor:
                iL = 0.0
            out_iL[n] = iL
            out_v2[n] = v2
    else:
        for n in range(1, N):
            iL = alpha * iL + bV * s1[n] + gamma * v2
            if iL < floor:
                iL = 0.0
            v2 = kappa * v2 + mu * iL
            out_iL[n] = iL
            out_v2[n] = v2
    return out_iL, out_v2


def _advance(
    dp: DiscreteParams, V1: float, dcm: bool, iL: float, v2: float, s1
) -> tuple[float, float]:
    """The (iL, v2) state after the len(s1) - 1 updates of `_iterate`, bit for
    bit its last sample: the same operations in the same order, unstored."""
    alpha, gamma, kappa, mu = dp.alpha, dp.gamma, dp.kappa, dp.mu
    bV = dp.beta * V1
    floor = 0.0 if dcm else -math.inf
    if dp.variant is Variant.PREDICTIVE:
        for s in s1[:-1]:
            iL, v2 = iL + bV * s + gamma * v2, kappa * v2 + mu * iL
            if iL < floor:
                iL = 0.0
    else:
        for s in s1[1:]:
            iL = alpha * iL + bV * s + gamma * v2
            if iL < floor:
                iL = 0.0
            v2 = kappa * v2 + mu * iL
    return iL, v2


def step(
    s: SimState,
    s1_n: float,
    s1_prev: float,
    dp: DiscreteParams,
    mode: ConductionMode = ConductionMode.CCM,
    V1: float = 1.0,
) -> SimState:
    """Advance one sample.  For the first predictive step s1_prev is 0 (the
    switching signal is right-sided)."""
    iL, v2 = _advance(dp, V1, mode is ConductionMode.DCM, s.iL, s.v2, (s1_prev, s1_n))
    return SimState(iL=iL, v2=v2, n=s.n + 1)


def simulate(
    p: CircuitParams,
    pat: SwitchingPattern,
    ic: InitialConditions,
    J: int,
    variant: Variant,
    mode: ConductionMode = ConductionMode.CCM,
    start: int = 0,
) -> tuple[Waveform, Waveform]:
    """Run the iteration over the whole pattern.

    Returns (v2, iL) trajectories of samples start..K*J-1 at dt = T/J, with
    t0 = start*dt; sample 0 carries the initial conditions.  The samples
    before `start` are iterated unstored, so the result is bit for bit the
    full run's samples[start:].  `start` must be an integer in [0, K*J) (or 0
    on an empty pattern).
    """
    dp = derive_params(p, J, pat.T, variant)
    N = pat.K * J
    if not (isinstance(start, (int, np.integer)) and 0 <= start < max(N, 1)):
        raise ValueError(f"start must be an integer in [0, {N}), got {start!r}")
    s1 = memoryview(sample_switching(pat, dp.dt, N))
    iL = initial_inductor_current(p, ic)
    v2 = ic.v2_0
    dcm = mode is ConductionMode.DCM
    if dcm and (iL < 0.0 or v2 < 0.0):
        raise ConfigError(
            "ic", f"DCM requires iL(0) >= 0 and v2(0) >= 0, got iL={iL:.6g}, v2={v2:.6g}"
        )
    # EXACT/SIMPLIFIED read s1[n] and PREDICTIVE s1[n-1] for sample n, so the
    # two slices overlap in s1[start] and each run reads what the full one would
    iL, v2 = _advance(dp, p.V1, dcm, iL, v2, s1[: start + 1])
    out_iL, out_v2 = _iterate(dp, p.V1, dcm, iL, v2, s1[start:])
    t0 = start * dp.dt
    return (
        Waveform(dt=dp.dt, t0=t0, samples=out_v2),
        Waveform(dt=dp.dt, t0=t0, samples=out_iL),
    )
