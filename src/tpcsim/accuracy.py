"""Bias and bias-corrected MSE of the discrete models against the closed form.

Statistics are taken after a settling guard of whole symbol periods so the
reference actually fluctuates around the nominal DC output voltage; the guard
defaults to the number of symbols after which the transient envelope has
decayed below 1e-6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import Waveform, output_voltage
from .circuit import CircuitParams, Dynamics, InitialConditions, derive_dynamics
from .discrete import ConductionMode, Variant, simulate
from .errors import ConfigError, GridMismatchError, PatternTooShortError
from .modulation import ModulationConfig, SwitchingPattern, encode


@dataclass(frozen=True)
class AccuracyReport:
    J: int
    variant: Variant
    bias: float
    mse: float
    n_samples: int
    settle_symbols: int


def default_settle_symbols(d: Dynamics, T: float) -> int:
    """Symbols until exp(-a*t) drops below 1e-6: ceil(ln(1e6)/(a*T))."""
    return int(math.ceil(math.log(1e6) / (d.a * T)))


def _settle_guard(d: Dynamics, pat: SwitchingPattern, settle_symbols: int | None) -> int:
    """The settling guard in symbols, the default for d when None.

    Raises ConfigError for a negative guard and PatternTooShortError when the
    pattern does not outlast the guard.
    """
    if settle_symbols is None:
        settle_symbols = default_settle_symbols(d, pat.T)
    if settle_symbols < 0:
        raise ConfigError("settle_symbols", f"must be >= 0, got {settle_symbols!r}")
    if pat.K <= settle_symbols:
        raise PatternTooShortError(
            f"pattern has {pat.K} symbols but the settling guard needs more "
            f"than {settle_symbols}"
        )
    return settle_symbols


def reference_samples(
    d: Dynamics,
    ic: InitialConditions,
    pat: SwitchingPattern,
    V1: float,
    J: int,
    settle_symbols: int | None = None,
) -> Waveform:
    """Closed-form output sampled at dt = T/J, restricted to the settled part.

    The returned waveform starts at sample n0 = settle_symbols*J, t0 = n0*dt,
    and only its own samples are evaluated.  Raises PatternTooShortError when
    the pattern does not outlast the guard.
    """
    n0 = _settle_guard(d, pat, settle_symbols) * J
    dt = pat.T / J
    t = np.arange(n0, pat.K * J) * dt
    return Waveform(dt=dt, t0=n0 * dt, samples=output_voltage(d, ic, pat, V1, t))


def bias(v2: Waveform, delta: float, V1: float) -> float:
    """Mean deviation of the trajectory from the nominal DC output delta*V1."""
    if len(v2) == 0:
        raise ValueError("empty waveform")
    return float(np.mean(v2.samples)) - delta * V1


def mse(v2: Waveform, v2_ref: Waveform, b: float) -> float:
    """Mean squared error after removing the bias b from the trajectory."""
    if len(v2) != len(v2_ref) or not (
        math.isclose(v2.dt, v2_ref.dt, rel_tol=1e-12)
        and math.isclose(v2.t0, v2_ref.t0, rel_tol=1e-9, abs_tol=1e-15)
    ):
        raise GridMismatchError(
            f"grids differ: len {len(v2)}/{len(v2_ref)}, dt {v2.dt}/{v2_ref.dt}, "
            f"t0 {v2.t0}/{v2_ref.t0}"
        )
    diff = v2.samples - b - v2_ref.samples
    return float(np.mean(diff * diff))


def sweep(
    p: CircuitParams,
    cfg: ModulationConfig,
    bits,
    J_list,
    variants,
    settle_symbols: int | None = None,
    align_predictive: bool = True,
) -> list[AccuracyReport]:
    """One (bias, mse) report per (J, variant).

    The predictive trajectory is advanced by one sample before comparison when
    align_predictive is set, compensating its known one-sample output shift
    so the statistics measure waveform shape rather than latency.
    """
    d = derive_dynamics(p)
    pat = encode(bits, cfg)
    settle_symbols = _settle_guard(d, pat, settle_symbols)
    ic = InitialConditions(v2_0=cfg.delta * p.V1, dv2_0=0.0)
    reports = []
    for J in J_list:
        ref = reference_samples(d, ic, pat, p.V1, J, settle_symbols)
        n0 = settle_symbols * J
        for variant in variants:
            sim_w, _ = simulate(p, pat, ic, J, variant, ConductionMode.CCM, start=n0)
            ref_w = ref
            if variant is Variant.PREDICTIVE and align_predictive:
                sim_w = Waveform(dt=sim_w.dt, t0=sim_w.t0, samples=sim_w.samples[1:])
                ref_w = Waveform(dt=ref.dt, t0=ref.t0, samples=ref.samples[:-1])
            b = bias(sim_w, cfg.delta, p.V1)
            reports.append(
                AccuracyReport(
                    J=int(J),
                    variant=variant,
                    bias=b,
                    mse=mse(sim_w, ref_w, b),
                    n_samples=len(sim_w),
                    settle_symbols=settle_symbols,
                )
            )
    return reports
