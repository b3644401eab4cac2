"""Higher-order rational transfer models of the circuit extensions.

Two circuit extensions are covered:

* output capacitor with equivalent series resistance and inductance (plus
  optional, equal switch on-resistances), giving a cubic denominator;
* a series R-L-C impedance load, giving a quartic denominator.

Both are represented as a single input/output differential equation

    sum_i P_i * v2^(i)(t) = sum_j Q_j * v1^(j)(t)

whose Laplace transform yields V2(s)*P(s) = Q(s)*V1(s) plus polynomial
initial-condition terms.  The model type, root finding, residues and time
evaluation live in the modal module, shared with the base filter; this
module re-exports the public ones.  circuit.Dynamics.of puts a model at its
poles, and the analytic, spectrum and accuracy functions take the result
like the base filter's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .analytic import Waveform, sample_output
from .circuit import CircuitParams, Dynamics
from .errors import ConfigError, DegenerateTopologyError
from .modal import PoleResidue, RationalLaplace, expand_strictly_proper, find_poles, transfer_at
from .modal import _ic_numerators, ic_numerator
from .modulation import SwitchingPattern


@dataclass(frozen=True)
class ParasiticParams:
    """Capacitor branch parasitics and switch on-resistances (ohm/henry)."""

    esr_C: float = 0.0
    esl_C: float = 0.0
    r_ds_on_1: float = 0.0
    r_ds_on_2: float = 0.0

    def __post_init__(self):
        for name in ("esr_C", "esl_C", "r_ds_on_1", "r_ds_on_2"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(name, f"must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class GeneralLoad:
    """Series R-L-C load; C_L = inf marks the series capacitor as a short."""

    R_L: float
    L_L: float = 0.0
    C_L: float = math.inf

    def __post_init__(self):
        if not (math.isfinite(self.R_L) and self.R_L > 0):
            raise ConfigError("R_L", f"must be finite and > 0, got {self.R_L!r}")
        if not (math.isfinite(self.L_L) and self.L_L >= 0):
            raise ConfigError("L_L", f"must be finite and >= 0, got {self.L_L!r}")
        if not self.C_L > 0:
            raise ConfigError("C_L", f"must be > 0 (math.inf for a short), got {self.C_L!r}")


def build_parasitic_model(p: CircuitParams, q: ParasiticParams) -> RationalLaplace:
    """Transfer model with (esr_C, esl_C) in series with the output capacitor.

    With both parasitics at zero this degenerates to the base second-order
    model (degree reduction, not an error); esl_C alone raises the denominator
    degree to three.  Unequal switch on-resistances make the system switch
    between two different dynamics and admit no single rational model.
    """
    if q.r_ds_on_1 != q.r_ds_on_2:
        raise DegenerateTopologyError(
            "unequal switch on-resistances give a time-varying system with no "
            "single rational transfer model; the state-space route handles them"
        )
    r = q.r_ds_on_1
    L, C, RL = p.L, p.C, p.R_L
    rc, lc = q.esr_C, q.esl_C
    Q = np.array([RL, RL * rc * C, RL * lc * C])
    P = np.array(
        [
            r + RL,
            r * C * (rc + RL) + L + RL * rc * C,
            r * lc * C + L * C * (rc + RL) + RL * lc * C,
            L * lc * C,
        ]
    )
    if lc == 0.0:
        P = P[:3]
        Q = Q[:2] if rc > 0.0 else Q[:1]
    return RationalLaplace(num=Q, den=P, ic_numerators=_ic_numerators(P, Q))


def build_general_load_model(p: CircuitParams, gl: GeneralLoad) -> RationalLaplace:
    """Transfer model for a series R-L-C impedance load (ideal L and C).

    gl.R_L is the Ohmic part of the load and supersedes p.R_L.  A purely Ohmic
    load (L_L = 0, C_L = inf) reduces to the base second-order model; both
    extra elements together give the full quartic.
    """
    L, C = p.L, p.C
    RL, LL, CL = gl.R_L, gl.L_L, gl.C_L
    if math.isinf(CL):
        Q = np.array([RL, LL])
        P = np.array([RL, L + LL, L * C * RL, L * C * LL])
        if LL == 0.0:
            Q = Q[:1]
            P = P[:3]
    else:
        Q = np.array([1.0, RL * CL, LL * CL])
        P = np.array(
            [
                1.0,
                RL * CL,
                L * C + LL * CL + L * CL,
                L * C * RL * CL,
                L * C * LL * CL,
            ]
        )
        if LL == 0.0:
            Q = Q[:2]
            P = P[:4]
    return RationalLaplace(num=Q, den=P, ic_numerators=_ic_numerators(P, Q))


def simulate_generalized(
    p: CircuitParams,
    q_or_gl: ParasiticParams | GeneralLoad,
    pat: SwitchingPattern,
    ic_full: Mapping[str, float] | None,
    J: int,
) -> Waveform:
    """Time-domain output of a generalized model on the grid dt = T/J: the
    sampled output of its Dynamics, with ic_full as the initial values."""
    d = Dynamics.of(_build_model(p, q_or_gl))
    return sample_output(d, ic_full or {}, pat, p.V1, pat.T / J, pat.K * J)


def _build_model(p: CircuitParams, q_or_gl: ParasiticParams | GeneralLoad) -> RationalLaplace:
    if isinstance(q_or_gl, ParasiticParams):
        return build_parasitic_model(p, q_or_gl)
    if isinstance(q_or_gl, GeneralLoad):
        return build_general_load_model(p, q_or_gl)
    raise TypeError(f"expected ParasiticParams or GeneralLoad, got {type(q_or_gl)!r}")
