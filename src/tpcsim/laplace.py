"""Higher-order rational transfer models of the circuit extensions.

Output capacitor ESR and ESL (plus optional, equal switch on-resistances) give
a cubic denominator, and a series R-L-C impedance load a quartic one.  Both
are one network: a series branch Z1 feeds the capacitor branch Zc in parallel
with the load ZL, so H = Zp/(Z1 + Zp) with Zp = Zc || ZL.  _network_model
builds H = Q/P from the branch impedances, which is the equation

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
from .modal import PoleResidue, RationalLaplace, expand_strictly_proper, find_poles, ic_numerator
from .modal import transfer_at
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


def _network_model(z1: np.ndarray, zc: tuple, zl: tuple) -> RationalLaplace:
    """H = Zp/(Z1 + Zp) with Zp = Zc || ZL: the series branch z1 (a polynomial)
    feeds the capacitor branch zc in parallel with the load zl, both given as
    (numerator, denominator).  An absent element leaves exact zeros at the top
    of P and Q, and trimming them lowers the degree."""
    Q = _trimmed_sum(np.convolve(zc[0], zl[0]))
    shunt = _trimmed_sum(np.convolve(zc[0], zl[1]), np.convolve(zl[0], zc[1]))
    P = _trimmed_sum(np.convolve(z1, shunt), Q)
    return RationalLaplace(num=Q, den=P)


def _trimmed_sum(*polys: np.ndarray) -> np.ndarray:
    """Sum of ascending coefficient arrays of any lengths, without its top zeros."""
    out = np.zeros(max(map(len, polys)))
    for c in polys:
        out[: len(c)] += c
    return out[: out.nonzero()[0][-1] + 1]


def build_parasitic_model(p: CircuitParams, q: ParasiticParams) -> RationalLaplace:
    """Transfer model with (esr_C, esl_C) in series with the output capacitor.

    With both parasitics at zero this degenerates to the base second-order
    model (degree reduction, not an error); esl_C alone raises the denominator
    degree to three.  Unequal switch on-resistances make the system switch
    between two different dynamics and admit no single rational model.
    """
    if q.r_ds_on_1 != q.r_ds_on_2:
        raise DegenerateTopologyError(
            f"r_ds_on_1 = {q.r_ds_on_1} ohm and r_ds_on_2 = {q.r_ds_on_2} ohm differ, so the "
            "circuit switches between two dynamics and has no single rational transfer model"
        )
    zc = (np.array([1.0, q.esr_C * p.C, q.esl_C * p.C]), np.array([0.0, p.C]))
    return _network_model(np.array([q.r_ds_on_1, p.L]), zc, (np.array([p.R_L]), np.array([1.0])))


def build_general_load_model(p: CircuitParams, gl: GeneralLoad) -> RationalLaplace:
    """Transfer model for a series R-L-C impedance load (ideal L and C).

    gl.R_L is the Ohmic part of the load and supersedes p.R_L.  A purely Ohmic
    load (L_L = 0, C_L = inf) reduces to the base second-order model; both
    extra elements together give the full quartic.
    """
    RL, LL, CL = gl.R_L, gl.L_L, gl.C_L
    if math.isinf(CL):  # a short: the general form would leave a common factor s
        zl = (np.array([RL, LL]), np.array([1.0]))
    else:
        zl = (np.array([1.0, RL * CL, LL * CL]), np.array([0.0, CL]))
    return _network_model(np.array([0.0, p.L]), (np.array([1.0]), np.array([0.0, p.C])), zl)


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
