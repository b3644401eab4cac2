"""Higher-order rational transfer models, pole/residue machinery, and the
time-domain solver built on them.

Two circuit extensions are covered:

* output capacitor with equivalent series resistance and inductance (plus
  optional, equal switch on-resistances), giving a cubic denominator;
* a series R-L-C impedance load, giving a quartic denominator.

Both are represented as a single input/output differential equation

    sum_i P_i * v2^(i)(t) = sum_j Q_j * v1^(j)(t)

whose Laplace transform yields V2(s)*P(s) = Q(s)*V1(s) plus polynomial
initial-condition terms: the polynomial multiplying v2^(m)(0) is
sum_{i>m} P_i s^(i-1-m) and the one multiplying v1^(m)(0) is
-sum_{j>m} Q_j s^(j-1-m).  Coefficient arrays are ascending in powers of s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .analytic import Waveform, _modal_sum, _shaped_like
from .circuit import CircuitParams
from .errors import ConfigError, DegenerateTopologyError, RepeatedPolesError
from .modulation import SwitchingPattern

_V2_SYMBOLS = ("v2_0", "dv2_0", "d2v2_0", "d3v2_0")
_V1_SYMBOLS = ("v1_0", "dv1_0")


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


def _readonly(a, dtype=float) -> np.ndarray:
    arr = np.asarray(a, dtype=dtype).copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class RationalLaplace:
    """Forcing numerator, denominator, and initial-condition numerators.

    ic_numerators maps symbol names ("v2_0", "dv2_0", "d2v2_0", "d3v2_0",
    "v1_0", "dv1_0") to the ascending-coefficient polynomial each initial
    value contributes to the numerator of V2(s).
    """

    num: np.ndarray
    den: np.ndarray
    ic_numerators: tuple

    def __post_init__(self):
        num = _readonly(self.num)
        den = _readonly(self.den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(
            self,
            "ic_numerators",
            tuple((sym, _readonly(c)) for sym, c in self.ic_numerators),
        )
        deg = len(den) - 1
        if not 2 <= deg <= 4:
            raise ValueError(f"denominator degree must be 2..4, got {deg}")
        if den[-1] == 0.0:
            raise ValueError("leading denominator coefficient must be nonzero")
        if len(num) - 1 > deg:
            raise ValueError("numerator degree exceeds denominator degree")

    @property
    def degree(self) -> int:
        return len(self.den) - 1

    def ic_symbols(self) -> tuple:
        return tuple(sym for sym, _ in self.ic_numerators)


@dataclass(frozen=True)
class PoleResidue:
    poles: np.ndarray
    residues: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "poles", _readonly(self.poles, dtype=complex))
        object.__setattr__(self, "residues", _readonly(self.residues, dtype=complex))
        if self.poles.shape != self.residues.shape:
            raise ValueError("poles and residues must have matching shapes")


def _polyval_asc(coeffs: np.ndarray, s):
    s = np.asarray(s, dtype=complex)
    out = np.zeros_like(s)
    for c in coeffs[::-1]:
        out = out * s + c
    return out


def _ic_numerators(P: np.ndarray, Q: np.ndarray) -> tuple:
    pairs = []
    deg_p = len(P) - 1
    for m in range(deg_p):
        pairs.append((_V2_SYMBOLS[m], np.array(P[m + 1 :], dtype=float)))
    deg_q = len(Q) - 1
    for m in range(deg_q):
        pairs.append((_V1_SYMBOLS[m], -np.array(Q[m + 1 :], dtype=float)))
    return tuple(pairs)


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


def transfer_at(r: RationalLaplace, s):
    """Zero-state transfer function num(s)/den(s)."""
    return _polyval_asc(r.num, s) / _polyval_asc(r.den, s)


def _balanced_roots(den: np.ndarray) -> np.ndarray:
    """Companion-matrix roots computed on a frequency-scaled copy of den.

    SI-unit coefficients span tens of orders of magnitude, so the polynomial
    is evaluated in units of a Cauchy-style root-magnitude bound before the
    eigenvalue solve and the residual check.
    """
    deg = len(den) - 1
    lead = abs(den[-1])
    sigma = max(
        (abs(den[k]) / lead) ** (1.0 / (deg - k)) for k in range(deg) if den[k] != 0.0
    )
    scaled = den * sigma ** np.arange(deg + 1)
    scaled = scaled / np.max(np.abs(scaled))
    roots = np.roots(scaled[::-1])
    residuals = np.abs(_polyval_asc(scaled, roots))
    worst = float(np.max(residuals))
    if worst >= 1e-8:
        raise ArithmeticError(f"root residual {worst:.3e} exceeds 1e-8 of the coefficient norm")
    return roots * sigma


def _pair_conjugates(roots: np.ndarray) -> np.ndarray:
    """Snap near-real roots to the real axis and make complex pairs exact."""
    scale = float(np.max(np.abs(roots))) or 1.0
    out = []
    remaining = list(roots)
    while remaining:
        z = remaining.pop(0)
        if abs(z.imag) <= 1e-9 * scale:
            out.append(complex(z.real, 0.0))
            continue
        partner_idx = min(
            range(len(remaining)), key=lambda i: abs(np.conj(z) - remaining[i])
        )
        partner = remaining.pop(partner_idx)
        mean = (z + np.conj(partner)) / 2.0
        out.extend([mean, np.conj(mean)])
    out.sort(key=lambda z: (z.real, z.imag))
    return np.array(out, dtype=complex)


def find_poles(r: RationalLaplace) -> np.ndarray:
    """All denominator roots, residual-verified and conjugate-paired.

    Raises RepeatedPolesError when two roots sit within 1e-6 relative distance
    of each other; the distinct-pole expansion below would be ill-defined.
    """
    poles = _pair_conjugates(_balanced_roots(r.den))
    scale = float(np.max(np.abs(poles))) or 1.0
    for i in range(len(poles)):
        for j in range(i + 1, len(poles)):
            if abs(poles[i] - poles[j]) < 1e-6 * scale:
                raise RepeatedPolesError(
                    f"poles {poles[i]:.6g} and {poles[j]:.6g} are not distinct"
                )
    return poles


def expand_strictly_proper(num: np.ndarray, den: np.ndarray, poles: np.ndarray) -> PoleResidue:
    """Residues of a strictly proper num/den at the given (distinct) poles."""
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    dden = np.array([k * den[k] for k in range(1, len(den))])
    residues = _polyval_asc(num, poles) / _polyval_asc(dden, poles)
    return PoleResidue(poles=poles, residues=residues)


def partial_fractions(
    r: RationalLaplace,
    ic_values: Mapping[str, float] | None = None,
) -> list[tuple[float, PoleResidue]]:
    """Pole-residue expansion of the initial-condition response of V2(s).

    Returns (delay, expansion) pairs: one pair with delay 0 when any initial
    value is given, none otherwise.  A symbol the model does not know raises
    ConfigError naming it.
    """
    if not ic_values:
        return []
    table = dict(r.ic_numerators)
    unknown = sorted(set(ic_values) - set(table))
    if unknown:
        raise ConfigError(unknown[0], f"unknown initial-condition symbol; one of {list(table)}")
    ic_num = np.zeros(r.degree)
    for sym, value in ic_values.items():
        coeffs = table[sym]
        ic_num[: len(coeffs)] += value * coeffs
    return [(0.0, expand_strictly_proper(ic_num, r.den, find_poles(r)))]


def inverse_laplace_distinct(pr: PoleResidue, t):
    """sum_i residue_i * exp(pole_i * t) for t >= 0, zero before.

    Conjugate pole/residue pairs must match to 1e-9 relative, so the sum is
    real; an inconsistent expansion raises ArithmeticError.  Poles with
    positive real part raise UnstablePoleError.
    """
    return evaluate_terms([(0.0, pr)], t)


def evaluate_terms(terms, t):
    """Superpose delayed expansion terms on a time grid."""
    out = np.zeros(np.shape(t))
    for delay, pr in terms:
        out += _modal_sum(pr.poles, pr.residues, [delay], [1.0], t)
    return _shaped_like(t, out)


def simulate_generalized(
    p: CircuitParams,
    q_or_gl: ParasiticParams | GeneralLoad,
    pat: SwitchingPattern,
    ic_full: Mapping[str, float] | None,
    J: int,
) -> Waveform:
    """Time-domain output of a generalized model on the grid dt = T/J.

    The response is the inverse transform of the initial-condition terms plus
    one +/-V1-scaled step response per switching edge, each shifted to its
    edge time; all edges share the step's residues, at the poles of the model
    and at s = 0 (the DC level).
    """
    if isinstance(q_or_gl, ParasiticParams):
        model = build_parasitic_model(p, q_or_gl)
    elif isinstance(q_or_gl, GeneralLoad):
        model = build_general_load_model(p, q_or_gl)
    else:
        raise TypeError(f"expected ParasiticParams or GeneralLoad, got {type(q_or_gl)!r}")
    ic_terms = partial_fractions(model, ic_full)
    poles = ic_terms[0][1].poles if ic_terms else find_poles(model)
    step = expand_strictly_proper(model.num, model.den, poles)
    step_poles = np.concatenate([[0.0], poles])
    step_res = p.V1 * np.concatenate([[model.num[0] / model.den[0]], step.residues / poles])
    dt = pat.T / J
    t = np.arange(pat.K * J) * dt
    out = evaluate_terms(ic_terms, t) + _modal_sum(step_poles, step_res, *pat.edges(), t)
    return Waveform(dt=dt, t0=0.0, samples=out)
