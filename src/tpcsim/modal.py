"""Rational transfer models V2(s)*P(s) = Q(s)*V1(s) + initial-condition terms
(coefficients ascending in s) and the pole/residue engine that evaluates them:
residues from expand_strictly_proper, frequency values from transfer_at and
time signals from _modal_sum.  circuit.Dynamics holds a model of degree 2
(the base LC filter or a reduced extension) to 4 at the poles find_poles gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ConfigError, ModelError, RepeatedPolesError, UnstablePoleError

_V2_SYMBOLS = ("v2_0", "dv2_0", "d2v2_0", "d3v2_0")
_V1_SYMBOLS = ("v1_0", "dv1_0")


def _readonly(a, dtype=float) -> np.ndarray:
    arr = np.asarray(a, dtype=dtype).copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class RationalLaplace:
    """Forcing numerator Q and denominator P of V2(s)*P(s) = Q(s)*V1(s) plus
    initial-condition terms, which ic_numerator derives from the two."""

    num: np.ndarray
    den: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "num", _readonly(self.num))
        object.__setattr__(self, "den", _readonly(self.den))
        if not 2 <= self.degree <= 4:
            raise ValueError(f"denominator degree must be 2..4, got {self.degree}")
        if self.den[-1] == 0.0:
            raise ValueError("leading denominator coefficient must be nonzero")
        if self.den[0] == 0.0:
            raise ValueError("den[0] must be nonzero: a pole at s = 0 has no DC gain")
        if len(self.num) - 1 > self.degree:
            raise ValueError("numerator degree exceeds denominator degree")

    @property
    def degree(self) -> int:
        return len(self.den) - 1

    @property
    def dc_gain(self) -> float:
        """H(0) = num[0]/den[0]: the output's DC level per volt of v1."""
        return float(self.num[0] / self.den[0])


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
    for c in coeffs[::-1]:  # in place: no temporaries on long frequency grids
        out *= s
        out += c
    return out


def ic_numerator(r: RationalLaplace, ic_values: Mapping[str, float]) -> np.ndarray:
    """Numerator over r.den of V2(s)'s initial-condition response: v2^(m)(0)
    multiplies sum_{i>m} P_i s^(i-1-m) and v1^(m)(0) -sum_{j>m} Q_j s^(j-1-m).
    ConfigError names a symbol the model does not know."""
    table = {_V2_SYMBOLS[m]: r.den[m + 1 :] for m in range(r.degree)}
    table.update({_V1_SYMBOLS[m]: -r.num[m + 1 :] for m in range(len(r.num) - 1)})
    unknown = sorted(set(ic_values) - set(table))
    if unknown:
        raise ConfigError(unknown[0], f"unknown initial-condition symbol; one of {list(table)}")
    ic_num = np.zeros(r.degree)
    for sym, value in ic_values.items():
        coeffs = table[sym]
        ic_num[: len(coeffs)] += value * coeffs
    return ic_num


def transfer_at(r: RationalLaplace, s):
    """Zero-state transfer function num(s)/den(s)."""
    return _polyval_asc(r.num, s) / _polyval_asc(r.den, s)


def _balanced_roots(den: np.ndarray) -> np.ndarray:
    """Companion-matrix roots computed on a frequency-scaled copy of den.

    SI-unit coefficients span tens of orders of magnitude, so the polynomial
    is evaluated in units of a Cauchy-style root-magnitude bound before the
    eigenvalue solve.  A root passes when its backward error
    |P(r)| / sum_k |P_k|*|r|^k is at most 1e-8.  When some root fails but the
    largest is real and passes (a negligible ESL puts it tens of decades above
    the rest), den is divided by (s - r) from the constant term up,
    Q_0 = -P_0/r and Q_k = (Q_{k-1} - P_k)/r, which is stable for a large |r|,
    and the quotient is solved with its own scaling.  ModelError when a
    scaling overflows, or when a root fails and cannot be deflated.
    """
    deg = len(den) - 1
    lead = abs(den[-1])
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        sigma = max(
            (abs(den[k]) / lead) ** (1.0 / (deg - k)) for k in range(deg) if den[k] != 0.0
        )
        scaled = den * sigma ** np.arange(deg + 1)
        scaled = scaled / np.max(np.abs(scaled))
    if not np.all(np.isfinite(scaled)):
        raise ModelError(f"denominator coefficients {den} overflow when scaled to find roots")
    roots = np.roots(scaled[::-1])
    terms = scaled * roots[:, None] ** np.arange(deg + 1)  # P_k*r^k, one row per root
    residuals, sizes = np.abs(terms.sum(axis=1)), np.abs(terms).sum(axis=1)
    bad = residuals > 1e-8 * sizes
    if np.any(bad):
        top = int(np.argmax(np.abs(roots)))
        if not bad[top] and abs(roots[top].imag) <= 1e-9 * abs(roots[top]):
            r = roots[top].real * sigma
            quotient = np.empty(deg)
            carry = 0.0
            for k in range(deg):
                carry = (carry - den[k]) / r
                quotient[k] = carry
            return np.append(_balanced_roots(quotient), r)
        worst = float(np.max(residuals[bad] / sizes[bad]))
        raise ModelError(
            f"denominator coefficients {den} give a root with backward error {worst:.3e}"
        )
    return roots * sigma


def find_poles(r: RationalLaplace) -> np.ndarray:
    """All denominator roots, sorted by (real, imag); RepeatedPolesError for
    roots _distinct rejects, which a degree-2 complex pair never reaches.

    Degree 2, with c = -P1/(2*P2) and d2 = c^2 - P0/P2: c -/+ j*sqrt(-d2) if
    d2 < 0, else far = c + sign(c)*sqrt(d2) and near = (P0/P2)/far, which
    does not cancel as c - sign(c)*sqrt(d2) does (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., sec. 1.8).  Higher degrees:
    _balanced_roots (dgeev), each snapped to the real axis within 1e-9*|r|.
    """
    if r.degree == 2:
        c, q = -r.den[1] / (2.0 * r.den[2]), r.den[0] / r.den[2]
        d2 = c * c - q
        if d2 < 0.0:
            return np.array([complex(c, -math.sqrt(-d2)), complex(c, math.sqrt(-d2))])
        far = c + math.copysign(math.sqrt(d2), c)
        return _distinct(np.array(sorted([far, q / far]), dtype=complex))
    roots = _balanced_roots(r.den)
    roots = np.where(np.abs(roots.imag) <= 1e-9 * np.abs(roots), roots.real + 0j, roots)
    poles = np.array(sorted(roots.tolist(), key=lambda z: (z.real, z.imag)), dtype=complex)
    return _distinct(poles)


def _distinct(poles: np.ndarray) -> np.ndarray:
    """poles, unless two differ by less than 1e-6 of the larger one's magnitude
    (RepeatedPolesError): the distinct-pole expansion would be ill-defined."""
    for i in range(len(poles)):
        for j in range(i + 1, len(poles)):
            if abs(poles[i] - poles[j]) < 1e-6 * max(abs(poles[i]), abs(poles[j])):
                raise RepeatedPolesError(f"poles {poles[i]:.6g} and {poles[j]:.6g} are not distinct")
    return poles


def expand_strictly_proper(num: np.ndarray, den: np.ndarray, poles: np.ndarray) -> PoleResidue:
    """Residues num(p_i)/den'(p_i) of a strictly proper num/den at its distinct
    poles, one per root of den (ValueError otherwise), with den'(p_i) =
    den[-1]*prod_{j != i}(p_i - p_j): exactly -/+2jb*den[-1] at a pair c -/+ jb."""
    if len(poles) != len(den) - 1:
        raise ValueError(f"den of degree {len(den) - 1} needs one pole per root, got {len(poles)}")
    roots = np.asarray(poles, dtype=complex).tolist()
    gaps = [math.prod(p - q for j, q in enumerate(roots) if j != i) for i, p in enumerate(roots)]
    residues = _polyval_asc(np.asarray(num, dtype=float), poles) / (den[-1] * np.array(gaps))
    return PoleResidue(poles, residues)


def step_expansion(r: RationalLaplace, poles: np.ndarray, V1: float) -> PoleResidue:
    """Expansion of V1*H(s)/s: the DC level V1*H(0) at s = 0, and V1*res_i/p_i
    at each pole p_i of H, where res_i is H's residue there."""
    res = expand_strictly_proper(r.num, r.den, poles).residues
    residues = V1 * np.concatenate([[r.dc_gain], res / poles])
    return PoleResidue(np.concatenate([[0.0], poles]), residues)


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


def _scan_passes(pole: complex | float, times: np.ndarray) -> int:
    """Doubling passes _edge_states needs.  The pass at offset k runs while some
    k-edge span is shorter than 41.5/a (a = -Re pole): edges further apart have
    decayed below 1e-18 and add nothing in double precision.  That test only
    turns false as k grows, so its exponent is bisected, starting at k = 1,
    where a stiff pole stops, instead of tried before every pass."""
    lo, hi, i = 0, (len(times) - 1).bit_length(), 0  # every k tried is below len(times)
    while lo < hi:
        k = 1 << i
        if pole.real * np.min(times[k:] - times[:-k]) > -41.5:
            lo = i + 1
        else:
            hi = i
        i = (lo + hi) // 2
    return lo


def _edge_states(pole: complex | float, times: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """S_e = sum_{m<=e} w_m * exp(pole*(tau_e - tau_m)) at every edge e, in
    float64 for a float pole and in complex128 for a complex one.

    Hillis-Steele doubling scan: before the pass at offset k each state covers
    its last k edges and decay[e] = exp(pole*(tau_{e+k} - tau_e)).  The scan
    stops once older edges have decayed below 1e-18 (_scan_passes), so long
    patterns cost O(E) per pole.
    """
    states = weights.astype(np.result_type(pole, weights))
    decay = np.exp(pole * np.diff(times))
    k = 1
    for _ in range(_scan_passes(pole, times)):
        states[k:] += decay * states[:-k]
        decay = decay[k:] * decay[:-k]
        k *= 2
    return states


def _modal_sum(pr: PoleResidue, edge_times, edge_weights, t) -> np.ndarray:
    """sum over edges tau_e <= t of w_e * sum_p r_p * exp(p*(t - tau_e)), for each t.

    The one evaluation engine behind every continuous-time output.  Edge
    times must be non-decreasing; t may be any array, in any order.  Each
    pole's state at every edge comes from one scan over the edges (the pole
    at 0 is a plain running sum, a real pole runs in float64), and each t
    decays the state of its latest edge, so exp(+a*tau) never appears.  A mode
    whose residue is exactly 0 is skipped.  Raises UnstablePoleError for a pole
    with positive real part and ArithmeticError for a non-real expansion.
    """
    if np.any(pr.poles.real > 0.0):
        raise UnstablePoleError(f"pole with positive real part in {pr.poles}")
    folded = [(p, r) for p, r in _fold_conjugates(pr.poles, pr.residues) if r != 0.0]
    if not folded:  # e.g. a transient from rest
        return 0.0 if np.isscalar(t) else np.zeros(np.shape(t))
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
        if pole.imag == 0.0:  # a residue's imaginary part would reach only term.imag
            pole, res = pole.real, res.real
        term = pole * lag  # updated in place: fresh N-sized buffers cost page faults
        np.exp(term, out=term)
        term *= (res * _edge_states(pole, times, weights))[latest]
        out += term.real
    return float(out[0]) if np.isscalar(t) else out.reshape(np.shape(t))
