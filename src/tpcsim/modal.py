"""Rational transfer models V2(s)*P(s) = Q(s)*V1(s) + initial-condition terms
(coefficients ascending in s) and the pole/residue engine that evaluates them:
residues from expand_strictly_proper, frequency values from transfer_at and
time signals from _modal_sum.  circuit.Dynamics holds a model at its poles:
the base LC filter's degree-2 one, or a higher degree the laplace module builds.
"""

from __future__ import annotations

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
        if len(self.num) - 1 > self.degree:
            raise ValueError("numerator degree exceeds denominator degree")

    @property
    def degree(self) -> int:
        return len(self.den) - 1


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
    eigenvalue solve.  ModelError when that scaling overflows, or when a root's
    backward error |P(r)| / sum_k |P_k|*|r|^k exceeds 1e-8.
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
        worst = float(np.max(residuals[bad] / sizes[bad]))
        raise ModelError(
            f"denominator coefficients {den} give a root with backward error {worst:.3e}"
        )
    return roots * sigma


def find_poles(r: RationalLaplace) -> np.ndarray:
    """All denominator roots, backward-error-verified, sorted by (real, imag).

    Each root is judged on its own magnitude: one within 1e-9*|r| of the real
    axis is snapped to it, and complex pairs come out of the real companion
    matrix's eigenvalue solve (LAPACK dgeev) as exact conjugates.  Raises
    RepeatedPolesError when two roots differ by less than 1e-6 of the larger
    one's magnitude; the distinct-pole expansion below would be ill-defined.
    """
    roots = _balanced_roots(r.den)
    roots = np.where(np.abs(roots.imag) <= 1e-9 * np.abs(roots), roots.real + 0j, roots)
    poles = np.array(sorted(roots.tolist(), key=lambda z: (z.real, z.imag)), dtype=complex)
    for i in range(len(poles)):
        for j in range(i + 1, len(poles)):
            if abs(poles[i] - poles[j]) < 1e-6 * max(abs(poles[i]), abs(poles[j])):
                raise RepeatedPolesError(f"poles {poles[i]:.6g} and {poles[j]:.6g} are not distinct")
    return poles


def expand_strictly_proper(num: np.ndarray, den: np.ndarray, poles: np.ndarray) -> PoleResidue:
    """Residues of a strictly proper num/den at the given (distinct) poles."""
    dden = np.arange(1, len(den)) * np.asarray(den, dtype=float)[1:]
    residues = _polyval_asc(np.asarray(num, dtype=float), poles) / _polyval_asc(dden, poles)
    return PoleResidue(poles, residues)


def step_expansion(r: RationalLaplace, poles: np.ndarray, V1: float) -> PoleResidue:
    """Expansion of V1*H(s)/s: the DC level V1*H(0) at s = 0, and V1*res_i/p_i
    at each pole p_i of H, where res_i is H's residue there."""
    res = expand_strictly_proper(r.num, r.den, poles).residues
    dc = r.num[0] / r.den[0]
    return PoleResidue(np.concatenate([[0.0], poles]), V1 * np.concatenate([[dc], res / poles]))


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


def _modal_sum(pr: PoleResidue, edge_times, edge_weights, t) -> np.ndarray:
    """sum over edges tau_e <= t of w_e * sum_p r_p * exp(p*(t - tau_e)), for each t.

    The one evaluation engine behind every continuous-time output.  Edge
    times must be non-decreasing; t may be any array, in any order.  Each
    pole's state at every edge comes from one scan over the edges (the pole
    at 0 is a plain running sum), and each t decays the state of its latest
    edge, so exp(+a*tau) never appears.  Raises UnstablePoleError for a pole
    with positive real part and ArithmeticError for a non-real expansion.
    """
    if np.any(pr.poles.real > 0.0):
        raise UnstablePoleError(f"pole with positive real part in {pr.poles}")
    folded = _fold_conjugates(pr.poles, pr.residues)
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
    return float(out[0]) if np.isscalar(t) else out.reshape(np.shape(t))
