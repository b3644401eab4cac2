"""Independent references the benchmark checks tpcsim's outputs against.

Nothing here calls tpcsim.  Each reference is written from the circuit
equations with a different evaluation strategy than the package uses:

* closed form: a literal per-edge sum of shifted LC step responses;
* spectrum: a direct sum of the edge phasors times the LC frequency response;
* discrete iteration: a plain scalar loop over the exact update equations;
* generalized models: the transfer function derived from circuit impedances,
  realized as a state-space model and propagated edge to edge with the
  matrix exponential.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.linalg import expm


def vpwm_edges(bits, T: float, delta: float, depth: float):
    """Absolute pulse start and end times of a VPWM bit stream."""
    bits = np.asarray(bits, dtype=float)
    duty = delta + (2.0 * bits - 1.0) * depth
    k = np.arange(len(bits)) * T
    return k + 0.5 * T * (1.0 - duty), k + 0.5 * T * (1.0 + duty)


def switching_levels(starts, ends, t):
    """1 where t lies in some [start, end), else 0 (own logic, by symbol)."""
    t = np.asarray(t, dtype=float)
    i = np.searchsorted(starts, t, side="right") - 1
    inside = (i >= 0) & (t < ends[np.maximum(i, 0)])
    return np.where(inside, 1.0, 0.0)


def lc_constants(L: float, C: float, R: float):
    a = 1.0 / (2.0 * R * C)
    return a, math.sqrt(1.0 / (L * C) - a * a)


def closed_form_points(L, C, R, V1, v2_0, dv2_0, starts, ends, t):
    """v2 at a few times t: transient plus one step pair per symbol.

    Each symbol contributes u(t - start) - u(t - end) with
    u(x) = 1 - exp(-a x) (cos bx + (a/b) sin bx) for x >= 0; the two unit
    levels cancel inside a finished pulse, so they are dropped there to keep
    the sum accurate over thousands of symbols.
    """
    a, b = lc_constants(L, C, R)
    t = np.asarray(t, dtype=float)[:, None]

    def decay(x):
        xp = np.maximum(x, 0.0)
        return np.exp(-a * xp) * (np.cos(b * xp) + (a / b) * np.sin(b * xp))

    xs = t - starts[None, :]
    xe = t - ends[None, :]
    on_s = xs >= 0.0
    on_e = xe >= 0.0
    per_symbol = np.where(on_e, decay(xe) - decay(xs), np.where(on_s, 1.0 - decay(xs), 0.0))
    t = t[:, 0]
    transient = np.exp(-a * t) * (
        v2_0 * np.cos(b * t) + (a * v2_0 + dv2_0) / b * np.sin(b * t)
    )
    return transient + V1 * per_symbol.sum(axis=1)


def transient_points(L, C, R, v2_0, dv2_0, t):
    return closed_form_points(L, C, R, 0.0, v2_0, dv2_0, np.empty(0), np.empty(0), t)


def spectrum_points(L, C, R, V1, starts, ends, f):
    """Fourier transform of the zero-state output at frequencies f.

    Returns (values, scale): scale bounds the magnitude of the summed terms,
    so an error below a small fraction of it is rounding, not a defect.
    """
    w = 2.0 * np.pi * np.asarray(f, dtype=float)
    jw = 1j * w
    h = 1.0 / (1.0 + jw * L / R - w * w * L * C)
    phasors = np.exp(-jw[:, None] * starts[None, :]) - np.exp(-jw[:, None] * ends[None, :])
    values = V1 / jw * h * phasors.sum(axis=1)
    scale = V1 / w * np.abs(h) * 2.0 * len(starts)
    return values, scale


def exact_iteration(L, C, R, V1, dt, s1, v2_0, dv2_0, n_steps, dcm=False):
    """First n_steps of the exact-coefficient (iL, v2) recursion, scalar loop."""
    crl = C * R
    kappa = crl / (crl + dt)
    mu = R * dt / (crl + dt)
    den = L * (crl + dt) + R * dt * dt
    alpha = L * (crl + dt) / den
    beta = dt * (crl + dt) / den
    gamma = -crl * dt / den
    iL = v2_0 / R + C * dv2_0
    v2 = v2_0
    out_v2 = [v2]
    out_iL = [iL]
    for n in range(1, n_steps):
        iL = alpha * iL + beta * V1 * s1[n] + gamma * v2
        if dcm and iL < 0.0:
            iL = 0.0
        v2 = kappa * v2 + mu * iL
        out_v2.append(v2)
        out_iL.append(iL)
    return np.array(out_v2), np.array(out_iL)


def parasitic_transfer(L, C, R, esr, esl):
    """(num, den), ascending in s: R || (esr + s esl + 1/(sC)) after sL."""
    nc = np.array([1.0, esr * C, esl * C])
    dp = np.array([1.0, (R + esr) * C, esl * C])
    return R * nc, npoly.polyadd(npoly.polymul([0.0, L], dp), R * nc)


def series_load_transfer(L, C, R, L_load, C_load):
    """(num, den), ascending in s: (R + s L_load + 1/(s C_load)) || 1/(sC) after sL."""
    n = np.array([1.0, R * C_load, L_load * C_load])
    den = npoly.polyadd(n, npoly.polyadd([0.0, 0.0, L * C_load], npoly.polymul([0.0, 0.0, L * C], n)))
    return n, den


class EdgeStepReference:
    """Output of a strictly proper num/den driven by a piecewise-constant input.

    The transfer function is realized in controllable canonical form on the
    time unit t_unit (which keeps SI coefficients near unity) and the state is
    carried from edge to edge with exact matrix-exponential steps.
    """

    def __init__(self, num, den, t_unit: float):
        num = np.trim_zeros(np.asarray(num, dtype=float), "b")
        den = np.trim_zeros(np.asarray(den, dtype=float), "b")
        n = len(den) - 1
        if len(num) > n:
            raise ValueError("transfer function must be strictly proper")
        a = den[:-1] * t_unit ** (n - np.arange(n)) / den[-1]
        c = np.zeros(n)
        c[: len(num)] = num * t_unit ** (n - np.arange(len(num))) / den[-1]
        aug = np.zeros((n + 1, n + 1))
        aug[: n - 1, 1:n] = np.eye(n - 1)
        aug[n - 1, :n] = -a
        aug[n - 1, n] = 1.0
        self._aug = aug
        self._n = n
        self._c = c
        self._unit = t_unit
        self._cache: dict = {}

    def _step(self, h: float):
        key = round(h / self._unit, 12)
        if key not in self._cache:
            e = expm(self._aug * (h / self._unit))
            self._cache[key] = (e[: self._n, : self._n], e[: self._n, self._n])
        return self._cache[key]

    def outputs(self, edge_times, levels_after, t):
        """Output at times t for input 0 before edge_times[0], then levels_after[i]."""
        n_edges = len(edge_times)
        states = np.zeros((n_edges, self._n))
        x = np.zeros(self._n)
        for i in range(n_edges):
            if i:
                phi, gam = self._step(edge_times[i] - edge_times[i - 1])
                x = phi @ x + gam * levels_after[i - 1]
            states[i] = x
        out = np.zeros(len(t))
        for j, tj in enumerate(t):
            i = int(np.searchsorted(edge_times, tj, side="right")) - 1
            if i < 0:
                continue
            phi, gam = self._step(tj - edge_times[i]) if tj > edge_times[i] else (np.eye(self._n), 0.0)
            out[j] = self._c @ (phi @ states[i] + gam * levels_after[i])
        return out
