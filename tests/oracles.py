"""Independent numerical oracles used by the test suite.

Everything here is deliberately written against the raw circuit equations
rather than the package's closed forms: a classic four-stage Runge-Kutta
integrator for linear state-space models with piecewise-constant input,
event-aligned so switching edges never smear across a step, backward-
difference and explicit Euler recursions of the base circuit, plus the
state-space formulations (and derivative-style initial-condition mappings) of
the extended topologies.
"""

from __future__ import annotations

import bisect
import cmath
import math
from fractions import Fraction

import mpmath
import numpy as np


def switch_level(pat, J: int, N: int) -> np.ndarray:
    """Ideal two-level signal at the sample times n*T/J, n < N, from exact edges.

    Each edge is taken, in units of T, as the nearest fraction with a
    denominator up to 10**9.  That recovers edges computed from short decimal
    inputs exactly (delta 0.75 and depth 0.2 give 1/40 and 39/40), so a sample
    on an edge follows the half-open [t_start, t_end) rule instead of float
    rounding.
    """
    s1 = np.zeros(N)
    for k in range(pat.K):
        start, end = (
            k + Fraction(float(x) / pat.T).limit_denominator(10**9)
            for x in (pat.t_start[k], pat.t_end[k])
        )
        s1[math.ceil(start * J) : math.ceil(end * J)] = 1.0
    return s1


def input_levels(pat, V1: float) -> list[tuple[float, float]]:
    """(time, value-after) pairs of the right-sided switching voltage.

    The value after each edge is the running sum of +V1 (pulse start) and
    -V1 (pulse end) steps, so abutting pulses, whose shared edge may come out
    one ulp apart in either order, keep the level at V1 across it.
    """
    steps = []
    for k in range(pat.K):
        steps.append((k * pat.T + float(pat.t_start[k]), V1))
        steps.append((k * pat.T + float(pat.t_end[k]), -V1))
    steps.sort()
    levels, level = [], 0.0
    for t, step in steps:
        level += step
        levels.append((t, level))
    return levels


def rk4_affine_step(A: np.ndarray, B: np.ndarray, h: float):
    """One RK4 step of x' = Ax + Bu (u constant) as an affine map x -> Mx + Gu."""
    n = A.shape[0]
    eye = np.eye(n)
    k1_m, k1_g = A, B
    k2_m = A @ (eye + 0.5 * h * k1_m)
    k2_g = A @ (0.5 * h * k1_g) + B
    k3_m = A @ (eye + 0.5 * h * k2_m)
    k3_g = A @ (0.5 * h * k2_g) + B
    k4_m = A @ (eye + h * k3_m)
    k4_g = A @ (h * k3_g) + B
    M = eye + (h / 6.0) * (k1_m + 2.0 * k2_m + 2.0 * k3_m + k4_m)
    G = (h / 6.0) * (k1_g + 2.0 * k2_g + 2.0 * k3_g + k4_g)
    return M, G


def rk4_composed_map(A: np.ndarray, B: np.ndarray, seg: float, nsub: int):
    """nsub RK4 steps of length seg/nsub composed into one affine map.

    With (M, G) the single-step map, nsub steps take x to
    M^nsub x + (sum of M^i G for i < nsub) u; the sum is built by the same
    recursion the steps themselves follow, S <- M S + G.
    """
    M, G = rk4_affine_step(A, B, seg / nsub)
    M_n = np.eye(A.shape[0])
    G_n = np.zeros(A.shape[0])
    for _ in range(nsub):
        M_n = M @ M_n
        G_n = M @ G_n + G
    return M_n, G_n


def integrate_lti(A, B, x0, levels, t_grid, h_max):
    """Event-aligned RK4 of x' = Ax + B*u(t), u piecewise constant.

    levels is a sorted list of (time, value-after); u is 0 before the first
    entry.  Each inter-sample interval is split at the switching times inside
    it, and every smooth segment is integrated with RK4 substeps no longer
    than h_max, composed into one map per segment length.  Returns the state
    at every grid time (rows).
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    x = np.asarray(x0, dtype=float).copy()
    times = [lv[0] for lv in levels]
    values = [lv[1] for lv in levels]
    out = np.empty((len(t_grid), len(x)))
    out[0] = x
    cache: dict = {}

    def level_at(t: float) -> float:
        i = bisect.bisect_right(times, t) - 1
        return values[i] if i >= 0 else 0.0

    def propagate(x, u, seg):
        nsub = max(1, int(math.ceil(seg / h_max)))
        key = (seg, nsub)
        if key not in cache:
            cache[key] = rk4_composed_map(A, B, seg, nsub)
        M, G = cache[key]
        return M @ x + G * u

    for n in range(1, len(t_grid)):
        t0, t1 = t_grid[n - 1], t_grid[n]
        cut = times[bisect.bisect_right(times, t0) : bisect.bisect_left(times, t1)]
        tcur = t0
        for tc in [*cut, t1]:
            if tc > tcur:
                x = propagate(x, level_at(0.5 * (tcur + tc)), tc - tcur)
                tcur = tc
        out[n] = x
    return out


# ---------------------------------------------------------------------------
# base buck converter: states (iL, v2)


def rk4_buck(p, pat, ic, J: int, h_max=None):
    """Reference trajectories for the two base circuit state equations."""
    A = np.array(
        [
            [0.0, -1.0 / p.L],
            [1.0 / p.C, -1.0 / (p.C * p.R_L)],
        ]
    )
    B = np.array([1.0 / p.L, 0.0])
    dt = pat.T / J
    t_grid = np.arange(pat.K * J) * dt
    x0 = np.array([ic.v2_0 / p.R_L + p.C * ic.dv2_0, ic.v2_0])
    h = dt if h_max is None else min(dt, h_max)
    states = integrate_lti(A, B, x0, input_levels(pat, p.V1), t_grid, h)
    return states[:, 1], states[:, 0]


def edge_step_sum(p, pat, V1: float, t) -> np.ndarray:
    """Zero-state output as a literal sum of LC step responses, one per edge.

    Every pulse adds V1*u(t - start) - V1*u(t - end), with
    u(x) = 1 - exp(-a*x)*(cos(b*x) + (a/b)*sin(b*x)) for x >= 0 and 0 before,
    a and b taken from the circuit values.  O(N*K), any t in any order.
    """
    a = 1.0 / (2.0 * p.C * p.R_L)
    b = math.sqrt(1.0 / (p.L * p.C) - a * a)
    t = np.asarray(t, dtype=float)

    def step(x):
        xp = np.maximum(x, 0.0)
        u = 1.0 - np.exp(-a * xp) * (np.cos(b * xp) + (a / b) * np.sin(b * xp))
        return np.where(x >= 0.0, u, 0.0)

    total = np.zeros(t.shape)
    for k in range(pat.K):
        total += step(t - k * pat.T - pat.t_start[k])
        total -= step(t - k * pat.T - pat.t_end[k])
    return V1 * total


def lc_responses(den, v2_0: float, dv2_0: float, t) -> dict:
    """Unit step, zero-input transient and impulse response of the base filter
    w0^2/(w0^2 + 2a*s + s^2), den = (w0^2, 2a, 1), at each t >= 0, in 50-digit
    arithmetic: name -> (values, scale), scale the sum of |coefficients| of
    the response's terms.

    With c = -a, d2 = c^2 - w0^2, d = sqrt(d2), E = exp(c*t), Ch = cosh(d*t) and
    Sh = sinh(d*t)/d, each response is r0 + E*(A*Ch + B*Sh): the step
    1 - E*(Ch - c*Sh), the transient E*(v2_0*Ch + (dv2_0 - c*v2_0)*Sh) and the
    impulse w0^2*E*Sh.  Ch and Sh are entire in d2, so one formula covers a
    complex pair (d2 < 0), real poles (d2 > 0) and d2 = 0 (Sh = t).  Its terms
    are r0 and exp((c +/- d)*t) times A/2 +/- B/(2d); the scale is infinite at
    d2 = 0.  The floats den, v2_0 and dv2_0 are taken exactly.
    """
    with mpmath.workdps(50):
        w0_sq, c = mpmath.mpf(float(den[0])), -mpmath.mpf(float(den[1])) / 2
        d = mpmath.sqrt(mpmath.mpc(c * c - w0_sq))
        v0, dv0 = mpmath.mpf(v2_0), mpmath.mpf(dv2_0)
        forms = {"step": (1, -1, c), "transient": (0, v0, dv0 - c * v0), "impulse": (0, 0, w0_sq)}
        cols = []
        for ti in np.asarray(t, dtype=float).tolist():
            ti = mpmath.mpf(ti)
            sh = ti if d == 0 else mpmath.sinh(d * ti) / d
            cols.append((mpmath.exp(c * ti), mpmath.cosh(d * ti), sh))
        out = {}
        for name, (r0, A, B) in forms.items():
            values = [float(mpmath.re(r0 + e * (A * ch + B * sh))) for e, ch, sh in cols]
            half = mpmath.inf if d == 0 else B / (2 * d)
            scale = abs(r0) + abs(mpmath.mpf(A) / 2 + half) + abs(mpmath.mpf(A) / 2 - half)
            out[name] = (np.array(values), float(scale))
    return out


def edge_phasor_sum(pat, V1: float, f) -> np.ndarray:
    """Fourier transform of V1*s1(t) as a literal sum of one phasor per edge.

    Every pulse adds V1/(j*w) * (exp(-j*w*t_on) - exp(-j*w*t_off)) at
    w = 2*pi*f, with t_on and t_off its absolute edge times k*T + t_start[k]
    and k*T + t_end[k]: one cmath.exp per edge and frequency.  Any nonzero f,
    of any sign and shape; O(F*K).
    """
    f = np.asarray(f, dtype=float)
    out = np.empty(f.size, dtype=complex)
    for i, fi in enumerate(f.ravel()):
        jw = 2j * math.pi * float(fi)
        total = 0j
        for k in range(pat.K):
            t_on = k * pat.T + float(pat.t_start[k])
            t_off = k * pat.T + float(pat.t_end[k])
            total += cmath.exp(-jw * t_on) - cmath.exp(-jw * t_off)
        out[i] = V1 / jw * total
    return out.reshape(f.shape)


def backward_difference_buck(p, pat, ic, J: int, clip: bool = False):
    """Backward-difference recursion of the two base circuit state equations.

    L*diL/dt = V1*s1 - v2 and C*dv2/dt = iL - v2/R_L with both derivatives
    replaced by backward differences at dt = T/J:

        L*(iL[n] - iL[n-1])/dt = V1*s1[n] - v2[n]
        C*(v2[n] - v2[n-1])/dt = iL[n] - v2[n]/R_L

    s1[n] is the switching level at n*dt from switch_level.  Each step solves
    this implicit 2x2 system for (iL[n], v2[n]); the error of the recursion
    against the continuous trajectory is first order in dt.  With clip (a
    diode that blocks reverse current), a negative iL[n] is set to 0 and v2[n]
    solved from the capacitor equation alone.  Returns (v2, iL) of length K*J;
    sample 0 carries the initial conditions.
    """
    dt = pat.T / J
    N = pat.K * J
    lhs_inv = np.linalg.inv(
        np.array(
            [
                [p.L / dt, 1.0],
                [-1.0, p.C / dt + 1.0 / p.R_L],
            ]
        )
    )
    s1 = switch_level(pat, J, N)
    x = np.array([ic.v2_0 / p.R_L + p.C * ic.dv2_0, ic.v2_0])
    out = np.empty((N, 2))
    out[0] = x
    for n in range(1, N):
        rhs = np.array([p.L / dt * x[0] + p.V1 * s1[n], p.C / dt * x[1]])
        x = lhs_inv @ rhs
        if clip and x[0] < 0.0:
            x = np.array([0.0, p.C / dt * out[n - 1, 1] / (p.C / dt + 1.0 / p.R_L)])
        out[n] = x
    return out[:, 1], out[:, 0]


def euler_buck(p, pat, ic, J: int, semi_implicit: bool, clip: bool = False):
    """Explicit Euler recursions of the two base circuit state equations.

    L*diL/dt = V1*s1 - v2 and C*dv2/dt = iL - v2/R_L at dt = T/J, with s1[n]
    the switching level at n*dt from switch_level.  Forward Euler evaluates
    both right-hand sides at n-1:

        iL[n] = iL[n-1] + dt/L*(V1*s1[n-1] - v2[n-1])
        v2[n] = v2[n-1] + dt/C*(iL[n-1] - v2[n-1]/R_L)

    The semi-implicit form takes the switching level at n and feeds the
    fresh current into the voltage update:

        iL[n] = iL[n-1] + dt/L*(V1*s1[n] - v2[n-1])
        v2[n] = v2[n-1] + dt/C*(iL[n] - v2[n-1]/R_L)

    With clip (a diode that blocks reverse current), a negative iL[n] is set
    to 0 as soon as it is computed.  Returns (v2, iL) of length K*J; sample 0
    carries the initial conditions.
    """
    dt = pat.T / J
    N = pat.K * J
    s1 = switch_level(pat, J, N)
    iL_out = np.empty(N)
    v2_out = np.empty(N)
    iL_out[0] = ic.v2_0 / p.R_L + p.C * ic.dv2_0
    v2_out[0] = ic.v2_0
    for n in range(1, N):
        iL, v2 = iL_out[n - 1], v2_out[n - 1]
        drive = s1[n] if semi_implicit else s1[n - 1]
        iL_new = iL + dt / p.L * (p.V1 * drive - v2)
        if clip and iL_new < 0.0:
            iL_new = 0.0
        iL_out[n] = iL_new
        v2_out[n] = v2 + dt / p.C * ((iL_new if semi_implicit else iL) - v2 / p.R_L)
    return v2_out, iL_out


# ---------------------------------------------------------------------------
# capacitor-parasitic topology: states (iL, iC, vC), esl_C > 0 required


def parasitic_state_space(p, q):
    if q.esl_C <= 0:
        raise ValueError("state-space form needs esl_C > 0")
    if q.r_ds_on_1 != q.r_ds_on_2:
        raise ValueError("oracle assumes equal switch resistances")
    r = q.r_ds_on_1
    L, C, RL = p.L, p.C, p.R_L
    rc, lc = q.esr_C, q.esl_C
    A = np.array(
        [
            [-(r + RL) / L, RL / L, 0.0],
            [RL / lc, -(RL + rc) / lc, -1.0 / lc],
            [0.0, 1.0 / C, 0.0],
        ]
    )
    B = np.array([1.0 / L, 0.0, 0.0])
    c_row = np.array([RL, -RL, 0.0])
    return A, B, c_row


def parasitic_derivative_ics(p, q, x0, v1_0=0.0, dv1_0=0.0):
    """Map a physical state (iL, iC, vC) to (v2, dv2, d2v2) at t = 0."""
    r = q.r_ds_on_1
    L, C, RL = p.L, p.C, p.R_L
    rc, lc = q.esr_C, q.esl_C
    iL, iC, vC = x0
    v2 = RL * (iL - iC)
    diL = (v1_0 - r * iL - v2) / L
    diC = (v2 - rc * iC - vC) / lc
    dv2 = RL * (diL - diC)
    dvC = iC / C
    d2iL = (dv1_0 - r * diL - dv2) / L
    d2iC = (dv2 - rc * diC - dvC) / lc
    d2v2 = RL * (d2iL - d2iC)
    return {"v2_0": v2, "dv2_0": dv2, "d2v2_0": d2v2, "v1_0": v1_0, "dv1_0": dv1_0}


def rk4_parasitic(p, q, pat, x0, J: int):
    A, B, c_row = parasitic_state_space(p, q)
    dt = pat.T / J
    t_grid = np.arange(pat.K * J) * dt
    h = min(dt, 0.1 / np.abs(np.linalg.eigvals(A)).max())
    states = integrate_lti(A, B, np.asarray(x0, float), input_levels(pat, p.V1), t_grid, h)
    return states @ c_row


# ---------------------------------------------------------------------------
# general impedance load: states depend on which elements are present


def general_state_space(p, gl):
    L, C = p.L, p.C
    RL, LL, CL = gl.R_L, gl.L_L, gl.C_L
    if LL > 0 and math.isfinite(CL):
        A = np.array(
            [
                [0.0, -1.0 / L, 0.0, 0.0],
                [1.0 / C, 0.0, -1.0 / C, 0.0],
                [0.0, 1.0 / LL, -RL / LL, -1.0 / LL],
                [0.0, 0.0, 1.0 / CL, 0.0],
            ]
        )
        c_row = np.array([0.0, 1.0, 0.0, 0.0])
    elif LL > 0:
        A = np.array(
            [
                [0.0, -1.0 / L, 0.0],
                [1.0 / C, 0.0, -1.0 / C],
                [0.0, 1.0 / LL, -RL / LL],
            ]
        )
        c_row = np.array([0.0, 1.0, 0.0])
    elif math.isfinite(CL):
        # load current (v2 - vcl)/RL is algebraic
        A = np.array(
            [
                [0.0, -1.0 / L, 0.0],
                [1.0 / C, -1.0 / (C * RL), 1.0 / (C * RL)],
                [0.0, 1.0 / (CL * RL), -1.0 / (CL * RL)],
            ]
        )
        c_row = np.array([0.0, 1.0, 0.0])
    else:
        A = np.array(
            [
                [0.0, -1.0 / L],
                [1.0 / C, -1.0 / (C * RL)],
            ]
        )
        c_row = np.array([0.0, 1.0])
    B = np.zeros(A.shape[0])
    B[0] = 1.0 / L
    return A, B, c_row


def general_derivative_ics(p, gl, x0, v1_0=0.0, dv1_0=0.0):
    """Map a physical state to the derivative-style initial values.

    Only the full series R-L-C load has Q of degree 2, so only it takes dv1_0;
    the cubic loads take v1_0 alone, and the Ohmic load neither.
    """
    L, C = p.L, p.C
    RL, LL, CL = gl.R_L, gl.L_L, gl.C_L
    x0 = list(x0)
    if LL > 0 and math.isfinite(CL):
        iL, v2, il, vcl = x0
        dv2 = (iL - il) / C
        diL = (v1_0 - v2) / L
        dil = (v2 - RL * il - vcl) / LL
        dvcl = il / CL
        d2v2 = (diL - dil) / C
        d2iL = (dv1_0 - dv2) / L
        d2il = (dv2 - RL * dil - dvcl) / LL
        d3v2 = (d2iL - d2il) / C
        return {
            "v2_0": v2,
            "dv2_0": dv2,
            "d2v2_0": d2v2,
            "d3v2_0": d3v2,
            "v1_0": v1_0,
            "dv1_0": dv1_0,
        }
    if LL > 0:
        iL, v2, il = x0
        dv2 = (iL - il) / C
        diL = (v1_0 - v2) / L
        dil = (v2 - RL * il) / LL
        d2v2 = (diL - dil) / C
        return {"v2_0": v2, "dv2_0": dv2, "d2v2_0": d2v2, "v1_0": v1_0}
    if math.isfinite(CL):
        iL, v2, vcl = x0
        il = (v2 - vcl) / RL
        dv2 = (iL - il) / C
        diL = (v1_0 - v2) / L
        dvcl = il / CL
        dil = (dv2 - dvcl) / RL
        d2v2 = (diL - dil) / C
        return {"v2_0": v2, "dv2_0": dv2, "d2v2_0": d2v2, "v1_0": v1_0}
    iL, v2 = x0
    dv2 = (iL - v2 / RL) / C
    return {"v2_0": v2, "dv2_0": dv2}


def rk4_general(p, gl, pat, x0, J: int, step: float = 0.1):
    """RK4 with substeps of at most step / |fastest eigenvalue|."""
    A, B, c_row = general_state_space(p, gl)
    dt = pat.T / J
    t_grid = np.arange(pat.K * J) * dt
    h = min(dt, step / np.abs(np.linalg.eigvals(A)).max())
    states = integrate_lti(A, B, np.asarray(x0, float), input_levels(pat, p.V1), t_grid, h)
    return states @ c_row
