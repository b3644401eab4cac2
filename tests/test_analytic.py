"""Tests for the continuous-time output-voltage model."""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import edge_step_sum, lc_responses, rk4_buck
from tpcsim.analytic import (
    Waveform,
    convolve_end_to_end,
    data_component,
    output_voltage,
    pulse_shape_gtx,
    sample_output,
    transient_component,
    unit_step_component,
)
from tpcsim.circuit import (
    CircuitParams,
    Dynamics,
    InitialConditions,
    _lc_model,
    derive_dynamics,
    impulse_response,
)
from tpcsim.errors import RepeatedPolesError, ResolutionTooCoarseError
from tpcsim.laplace import GeneralLoad, ParasiticParams, build_general_load_model, build_parasitic_model
from tpcsim.modal import expand_strictly_proper, ic_numerator, step_expansion
from tpcsim.modulation import (
    ModulationConfig,
    Scheme,
    alternating_bits,
    encode,
    sample_switching,
)

FAST = CircuitParams(L=10e-6, C=1e-6, R_L=10.0)
SLOW = CircuitParams(L=100e-6, C=0.1e-6, R_L=20.0)
T = 1e-6


def fig_pattern(p_depth, K, delta=0.75):
    cfg = ModulationConfig(Scheme.VPWM, T, delta, p_depth)
    return encode(alternating_bits(K), cfg)


def test_transient_zero_ics_vanishes():
    d = derive_dynamics(FAST)
    t = np.linspace(-2e-6, 5e-5, 500)
    assert np.all(transient_component(d, InitialConditions(0.0, 0.0), t) == 0.0)


def test_transient_at_origin_and_causality():
    d = derive_dynamics(FAST)
    ic = InitialConditions(0.6, 1e4)
    assert transient_component(d, ic, 0.0) == 0.6
    assert transient_component(d, ic, -1e-9) == 0.0


@settings(max_examples=300)
@given(
    log_L=st.floats(-7.0, -3.0),
    log_C=st.floats(-9.0, -4.0),
    log_R=st.floats(-1.0, 3.0),
    v2_0=st.floats(-2.0, 2.0, allow_subnormal=False),
    dv2_0=st.floats(-1e6, 1e6, allow_subnormal=False),
)
def test_responses_at_origin_on_random_circuits(log_L, log_C, log_R, v2_0, dv2_0):
    """At t = 0 the step response is 0 and the transient v2_0, each up to
    4 ulp of its residues' size; the impulse response is exactly 0."""
    p = CircuitParams(L=10.0**log_L, C=10.0**log_C, R_L=10.0**log_R)
    assume(p.R_L > p.damping_boundary())  # a real pair's c - r rounds, so h(0) is not exactly 0
    d = derive_dynamics(p)
    eps = np.finfo(float).eps
    step = step_expansion(d.model, d.poles, 1.0).residues
    assert abs(unit_step_component(d, 0.0)) <= 4 * eps * np.abs(step).sum()
    ics = {"v2_0": v2_0, "dv2_0": dv2_0}
    ic_res = expand_strictly_proper(ic_numerator(d.model, ics), d.model.den, d.poles).residues
    assert abs(transient_component(d, ics, 0.0) - v2_0) <= 4 * eps * np.abs(ic_res).sum()
    assert impulse_response(d, 0.0) == 0.0


# R_L over the damping boundary: 1 -/+ 10^u for u in [-14, -2], and heavy loads
NEAR_BOUNDARY = st.builds(
    lambda sign, u: 1.0 + sign * 10.0**u, st.sampled_from([-1.0, 1.0]), st.floats(-14.0, -2.0)
)
HEAVY_LOAD = st.floats(-4.0, math.log10(0.5)).map(lambda u: 10.0**u)
# the base LC filter as each model of it: its own, and the circuit extensions'
# degree-2 reductions, whose coefficients round differently
BASE_FILTER_MODELS = {
    "lc_model": _lc_model,
    "ohmic_general_load": lambda p: build_general_load_model(p, GeneralLoad(R_L=p.R_L)),
    "zero_parasitics": lambda p: build_parasitic_model(p, ParasiticParams()),
}
# 0 or at least 1e-100 in magnitude, so no ic*den product underflows
IC_VALUE = st.floats(-1.0, 1.0).map(lambda x: x if abs(x) >= 1e-100 else 0.0)


@settings(max_examples=300)
@given(
    model=st.sampled_from(sorted(BASE_FILTER_MODELS)),
    slow=st.booleans(),
    ratio=NEAR_BOUNDARY | st.just(1.0) | HEAVY_LOAD,
    v2_0=IC_VALUE,
    dv2_0_over_w0=IC_VALUE,
)
def test_base_filter_in_every_damping_regime(model, slow, ratio, v2_0, dv2_0_over_w0):
    """Unit step, transient and impulse response of each model of the base
    filter, on FAST's and SLOW's L and C at R_L = ratio * damping boundary,
    against the 50-digit closed form in (c, d2) of the model's normalized
    coefficients den[0]/den[2] and den[1]/den[2].  Tolerances, fixed in
    advance, on each response's scale s (its terms' summed |coefficients|):
    2e-15*s for a complex pair, 10*eps*(1 + |fast|/(slow - fast))*s for real
    poles.  RepeatedPolesError exactly when the exact real pair is closer than
    1e-6*|fast|; within 1e-6 of that threshold, or within 4 ulp of c^2 of
    d2 = 0, rounding may decide either way."""
    base = SLOW if slow else FAST
    p = CircuitParams(L=base.L, C=base.C, R_L=base.damping_boundary() * ratio)
    r = BASE_FILTER_MODELS[model](p)
    den = r.den / r.den[2]
    eps = np.finfo(float).eps
    with mpmath.workdps(50):
        c = -mpmath.mpf(float(den[1])) / 2
        d2 = c * c - mpmath.mpf(float(den[0]))
        fast, slow_pole = c - mpmath.sqrt(abs(d2)), c + mpmath.sqrt(abs(d2))  # poles if d2 > 0
        gap = float((slow_pole - fast) / abs(fast)) / 1e-6
        real, pair = d2 > 0, d2 < -4 * eps * c * c
        tol_real = 10 * eps * float(1 + abs(fast) / (slow_pole - fast)) if real else 0.0
    must_raise = real and gap < 1.0 - 1e-6
    may_raise = not pair and not (real and gap > 1.0 + 1e-6)
    try:
        d = Dynamics.of(r)
    except RepeatedPolesError:
        assert may_raise
        return
    assert not must_raise

    w0 = math.sqrt(den[0])
    decay = -float(slow_pole) if real else -float(c)
    t = np.concatenate([[0.0], np.geomspace(1e-3 / float(max(abs(fast), w0)), 40.0 / decay, 40)])
    ic = InitialConditions(v2_0, dv2_0_over_w0 * w0)
    want = lc_responses(den, ic.v2_0, ic.dv2_0, t)
    got = {
        "step": unit_step_component(d, t),
        "transient": transient_component(d, ic, t),
        "impulse": impulse_response(d, t),
    }
    tol = 2e-15 if d.b > 0.0 else tol_real
    for name, (values, scale) in want.items():
        assert np.abs(got[name] - values).max() <= tol * scale, name


def test_transient_envelope_bound():
    d = derive_dynamics(FAST)
    rng = np.random.default_rng(5)
    t = np.linspace(0.0, 20.0 / d.a, 2000)
    for _ in range(25):
        ic = InitialConditions(rng.uniform(-1, 1), rng.uniform(-1e6, 1e6))
        m = abs(ic.v2_0) + abs((d.a * ic.v2_0 + ic.dv2_0) / d.b)
        bound = np.exp(-d.a * t) * m
        assert np.all(np.abs(transient_component(d, ic, t)) <= bound * (1 + 1e-12))


def test_unit_step_limits():
    d = derive_dynamics(FAST)
    assert unit_step_component(d, 0.0) == 0.0
    assert unit_step_component(d, -1e-9) == 0.0
    assert unit_step_component(d, 20.0 / d.a) == pytest.approx(1.0, abs=1e-6)


def test_unit_step_derivative_is_impulse_response():
    # L*C*(a^2+b^2) = 1 makes du/dt equal h_i exactly
    d = derive_dynamics(FAST)
    h = 1e-4 / d.b
    for t in np.linspace(0.5e-6, 3e-5, 40):
        fd = (unit_step_component(d, t + h) - unit_step_component(d, t - h)) / (2 * h)
        assert fd == pytest.approx(impulse_response(d, t), rel=1e-6, abs=1e-2)


def test_gtx_support_and_decay():
    d = derive_dynamics(FAST)
    Tp = 0.75 * T
    assert pulse_shape_gtx(d, Tp, -Tp / 2 - 1e-12) == 0.0
    assert abs(pulse_shape_gtx(d, Tp, 35.0 / d.a)) < 1e-12


def test_gtx_continuity_at_switch_points():
    # Richardson-extrapolated two-sided limits cancel the smooth slope term
    d = derive_dynamics(FAST)
    Tp = 0.75 * T
    for x in (-Tp / 2, Tp / 2):
        eps = 1e-11

        def jump(e):
            return pulse_shape_gtx(d, Tp, x + e) - pulse_shape_gtx(d, Tp, x - e)

        extrapolated = 2.0 * jump(eps) - jump(2.0 * eps)
        assert abs(extrapolated) < 1e-10


def test_gtx_rings_at_the_damped_frequency():
    d = derive_dynamics(FAST)
    Tp = 0.75 * T
    t = np.linspace(0.0, 20.0 / d.a, 400000)
    g = pulse_shape_gtx(d, Tp, t)
    assert g.max() > 0
    peaks = np.where((g[1:-1] > g[:-2]) & (g[1:-1] >= g[2:]))[0] + 1
    # ignore flat-tail numerical wiggles: keep prominent early peaks
    peaks = peaks[np.abs(g[peaks]) > 1e-3 * np.abs(g).max()]
    periods = np.diff(t[peaks])
    expected = 2 * np.pi / d.b
    assert np.all(np.abs(periods - expected) < 0.01 * expected)


def test_data_component_causal_and_transient_free():
    d = derive_dynamics(FAST)
    pat = fig_pattern(0.2, 5)
    t_before = np.linspace(-1e-6, pat.t_start[0] * 0.999, 50)
    assert np.all(data_component(d, pat, 1.0, t_before) == 0.0)
    # single finite pulse decays back to zero
    pat1 = fig_pattern(0.2, 1)
    assert abs(data_component(d, pat1, 1.0, 40.0 / d.a)) < 1e-11


def test_data_component_settled_average_is_duty_times_v1():
    d = derive_dynamics(SLOW)
    J = 256
    # unmodulated: one period is one ripple cycle
    pat = fig_pattern(0.0, 70)
    t = 65 * T + np.arange(J) * (T / J)
    avg = np.mean(data_component(d, pat, 1.0, t))
    assert avg == pytest.approx(0.75, abs=1e-4)
    # alternating data: the ripple repeats every two symbols
    pat = fig_pattern(0.025, 70)
    t2 = 64 * T + np.arange(2 * J) * (T / J)
    avg2 = np.mean(data_component(d, pat, 1.0, t2))
    assert avg2 == pytest.approx(0.75, abs=1e-4)


def test_data_component_matches_edge_step_sum():
    rng = np.random.default_rng(17)
    for p in (FAST, SLOW):
        d = derive_dynamics(p)
        for _ in range(10):
            bits = rng.integers(0, 2, int(rng.integers(1, 30)))
            delta = rng.uniform(0.3, 0.7)
            depth = rng.uniform(0.0, min(delta, 1 - delta) * 0.9)
            pat = encode(bits, ModulationConfig(Scheme.VPWM, T, delta, depth))
            t = np.sort(rng.uniform(-2 * T, (len(bits) + 20) * T, 400))
            a = edge_step_sum(p, pat, 1.0, t)
            b = data_component(d, pat, 1.0, t)
            assert np.allclose(a, b, rtol=1e-11, atol=1e-12)


@settings(max_examples=40)
@given(
    slow=st.booleans(),
    long=st.booleans(),
    K=st.integers(1, 40),
    scheme=st.sampled_from(["vpwm", "vppm_abutting"]),
    delta=st.sampled_from([0.25, 0.5, 0.75]),
    J=st.sampled_from([40, 80, 200]),
    seed=st.integers(0, 2**31 - 1),
)
def test_data_component_property_against_edge_step_sum(slow, long, K, scheme, delta, J, seed):
    """Long SLOW patterns past a*K*T = 600, abutting VPPM pulses, edges on grid
    points and on the evaluation times, unsorted and negative t."""
    p = SLOW if slow or long else FAST
    d = derive_dynamics(p)
    if long:
        K = int(np.ceil(600.0 / (d.a * T))) + 25 * K
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, K)
    if scheme == "vpwm":
        depth = 0.2 * min(delta, 1 - delta)
        pat = encode(bits, ModulationConfig(Scheme.VPWM, T, delta, depth))
    else:
        # the largest shift puts a 1-pulse's end on the next symbol's 0-pulse start
        pat = encode(bits, ModulationConfig(Scheme.VPPM, T, 0.5, 0.25 * T))
    edges, _ = pat.edges()
    grid = rng.choice(K * J, min(K * J, 200), replace=False) * (T / J)
    before = rng.uniform(-3 * T, 0.0, 10)
    t = np.concatenate([grid, rng.choice(edges, 40), before, [0.0, K * T + 5 * T]])
    rng.shuffle(t)
    got = data_component(d, pat, p.V1, t)
    want = edge_step_sum(p, pat, p.V1, t)
    assert np.abs(got - want).max() <= p.V1 * (1e-12 + 1e-15 * K)
    assert np.all(got[t < 0.0] == 0.0)


@settings(max_examples=30)
@given(
    slow=st.booleans(),
    log_excess=st.floats(-5.0, -2.0),
    K=st.integers(1, 20),
    seed=st.integers(0, 2**31 - 1),
)
def test_near_repeated_poles_property_against_oracles(slow, log_excess, K, seed):
    """R_L just above the damping boundary, by a factor 1 + 1e-5 .. 1 + 1e-2:
    b -> 0 and the residues grow like a/b.  Tolerances, fixed in advance:
    data component vs the per-edge step sum, rounding grown by the residues,
    V1*(1e-12 + 1e-15*K)*(1 + a/b); transient vs RK4 at 200 steps per symbol,
    1e-9 of the initial-state scale; sampled-input convolution vs the step sum,
    its rectangle rule's half-sample lag, at most V1*w0*dt."""
    base = SLOW if slow else FAST
    p = CircuitParams(L=base.L, C=base.C, R_L=base.damping_boundary() * (1.0 + 10.0**log_excess))
    d = derive_dynamics(p)
    w0 = 1.0 / np.sqrt(p.L * p.C)
    rng = np.random.default_rng(seed)
    # duty 0.4 / 0.6 around T/2 puts every edge on the J = 200 grid
    pat = encode(rng.integers(0, 2, K), ModulationConfig(Scheme.VPWM, T, 0.5, 0.1))
    J = 200
    dt = T / J
    t = np.arange(K * J) * dt

    want = edge_step_sum(p, pat, p.V1, t)
    got = data_component(d, pat, p.V1, t)
    assert np.abs(got - want).max() <= p.V1 * (1e-12 + 1e-15 * K) * (1.0 + d.a / d.b)

    ic = InitialConditions(rng.uniform(-1.0, 1.0), w0 * rng.uniform(-1.0, 1.0))
    with_ic, _ = rk4_buck(p, pat, ic, J)
    zero_ic, _ = rk4_buck(p, pat, InitialConditions(0.0, 0.0), J)
    err = np.abs(transient_component(d, ic, t) - (with_ic - zero_ic)).max()
    assert err <= 1e-9 * (abs(ic.v2_0) + abs(ic.dv2_0) / w0)

    v1 = Waveform(dt=dt, t0=0.0, samples=p.V1 * sample_switching(pat, dt, K * J))
    assert np.abs(convolve_end_to_end(v1, d).samples - want).max() <= p.V1 * w0 * dt


def test_output_voltage_initial_value_exact():
    d = derive_dynamics(SLOW)
    pat = fig_pattern(0.025, 8)
    ic = InitialConditions(0.75, 0.0)
    assert output_voltage(d, ic, pat, 1.0, 0.0) == 0.75


def test_superposition_linearity():
    d = derive_dynamics(FAST)
    cfg = ModulationConfig(Scheme.VPWM, T, 0.75, 0.2)
    b1, b2 = [1, 0, 1], [0, 0, 1, 1]
    pat1 = encode(b1, cfg)
    pat2 = encode(b2, cfg)
    pat12 = encode(b1 + b2, cfg)
    t = np.linspace(0.0, 10 * T, 3000)
    combined = data_component(d, pat12, 1.0, t)
    split = data_component(d, pat1, 1.0, t) + data_component(d, pat2, 1.0, t - len(b1) * T)
    scale = np.abs(combined).max()
    assert np.abs(combined - split).max() < 1e-12 * scale


def test_matches_independent_rk4_oracle():
    p = FAST
    d = derive_dynamics(p)
    pat = fig_pattern(0.2, 8)
    ic = InitialConditions(0.75, 0.0)
    J = 1000
    w = sample_output(d, ic, pat, p.V1, T / J, pat.K * J)
    v2_ref, _ = rk4_buck(p, pat, ic, J)
    err = np.abs(w.samples - v2_ref).max() / np.abs(v2_ref).max()
    assert err < 1e-4


def test_sample_output_trivia():
    d = derive_dynamics(SLOW)
    pat = fig_pattern(0.025, 4)
    ic = InitialConditions(0.75, 0.0)
    assert len(sample_output(d, ic, pat, 1.0, 1e-8, 0)) == 0
    w = sample_output(d, ic, pat, 1.0, 1e-8, 16)
    assert w.samples[0] == 0.75
    # pure point evaluation: a twice-finer grid decimates to the exact samples
    fine = sample_output(d, ic, pat, 1.0, 0.5e-8, 32)
    assert np.array_equal(fine.samples[::2], w.samples)


def test_convolution_matches_closed_form():
    p = FAST
    d = derive_dynamics(p)
    pat = fig_pattern(0.2, 8)
    J = 1000
    N = pat.K * J
    dt = T / J
    v1 = Waveform(dt=dt, t0=0.0, samples=p.V1 * sample_switching(pat, dt, N))
    out = convolve_end_to_end(v1, d)
    ref = data_component(d, pat, p.V1, np.arange(N) * dt)
    assert np.abs(out.samples - ref).max() / np.abs(ref).max() < 1e-3


def test_convolution_zero_input():
    p = FAST
    d = derive_dynamics(p)
    v1 = Waveform(dt=1e-8, t0=0.0, samples=np.zeros(512))
    assert np.all(convolve_end_to_end(v1, d).samples == 0.0)


def test_convolution_resolution_guard():
    p = FAST
    d = derive_dynamics(p)
    v1 = Waveform(dt=2e-6, t0=0.0, samples=np.zeros(16))
    with pytest.raises(ResolutionTooCoarseError):
        convolve_end_to_end(v1, d)


def test_convolution_resolution_guard_without_ringing():
    # an overdamped load with a capacitor ESL: three real poles, b = 0, the
    # fastest at -1.0e8 1/s, so the guard resolves that pole instead
    p = CircuitParams(100e-6, 0.1e-6, 1.0)
    d = Dynamics.of(build_parasitic_model(p, ParasiticParams(esr_C=0.1, esl_C=10e-9)))
    assert d.b == 0.0
    with pytest.raises(ResolutionTooCoarseError, match="pole"):
        convolve_end_to_end(Waveform(dt=1e-8, t0=0.0, samples=np.ones(100)), d)
    dt = 1e-9
    t = np.arange(100) * dt
    out = convolve_end_to_end(Waveform(dt=dt, t0=0.0, samples=np.ones(100)), d).samples
    # the rectangle rule misses the step response by at most dt*max|h|
    step = unit_step_component(d, t)
    assert np.abs(out - step).max() <= dt * np.abs(impulse_response(d, t)).max()


def test_convolution_trapezoid_converges_to_rectangular():
    p = FAST
    d = derive_dynamics(p)
    pat = fig_pattern(0.2, 6)
    J = 2000
    N = pat.K * J
    dt = T / J
    t = np.arange(N) * dt
    rect = p.V1 * sample_switching(pat, dt, N)
    out_rect = convolve_end_to_end(Waveform(dt=dt, t0=0.0, samples=rect), d)

    def trapezoid_input(rise):
        acc = np.zeros(N)
        for k in range(pat.K):
            up = np.clip((t - (k * T + pat.t_start[k])) / rise, 0.0, 1.0)
            down = np.clip((t - (k * T + pat.t_end[k])) / rise, 0.0, 1.0)
            acc += up - down
        return p.V1 * acc

    gaps = []
    for rise in (T / 20, T / 40, T / 80):
        out_tz = convolve_end_to_end(Waveform(dt=dt, t0=0.0, samples=trapezoid_input(rise)), d)
        gaps.append(np.abs(out_tz.samples - out_rect.samples).max())
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.02 * np.abs(out_rect.samples).max()


def test_import_loads_no_scipy():
    import tpcsim

    code = "import sys, tpcsim; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(Path(tpcsim.__file__).resolve().parents[1])}
    cmd = [sys.executable, "-c", code]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, env=env, timeout=120)
    assert out.stdout.strip() == "[]"
