"""Tests for the circuit parameter / derived-quantity layer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from tpcsim.circuit import (
    CircuitParams,
    InitialConditions,
    cutoff_frequency,
    derive_dynamics,
    frequency_response,
    impulse_response,
    initial_inductor_current,
)
from tpcsim.errors import RepeatedPolesError

FAST = CircuitParams(L=10e-6, C=1e-6, R_L=10.0)
SLOW = CircuitParams(L=100e-6, C=0.1e-6, R_L=20.0)


def test_derive_dynamics_reference_values():
    # a = 1/(2CR_L), b = sqrt(1/LC - a^2), evaluated in extended precision
    d = derive_dynamics(FAST)
    assert d.a == pytest.approx(50000.0, rel=1e-12)
    assert d.b == pytest.approx(312249.8999199199, rel=1e-12)
    s02, s01 = d.poles
    assert s01 == pytest.approx(complex(-d.a, d.b))
    assert s02 == np.conj(s01)


@settings(max_examples=200)
@given(
    L=st.floats(1e-8, 1e-2),
    C=st.floats(1e-9, 1e-3),
    over_boundary=st.floats(1.001, 1e3),
)
def test_derive_dynamics_is_the_closed_form_bitwise(L, C, over_boundary):
    """a = 1/(2*C*R_L), b = sqrt(1/(L*C) - a^2) and the poles -a +/- jb, to the bit."""
    p = CircuitParams(L=L, C=C, R_L=over_boundary * 0.5 * math.sqrt(L / C))
    d = derive_dynamics(p)
    a = 1.0 / (2.0 * p.C * p.R_L)
    b = math.sqrt(1.0 / (p.L * p.C) - a * a)
    assert (d.a.hex(), d.b.hex()) == (a.hex(), b.hex())
    bits = [(z.real.hex(), z.imag.hex()) for z in d.poles.tolist()]
    assert bits == [((-a).hex(), (-b).hex()), ((-a).hex(), b.hex())]


def test_derive_dynamics_rejects_only_the_critical_band():
    """At and below the damping boundary the poles are real, fast*slow = w0^2;
    RepeatedPolesError only where they are closer than 1e-6*|fast|, for R_L
    within about 1.3e-13 of the boundary."""
    L, C = 10e-6, 1e-6
    boundary = 0.5 * math.sqrt(L / C)
    for ratio in (1.0, 1.0 - 2e-14, 1.0 - 1.2e-13):
        with pytest.raises(RepeatedPolesError):
            derive_dynamics(CircuitParams(L=L, C=C, R_L=boundary * ratio))
    for ratio in (1.0 - 1.4e-13, 0.5, 1e-4):
        fast, slow = derive_dynamics(CircuitParams(L=L, C=C, R_L=boundary * ratio)).poles
        assert fast.imag == slow.imag == 0.0 and fast.real < slow.real < 0.0
        assert fast.real * slow.real == pytest.approx(1.0 / (L * C), rel=1e-15)


def test_slow_circuit_is_underdamped():
    assert SLOW.damping_boundary() == pytest.approx(15.8113883, rel=1e-6)
    d = derive_dynamics(SLOW)
    assert d.b > 0


def test_param_validation():
    with pytest.raises(ValueError):
        CircuitParams(L=-1e-6, C=1e-6, R_L=10.0)
    with pytest.raises(ValueError):
        CircuitParams(L=1e-6, C=0.0, R_L=10.0)


def test_frequency_response_dc_gain():
    assert frequency_response(FAST, 0.0) == 1.0 + 0.0j


def test_frequency_response_two_decades_above_cutoff():
    # asymptotic rolloff: two decades apart means close to -40 dB per decade
    for p in (FAST, SLOW):
        f3 = cutoff_frequency(p)
        ratio_db = 20.0 * np.log10(
            abs(frequency_response(p, 100.0 * f3)) / abs(frequency_response(p, 10.0 * f3))
        )
        assert ratio_db == pytest.approx(-40.0, abs=0.2)


def test_magnitude_at_cutoff_approaches_half_power_for_light_damping():
    # the cutoff definition is exact only in the undamped limit R_L -> inf
    p = CircuitParams(L=10e-6, C=1e-6, R_L=1e6)
    mag = abs(frequency_response(p, cutoff_frequency(p)))
    assert mag == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-3)


def test_frequency_response_monotone_after_peak():
    for p in (FAST, SLOW):
        f = np.logspace(2, 8, 4000)
        mag = np.abs(frequency_response(p, f))
        peak = int(np.argmax(mag))
        tail = mag[peak:]
        assert np.all(np.diff(tail) <= 1e-12 * tail[:-1])


def test_cutoff_frequency_reference_value():
    assert cutoff_frequency(FAST) == pytest.approx(78200.21990138948, rel=1e-12)
    # depends only on the product L*C
    assert cutoff_frequency(SLOW) == pytest.approx(cutoff_frequency(FAST), rel=1e-12)


def test_cutoff_frequency_scaling():
    # L*C product scaled by 100 halves the cutoff twice (square-root law)
    p100 = CircuitParams(L=100 * FAST.L, C=FAST.C, R_L=1e6)
    assert cutoff_frequency(p100) == pytest.approx(cutoff_frequency(FAST) / 10.0, rel=1e-12)


def test_impulse_response_causality_and_origin():
    d = derive_dynamics(FAST)
    assert impulse_response(d, -1e-9) == 0.0
    assert impulse_response(d, 0.0) == 0.0
    t = np.array([-1e-6, 0.0, 1e-7])
    h = impulse_response(d, t)
    assert h[0] == 0.0 and h[1] == 0.0 and h[2] > 0.0


def test_impulse_response_unit_area():
    # integral over [0, inf) equals the DC gain H(0) = 1
    for p in (FAST, SLOW):
        d = derive_dynamics(p)
        t = np.linspace(0.0, 25.0 / d.a, 200001)
        area = simpson(impulse_response(d, t), x=t)
        assert area == pytest.approx(1.0, abs=1e-6)


def test_step_response_settles_to_dc_gain():
    # cumulative integral of h converges to 1 within 1e-4 at t = 20/a
    d = derive_dynamics(FAST)
    t_end = 20.0 / d.a
    t = np.linspace(0.0, t_end, 400001)
    area = np.trapezoid(impulse_response(d, t), t)
    assert abs(area - 1.0) < 1e-4


def test_pole_identity_randomized():
    rng = np.random.default_rng(1)
    for _ in range(200):
        L = 10.0 ** rng.uniform(-6, -3)
        C = 10.0 ** rng.uniform(-8, -5)
        boundary = 0.5 * math.sqrt(L / C)
        p = CircuitParams(L=L, C=C, R_L=boundary * rng.uniform(1.05, 50.0))
        d = derive_dynamics(p)
        assert d.a * d.a + d.b * d.b == pytest.approx(1.0 / (L * C), rel=1e-12)
        assert d.a > 0 and d.b > 0


def test_frequency_response_matches_impulse_response_dft():
    # windowed to 30/a; compare on bins where the response is well resolved
    for p in (FAST, SLOW):
        d = derive_dynamics(p)
        f3 = cutoff_frequency(p)
        dt = 1.0 / (1000.0 * f3)
        n = int(np.ceil(30.0 / d.a / dt))
        h = impulse_response(d, np.arange(n) * dt)
        spec = np.fft.rfft(h) * dt
        freqs = np.fft.rfftfreq(n, dt)
        sel = (freqs > 0) & (freqs <= 5.0 * f3)
        ref = frequency_response(p, freqs[sel])
        rel = np.abs(spec[sel] - ref) / np.abs(ref)
        assert rel.max() < 1e-3


def test_initial_inductor_current():
    assert initial_inductor_current(FAST, InitialConditions(0.0, 0.0)) == 0.0
    p = CircuitParams(L=10e-6, C=1e-6, R_L=10.0, V1=10.0)
    assert initial_inductor_current(p, InitialConditions(7.5, 0.0)) == pytest.approx(0.75)
    assert initial_inductor_current(FAST, InitialConditions(0.0, 1e6)) == pytest.approx(1.0)
