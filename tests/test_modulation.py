"""Tests for the modulation schemes and switching-signal sampling."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import switch_level
from tpcsim.errors import DepthOutOfRangeError
from tpcsim.modulation import (
    ModulationConfig,
    Scheme,
    SwitchingPattern,
    alternating_bits,
    encode,
    sample_switching,
)


def vpwm(T=1e-6, delta=0.75, depth=0.2):
    return ModulationConfig(scheme=Scheme.VPWM, T=T, delta=delta, depth=depth)


def vppm(T=1e-6, delta=0.5, depth=0.1e-6):
    return ModulationConfig(scheme=Scheme.VPPM, T=T, delta=delta, depth=depth)


def test_vpwm_duty_mapping():
    pat = encode([0, 1], vpwm())
    duties = pat.widths / pat.T
    assert duties[0] == pytest.approx(0.55, rel=1e-12)
    assert duties[1] == pytest.approx(0.95, rel=1e-12)
    assert np.allclose(pat.t_center, pat.T / 2)


def test_vpwm_edge_times_small_depth():
    pat = encode([1], vpwm(depth=0.025))
    assert pat.t_start[0] == pytest.approx(0.1125e-6, rel=1e-12)
    assert pat.t_end[0] == pytest.approx(0.8875e-6, rel=1e-12)


def test_vpwm_depth_out_of_range():
    with pytest.raises(DepthOutOfRangeError):
        encode([1], vpwm(delta=0.75, depth=0.3))


def test_vppm_shift_mapping():
    pat = encode([1, 0], vppm())
    assert pat.t_start[0] == pytest.approx(0.35e-6, rel=1e-12)
    assert pat.t_end[0] == pytest.approx(0.85e-6, rel=1e-12)
    assert pat.t_start[1] == pytest.approx(0.15e-6, rel=1e-12)
    assert np.allclose(pat.widths, 0.5e-6)


def test_vppm_depth_out_of_range():
    with pytest.raises(DepthOutOfRangeError):
        encode([1], vppm(delta=0.75, depth=0.2e-6))


def test_depth_zero_matches_unmodulated():
    bits = [1, 0, 1, 1]
    cfg_w = vpwm(depth=0.0)
    cfg_p = ModulationConfig(scheme=Scheme.VPPM, T=1e-6, delta=0.75, depth=0.0)
    ref = encode(np.zeros(4, dtype=int), ModulationConfig(Scheme.UNMODULATED, 1e-6, 0.75))
    for pat in (encode(bits, cfg_w), encode(bits, cfg_p)):
        assert np.array_equal(pat.t_start, ref.t_start)
        assert np.array_equal(pat.t_end, ref.t_end)


def test_unmodulated_examples():
    pat = encode(np.zeros(1, dtype=int), ModulationConfig(Scheme.UNMODULATED, 1e-6, 0.5))
    assert pat.t_start[0] == pytest.approx(0.25e-6, rel=1e-12)
    assert pat.t_end[0] == pytest.approx(0.75e-6, rel=1e-12)
    pat = encode(np.zeros(1, dtype=int), ModulationConfig(Scheme.UNMODULATED, 1e-6, 0.75))
    assert pat.t_start[0] == pytest.approx(0.125e-6, rel=1e-12)
    assert pat.t_end[0] == pytest.approx(0.875e-6, rel=1e-12)
    empty = encode(np.zeros(0, dtype=int), ModulationConfig(Scheme.UNMODULATED, 1e-6, 0.75))
    assert empty.K == 0


def test_pattern_invariant_enforced():
    with pytest.raises(ValueError):
        SwitchingPattern(T=1.0, t_start=np.array([0.5]), t_end=np.array([0.4]))
    with pytest.raises(ValueError):
        SwitchingPattern(T=1.0, t_start=np.array([-0.1]), t_end=np.array([0.4]))
    with pytest.raises(ValueError):
        SwitchingPattern(T=1.0, t_start=np.array([0.5]), t_end=np.array([1.1]))


def test_sample_switching_quarter_grid():
    pat = encode(np.zeros(2, dtype=int), ModulationConfig(Scheme.UNMODULATED, 1e-6, 0.5))
    s1 = sample_switching(pat, 0.25e-6, 8)
    assert np.array_equal(s1, [0, 1, 1, 0, 0, 1, 1, 0])
    # binary-exact grid, sample exactly on the trailing edge stays low
    pat2 = encode(np.zeros(1, dtype=int), ModulationConfig(Scheme.UNMODULATED, 1.0, 0.5))
    s2 = sample_switching(pat2, 0.25, 4)
    assert np.array_equal(s2, [0, 1, 1, 0])


def test_sample_switching_beyond_pattern_is_zero():
    pat = encode(np.zeros(1, dtype=int), ModulationConfig(Scheme.UNMODULATED, 1e-6, 0.75))
    s1 = sample_switching(pat, 0.5e-6, 6)
    assert np.all(s1[2:] == 0)


def test_sample_switching_mean_approaches_duty():
    cfg = ModulationConfig(Scheme.UNMODULATED, 1e-6, 0.5)
    pat = encode(np.zeros(1, dtype=int), cfg)
    s1 = sample_switching(pat, cfg.T / 1000, 1000)
    assert np.mean(s1) == pytest.approx(0.5, abs=2e-3)
    rng = np.random.default_rng(3)
    for _ in range(20):
        delta = rng.uniform(0.1, 0.9)
        J = int(rng.integers(200, 2000))
        pat = encode(np.zeros(1, dtype=int), ModulationConfig(Scheme.UNMODULATED, 1e-6, delta))
        s1 = sample_switching(pat, 1e-6 / J, J)
        assert abs(np.mean(s1) - delta) <= 2.0 / J


def test_edges_are_ordered_even_where_pulses_abut():
    # at the largest VPPM shift a 1-pulse ends where the next 0-pulse starts,
    # and k*T + T and (k+1)*T + 0 can differ by an ulp in either order
    pat = encode(np.tile([1, 0], 500), vppm(delta=0.5, depth=0.25e-6))
    times, signs = pat.edges()
    assert np.all(np.diff(times) >= 0.0)
    assert np.array_equal(signs, np.tile([1.0, -1.0], pat.K))
    k = np.arange(pat.K) * pat.T
    assert np.allclose(times[0::2], k + pat.t_start, rtol=1e-15, atol=0.0)
    assert np.allclose(times[1::2], k + pat.t_end, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("J", [40, 80, 200])
def test_sample_switching_windows_are_exact_at_grid_ties(J):
    """Every pulse's samples are [ceil(start*J/T), ceil(end*J/T)), with the
    edges computed exactly from the decimal delta and depth: edges that fall
    on grid points neither gain nor lose a sample to float rounding."""
    rng = np.random.default_rng(J)
    cases = ((Scheme.VPWM, "0.75", "0.2"), (Scheme.VPWM, "0.5", "0.3"), (Scheme.VPPM, "0.5", "0.25"))
    for scheme, delta, depth in cases:
        T = 1e-6
        bits = np.concatenate([alternating_bits(32), rng.integers(0, 2, 32)])
        d_dec, s_dec = Fraction(delta), Fraction(depth)
        scale = T if scheme is Scheme.VPPM else 1.0
        pat = encode(bits, ModulationConfig(scheme, T, float(delta), float(depth) * scale))
        expected = np.zeros(len(bits) * J)
        for k, b in enumerate(bits):
            if scheme is Scheme.VPWM:
                half = (d_dec + (2 * int(b) - 1) * s_dec) / 2
                start, end = Fraction(1, 2) - half, Fraction(1, 2) + half
            else:
                center = Fraction(1, 2) + (2 * int(b) - 1) * s_dec
                start, end = center - d_dec / 2, center + d_dec / 2
            expected[math.ceil((k + start) * J) : math.ceil((k + end) * J)] = 1.0
        s1 = sample_switching(pat, T / J, len(bits) * J)
        assert np.array_equal(s1, expected), (scheme, delta, depth)


@pytest.mark.parametrize("J", [40, 80, 200])
def test_sample_switching_matches_switch_level_oracle(J):
    """64 alternating VPWM symbols, delta 0.75, depth 0.2: every edge is on a
    grid point at these J, so float rounding of an edge shows up as a sample
    the oracle sees on the other side."""
    cfg = vpwm()
    pat = encode(alternating_bits(64), cfg)
    N = pat.K * J
    assert np.array_equal(sample_switching(pat, cfg.T / J, N), switch_level(pat, J, N))


def test_randomized_pattern_invariants():
    rng = np.random.default_rng(11)
    for _ in range(100):
        bits = rng.integers(0, 2, size=rng.integers(1, 40))
        delta = rng.uniform(0.2, 0.8)
        depth = rng.uniform(0.0, min(delta, 1 - delta) * 0.95)
        pat = encode(bits, vpwm(delta=delta, depth=depth))
        assert np.all(pat.t_start >= 0)
        assert np.all(pat.t_start < pat.t_end)
        assert np.all(pat.t_end <= pat.T)
        if bits.sum() * 2 == len(bits):
            # balanced sequences average exactly to the nominal duty
            assert np.mean(pat.widths / pat.T) == pytest.approx(delta, rel=1e-12)


def test_alternating_bits():
    assert np.array_equal(alternating_bits(5), [1, 0, 1, 0, 1])
    assert np.array_equal(alternating_bits(0), [])


def test_encode_rejects_bits_that_are_not_whole():
    for cfg in (vpwm(), vppm()):
        for bits in ([0.5, 1.7], np.array([0.9, 0.2]), [1, 0.999]):
            with pytest.raises(ValueError, match="bits must contain only 0 and 1"):
                encode(bits, cfg)
        # whole floats and bools are bits
        want = encode([1, 0], cfg)
        for bits in ([1.0, 0.0], np.array([1.0, 0.0]), [True, False]):
            got = encode(bits, cfg)
            assert np.array_equal(got.t_start, want.t_start)
            assert np.array_equal(got.t_end, want.t_end)


def _pulse(scheme, T, delta, depth, bit):
    """Exact edges of one symbol's pulse: duty d and center c, spanning c -/+ d*T/2."""
    T, delta, depth = Fraction(T), Fraction(delta), Fraction(depth)
    s = 2 * int(bit) - 1
    d = delta + s * depth if scheme is Scheme.VPWM else delta
    c = T / 2 + s * depth if scheme is Scheme.VPPM else T / 2
    return c - d * T / 2, c + d * T / 2


@settings(max_examples=300)
@given(
    scheme=st.sampled_from(list(Scheme)),
    log_T=st.floats(-9.0, 0.0),
    delta=st.floats(0.01, 0.99),
    reach=st.floats(0.0, 0.999),
    bits=st.lists(st.integers(0, 1), max_size=24),
)
def test_encode_is_the_duty_and_center_rule_of_each_scheme(scheme, log_T, delta, reach, bits):
    """Every edge within 4 ulp of T of its scheme's rule."""
    T = 10.0**log_T
    # the largest depth that keeps every duty in (0, 1) and every pulse in [0, T]
    limit = (1 - delta) * T / 2 if scheme is Scheme.VPPM else min(delta, 1 - delta)
    cfg = ModulationConfig(scheme, T, delta, reach * limit)
    pat = encode(bits, cfg)
    tol = 4 * Fraction(float(np.spacing(T)))
    for k, bit in enumerate(bits):
        start, end = _pulse(scheme, T, delta, cfg.depth, bit)
        assert abs(Fraction(float(pat.t_start[k])) - start) <= tol
        assert abs(Fraction(float(pat.t_end[k])) - end) <= tol


def test_vpwm_duty_of_exactly_one_or_zero_is_refused():
    assert 0.75 + 0.25 == 1.0 and 0.25 - 0.25 == 0.0
    with pytest.raises(DepthOutOfRangeError):
        encode([1], vpwm(delta=0.75, depth=0.25))
    with pytest.raises(DepthOutOfRangeError):
        encode([0], vpwm(delta=0.25, depth=0.25))
    # the other bit's duty is inside
    assert encode([0], vpwm(delta=0.75, depth=0.25)).widths[0] == pytest.approx(0.5e-6)


@settings(max_examples=100)
@given(log_T=st.floats(-9.0, 0.0))
def test_vppm_pulse_touching_the_symbol_bounds_is_accepted(log_T):
    T = 10.0**log_T
    pat = encode([0, 1], vppm(T=T, delta=0.5, depth=0.25 * T))
    assert pat.t_start[0] == 0.0 and pat.t_end[1] == T


@pytest.mark.parametrize("bit", [0, 1])
@pytest.mark.parametrize("T", [1e-6, 3.3e-7, 1.0])
def test_depth_just_beyond_a_boundary_is_refused(T, bit):
    beyond = 1 + 1e-9
    # bit 1 widens VPWM's duty past 1 at delta 0.75, bit 0 narrows it below 0 at 0.25
    with pytest.raises(DepthOutOfRangeError):
        encode([bit], vpwm(T=T, delta=0.75 if bit else 0.25, depth=0.25 * beyond))
    # bit 0 shifts the VPPM pulse before 0, bit 1 past T
    with pytest.raises(DepthOutOfRangeError):
        encode([bit], vppm(T=T, delta=0.5, depth=0.25 * T * beyond))
    inside = 1 - 1e-9
    encode([bit], vpwm(T=T, delta=0.75 if bit else 0.25, depth=0.25 * inside))
    encode([bit], vppm(T=T, delta=0.5, depth=0.25 * T * inside))
