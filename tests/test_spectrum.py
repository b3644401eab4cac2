"""Tests for the analytic ripple spectrum and the FFT cross-check path."""

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import edge_phasor_sum
from tpcsim.accuracy import default_settle_symbols
from tpcsim.analytic import Waveform, data_component, sample_output
from tpcsim.circuit import (
    CircuitParams,
    Dynamics,
    cutoff_frequency,
    derive_dynamics,
    frequency_response,
)
from tpcsim.errors import ZeroFrequencyError
from tpcsim.laplace import (
    GeneralLoad,
    ParasiticParams,
    build_general_load_model,
    build_parasitic_model,
)
from tpcsim.modal import transfer_at
from tpcsim.modulation import (
    ModulationConfig,
    Scheme,
    SwitchingPattern,
    alternating_bits,
    encode,
)
from tpcsim.spectrum import (
    _BLOCK,
    SpectrumGrid,
    envelope_slope_db_per_decade,
    ripple_spectrum,
    spectrum_via_fft,
    v1_spectrum,
)

SLOW = CircuitParams(L=100e-6, C=0.1e-6, R_L=20.0)
T = 1e-6


def fig5_pattern(K=64):
    cfg = ModulationConfig(Scheme.VPWM, T, 0.75, 0.025)
    return encode(alternating_bits(K), cfg)


def phasor_tolerance(K, f, V1=1.0):
    """Phase roundoff bound on the edge-phasor sum at each f.

    Each of the 2K terms has size V1/|w| and a phase error of about
    eps*|w|*t at its edge time t <= K*T (rounding in w*t and in exp's
    argument reduction), so the errors add to at most
    eps*max(|w|*K*T, 1)*2K*V1/|w|.  Over 3 x 15 seeded (K, pattern) cells
    of 8 frequencies each the measured worst case was 0.12 of this bound,
    for the blocked sum and the per-symbol loop it replaced alike.
    """
    w = 2.0 * np.pi * np.abs(f)
    return np.finfo(float).eps * np.maximum(w * K * T, 1.0) * 2 * K * V1 / w


def random_pattern(kind, K, rng):
    bits = rng.integers(0, 2, K)
    if kind == "vpwm":
        delta = float(rng.choice([0.25, 0.5, 0.75]))
        depth = 0.2 * min(delta, 1 - delta)
        return encode(bits, ModulationConfig(Scheme.VPWM, T, delta, depth))
    if kind == "vppm_abutting":
        # the largest shift puts a 1-pulse's end on the next symbol's 0-pulse start
        return encode(bits, ModulationConfig(Scheme.VPPM, T, 0.5, 0.25 * T))
    # every symbol's start and end differ from every other symbol's
    return SwitchingPattern(T, rng.uniform(0.0, 0.5 * T, K), rng.uniform(0.5 * T, T, K))


@settings(max_examples=60)
@given(
    K=st.sampled_from([0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3000]),
    kind=st.sampled_from(["vpwm", "vppm_abutting", "distinct"]),
    n_f=st.sampled_from([1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]),
    shape=st.sampled_from(["scalar", "1d", "2d"]),
    seed=st.integers(0, 2**31 - 1),
)
def test_spectrum_property_against_edge_phasor_sum(K, kind, n_f, shape, seed):
    """Symbol counts and grid sizes on both sides of a block; encoded patterns
    (at most two distinct start and end times) and hand-built ones (K of
    each); negative, scalar and 2-D f.  The oracle is checked at the block
    boundaries and at a few random points."""
    rng = np.random.default_rng(seed)
    pat = random_pattern(kind, K, rng)
    f = 10.0 ** rng.uniform(2.0, 8.0, n_f) * rng.choice([-1.0, 1.0], n_f)
    if shape == "scalar":
        f = float(f[0])
    elif shape == "2d":
        f = np.stack([f, -f[::-1]])
    got = v1_spectrum(pat, SLOW.V1, f)
    if shape == "scalar":
        assert isinstance(got, complex)
    else:
        assert got.shape == f.shape
    flat_f, flat_got = np.ravel(f), np.ravel(got)
    n = flat_f.size
    boundaries = [0, n - 1] + [b for j in (1, 2) for b in (j * _BLOCK - 1, j * _BLOCK) if b < n]
    idx = np.union1d(boundaries, rng.choice(n, min(n, 6), replace=False))
    want = edge_phasor_sum(pat, SLOW.V1, flat_f[idx])
    assert np.all(np.abs(flat_got[idx] - want) <= phasor_tolerance(K, flat_f[idx], SLOW.V1))

    # the ripple is V1(f)*H(f), H from the circuit's own quadratic to a few ulps
    grid = np.unique(np.abs(flat_f))
    sel = idx[idx < grid.size]
    got = ripple_spectrum(SLOW, derive_dynamics(SLOW), pat, grid).values[sel]
    jw = 2j * np.pi * grid[sel]
    H = 1.0 / (1.0 + jw * SLOW.L / SLOW.R_L + jw**2 * SLOW.L * SLOW.C)
    want = edge_phasor_sum(pat, SLOW.V1, grid[sel]) * H
    eps = np.finfo(float).eps
    tol = phasor_tolerance(K, grid[sel], SLOW.V1) * np.abs(H) + 16 * eps * np.abs(want)
    assert np.all(np.abs(got - want) <= tol)


def test_single_pulse_matches_sinc_oracle():
    pat = encode(np.zeros(1, dtype=int), ModulationConfig(Scheme.UNMODULATED, T, 0.6))
    Tp = 0.6 * T
    f = np.logspace(3, 7, 300)
    got = np.abs(v1_spectrum(pat, 2.0, f))
    x = np.pi * f * Tp
    expected = 2.0 * Tp * np.abs(np.sin(x) / x)
    assert np.allclose(got, expected, rtol=1e-10, atol=1e-18)


def test_zero_frequency_rejected():
    pat = fig5_pattern(4)
    with pytest.raises(ZeroFrequencyError):
        v1_spectrum(pat, 1.0, 0.0)
    d = derive_dynamics(SLOW)
    with pytest.raises(ZeroFrequencyError):
        ripple_spectrum(SLOW, d, pat, np.array([0.0, 1e3]))


def test_conjugate_symmetry():
    pat = fig5_pattern(8)
    f = np.array([1.3e4, 2.2e5, 3.7e6])
    assert np.allclose(v1_spectrum(pat, 1.0, -f), np.conj(v1_spectrum(pat, 1.0, f)), rtol=1e-12)


def test_period_shift_structure():
    # doubling a one-symbol pattern multiplies the spectrum by 1 + e^{-j2pi f T}
    cfg = ModulationConfig(Scheme.UNMODULATED, T, 0.6)
    one = encode(np.zeros(1, dtype=int), cfg)
    two = encode(np.zeros(2, dtype=int), cfg)
    f = np.logspace(3.5, 6.8, 200)
    lhs = v1_spectrum(two, 1.0, f)
    rhs = v1_spectrum(one, 1.0, f) * (1.0 + np.exp(-2j * np.pi * f * T))
    assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-20)


def test_ripple_equals_v1_times_frequency_response():
    d = derive_dynamics(SLOW)
    pat = fig5_pattern(16)
    f = np.logspace(3, 7.2, 500)
    sg = ripple_spectrum(SLOW, d, pat, f)
    factored = v1_spectrum(pat, SLOW.V1, f) * frequency_response(SLOW, f)
    assert np.allclose(sg.values, factored, rtol=1e-12, atol=1e-30)
    assert sg.dc_mass == pytest.approx(0.75 * SLOW.V1, rel=1e-12)


def test_alternating_data_has_passband_notches():
    d = derive_dynamics(SLOW)
    pat = fig5_pattern(64)
    f3 = cutoff_frequency(SLOW)
    f = np.linspace(1e3, f3, 20000)
    mag = np.abs(ripple_spectrum(SLOW, d, pat, f).values)
    assert mag.min() < 1e-3 * mag.max()


def test_envelope_slope_of_fig5_band():
    d = derive_dynamics(SLOW)
    pat = fig5_pattern(64)
    f3 = cutoff_frequency(SLOW)
    f = np.logspace(np.log10(10 * f3), np.log10(100 * f3), 4000)
    sg = ripple_spectrum(SLOW, d, pat, f)
    slope = envelope_slope_db_per_decade(sg.frequencies, sg.magnitude_db(SLOW.V1 * T))
    assert -43.0 < slope < -37.0


def test_fft_of_constant_vanishes():
    w = Waveform(dt=1e-8, t0=0.0, samples=np.full(256, 0.75))
    sg = spectrum_via_fft(w, dc_remove=0.75)
    assert np.abs(sg.values).max() < 1e-20


def test_fft_of_bin_sinusoid_is_single_line():
    n, dt = 1024, 1e-8
    t = np.arange(n) * dt
    f0 = 8 / (n * dt)
    w = Waveform(dt=dt, t0=0.0, samples=np.sin(2 * np.pi * f0 * t))
    sg = spectrum_via_fft(w)
    mags = np.abs(sg.values)
    peak = int(np.argmax(mags))
    assert sg.frequencies[peak] == pytest.approx(f0, rel=1e-12)
    others = np.delete(mags, peak)
    assert others.max() < 1e-10 * mags[peak]


def test_fft_time_origin_enters_as_linear_phase():
    n, dt = 512, 1e-8
    samples = np.random.default_rng(0).normal(size=n)
    base = spectrum_via_fft(Waveform(dt=dt, t0=0.0, samples=samples))
    shifted = spectrum_via_fft(Waveform(dt=dt, t0=3e-7, samples=samples))
    phase = np.exp(-2j * np.pi * base.frequencies * 3e-7)
    assert np.allclose(shifted.values, base.values * phase, rtol=1e-12, atol=1e-18)


def test_fft_path_agrees_with_closed_form_on_compact_support():
    # zero-state response sampled well past its decay has (almost) compact
    # support, so the scaled DFT approximates the continuous transform at
    # every bin below the aliasing-dominated region.
    p = SLOW
    d = derive_dynamics(p)
    K = 64
    pat = fig5_pattern(K)
    J = 64
    dt = T / J
    tail = int(np.ceil(25.0 / d.a / T))
    n = (K + tail) * J
    v2d = data_component(d, pat, p.V1, np.arange(n) * dt)
    sg_fft = spectrum_via_fft(Waveform(dt=dt, t0=0.0, samples=v2d))
    sel = sg_fft.frequencies < 5.0 / T
    ana = ripple_spectrum(p, d, pat, sg_fft.frequencies[sel]).values
    got = sg_fft.values[sel]
    floor = np.abs(ana).max() * 1e-3
    mask = np.abs(ana) > floor
    ratio_db = 20.0 * np.log10(np.abs(got[mask]) / np.abs(ana[mask]))
    assert np.abs(ratio_db).max() < 0.01


FILTERS = {
    "base": lambda: derive_dynamics(SLOW),
    "parasitic": lambda: Dynamics.of(
        build_parasitic_model(SLOW, ParasiticParams(esr_C=0.1, esl_C=10e-9))
    ),
    "series_load": lambda: Dynamics.of(
        build_general_load_model(SLOW, GeneralLoad(R_L=20.0, L_L=10e-6, C_L=10e-6))
    ),
}


@pytest.mark.parametrize("name", sorted(FILTERS))
def test_extension_spectrum_agrees_with_fft_of_its_simulation(name):
    """The FFT of a settled window at every bin below 8/T against the alias
    sum of the closed-form spectrum, sum_{|m|<=200} X(f + m/dt): by Poisson
    summation that is what the DFT of the sampled periodic output holds, so
    a filter whose ESR lowers the relative degree is checked as tightly as
    the base filter.  The window is referenced to its own start (t0 = 0),
    where the last K symbols of the extended pattern begin."""
    d = FILTERS[name]()
    K, J = 64, 64
    dt = T / J
    settle = default_settle_symbols(d, T)
    bits_ext = np.tile(alternating_bits(K), -(-(settle + K) // K))[-(settle + K) :]
    pat_ext = encode(bits_ext, ModulationConfig(Scheme.VPWM, T, 0.75, 0.025))
    w_full = sample_output(d, {"v2_0": 0.75}, pat_ext, SLOW.V1, dt, (settle + K) * J)
    w = Waveform(dt=dt, t0=0.0, samples=w_full.samples[settle * J :])
    sg_fft = spectrum_via_fft(w, dc_remove=0.75 * SLOW.V1)
    sel = sg_fft.frequencies < 8.0 / T
    f = sg_fft.frequencies[sel]
    pat = fig5_pattern(K)
    alias = sum(
        v1_spectrum(pat, SLOW.V1, f + m / dt) * transfer_at(d.model, 2j * np.pi * (f + m / dt))
        for m in range(-200, 201)
    )
    err = np.abs(sg_fft.values[sel] - alias)
    peak = np.abs(alias).max()
    assert err.max() <= 1e-3 * peak
    lines = np.abs(alias) > 1e-3 * peak
    assert lines.sum() >= 8
    assert (err[lines] / np.abs(alias[lines])).max() <= 1e-3


def test_dc_mass_carries_the_dc_gain():
    """Equal switch on-resistances put H(0) = R_L/(R_L + r) below 1."""
    q = ParasiticParams(r_ds_on_1=0.5, r_ds_on_2=0.5)
    d = Dynamics.of(build_parasitic_model(SLOW, q))
    pat = fig5_pattern()
    assert ripple_spectrum(SLOW, d, pat, [1e5]).dc_mass == pytest.approx(0.75 * 20.0 / 20.5)
    base = ripple_spectrum(SLOW, derive_dynamics(SLOW), pat, [1e5])
    assert base.dc_mass == pat.mean_duty() * SLOW.V1  # H(0) is exactly 1


def test_spectrum_grid_validation():
    with pytest.raises(ValueError):
        SpectrumGrid(frequencies=np.array([0.0, 1.0]), values=np.array([1j, 2j]))
    with pytest.raises(ValueError):
        SpectrumGrid(frequencies=np.array([2.0, 1.0]), values=np.array([1j, 2j]))
