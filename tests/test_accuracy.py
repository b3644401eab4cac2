"""Tests for the bias/MSE accuracy metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpcsim.accuracy import (
    bias,
    default_settle_symbols,
    mse,
    reference_samples,
    sweep,
)
from tpcsim.analytic import Waveform, sample_output
from tpcsim.circuit import CircuitParams, InitialConditions, derive_dynamics
from tpcsim.discrete import Variant, simulate
from tpcsim.errors import ConfigError, GridMismatchError, PatternTooShortError
from tpcsim.modulation import (
    ModulationConfig,
    Scheme,
    alternating_bits,
    encode,
)

FAST = CircuitParams(L=10e-6, C=1e-6, R_L=10.0)
SLOW = CircuitParams(L=100e-6, C=0.1e-6, R_L=20.0)
T = 1e-6


def test_default_settle_symbols():
    # envelope below 1e-6 of its initial value: ceil(ln(1e6)/(a*T))
    assert default_settle_symbols(derive_dynamics(FAST), T) == 277
    assert default_settle_symbols(derive_dynamics(SLOW), T) == 56


def test_reference_requires_long_enough_pattern():
    d = derive_dynamics(FAST)
    cfg = ModulationConfig(Scheme.VPWM, T, 0.75, 0.2)
    pat = encode(alternating_bits(64), cfg)
    ic = InitialConditions(0.75, 0.0)
    with pytest.raises(PatternTooShortError):
        reference_samples(d, ic, pat, 1.0, 8)  # default guard is 277 symbols
    ref = reference_samples(d, ic, pat, 1.0, 8, settle_symbols=8)
    assert len(ref) == (64 - 8) * 8
    assert ref.t0 == pytest.approx(8 * T)


def test_reference_rejects_negative_settle_guard():
    d = derive_dynamics(FAST)
    pat = encode(alternating_bits(64), ModulationConfig(Scheme.VPWM, T, 0.75, 0.2))
    with pytest.raises(ConfigError, match="settle_symbols"):
        reference_samples(d, InitialConditions(0.75, 0.0), pat, 1.0, 8, settle_symbols=-5)


def test_reference_decimation_consistency():
    d = derive_dynamics(SLOW)
    cfg = ModulationConfig(Scheme.VPWM, T, 0.75, 0.025)
    pat = encode(alternating_bits(16), cfg)
    ic = InitialConditions(0.75, 0.0)
    hi = reference_samples(d, ic, pat, 1.0, 16, settle_symbols=4)
    lo = reference_samples(d, ic, pat, 1.0, 8, settle_symbols=4)
    assert np.array_equal(hi.samples[::2], lo.samples)


@settings(max_examples=60)
@given(
    slow=st.booleans(),
    scheme=st.sampled_from(["vpwm", "vppm_abutting"]),
    steady=st.booleans(),
    K=st.integers(1, 40),
    J=st.integers(1, 300),
    settle_share=st.floats(0.0, 1.0, exclude_max=True),
    seed=st.integers(0, 2**31 - 1),
)
def test_reference_is_the_settled_tail_of_the_full_grid(
    slow, scheme, steady, K, J, settle_share, seed
):
    """Evaluating only the settled window gives, bit for bit, the samples a
    full-grid evaluation keeps after the guard, on the same dt and t0."""
    p = SLOW if slow else FAST
    d = derive_dynamics(p)
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, K)
    if scheme == "vpwm":
        cfg = ModulationConfig(Scheme.VPWM, T, 0.75, 0.05)
        pat = encode(bits, cfg)
    else:
        # the largest shift puts a 1-pulse's end on the next symbol's 0-pulse start
        cfg = ModulationConfig(Scheme.VPPM, T, 0.5, 0.25 * T)
        pat = encode(bits, cfg)
    if steady:
        ic = InitialConditions(cfg.delta * p.V1, 0.0)
    else:
        ic = InitialConditions(rng.uniform(-1.0, 1.0), rng.uniform(-1e6, 1e6))
    settle = int(settle_share * K)  # 0 .. K-1
    n0 = settle * J

    ref = reference_samples(d, ic, pat, p.V1, J, settle_symbols=settle)
    full = sample_output(d, ic, pat, p.V1, T / J, K * J)
    assert ref.dt == full.dt
    assert ref.t0 == full.times()[n0]
    assert np.array_equal(ref.samples, full.samples[n0:])


def test_bias_of_flat_trajectory_is_zero():
    w = Waveform(dt=1e-8, t0=0.0, samples=np.full(100, 0.75))
    assert bias(w, 0.75, 1.0) == 0.0
    with pytest.raises(ValueError):
        bias(Waveform(dt=1e-8, t0=0.0, samples=np.array([])), 0.75, 1.0)


def test_mse_absorbs_constant_offsets():
    rng = np.random.default_rng(2)
    ref = Waveform(dt=1e-8, t0=0.0, samples=rng.normal(size=256))
    shifted = Waveform(dt=1e-8, t0=0.0, samples=ref.samples + 0.125)
    assert mse(shifted, ref, 0.125) < 1e-28
    assert mse(shifted, ref, 0.0) == pytest.approx(0.125**2, rel=1e-12)


def test_mse_grid_mismatch():
    a = Waveform(dt=1e-8, t0=0.0, samples=np.zeros(10))
    b = Waveform(dt=2e-8, t0=0.0, samples=np.zeros(10))
    c = Waveform(dt=1e-8, t0=0.0, samples=np.zeros(11))
    with pytest.raises(GridMismatchError):
        mse(a, b, 0.0)
    with pytest.raises(GridMismatchError):
        mse(a, c, 0.0)


def test_sweep_shapes_and_purity():
    cfg = ModulationConfig(Scheme.VPWM, T, 0.75, 0.025)
    bits = alternating_bits(72)
    one = sweep(SLOW, cfg, bits, [4], [Variant.EXACT], settle_symbols=56)
    assert len(one) == 1
    assert one[0].J == 4 and one[0].variant is Variant.EXACT
    assert one[0].settle_symbols == 56 and one[0].n_samples == 16 * 4

    dup = sweep(SLOW, cfg, bits, [4, 4], [Variant.EXACT], settle_symbols=56)
    assert dup[0] == dup[1]


def test_sweep_uses_settle_formula_by_default():
    cfg = ModulationConfig(Scheme.VPWM, T, 0.75, 0.025)
    bits = alternating_bits(60)
    reports = sweep(SLOW, cfg, bits, [4], [Variant.EXACT])
    assert reports[0].settle_symbols == 56


def test_bias_favorable_unfavorable_structure():
    # with alternating data and symmetric duty keying, every oversampling
    # factor divisible by 4 samples the two duty cycles with exactly
    # cancelling deficits (bias ~ 0), while other factors leave a DC error
    # that shrinks roughly like 1/J
    cfg = ModulationConfig(Scheme.VPWM, T, 0.75, 0.2)
    bits = alternating_bits(341)
    reports = {
        r.J: r.bias
        for r in sweep(FAST, cfg, bits, [4, 5, 6, 7, 255, 256], [Variant.EXACT], settle_symbols=277)
    }
    for J in (4, 256):
        assert abs(reports[J]) < 1e-8
    for J in (5, 6, 7, 255):
        assert abs(reports[J]) > 1e-4
        assert reports[J] < 0  # less favorable factors under-sample the duty
    assert abs(reports[255]) < abs(reports[5])


def test_sweep_bias_and_mse_are_finite_and_positive():
    cfg = ModulationConfig(Scheme.VPWM, T, 0.75, 0.025)
    bits = alternating_bits(72)
    reports = sweep(
        SLOW, cfg, bits, [8, 16], list(Variant), settle_symbols=56
    )
    assert len(reports) == 6
    for r in reports:
        assert np.isfinite(r.bias)
        assert r.mse > 0.0


@pytest.mark.parametrize("settle", [0, 3])
@pytest.mark.parametrize("align", [True, False])
def test_sweep_is_the_statistics_of_the_full_trajectory(settle, align):
    """Each report is bias and MSE computed by hand from the full simulated
    and closed-form trajectories, sliced at the guard, bit for bit."""
    cfg = ModulationConfig(Scheme.VPWM, T, 0.75, 0.025)
    bits = alternating_bits(12)
    d = derive_dynamics(SLOW)
    pat = encode(bits, cfg)
    ic = InitialConditions(cfg.delta * SLOW.V1, 0.0)
    Js = [1, 4, 7]
    reports = iter(
        sweep(SLOW, cfg, bits, Js, list(Variant), settle_symbols=settle, align_predictive=align)
    )
    for J in Js:
        n0 = settle * J
        full_ref = sample_output(d, ic, pat, SLOW.V1, T / J, pat.K * J).samples[n0:]
        # the two windows' grids are built independently and agree exactly
        started, _ = simulate(SLOW, pat, ic, J, Variant.EXACT, start=n0)
        assert started.t0 == reference_samples(d, ic, pat, SLOW.V1, J, settle).t0
        for variant in Variant:
            v2 = simulate(SLOW, pat, ic, J, variant)[0].samples[n0:]
            ref = full_ref
            if variant is Variant.PREDICTIVE and align:
                v2, ref = v2[1:], ref[:-1]
            b = float(np.mean(v2)) - cfg.delta * SLOW.V1
            diff = v2 - b - ref
            r = next(reports)
            assert (r.J, r.variant, r.settle_symbols, r.n_samples) == (J, variant, settle, len(v2))
            assert r.bias == b
            assert r.mse == float(np.mean(diff * diff))
    assert next(reports, None) is None
