"""Tests for the receiver building blocks."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tpcsim.analytic import Waveform, data_component, sample_output, transient_component
from tpcsim import equalization
from tpcsim.circuit import (
    CircuitParams,
    Dynamics,
    InitialConditions,
    derive_dynamics,
    frequency_response,
    initial_inductor_current,
)
from tpcsim.discrete import Variant, _iterate, derive_params, simulate
from tpcsim.equalization import (
    _candidate_distances,
    _frame_model,
    ObservationModel,
    brute_force_detect,
    equalize_frequency_domain,
    observe,
    subtract_transient,
    zf_response,
)
from tpcsim.errors import (
    ConfigError,
    GridMismatchError,
    TooManyBitsError,
    UnstableStepError,
)
from tpcsim.laplace import (
    GeneralLoad,
    ParasiticParams,
    build_general_load_model,
    build_parasitic_model,
)
from tpcsim.modulation import (
    ModulationConfig,
    Scheme,
    alternating_bits,
    encode,
    sample_switching,
)

FAST = CircuitParams(L=10e-6, C=1e-6, R_L=10.0)
T = 1e-6
CFG = ModulationConfig(Scheme.VPWM, T, 0.75, 0.2)
VPPM_CFG = ModulationConfig(Scheme.VPPM, T, 0.5, 0.1 * T)
# largest shift: a 0 bit's pulse starts with its symbol, a 1 bit's ends with it
VPPM_EDGE_CFG = ModulationConfig(Scheme.VPPM, T, 0.5, 0.25 * T)
IC = InitialConditions(0.75, 0.0)


def make_obs(bits, J=8, sigma=0.0, seed=0, c=1.0):
    pat = encode(np.asarray(bits), CFG)
    v2, _ = simulate(FAST, pat, IC, J, Variant.EXACT)
    return observe(v2, ObservationModel(c=c, sigma=sigma, seed=seed))


def test_observe_identity_and_scaling():
    w = Waveform(dt=1e-8, t0=0.0, samples=np.linspace(0, 1, 64))
    assert np.array_equal(observe(w, ObservationModel(c=1.0, sigma=0.0)).samples, w.samples)
    assert np.array_equal(observe(w, ObservationModel(c=2.0, sigma=0.0)).samples, 2 * w.samples)


@pytest.mark.parametrize("kwargs", [{"sigma": -0.1}, {"sigma": float("nan")}, {"c": float("inf")}])
def test_observation_model_rejects_negative_or_non_finite(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        ObservationModel(**kwargs)


@pytest.mark.parametrize("kwargs", [{"c": 0.0}, {"seed": -1}])
def test_observation_model_rejects_zero_scale_or_negative_seed(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        ObservationModel(**kwargs)


def test_observe_noise_statistics():
    w = Waveform(dt=1e-8, t0=0.0, samples=np.zeros(100000))
    sigma = 0.05
    r = observe(w, ObservationModel(c=1.0, sigma=sigma, seed=123))
    assert np.var(r.samples) == pytest.approx(sigma**2, rel=0.05)
    # seeded: two draws are identical
    r2 = observe(w, ObservationModel(c=1.0, sigma=sigma, seed=123))
    assert np.array_equal(r.samples, r2.samples)


def test_residual_transient_linearity():
    d = derive_dynamics(FAST)
    rng = np.random.default_rng(4)
    t = np.linspace(0.0, 4e-5, 300)
    truth = transient_component(d, IC, t)
    for _ in range(100):
        ev = rng.uniform(-0.05, 0.05)
        edv = rng.uniform(-5e4, 5e4)
        lam = rng.uniform(-3.0, 3.0)
        res1 = truth - transient_component(d, InitialConditions(IC.v2_0 + ev, IC.dv2_0 + edv), t)
        res_neg = transient_component(d, InitialConditions(-ev, -edv), t)
        assert np.allclose(res1, res_neg, rtol=1e-9, atol=1e-14)
        res_lam = truth - transient_component(
            d, InitialConditions(IC.v2_0 + lam * ev, IC.dv2_0 + lam * edv), t
        )
        assert np.allclose(res_lam, lam * res1, rtol=1e-9, atol=1e-12)


def test_subtract_transient_recovers_data_component():
    d = derive_dynamics(FAST)
    pat = encode(alternating_bits(8), CFG)
    J = 32
    w = sample_output(d, IC, pat, FAST.V1, T / J, pat.K * J)
    cleaned = subtract_transient(w, d, IC)
    expected = data_component(d, pat, FAST.V1, w.times())
    assert np.allclose(cleaned.samples, expected, atol=1e-12)


def test_subtract_transient_error_bound():
    d = derive_dynamics(FAST)
    pat = encode(alternating_bits(8), CFG)
    J = 32
    w = sample_output(d, IC, pat, FAST.V1, T / J, pat.K * J)
    eps_v = 0.01 * FAST.V1
    cleaned = subtract_transient(w, d, InitialConditions(IC.v2_0 + eps_v, IC.dv2_0))
    truth = data_component(d, pat, FAST.V1, w.times())
    resid = np.abs(cleaned.samples - truth)
    t = w.times()
    bound = eps_v * (1.0 + d.a / d.b) * np.exp(-d.a * t)
    assert np.all(resid <= bound * (1 + 1e-9) + 1e-15)


def test_subtracted_amount_does_not_depend_on_data():
    d = derive_dynamics(FAST)
    est = InitialConditions(0.7, 1e3)
    r1 = make_obs([1, 0, 1, 1])
    r2 = make_obs([0, 1, 0, 0])
    removed1 = r1.samples - subtract_transient(r1, d, est).samples
    removed2 = r2.samples - subtract_transient(r2, d, est).samples
    assert np.allclose(removed1, removed2, rtol=0, atol=1e-15)


SLOW = CircuitParams(L=100e-6, C=0.1e-6, R_L=20.0)
EXTENSIONS = {
    "parasitic": (
        build_parasitic_model(SLOW, ParasiticParams(esr_C=0.2, esl_C=15e-9)),
        {"v2_0": 0.4, "dv2_0": 1e4, "d2v2_0": -2e9},
    ),
    "general_load": (
        build_general_load_model(SLOW, GeneralLoad(R_L=20.0, L_L=40e-6, C_L=2e-6)),
        {"v2_0": 0.4, "dv2_0": 1e4, "d2v2_0": -2e9, "d3v2_0": 3e14},
    ),
}


@pytest.mark.parametrize("name", EXTENSIONS)
def test_subtract_transient_on_circuit_extensions(name):
    model, ics = EXTENSIONS[name]
    d = Dynamics.of(model)
    pat = encode(alternating_bits(10), CFG)
    J = 64
    w = sample_output(d, ics, pat, SLOW.V1, T / J, pat.K * J)
    cleaned = subtract_transient(w, d, ics)
    expected = data_component(d, pat, SLOW.V1, w.times())
    assert np.abs(cleaned.samples - expected).max() <= 1e-12 * SLOW.V1
    # a symbol the model does not have is named, whatever the filter
    unknown = "d4v2_0" if model.degree == 4 else "d3v2_0"
    with pytest.raises(ConfigError) as exc:
        subtract_transient(w, d, {**ics, unknown: 1.0})
    assert exc.value.field == unknown


def test_zf_identity_and_regularization():
    rng = np.random.default_rng(9)
    f = rng.uniform(-5e6, 5e6, 1000)
    prod = zf_response(FAST, f) * frequency_response(FAST, f)
    assert np.abs(prod - 1.0).max() < 1e-12
    assert zf_response(FAST, 0.0) == 1.0 + 0j
    f0 = 1.7e5
    h2 = abs(frequency_response(FAST, f0)) ** 2
    assert zf_response(FAST, f0, eps=h2) == pytest.approx(zf_response(FAST, f0) / 2.0, rel=1e-12)


def test_equalize_preserves_constant():
    w = Waveform(dt=1e-8, t0=0.0, samples=np.full(300, 0.42))
    out = equalize_frequency_domain(w, FAST)
    assert np.allclose(out.samples, 0.42, atol=1e-12)
    out_eps = equalize_frequency_domain(w, FAST, eps=0.5)
    assert np.allclose(out_eps.samples, 0.42, atol=1e-12)


def test_equalize_amplifies_wideband_input():
    pat = encode(alternating_bits(8), CFG)
    v2, _ = simulate(FAST, pat, IC, 64, Variant.EXACT)
    out = equalize_frequency_domain(v2, FAST)
    centred_in = np.abs(v2.samples - v2.samples.mean()).max()
    centred_out = np.abs(out.samples - np.mean(out.samples)).max()
    assert centred_out > centred_in


def test_equalize_recovers_band_limited_input():
    # independent route: RK4-integrate the filter driven by a smooth two-tone
    # input, window the settled periodic part, equalize, compare to the input
    p = FAST
    d = derive_dynamics(p)
    J = 32
    dt = T / J
    window = 64 * T
    f1 = 2.0 / window
    f2 = 4.0 / window

    def v1_of(t):
        return p.V1 * (
            0.75
            + 0.08 * np.sin(2 * np.pi * f1 * t)
            + 0.04 * np.sin(2 * np.pi * f2 * t)
        )

    settle = int(np.ceil(20.0 / d.a / T))  # symbols until transient is gone
    n_total = (settle + 64) * J
    A = np.array([[0.0, -1.0 / p.L], [1.0 / p.C, -1.0 / (p.C * p.R_L)]])
    x = np.array([0.75 * p.V1 / p.R_L, 0.75 * p.V1])
    sub = 4
    h = dt / sub
    v2 = np.empty(n_total)
    v2[0] = x[1]
    for n in range(1, n_total):
        t0 = (n - 1) * dt
        for s in range(sub):
            ts = t0 + s * h

            def f(x_, tt):
                return A @ x_ + np.array([v1_of(tt) / p.L, 0.0])

            k1 = f(x, ts)
            k2 = f(x + 0.5 * h * k1, ts + 0.5 * h)
            k3 = f(x + 0.5 * h * k2, ts + 0.5 * h)
            k4 = f(x + h * k3, ts + h)
            x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        v2[n] = x[1]
    n0 = settle * J
    w = Waveform(dt=dt, t0=0.0, samples=v2[n0 : n0 + 64 * J])
    out = equalize_frequency_domain(w, p)
    target = v1_of(n0 * dt + np.arange(64 * J) * dt)
    assert np.abs(out.samples - target).max() < 0.02 * p.V1


def test_noiseless_detection_recovers_bits():
    rng = np.random.default_rng(21)
    for _ in range(10):
        bits = rng.integers(0, 2, 6)
        r = make_obs(bits, J=8, sigma=0.0)
        det = brute_force_detect(r, FAST, CFG, IC, J=8, K=6)
        assert np.array_equal(det, bits)


def test_detection_tie_breaks_lexicographically():
    cfg0 = ModulationConfig(Scheme.VPWM, T, 0.75, 0.0)  # depth 0: all bits alike
    pat = encode([1, 1, 1], cfg0)
    v2, _ = simulate(FAST, pat, IC, 8, Variant.EXACT)
    det = brute_force_detect(v2, FAST, cfg0, IC, J=8, K=3)
    assert np.array_equal(det, [0, 0, 0])


def test_detection_rejects_observation_on_another_grid():
    r = make_obs([1, 0, 1], J=8)
    for dt, t0 in ((2 * r.dt, 0.0), (r.dt, r.dt), (r.dt * (1 + 1e-9), 0.0)):
        with pytest.raises(GridMismatchError):
            brute_force_detect(Waveform(dt, t0, r.samples), FAST, CFG, IC, J=8, K=3)
    # a step that differs from T/J only by rounding is the same grid
    same = Waveform(r.dt * (1 + 1e-15), 0.0, r.samples)
    assert np.array_equal(brute_force_detect(same, FAST, CFG, IC, J=8, K=3), [1, 0, 1])


@pytest.mark.parametrize("J", [0, -1, 2.5])
def test_detection_rejects_a_bad_oversampling_factor(J):
    """J is checked as derive_params checks it, before the grid: J = 0 raised
    ZeroDivisionError and J = -1 or 2.5 named a negative or fractional grid."""
    r = make_obs([1, 0, 1], J=8)
    with pytest.raises(ValueError, match=f"J must be an integer >= 1, got {J!r}"):
        brute_force_detect(r, FAST, CFG, IC, J=J, K=3)


@settings(max_examples=60)
@given(
    bits=st.lists(st.integers(0, 1), min_size=1, max_size=6),
    J=st.sampled_from([5, 8, 16, 40]),
    cfg=st.sampled_from([CFG, VPPM_CFG, VPPM_EDGE_CFG]),
    variant=st.sampled_from(list(Variant)),
    sigma=st.sampled_from([0.0, 0.002, 0.02]),
    seed=st.integers(0, 2**31 - 1),
)
def test_superposition_distances_equal_direct_distances(bits, J, cfg, variant, sigma, seed):
    # detection sums per-symbol responses; the direct route simulates every
    # candidate bit sequence on its own
    K = len(bits)
    v2, _ = simulate(FAST, encode(bits, cfg), IC, J, variant)
    r = observe(v2, ObservationModel(sigma=sigma, seed=seed))
    distances = _candidate_distances(r, FAST, cfg, IC, J, K, variant)
    bits_matrix = (np.arange(1 << K)[:, None] >> np.arange(K - 1, -1, -1)) & 1
    direct = np.array(
        [
            np.sum((simulate(FAST, encode(b, cfg), IC, J, variant)[0].samples - r.samples) ** 2)
            for b in bits_matrix
        ]
    )
    assert np.abs(distances - direct).max() <= 1e-9 * direct.max()
    detected = brute_force_detect(r, FAST, cfg, IC, J, K, variant)
    assert np.array_equal(detected, bits_matrix[np.argmin(direct)])


@pytest.mark.parametrize("variant, seed", [(Variant.EXACT, 1), (Variant.PREDICTIVE, 2)])
def test_benchmark_frame_distances_equal_direct_distances(variant, seed):
    # the frame shape detection is timed on: K = 12 symbols at J = 32
    K, J = 12, 32
    bits = np.random.default_rng(seed).integers(0, 2, K)
    v2, _ = simulate(FAST, encode(bits, CFG), IC, J, variant)
    r = observe(v2, ObservationModel(sigma=0.002, seed=seed))
    distances = _candidate_distances(r, FAST, CFG, IC, J, K, variant)
    bits_matrix = (np.arange(1 << K)[:, None] >> np.arange(K - 1, -1, -1)) & 1
    direct = np.array(
        [
            np.sum((simulate(FAST, encode(b, CFG), IC, J, variant)[0].samples - r.samples) ** 2)
            for b in bits_matrix
        ]
    )
    assert np.abs(distances - direct).max() <= 1e-9 * direct.max()
    detected = brute_force_detect(r, FAST, CFG, IC, J, K, variant)
    assert np.array_equal(detected, bits_matrix[np.argmin(direct)])


def per_symbol_distances(r, p, cfg, ic, J, K, variant):
    """Reference construction: one kernel run per symbol, all on every call."""
    dp = derive_params(p, J, cfg.T, variant)
    N = K * J
    s1_zero = sample_switching(encode(np.zeros(K, dtype=int), cfg), dp.dt, N)
    s1_one = sample_switching(encode(np.ones(K, dtype=int), cfg), dp.dt, N)
    _, z = _iterate(dp, p.V1, False, initial_inductor_current(p, ic), ic.v2_0, memoryview(s1_zero))
    diff = s1_one - s1_zero
    Y = np.zeros((K, N))
    for k in range(K):
        n0 = max(k * J - 1, 0)
        s1_k = np.zeros(N - n0)
        s1_k[k * J - n0 : (k + 1) * J - n0] = diff[k * J : (k + 1) * J]
        Y[k, n0:] = _iterate(dp, p.V1, False, 0.0, 0.0, memoryview(s1_k))[1]
    e = np.frombuffer(z) - r.samples[:N]
    h = np.einsum("kn,n->k", Y, e)
    G = np.einsum("jn,kn->jk", Y, Y)
    B = ((np.arange(1 << K)[:, None] >> np.arange(K - 1, -1, -1)) & 1).astype(float)
    q = np.einsum("ij,jk,ik->i", B, G, B)
    return np.einsum("n,n->", e, e) + q + np.einsum("ik,k->i", B, 2.0 * h)


@settings(max_examples=200)
@given(
    bits=st.lists(st.integers(0, 1), min_size=1, max_size=8),
    J=st.sampled_from([1, 2, 5, 8, 16, 40]),
    cfg=st.sampled_from([CFG, VPPM_CFG, VPPM_EDGE_CFG]),
    variant=st.sampled_from(list(Variant)),
    v2_0=st.floats(-2.0, 2.0),
    dv2_0=st.floats(-1e6, 1e6),
    sigma=st.sampled_from([0.0, 0.002, 0.02]),
    seed=st.integers(0, 2**31 - 1),
)
def test_frame_model_distances_equal_per_symbol_construction(
    bits, J, cfg, variant, v2_0, dv2_0, sigma, seed
):
    # shared kernel runs and the memoized model change no bit of any distance
    try:
        derive_params(FAST, J, T, variant)
    except UnstableStepError:
        assume(False)
    K = len(bits)
    ic = InitialConditions(v2_0, dv2_0)
    v2, _ = simulate(FAST, encode(bits, cfg), ic, J, variant)
    r = observe(v2, ObservationModel(sigma=sigma, seed=seed))
    want = per_symbol_distances(r, FAST, cfg, ic, J, K, variant)
    assert np.array_equal(_candidate_distances(r, FAST, cfg, ic, J, K, variant), want)
    # a second frame on the same model is scored from the cached one
    r2 = observe(v2, ObservationModel(sigma=sigma, seed=seed + 1))
    want2 = per_symbol_distances(r2, FAST, cfg, ic, J, K, variant)
    assert np.array_equal(_candidate_distances(r2, FAST, cfg, ic, J, K, variant), want2)


def test_frame_model_cache_keys_on_every_configuration_field():
    K = 4
    configs = [
        (FAST, CFG, IC, 8, Variant.EXACT),
        (CircuitParams(L=10e-6, C=1e-6, R_L=12.0), CFG, IC, 8, Variant.EXACT),
        (FAST, VPPM_CFG, IC, 8, Variant.EXACT),
        (FAST, CFG, InitialConditions(0.5, 1e4), 8, Variant.EXACT),
        (FAST, CFG, IC, 8, Variant.SIMPLIFIED),
        (FAST, CFG, IC, 16, Variant.EXACT),
    ]
    frames = {J: make_obs([1, 0, 0, 1], J=J, sigma=0.01, seed=J) for J in (8, 16)}
    fresh = []
    for p, cfg, ic, J, variant in configs:
        _frame_model.cache_clear()
        fresh.append(_candidate_distances(frames[J], p, cfg, ic, J, K, variant))
    _frame_model.cache_clear()
    for _ in range(2):
        for (p, cfg, ic, J, variant), want in zip(configs, fresh):
            assert np.array_equal(_candidate_distances(frames[J], p, cfg, ic, J, K, variant), want)
    info = _frame_model.cache_info()
    assert (info.misses, info.hits) == (len(configs), len(configs))
    z, Y, B, q = _frame_model(FAST, CFG, IC, 8, K, Variant.EXACT)
    for a in (z, Y, B, q):
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 1.0


def test_frame_model_runs_the_kernel_once_per_symbol(monkeypatch):
    # the benchmark's frames: VPWM at J = 32
    calls = {"_iterate": 0, "encode": 0, "sample_switching": 0}

    def counted(name):
        f = getattr(equalization, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(equalization, name, counted(name))
    _frame_model.cache_clear()
    for K in (8, 12):
        bits = np.resize([1, 0, 1], K)
        r = make_obs(bits, J=32, sigma=0.002, seed=K)
        before = dict(calls)
        assert np.array_equal(brute_force_detect(r, FAST, CFG, IC, J=32, K=K), bits)
        # z and one zero-state run per symbol
        assert calls["_iterate"] - before["_iterate"] == K + 1
        assert calls["encode"] - before["encode"] == 2
        assert calls["sample_switching"] - before["sample_switching"] == 2
        before = dict(calls)
        r2 = make_obs(bits, J=32, sigma=0.002, seed=K + 100)
        assert np.array_equal(brute_force_detect(r2, FAST, CFG, IC, J=32, K=K), bits)
        assert calls == before


def test_detection_refuses_large_searches():
    r = make_obs(alternating_bits(13), J=2)
    with pytest.raises(TooManyBitsError):
        brute_force_detect(r, FAST, CFG, IC, J=2, K=13)


def test_subtract_then_detect_equals_detection_on_data_component():
    # removing the exact transient reduces detection to the zero-state case
    d = derive_dynamics(FAST)
    bits = np.array([1, 1, 0, 1, 0, 0])
    pat = encode(bits, CFG)
    J = 8
    N = pat.K * J
    dt = T / J
    full = sample_output(d, IC, pat, FAST.V1, dt, N)
    data_only = Waveform(dt=dt, t0=0.0, samples=data_component(d, pat, FAST.V1, full.times()))
    ic0 = InitialConditions(0.0, 0.0)
    sigma = 0.01
    for seed in range(5):
        om = ObservationModel(c=1.0, sigma=sigma, seed=seed)
        path_a = brute_force_detect(
            subtract_transient(observe(full, om), d, IC),
            FAST, CFG, ic0, J, pat.K,
        )
        path_b = brute_force_detect(observe(data_only, om), FAST, CFG, ic0, J, pat.K)
        assert np.array_equal(path_a, path_b)


def test_noisy_detection_at_30db_snr():
    bits = np.array([1, 0, 1, 1, 0, 0, 1, 0])
    pat = encode(bits, CFG)
    v2, _ = simulate(FAST, pat, IC, 8, Variant.EXACT)
    ripple_rms = np.std(v2.samples - np.mean(v2.samples))
    sigma = ripple_rms / 10 ** (30 / 20)
    errors = 0
    for seed in range(10):
        r = observe(v2, ObservationModel(c=1.0, sigma=sigma, seed=seed))
        det = brute_force_detect(r, FAST, CFG, IC, J=8, K=8)
        errors += int(np.sum(det != bits))
    assert errors == 0
