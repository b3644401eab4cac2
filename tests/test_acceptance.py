"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line with the measured numbers (run pytest with -s to see them all).

Scenario vocabulary used below:
* fast circuit: L=10 uH, C=1 uF, R_L=10 ohm   (components/bias/MSE scenarios)
* slow circuit: L=100 uH, C=0.1 uF, R_L=20 ohm (ripple/spectrum scenarios)
Both switch at 1 MHz with duty 0.75 and alternating data bits.
"""

import time

import numpy as np
import pytest

from oracles import (
    general_derivative_ics,
    parasitic_derivative_ics,
    rk4_buck,
    rk4_general,
    rk4_parasitic,
)
from tpcsim.accuracy import sweep
from tpcsim.analytic import Waveform, sample_output
from tpcsim.circuit import (
    CircuitParams,
    InitialConditions,
    cutoff_frequency,
    derive_dynamics,
    frequency_response,
)
from tpcsim.discrete import ConductionMode, Variant, derive_params, simulate
from tpcsim.equalization import (
    ObservationModel,
    brute_force_detect,
    observe,
    zf_response,
)
from tpcsim.errors import RepeatedPolesError
from tpcsim.laplace import (
    GeneralLoad,
    ParasiticParams,
    build_general_load_model,
    build_parasitic_model,
    expand_strictly_proper,
    find_poles,
    ic_numerator,
    simulate_generalized,
)
from tpcsim.modulation import (
    ModulationConfig,
    Scheme,
    alternating_bits,
    encode_vpwm,
    sample_switching,
)
from tpcsim.analytic import transient_component
from tpcsim.spectrum import envelope_slope_db_per_decade, ripple_spectrum, spectrum_via_fft

T = 1e-6
FAST = CircuitParams(L=10e-6, C=1e-6, R_L=10.0)
SLOW = CircuitParams(L=100e-6, C=0.1e-6, R_L=20.0)

FIG67_BITS = alternating_bits(341)
FIG67_CFG = ModulationConfig(Scheme.VPWM, T, 0.75, 0.2)
FIG67_SETTLE = 277
FIG6_J_LIST = [4, 5, 6, 7, 8, 10, 12, 16, 20, 24, 32, 48, 64, 96, 128, 192, 255, 256]
FIG7_J_LIST = [4, 8, 16, 32, 64, 128, 256]


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[acceptance {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def fig67_reports():
    raw = sweep(
        FAST,
        FIG67_CFG,
        FIG67_BITS,
        FIG6_J_LIST,
        list(Variant),
        settle_symbols=FIG67_SETTLE,
        align_predictive=False,
    )
    aligned = sweep(
        FAST,
        FIG67_CFG,
        FIG67_BITS,
        FIG6_J_LIST,
        [Variant.PREDICTIVE],
        settle_symbols=FIG67_SETTLE,
        align_predictive=True,
    )
    table_raw = {(r.J, r.variant): r for r in raw}
    table_aligned = {(r.J, r.variant): r for r in aligned}
    return table_raw, table_aligned


def test_criterion_1_analytic_matches_rk4_oracle():
    combos = [
        CircuitParams(L=lv, C=cv, R_L=rv)
        for lv in (10e-6, 100e-6)
        for cv in (0.1e-6, 1e-6)
        for rv in (2.0, 10.0, 20.0)
        if CircuitParams(L=lv, C=cv, R_L=rv).underdamped_valid()
    ]
    assert len(combos) == 8
    cfg = ModulationConfig(Scheme.VPWM, T, 0.75, 0.2)
    pat = encode_vpwm(alternating_bits(64), cfg)
    J = 1000
    worst = 0.0
    slowest = 0.0
    for p in combos:
        start = time.perf_counter()
        d = derive_dynamics(p)
        ic = InitialConditions(0.75 * p.V1, 0.0)
        w = sample_output(d, ic, pat, p.V1, T / J, pat.K * J)
        v2_ref, _ = rk4_buck(p, pat, ic, J)
        elapsed = time.perf_counter() - start
        err = np.abs(w.samples - v2_ref).max() / np.abs(v2_ref).max()
        worst = max(worst, err)
        slowest = max(slowest, elapsed)
    ok = worst < 1e-4 and slowest < 5.0
    report(1, ok, f"8 underdamped combos, max rel err {worst:.3e} (<1e-4), slowest case {slowest:.2f} s (<5 s)")
    assert worst < 1e-4
    assert slowest < 5.0


def test_criterion_2_ripple_bound():
    start = time.perf_counter()
    cfg = ModulationConfig(Scheme.VPWM, T, 0.75, 0.025)
    pat = encode_vpwm(alternating_bits(64), cfg)
    d = derive_dynamics(SLOW)
    ic = InitialConditions(0.75, 0.0)
    J = 100
    w = sample_output(d, ic, pat, SLOW.V1, T / J, pat.K * J)
    guard = 16
    v2_nominal = 0.75 * SLOW.V1
    ripple = np.abs(w.samples[guard * J :] - v2_nominal).max() / v2_nominal
    elapsed = time.perf_counter() - start
    ok = ripple < 0.003 and elapsed < 5.0
    report(2, ok, f"post-guard relative ripple {ripple:.5f} (<0.003), {elapsed:.2f} s (<5 s)")
    assert ripple < 0.003
    assert elapsed < 5.0


def test_criterion_3_spectrum_decay_and_fft_agreement():
    cfg = ModulationConfig(Scheme.VPWM, T, 0.75, 0.025)
    K = 64
    pat = encode_vpwm(alternating_bits(K), cfg)
    d = derive_dynamics(SLOW)
    f3 = cutoff_frequency(SLOW)

    grid = np.logspace(np.log10(10 * f3), np.log10(100 * f3), 4000)
    sg = ripple_spectrum(SLOW, d, pat, grid)
    slope = envelope_slope_db_per_decade(sg.frequencies, sg.magnitude_db(SLOW.V1 * T))
    slope_ok = -43.0 < slope < -37.0

    # FFT cross-check on a settled window of 64 symbols
    settle = 48
    bits_ext = alternating_bits(settle + K)
    pat_ext = encode_vpwm(bits_ext, cfg)
    J = 64
    ic = InitialConditions(0.75, 0.0)
    w_full = sample_output(d, ic, pat_ext, SLOW.V1, T / J, pat_ext.K * J)
    w = Waveform(dt=w_full.dt, t0=settle * T, samples=w_full.samples[settle * J :])
    sg_fft = spectrum_via_fft(w, dc_remove=0.75 * SLOW.V1)
    harmonics = np.array([m * K - 1 for m in range(1, 5)])  # bins at m/T
    ana = ripple_spectrum(SLOW, d, pat, sg_fft.frequencies[harmonics]).values
    got = sg_fft.values[harmonics]
    floor = np.abs(ana).max() * 1e-2  # skip exact spectral nulls
    mask = np.abs(ana) > floor
    diffs_db = 20.0 * np.log10(np.abs(got[mask]) / np.abs(ana[mask]))
    fft_ok = np.abs(diffs_db).max() < 1.0

    ok = slope_ok and fft_ok
    report(
        3,
        ok,
        f"envelope slope {slope:.2f} dB/decade (-40 +/- 3), "
        f"fft-vs-closed-form at harmonic bins max |diff| {np.abs(diffs_db).max():.3f} dB (<1), "
        f"{int(mask.sum())}/4 harmonics above null floor",
    )
    assert slope_ok
    assert fft_ok


def test_criterion_4_mse_scaling(fig67_reports):
    table_raw, table_aligned = fig67_reports
    decreasing = {}
    positive = True
    for variant in Variant:
        series = [table_raw[(J, variant)].mse for J in FIG7_J_LIST]
        decreasing[variant.value] = all(a > b for a, b in zip(series, series[1:]))
        positive &= all(m > 0 for m in series)
    pred_better = all(
        table_aligned[(J, Variant.PREDICTIVE)].mse <= table_raw[(J, Variant.EXACT)].mse
        and table_aligned[(J, Variant.PREDICTIVE)].mse <= table_raw[(J, Variant.SIMPLIFIED)].mse
        for J in FIG7_J_LIST
    )
    ok = all(decreasing.values()) and positive and pred_better
    report(
        4,
        ok,
        f"MSE strictly decreasing {decreasing}, all positive {positive}, "
        f"aligned predictive <= others at every J {pred_better}",
    )
    assert all(decreasing.values())
    assert positive
    assert pred_better


def test_criterion_4_mse_log_log_slope(fig67_reports):
    # All three iterations are first-order discretisations of
    # L*diL/dt = V1*s1 - v2 and C*dv2/dt = iL - v2/R_L.  EXACT is their
    # backward-difference recursion (test_discrete ties it to the independent
    # one in oracles.py); SIMPLIFIED and PREDICTIVE are explicit first-order
    # forms of the same equations.  Each trajectory therefore misses the closed
    # form by O(dt) = O(1/J) once the bias is removed, and accuracy.mse, a
    # per-sample mean of squared errors, falls as 1/J**2: log-log slope -2.
    # (A slope of -1 would need the squared error summed over the J samples of
    # a symbol instead of averaged.)
    table_raw, _ = fig67_reports
    js = np.array([J for J in FIG7_J_LIST if J >= 8], dtype=float)
    slopes = {}
    for variant in Variant:
        mses = np.array([table_raw[(int(J), variant)].mse for J in js])
        slopes[variant.value] = float(np.polyfit(np.log10(js), np.log10(mses), 1)[0])
    ok = all(-2.3 <= s <= -1.7 for s in slopes.values())
    report(4, ok, f"log-log MSE slopes for J >= 8: {slopes} (gate -2.0 +/- 0.3)")
    for name, s in slopes.items():
        assert -2.3 <= s <= -1.7, f"{name}: slope {s:.3f} outside [-2.3, -1.7]"


def test_criterion_5_bias_spread_across_variants(fig67_reports):
    table_raw, _ = fig67_reports
    max_bias = max(abs(r.bias) for r in table_raw.values())
    spreads = {}
    for J in FIG6_J_LIST:
        biases = [table_raw[(J, v)].bias for v in Variant]
        spreads[J] = max(biases) - min(biases)
    spread_ok = all(s < 0.10 * max_bias for s in spreads.values())
    report(
        5,
        spread_ok,
        f"max spread across variants {max(spreads.values()):.3e} "
        f"< 10% of max |bias| {max_bias:.3e}: {spread_ok}",
    )
    assert spread_ok


def test_criterion_5_bias_endpoint_decrease(fig67_reports):
    # Bias falls with J as the duty quantisation of the sampled switching
    # signal does.  Every iteration has unit DC gain, so over the settled
    # window (whole periods of the two-symbol pattern) the mean output is V1
    # times the mean of the sampled switching signal.  A pulse [a, b) holds
    # floor or ceil of (b - a)/dt grid points, so each symbol's sampled duty
    # misses its true duty by less than 1/J: |bias(J)| < V1/J at every J (no
    # factor below puts an edge exactly on a grid point).  The endpoints
    # J = 4 and J = 256 are both multiples of 4, where the deficits of the
    # two duty cycles cancel exactly; their biases are zero up to settling
    # residue (~1e-10), so a strict |bias(256)| < |bias(4)| would compare that
    # residue.  The EXACT bias equals the sampled duty deficit to far below
    # the bound, which shows those zeros are exact cancellations.
    table_raw, _ = fig67_reports
    V1 = FAST.V1
    pat = encode_vpwm(FIG67_BITS, FIG67_CFG)
    worst_ratio = 0.0
    worst_gap = 0.0
    for J in FIG6_J_LIST:
        for variant in Variant:
            worst_ratio = max(worst_ratio, abs(table_raw[(J, variant)].bias) * J / V1)
        s1 = sample_switching(pat, T / J, pat.K * J)[FIG67_SETTLE * J :]
        deficit = V1 * (float(np.mean(s1)) - FIG67_CFG.delta)
        worst_gap = max(worst_gap, abs(table_raw[(J, Variant.EXACT)].bias - deficit))
    bound_ok = worst_ratio < 1.0
    identity_ok = worst_gap <= 1e-8 * V1
    report(
        5,
        bound_ok and identity_ok,
        f"max |bias(J)|*J/V1 over J and variants {worst_ratio:.3f} (<1); "
        f"max |bias - V1*(sampled duty - delta)| for exact {worst_gap:.2e} (<=1e-8*V1)",
    )
    assert bound_ok
    assert identity_ok


def test_criterion_6_parameter_approximation():
    J = 10
    lc = 1e-11
    r_l = 20.0
    c_values = np.logspace(np.log10(3e-7), np.log10(3e-4), 10)
    gaps = {name: [] for name in ("alpha", "beta", "gamma", "kappa", "mu")}
    for c in c_values:
        p = CircuitParams(L=lc / c, C=c, R_L=r_l)
        exact = derive_params(p, J, T, Variant.EXACT)
        approx = derive_params(p, J, T, Variant.SIMPLIFIED)
        for name in gaps:
            e, a = getattr(exact, name), getattr(approx, name)
            gaps[name].append(abs(a - e) / abs(e))
    tight_ok = all(
        max(gaps[name]) < 0.02 for name in ("alpha", "beta", "kappa", "mu")
    )
    gamma = gaps["gamma"]
    gamma_ok = max(gamma[1:]) < 0.02 and gamma[0] < 0.10
    largest_gap_is_gamma_at_smallest_c = gamma[0] == max(
        max(g) for g in gaps.values()
    ) and gamma[0] == max(gamma)
    ok = tight_ok and gamma_ok and largest_gap_is_gamma_at_smallest_c
    report(
        6,
        ok,
        f"alpha/beta/kappa/mu gaps < 2% everywhere: {tight_ok}; "
        f"gamma gap {gamma[0]:.4f} at smallest C (<10%), < 2% elsewhere: {gamma_ok}",
    )
    assert tight_ok
    assert gamma_ok
    assert largest_gap_is_gamma_at_smallest_c


def test_criterion_7_dcm_properties():
    rng = np.random.default_rng(77)
    cfg = ModulationConfig(Scheme.VPWM, T, 0.75, 0.2)
    runs = clipped = identical = 0
    for r_l in (2.0, 10.0, 20.0):
        p = CircuitParams(L=10e-6, C=1e-6, R_L=r_l)
        for _ in range(10):
            bits = rng.integers(0, 2, int(rng.integers(8, 32)))
            pat = encode_vpwm(bits, cfg)
            # occasionally start above the target voltage to force clipping
            v2_0 = float(rng.choice([0.0, 0.75, 1.5]))
            ic = InitialConditions(v2_0, 0.0)
            J = int(rng.choice([16, 64]))
            v2_c, iL_c = simulate(p, pat, ic, J, Variant.EXACT, ConductionMode.CCM)
            v2_d, iL_d = simulate(p, pat, ic, J, Variant.EXACT, ConductionMode.DCM)
            runs += 1
            assert iL_d.samples.min() >= 0.0
            if iL_c.samples.min() >= 0.0:
                identical += 1
                assert np.array_equal(v2_c.samples, v2_d.samples)
                assert np.array_equal(iL_c.samples, iL_d.samples)
            else:
                clipped += 1
                assert not np.array_equal(v2_c.samples, v2_d.samples)
    ok = clipped > 0 and identical > 0
    report(
        7,
        ok,
        f"{runs} randomized runs: iL >= 0 always in DCM; {identical} CCM-equal, "
        f"{clipped} clipped",
    )
    assert ok


def test_criterion_8_equalization_identities():
    rng = np.random.default_rng(88)
    # zero-forcing identity
    f = rng.uniform(-2e7, 2e7, 10000)
    prod = zf_response(FAST, f) * frequency_response(FAST, f)
    zf_ok = np.abs(prod - 1.0).max() < 1e-12

    # residual-transient linearity for 100 random error pairs
    d = derive_dynamics(FAST)
    t = np.linspace(0.0, 4e-5, 400)
    ic = InitialConditions(0.75, 0.0)
    truth = transient_component(d, ic, t)
    lin_ok = True
    for _ in range(100):
        ev, edv = rng.uniform(-0.1, 0.1), rng.uniform(-1e5, 1e5)
        lam = rng.uniform(-2.0, 2.0)
        res = truth - transient_component(d, InitialConditions(ic.v2_0 + ev, ic.dv2_0 + edv), t)
        res_lam = truth - transient_component(
            d, InitialConditions(ic.v2_0 + lam * ev, ic.dv2_0 + lam * edv), t
        )
        lin_ok &= np.allclose(res_lam, lam * res, rtol=1e-9, atol=1e-12)

    # exhaustive noiseless detection over all 2^6 sequences
    cfg = ModulationConfig(Scheme.VPWM, T, 0.75, 0.2)
    J = 8
    exhaustive_ok = True
    for value in range(64):
        bits = np.array([(value >> (5 - i)) & 1 for i in range(6)])
        pat = encode_vpwm(bits, cfg)
        v2, _ = simulate(FAST, pat, ic, J, Variant.EXACT)
        det = brute_force_detect(v2, FAST, cfg, ic, J, 6)
        exhaustive_ok &= bool(np.array_equal(det, bits))

    # seeded detection at 30 dB SNR, 100 trials, zero bit errors
    bits = np.array([1, 0, 1, 1, 0, 0, 1, 0])
    pat = encode_vpwm(bits, cfg)
    v2, _ = simulate(FAST, pat, ic, J, Variant.EXACT)
    sigma = np.std(v2.samples - np.mean(v2.samples)) / 10 ** (30 / 20)
    errors = 0
    for seed in range(100):
        r = observe(v2, ObservationModel(c=1.0, sigma=float(sigma), seed=seed))
        det = brute_force_detect(r, FAST, cfg, ic, J, 8)
        errors += int(np.sum(det != bits))
    noisy_ok = errors == 0

    ok = zf_ok and lin_ok and exhaustive_ok and noisy_ok
    report(
        8,
        ok,
        f"F*H==1 to 1e-12: {zf_ok}; residual linearity (100 draws): {lin_ok}; "
        f"2^6 exhaustive noiseless recovery: {exhaustive_ok}; "
        f"30 dB SNR 100 trials bit errors = {errors}",
    )
    assert zf_ok and lin_ok and exhaustive_ok and noisy_ok


def test_criterion_9_generalized_solver():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    cfg = ModulationConfig(Scheme.VPWM, T, 0.75, 0.025)
    pat = encode_vpwm(alternating_bits(10), cfg)
    J = 64
    d = derive_dynamics(SLOW)
    ic = InitialConditions(0.75, 0.0)

    # degenerate reductions match the base closed form
    ref = sample_output(d, ic, pat, SLOW.V1, T / J, pat.K * J)
    scale = np.abs(ref.samples).max()
    w_par = simulate_generalized(
        SLOW, ParasiticParams(), pat, {"v2_0": ic.v2_0, "dv2_0": ic.dv2_0}, J
    )
    w_gl = simulate_generalized(
        SLOW, GeneralLoad(R_L=SLOW.R_L), pat, {"v2_0": ic.v2_0, "dv2_0": ic.dv2_0}, J
    )
    degenerate_ok = (
        np.abs(w_par.samples - ref.samples).max() < 1e-9 * scale
        and np.abs(w_gl.samples - ref.samples).max() < 1e-9 * scale
    )

    # randomized draws against the state-space oracles
    def scaled_residual(model, poles):
        deg = model.degree
        lead = abs(model.den[-1])
        sigma = max(
            (abs(model.den[k]) / lead) ** (1.0 / (deg - k))
            for k in range(deg)
            if model.den[k] != 0.0
        )
        scaled = model.den * sigma ** np.arange(deg + 1)
        scaled = scaled / np.max(np.abs(scaled))
        vals = np.polyval(scaled[::-1], poles / sigma)
        return float(np.abs(vals).max())

    worst_err = 0.0
    worst_resid = 0.0
    roundtrip_ok = True
    n_parasitic = n_general = 0
    while n_parasitic < 50:
        q = ParasiticParams(
            esr_C=float(10.0 ** rng.uniform(-2, 0)),
            esl_C=float(10.0 ** rng.uniform(-9, -7)),
            r_ds_on_1=(r := float(rng.uniform(0.0, 0.2))),
            r_ds_on_2=r,
        )
        try:
            model = build_parasitic_model(SLOW, q)
            poles = find_poles(model)
        except RepeatedPolesError:
            continue
        x0 = np.array([rng.uniform(-0.2, 0.2), rng.uniform(-0.05, 0.05), rng.uniform(0.0, 1.0)])
        ics = parasitic_derivative_ics(SLOW, q, x0)
        w = simulate_generalized(SLOW, q, pat, ics, J)
        refo = rk4_parasitic(SLOW, q, pat, x0, J)
        worst_err = max(worst_err, np.abs(w.samples - refo).max() / np.abs(refo).max())
        worst_resid = max(worst_resid, scaled_residual(model, poles))
        n_parasitic += 1
    while n_general < 50:
        gl = GeneralLoad(
            R_L=float(rng.uniform(5.0, 50.0)),
            L_L=float(10.0 ** rng.uniform(-6, np.log10(2e-4))),
            C_L=float(10.0 ** rng.uniform(np.log10(5e-8), -5)),
        )
        try:
            model = build_general_load_model(SLOW, gl)
            poles = find_poles(model)
        except RepeatedPolesError:
            continue
        x0 = np.array(
            [
                rng.uniform(-0.2, 0.2),
                rng.uniform(0.0, 1.0),
                rng.uniform(-0.1, 0.1),
                rng.uniform(-0.5, 0.5),
            ]
        )
        ics = general_derivative_ics(SLOW, gl, x0)
        w = simulate_generalized(SLOW, gl, pat, ics, J)
        refo = rk4_general(SLOW, gl, pat, x0, J)
        worst_err = max(worst_err, np.abs(w.samples - refo).max() / np.abs(refo).max())
        worst_resid = max(worst_resid, scaled_residual(model, poles))

        # partial-fraction round trip at off-pole test points
        pr = expand_strictly_proper(ic_numerator(model, ics), model.den, poles)
        s_test = (rng.uniform(-3, 3, 100) + 1j * rng.uniform(-3, 3, 100)) * np.abs(
            pr.poles
        ).max()
        # the initial-condition numerator by hand: v2^(m)(0) multiplies P[m+1:], v1^(m)(0) -Q[m+1:]
        num = np.zeros(model.degree)
        for m, sym in enumerate(("v2_0", "dv2_0", "d2v2_0", "d3v2_0")[: model.degree]):
            num[: model.degree - m] += ics.get(sym, 0.0) * model.den[m + 1 :]
        for m, sym in enumerate(("v1_0", "dv1_0")[: len(model.num) - 1]):
            num[: len(model.num) - 1 - m] -= ics.get(sym, 0.0) * model.num[m + 1 :]
        direct = np.polyval(num[::-1], s_test) / np.polyval(model.den[::-1], s_test)
        rebuilt = np.sum(pr.residues[None, :] / (s_test[:, None] - pr.poles[None, :]), axis=1)
        roundtrip_ok &= bool(np.allclose(rebuilt, direct, rtol=1e-8, atol=1e-30))
        n_general += 1

    elapsed = time.perf_counter() - start
    ok = (
        degenerate_ok
        and worst_err < 1e-3
        and worst_resid < 1e-8
        and roundtrip_ok
        and elapsed < 60.0
    )
    report(
        9,
        ok,
        f"degenerate reductions to 1e-9: {degenerate_ok}; 100 oracle draws max rel err "
        f"{worst_err:.2e} (<1e-3); pole residual {worst_resid:.2e} (<1e-8); "
        f"round trip {roundtrip_ok}; {elapsed:.1f} s (<60 s)",
    )
    assert degenerate_ok
    assert worst_err < 1e-3
    assert worst_resid < 1e-8
    assert roundtrip_ok
    assert elapsed < 60.0
