"""Tests for the discrete-time iteration models and DCM clipping."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import backward_difference_buck, euler_buck
from tpcsim.analytic import sample_output
from tpcsim.circuit import CircuitParams, InitialConditions, derive_dynamics
from tpcsim.discrete import ConductionMode, SimState, Variant, derive_params, simulate, step
from tpcsim.errors import UnstableStepError
from tpcsim.modulation import ModulationConfig, Scheme, alternating_bits, encode

FAST = CircuitParams(L=10e-6, C=1e-6, R_L=10.0)
SLOW = CircuitParams(L=100e-6, C=0.1e-6, R_L=20.0)
T = 1e-6


def fig3_pattern(K=64, depth=0.2):
    cfg = ModulationConfig(Scheme.VPWM, T, 0.75, depth)
    return encode(alternating_bits(K), cfg)


def test_exact_coefficients_formulas():
    J = 10
    dp = derive_params(FAST, J, T, Variant.EXACT)
    dt = T / J
    crl = FAST.C * FAST.R_L
    den = FAST.L * (crl + dt) + FAST.R_L * dt * dt
    assert dp.kappa == pytest.approx(crl / (crl + dt), rel=1e-15)
    assert dp.mu == pytest.approx(FAST.R_L * dt / (crl + dt), rel=1e-15)
    assert dp.alpha == pytest.approx(FAST.L * (crl + dt) / den, rel=1e-15)
    assert dp.beta == pytest.approx(dt * (crl + dt) / den, rel=1e-15)
    assert dp.gamma == pytest.approx(-crl * dt / den, rel=1e-15)


def test_simplified_coefficients_formulas():
    J = 10
    dp = derive_params(FAST, J, T, Variant.SIMPLIFIED)
    dt = T / J
    assert dp.alpha == 1.0
    assert dp.beta == pytest.approx(dt / FAST.L, rel=1e-15)
    assert dp.gamma == -dp.beta
    assert dp.kappa == pytest.approx((FAST.C * FAST.R_L - dt) / (FAST.C * FAST.R_L), rel=1e-15)
    assert dp.mu == pytest.approx(dt / FAST.C, rel=1e-15)


def test_unstable_step_guard():
    # C*R_L = 2e-7 s; J = 4 gives dt = 2.5e-7 >= C*R_L
    p = CircuitParams(L=10e-6, C=0.1e-6, R_L=2.0)
    with pytest.raises(UnstableStepError):
        derive_params(p, 4, T, Variant.SIMPLIFIED)
    with pytest.raises(UnstableStepError):
        derive_params(p, 4, T, Variant.PREDICTIVE)
    derive_params(p, 4, T, Variant.EXACT)  # exact set has no such restriction


def test_jury_rule_rejects_updates_that_do_not_decay():
    # PREDICTIVE also needs dt < L/R_L: at R_L = 12 and J = 1, det A = 1.017
    p = CircuitParams(L=10e-6, C=1e-6, R_L=12.0)
    with pytest.raises(UnstableStepError, match="predictive"):
        derive_params(p, 1, T, Variant.PREDICTIVE)
    derive_params(p, 2, T, Variant.PREDICTIVE)
    derive_params(p, 1, T, Variant.EXACT)
    derive_params(p, 1, T, Variant.SIMPLIFIED)
    # dt = L/R_L exactly puts the pole pair on the unit circle, where the
    # ringing never decays; det A reads 1 - 1.1e-16 only by rounding, so the
    # rule must reject it too
    with pytest.raises(UnstableStepError):
        derive_params(FAST, 1, T, Variant.PREDICTIVE)
    # both eigenvalues approach 1 as dt -> 0: no cancellation rejects fine grids
    for variant in Variant:
        derive_params(FAST, 10**10, T, variant)


def test_exact_converges_to_simplified_for_small_dt():
    J = 1_000_000
    exact = derive_params(FAST, J, T, Variant.EXACT)
    simpl = derive_params(FAST, J, T, Variant.SIMPLIFIED)
    assert exact.alpha == pytest.approx(1.0, abs=1e-9)
    assert exact.beta == pytest.approx(simpl.beta, rel=1e-6)
    assert exact.gamma == pytest.approx(simpl.gamma, rel=1e-6)
    assert exact.kappa == pytest.approx(simpl.kappa, rel=1e-9)
    assert exact.mu == pytest.approx(simpl.mu, rel=1e-6)


def test_coefficient_signs_randomized():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p = CircuitParams(
            L=10.0 ** rng.uniform(-6, -3),
            C=10.0 ** rng.uniform(-8, -5),
            R_L=10.0 ** rng.uniform(0, 2),
        )
        J = int(rng.integers(1, 512))
        dp = derive_params(p, J, T, Variant.EXACT)
        assert 0 < dp.alpha < 1
        assert dp.beta > 0
        assert dp.gamma < 0
        assert 0 < dp.kappa < 1
        assert dp.mu > 0


def test_zero_input_zero_state_fixed_point():
    dp = derive_params(FAST, 16, T, Variant.EXACT)
    s = SimState(iL=0.0, v2=0.0)
    for _ in range(50):
        s = step(s, 0.0, 0.0, dp)
    assert s.iL == 0.0 and s.v2 == 0.0
    assert s.n == 50


def test_constant_drive_fixed_point():
    # s1 = 1 forever drives the exact iteration to v2 = V1, iL = V1/R_L
    dp = derive_params(FAST, 16, T, Variant.EXACT)
    s = SimState(iL=0.0, v2=0.0)
    for _ in range(200000):
        s = step(s, 1.0, 1.0, dp, V1=FAST.V1)
    assert s.v2 == pytest.approx(FAST.V1, rel=1e-6)
    assert s.iL == pytest.approx(FAST.V1 / FAST.R_L, rel=1e-6)


def test_dcm_clips_negative_current_update():
    dp = derive_params(FAST, 16, T, Variant.EXACT)
    s = SimState(iL=0.0, v2=1.0)  # gamma*v2 pulls the update negative
    nxt = step(s, 0.0, 0.0, dp, mode=ConductionMode.DCM)
    assert nxt.iL == 0.0
    assert step(s, 0.0, 0.0, dp).iL < 0.0


def test_dcm_zero_drive_decays_monotonically():
    dp = derive_params(FAST, 16, T, Variant.EXACT)
    v2_0 = 0.8
    s = SimState(iL=v2_0 / FAST.R_L, v2=v2_0)
    values = [s.v2]
    for _ in range(5000):
        s = step(s, 0.0, 0.0, dp, mode=ConductionMode.DCM)
        values.append(s.v2)
    values = np.array(values)
    assert np.all(np.diff(values) <= 0.0)
    assert np.all(values >= 0.0)
    assert values[-1] < 1e-3 * v2_0


def test_step_reproduces_simulate_exactly():
    # the single-step contract and the trajectory loop share one update rule
    from tpcsim.modulation import sample_switching

    pat = fig3_pattern(4)
    ic = InitialConditions(0.75, 0.0)
    J = 8
    for variant in Variant:
        for mode in ConductionMode:
            v2, iL = simulate(FAST, pat, ic, J, variant, mode)
            dp = derive_params(FAST, J, T, variant)
            s1 = sample_switching(pat, dp.dt, pat.K * J)
            s = SimState(iL=iL.samples[0], v2=v2.samples[0])
            for n in range(1, pat.K * J):
                s = step(s, s1[n], s1[n - 1], dp, mode, V1=FAST.V1)
                assert s.v2 == v2.samples[n] and s.iL == iL.samples[n]


def test_exact_is_the_backward_difference_recursion():
    # EXACT's coefficients resolve the backward-difference form of the two
    # circuit equations; the oracle solves that implicit system step by step
    # with its own switching sampler.  J = 5, 8, 16, 64 put no pulse edge on a
    # grid point, where the two samplers could round a tie differently.
    pat = fig3_pattern(64)
    for p in (FAST, SLOW):
        for ic in (InitialConditions(0.75, 0.0), InitialConditions(0.2, 3e4)):
            for J in (5, 8, 16, 64):
                v2, iL = simulate(p, pat, ic, J, Variant.EXACT)
                v2_ref, iL_ref = backward_difference_buck(p, pat, ic, J)
                assert np.abs(v2.samples - v2_ref).max() <= 1e-12 * np.abs(v2_ref).max()
                assert np.abs(iL.samples - iL_ref).max() <= 1e-12 * np.abs(iL_ref).max()


def test_iterations_match_independent_recursions():
    # the recursions are written from the raw circuit equations: SIMPLIFIED is
    # semi-implicit Euler, PREDICTIVE forward Euler, EXACT in DCM the backward
    # difference with the same clip.  IC 1.5 V starts above the target so the
    # CCM current goes negative and DCM clips it; J as in the EXACT check above.
    pat = fig3_pattern(64)
    clipped = set()
    for p in (FAST, SLOW):
        for ic in (InitialConditions(0.75, 0.0), InitialConditions(1.5, 0.0)):
            for J in (5, 8, 16, 64):
                for variant, mode in (
                    (Variant.SIMPLIFIED, ConductionMode.CCM),
                    (Variant.SIMPLIFIED, ConductionMode.DCM),
                    (Variant.PREDICTIVE, ConductionMode.CCM),
                    (Variant.PREDICTIVE, ConductionMode.DCM),
                    (Variant.EXACT, ConductionMode.DCM),
                ):
                    dcm = mode is ConductionMode.DCM
                    v2, iL = simulate(p, pat, ic, J, variant, mode)
                    if variant is Variant.EXACT:
                        v2_ref, iL_ref = backward_difference_buck(p, pat, ic, J, clip=dcm)
                    else:
                        v2_ref, iL_ref = euler_buck(
                            p, pat, ic, J, semi_implicit=variant is Variant.SIMPLIFIED, clip=dcm
                        )
                    assert np.abs(v2.samples - v2_ref).max() <= 1e-12 * np.abs(v2_ref).max()
                    assert np.abs(iL.samples - iL_ref).max() <= 1e-12 * np.abs(iL_ref).max()
                    if dcm and np.any(iL_ref == 0.0):
                        clipped.add(variant)
    assert clipped == set(Variant)


def test_simulate_initial_sample_carries_ics():
    pat = fig3_pattern(4)
    ic = InitialConditions(0.75, 0.0)
    v2, iL = simulate(FAST, pat, ic, 8, Variant.EXACT)
    assert v2.samples[0] == 0.75
    assert iL.samples[0] == pytest.approx(0.075)
    assert len(v2) == 4 * 8 and v2.dt == pytest.approx(T / 8)


@pytest.mark.parametrize("variant", list(Variant))
def test_simulate_of_an_empty_pattern_is_empty(variant):
    v2, iL = simulate(FAST, fig3_pattern(0), InitialConditions(0.75, 0.0), 8, variant)
    assert len(v2) == len(iL) == 0
    assert v2.dt == iL.dt == pytest.approx(T / 8)


@settings(max_examples=150)
@given(
    slow=st.booleans(),
    variant=st.sampled_from(list(Variant)),
    mode=st.sampled_from(list(ConductionMode)),
    bits=st.lists(st.integers(0, 1), min_size=1, max_size=16),
    J=st.integers(1, 64),
    v2_0=st.floats(0.0, 2.0),
    dv2_0=st.floats(0.0, 1e5),
    start_share=st.floats(0.0, 1.0, exclude_max=True),
)
def test_started_run_is_the_tail_of_the_full_run(
    slow, variant, mode, bits, J, v2_0, dv2_0, start_share
):
    """A run that stores from `start` on is bit for bit the full run's tail:
    the samples before it are iterated without storing them.  v2(0) up to
    2 V starts above the target, so DCM runs clip the current; the last
    sample alone is checked too, so such a clip falls in the unstored part."""
    p = SLOW if slow else FAST
    pat = encode(bits, ModulationConfig(Scheme.VPWM, T, 0.75, 0.2))
    ic = InitialConditions(v2_0, dv2_0)
    N = pat.K * J
    start = min(int(start_share * N), N - 1)
    try:
        v2, iL = simulate(p, pat, ic, J, variant, mode)
    except UnstableStepError:
        assume(False)
    for n0 in (start, N - 1):
        v2_s, iL_s = simulate(p, pat, ic, J, variant, mode, start=n0)
        assert np.array_equal(v2_s.samples, v2.samples[n0:])
        assert np.array_equal(iL_s.samples, iL.samples[n0:])
        assert v2_s.dt == iL_s.dt == v2.dt
        assert v2_s.t0 == iL_s.t0 == n0 * v2.dt


@pytest.mark.parametrize(
    "K, start", [(4, -1), (4, 32), (4, 33), (4, 1.0), (4, 0.5), (4, "1"), (4, None), (0, 1)]
)
def test_start_outside_the_run_is_rejected(K, start):
    # K*J = 32 samples at K = 4, none at K = 0
    with pytest.raises(ValueError, match="start"):
        simulate(FAST, fig3_pattern(K), InitialConditions(0.75, 0.0), 8, Variant.EXACT, start=start)


def test_fig4_scenario_settled_mean():
    pat = encode(
        alternating_bits(64), ModulationConfig(Scheme.VPWM, T, 0.75, 0.025)
    )
    ic = InitialConditions(0.75, 0.0)
    v2, _ = simulate(SLOW, pat, ic, 256, Variant.EXACT)
    post = v2.samples[8 * 256 :]
    assert np.mean(post) == pytest.approx(0.75, abs=0.5e-2 * 0.75)


def slow_pattern(K, depth=0.2):
    cfg = ModulationConfig(Scheme.VPWM, T, 0.75, depth)
    return encode(alternating_bits(K), cfg)


def test_predictive_is_roughly_one_sample_delayed_simplified():
    # compare past the settling guard so ripple, not startup, dominates
    pat = slow_pattern(88)
    ic = InitialConditions(0.75, 0.0)
    J, n0 = 64, 56 * 64
    simp, _ = simulate(SLOW, pat, ic, J, Variant.SIMPLIFIED)
    pred, _ = simulate(SLOW, pat, ic, J, Variant.PREDICTIVE)
    raw_gap = np.mean((pred.samples[n0:] - simp.samples[n0:]) ** 2)
    shifted_gap = np.mean((pred.samples[n0 + 1 :] - simp.samples[n0:-1]) ** 2)
    # the one-sample shift is the dominant part of the gap; the rest comes
    # from the additional iL[n] ~ iL[n-1] approximation
    assert shifted_gap < raw_gap / 2.0


def test_convergence_as_j_doubles():
    # settled window: the reference fluctuates around the DC level there
    pat = fig3_pattern(342)
    settle = 277
    ic = InitialConditions(0.75, 0.0)
    d = derive_dynamics(FAST)
    for variant in (Variant.EXACT, Variant.SIMPLIFIED):
        errors = []
        for J in (16, 32, 64, 128, 256, 512):
            v2, _ = simulate(FAST, pat, ic, J, variant)
            ref = sample_output(d, ic, pat, FAST.V1, T / J, pat.K * J)
            e = np.abs(v2.samples - ref.samples)[settle * J :]
            errors.append(e.max())
        assert all(a > b for a, b in zip(errors, errors[1:]))


def test_exact_and_simplified_nearly_identical_at_high_j():
    pat = fig3_pattern(342)
    settle = 277
    ic = InitialConditions(0.75, 0.0)
    d = derive_dynamics(FAST)
    J = 512
    n0 = settle * J
    ref = sample_output(d, ic, pat, FAST.V1, T / J, pat.K * J)
    v2_e, _ = simulate(FAST, pat, ic, J, Variant.EXACT)
    v2_s, _ = simulate(FAST, pat, ic, J, Variant.SIMPLIFIED)
    mse_e = np.mean((v2_e.samples[n0:] - ref.samples[n0:]) ** 2)
    mse_s = np.mean((v2_s.samples[n0:] - ref.samples[n0:]) ** 2)
    cross = np.mean((v2_e.samples[n0:] - v2_s.samples[n0:]) ** 2)
    assert cross < 0.01 * min(mse_e, mse_s)


def test_ccm_dcm_identical_when_current_stays_positive():
    pat = encode(
        alternating_bits(32), ModulationConfig(Scheme.VPWM, T, 0.75, 0.025)
    )
    ic = InitialConditions(0.75, 0.0)
    v2_c, iL_c = simulate(SLOW, pat, ic, 64, Variant.EXACT, ConductionMode.CCM)
    assert iL_c.samples.min() >= 0.0
    v2_d, iL_d = simulate(SLOW, pat, ic, 64, Variant.EXACT, ConductionMode.DCM)
    assert np.array_equal(v2_c.samples, v2_d.samples)
    assert np.array_equal(iL_c.samples, iL_d.samples)


def test_dcm_differs_when_ccm_goes_negative():
    pat = fig3_pattern(16, depth=0.2)
    ic = InitialConditions(1.5, 0.0)  # start above the target voltage
    _, iL_c = simulate(FAST, pat, ic, 64, Variant.EXACT, ConductionMode.CCM)
    assert iL_c.samples.min() < 0.0
    v2_d, iL_d = simulate(FAST, pat, ic, 64, Variant.EXACT, ConductionMode.DCM)
    assert iL_d.samples.min() >= 0.0
    assert np.all(v2_d.samples >= 0.0)


def test_dcm_rejects_negative_initial_state():
    pat = fig3_pattern(4)
    with pytest.raises(ValueError):
        simulate(FAST, pat, InitialConditions(-0.1, 0.0), 8, Variant.EXACT, ConductionMode.DCM)


def test_bounded_trajectories_randomized():
    rng = np.random.default_rng(13)
    for _ in range(15):
        p = CircuitParams(L=10e-6, C=1e-6, R_L=float(rng.choice([2.0, 10.0, 20.0])))
        bits = rng.integers(0, 2, 16)
        cfg = ModulationConfig(Scheme.VPWM, T, 0.75, 0.2)
        pat = encode(bits, cfg)
        ic = InitialConditions(rng.uniform(0.0, 1.0), 0.0)
        J = int(rng.choice([8, 32, 128]))
        variant = rng.choice(list(Variant))
        v2, iL = simulate(p, pat, ic, J, variant)
        bound = 3.0 * max(p.V1, ic.v2_0, abs(iL.samples[0]) * p.R_L)
        assert np.abs(v2.samples).max() <= bound
        assert np.abs(iL.samples).max() <= bound * 5.0 / p.R_L
