"""Tests for the generalized rational transfer models and inverse transforms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    general_derivative_ics,
    general_state_space,
    parasitic_derivative_ics,
    parasitic_state_space,
    rk4_general,
    rk4_parasitic,
)
from tpcsim.analytic import sample_output, transient_component
from tpcsim.circuit import CircuitParams, Dynamics, InitialConditions, derive_dynamics
from tpcsim.errors import DegenerateTopologyError, ModelError, RepeatedPolesError, UnstablePoleError
from tpcsim.laplace import (
    GeneralLoad,
    ParasiticParams,
    build_general_load_model,
    build_parasitic_model,
    simulate_generalized,
)
from tpcsim.modal import (
    PoleResidue,
    RationalLaplace,
    _modal_sum,
    expand_strictly_proper,
    find_poles,
    ic_numerator,
    transfer_at,
)
from tpcsim.modulation import ModulationConfig, Scheme, alternating_bits, encode

SLOW = CircuitParams(L=100e-6, C=0.1e-6, R_L=20.0)
T = 1e-6


def pattern(K=10, depth=0.025):
    cfg = ModulationConfig(Scheme.VPWM, T, 0.75, depth)
    return encode(alternating_bits(K), cfg)


def make_rational(den_roots, num=(1.0,)):
    den = np.poly(den_roots)[::-1].real
    return RationalLaplace(num=np.array(num, float), den=den)


def test_no_parasitics_reduces_to_base_model():
    model = build_parasitic_model(SLOW, ParasiticParams())
    assert model.degree == 2
    d = derive_dynamics(SLOW)
    poles = find_poles(model)
    assert np.allclose(sorted(poles, key=lambda z: z.imag), d.poles, rtol=1e-10)
    assert transfer_at(model, 0.0) == pytest.approx(1.0)


def test_pure_ohmic_general_load_reduces_to_base_model():
    model = build_general_load_model(SLOW, GeneralLoad(R_L=SLOW.R_L))
    base = build_parasitic_model(SLOW, ParasiticParams())
    assert model.degree == 2
    s = 1j * np.logspace(3, 7, 50) * 2 * np.pi
    assert np.allclose(transfer_at(model, s), transfer_at(base, s), rtol=1e-12)


def test_parasitic_degrees():
    assert build_parasitic_model(SLOW, ParasiticParams(esr_C=0.1)).degree == 2
    assert build_parasitic_model(SLOW, ParasiticParams(esl_C=10e-9)).degree == 3
    assert build_parasitic_model(SLOW, ParasiticParams(esr_C=0.1, esl_C=10e-9)).degree == 3


def test_general_load_degrees():
    assert build_general_load_model(SLOW, GeneralLoad(R_L=20.0, L_L=1e-5)).degree == 3
    assert build_general_load_model(SLOW, GeneralLoad(R_L=20.0, C_L=1e-6)).degree == 3
    assert build_general_load_model(SLOW, GeneralLoad(R_L=20.0, L_L=1e-5, C_L=1e-6)).degree == 4


def test_unequal_switch_resistances_rejected():
    with pytest.raises(DegenerateTopologyError, match="r_ds_on_1"):
        build_parasitic_model(SLOW, ParasiticParams(r_ds_on_1=0.1, r_ds_on_2=0.2))


def test_dc_gain():
    # DC-conducting loads settle to the full input; switch resistance divides
    assert transfer_at(build_general_load_model(SLOW, GeneralLoad(R_L=20.0, L_L=1e-5)), 0.0) == pytest.approx(1.0)
    model_r = build_parasitic_model(SLOW, ParasiticParams(r_ds_on_1=2.0, r_ds_on_2=2.0))
    assert transfer_at(model_r, 0.0) == pytest.approx(20.0 / 22.0, rel=1e-12)


def test_find_poles_constructed_quartic():
    model = make_rational([-1.0, -2.0, -3.0, -4.0])
    poles = find_poles(model)
    assert np.allclose(sorted(p.real for p in poles), [-4, -3, -2, -1], rtol=1e-10)
    assert np.all(poles.imag == 0.0)


def test_find_poles_residual_gate_and_conjugates():
    for q in (ParasiticParams(esr_C=0.3, esl_C=22e-9), ParasiticParams(esl_C=5e-9)):
        model = build_parasitic_model(SLOW, q)
        poles = find_poles(model)
        complex_poles = poles[np.abs(poles.imag) > 0]
        assert len(complex_poles) == 2
        assert complex_poles[0] == np.conj(complex_poles[1])


def test_find_poles_rejects_repeated_roots():
    model = make_rational([-1.0, -1.0 + 1e-8, -3.0, -4.0])
    with pytest.raises(RepeatedPolesError):
        find_poles(model)


def test_find_poles_refuses_a_failing_root_it_cannot_deflate():
    # the pair at -1e40*(1 +- j) leaves -1 +- 2j with backward error 1.0, and
    # the largest root is complex, so it cannot be divided out
    model = make_rational([-1 + 2j, -1 - 2j, -1e40 * (1 + 1j), -1e40 * (1 - 1j)])
    with pytest.raises(ModelError, match="backward error"):
        find_poles(model)


@pytest.mark.parametrize("esr_C", [0.0, 0.1])
def test_stiff_esl_gives_true_poles_or_model_error(esr_C):
    """Each root is judged on its own scale: on SLOW, esl_C from 1e-9 down to
    1e-300 H (every decade, plus 5e-11) either gives poles whose residues
    reproduce the state-space transfer, or Dynamics.of raises ModelError.  The
    slow pair stays a distinct complex pair from 5e-11 to 1e-15 H, where its
    separation is tiny next to the fast pole.  A RuntimeWarning fails the test."""
    for esl_C in [5e-11] + [10.0**-k for k in range(9, 301)]:
        q = ParasiticParams(esr_C=esr_C, esl_C=esl_C)
        model = build_parasitic_model(SLOW, q)
        try:
            d = Dynamics.of(model)
        except ModelError:
            assert esl_C < 1e-15, esl_C
            continue
        if esl_C >= 1e-15:
            assert np.count_nonzero(d.poles.imag) == 2, (esl_C, d.poles)
        assert_transfer_matches_state_space(model, SLOW, *parasitic_state_space(SLOW, q), d.poles)


@pytest.mark.parametrize("esr_C", [0.0, 0.1])
@pytest.mark.parametrize("esl_C", [1e-66, 1e-70, 1e-100])
def test_negligible_esl_deflates_its_fast_root(esl_C, esr_C):
    """A negligible ESL puts one real root tens of decades above the LC pair,
    and the scaled solve leaves the pair with backward error 1.0.  With that
    root deflated the pair is the one of the model without ESL, and the fast
    pole is the deflated root -P_2/P_3."""
    model = build_parasitic_model(SLOW, ParasiticParams(esr_C=esr_C, esl_C=esl_C))
    poles = Dynamics.of(model).poles
    pair = find_poles(build_parasitic_model(SLOW, ParasiticParams(esr_C=esr_C)))
    fast = -model.den[2] / model.den[3]
    assert poles[0].imag == 0.0
    assert abs(poles[0] - fast) <= 1e-9 * abs(fast)
    assert np.all(np.abs(poles[1:] - pair) <= 1e-9 * np.abs(pair))


def test_round_trip_random_stable_quartics():
    rng = np.random.default_rng(31)
    done = 0
    while done < 1000:
        reals = -(10.0 ** rng.uniform(3, 7, 2))
        re = -(10.0 ** rng.uniform(3, 7))
        im = 10.0 ** rng.uniform(3, 7)
        roots = np.array([reals[0], reals[1], complex(re, im), complex(re, -im)])
        gaps = np.abs(np.subtract.outer(roots, roots)) + np.eye(4) * 1e30
        if gaps.min() < 1e-3 * np.abs(roots).max():
            continue
        model = make_rational(roots)
        poles = find_poles(model)
        rebuilt = np.poly(sorted(poles, key=lambda z: (z.real, z.imag)))[::-1].real
        original = model.den / model.den[-1]
        assert np.allclose(rebuilt, original, rtol=1e-8, atol=0.0)
        done += 1


def test_textbook_residues():
    # 1/((s+1)(s+2)) = 1/(s+1) - 1/(s+2)
    den = np.array([2.0, 3.0, 1.0])
    poles = np.array([-1.0 + 0j, -2.0 + 0j])
    pr = expand_strictly_proper(np.array([1.0]), den, poles)
    assert np.allclose(pr.residues, [1.0, -1.0], rtol=1e-12)


def test_expansion_takes_one_pole_per_root():
    """den'(p_i) comes from the gaps to the other poles, so a missing or an
    extra pole would give wrong residues without an error."""
    model = build_parasitic_model(SLOW, ParasiticParams(esl_C=10e-9))
    poles = find_poles(model)
    for given in (poles[:2], np.append(poles, -1.0)):
        with pytest.raises(ValueError, match="one pole per root"):
            expand_strictly_proper(model.num, model.den, given)


def test_partial_fraction_round_trip_reconstruction():
    model = build_parasitic_model(SLOW, ParasiticParams(esr_C=0.2, esl_C=15e-9))
    ics = {"v2_0": 0.4, "dv2_0": 1e4, "d2v2_0": -2e9, "v1_0": 0.0, "dv1_0": 0.0}
    pr = expand_strictly_proper(ic_numerator(model, ics), model.den, find_poles(model))
    # rebuild the rational function from the expansion at random test points
    rng = np.random.default_rng(6)
    scale = np.abs(pr.poles).max()
    s_test = (rng.uniform(-3, 3, 100) + 1j * rng.uniform(-3, 3, 100)) * scale
    # the initial-condition numerator by hand: v2^(m)(0) multiplies P[m+1:], v1^(m)(0) -Q[m+1:]
    num = np.zeros(model.degree)
    for m, sym in enumerate(("v2_0", "dv2_0", "d2v2_0", "d3v2_0")[: model.degree]):
        num[: model.degree - m] += ics.get(sym, 0.0) * model.den[m + 1 :]
    for m, sym in enumerate(("v1_0", "dv1_0")[: len(model.num) - 1]):
        num[: len(model.num) - 1 - m] -= ics.get(sym, 0.0) * model.num[m + 1 :]
    direct = np.polyval(num[::-1], s_test) / np.polyval(model.den[::-1], s_test)
    from_pr = np.sum(pr.residues[None, :] / (s_test[:, None] - pr.poles[None, :]), axis=1)
    assert np.allclose(from_pr, direct, rtol=1e-8)


def test_conjugate_residues_for_real_input():
    model = build_parasitic_model(SLOW, ParasiticParams(esl_C=33e-9))
    ics = {"v2_0": 1.0, "dv2_0": 5e5}
    pr = expand_strictly_proper(ic_numerator(model, ics), model.den, find_poles(model))
    cplx = np.abs(pr.poles.imag) > 0
    res = pr.residues[cplx]
    assert res[0] == np.conj(res[1])


def test_base_transient_residues_match_closed_form():
    d = derive_dynamics(SLOW)
    model = build_parasitic_model(SLOW, ParasiticParams())
    v2_0, dv2_0 = 0.6, -3e5
    ics = {"v2_0": v2_0, "dv2_0": dv2_0}
    pr = expand_strictly_proper(ic_numerator(model, ics), model.den, find_poles(model))
    rc_inv = 1.0 / (SLOW.R_L * SLOW.C)
    s01, s02 = d.poles
    expected = {
        s01: (v2_0 * (s01 + rc_inv) + dv2_0) / (s01 - s02),
        s02: -(v2_0 * (s02 + rc_inv) + dv2_0) / (s01 - s02),
    }
    for pole, res in zip(pr.poles, pr.residues):
        key = min(expected, key=lambda z: abs(z - pole))
        assert res == pytest.approx(expected[key], rel=1e-9)
    # and the inverse transform reproduces the closed-form transient
    t = np.linspace(0.0, 30.0 / d.a, 400)
    direct = transient_component(d, InitialConditions(v2_0, dv2_0), t)
    assert np.allclose(_modal_sum(pr, [0.0], [1.0], t), direct, rtol=0, atol=1e-10)


def test_inverse_laplace_textbook_pairs():
    t = np.linspace(0.0, 5.0, 200)
    pr = PoleResidue(poles=np.array([-1.0 + 0j]), residues=np.array([1.0 + 0j]))
    assert np.allclose(_modal_sum(pr, [0.0], [1.0], t), np.exp(-t), rtol=1e-12)
    b = 3.0
    pr2 = PoleResidue(poles=np.array([1j * b, -1j * b]), residues=np.array([0.5, 0.5]))
    assert np.allclose(_modal_sum(pr2, [0.0], [1.0], t), np.cos(b * t), rtol=0, atol=1e-12)
    assert _modal_sum(pr, [0.0], [1.0], -1.0) == 0.0


def _dense_modal_sum(poles, residues, edge_times, edge_weights, t):
    """sum over edges tau_e <= t of w_e * sum_p r_p * exp(p*(t - tau_e)), term by term."""
    lag = t[:, None] - edge_times[None, :]
    live = lag >= 0.0
    lag = np.where(live, lag, 0.0)[..., None]
    terms = live[..., None] * edge_weights[None, :, None] * residues * np.exp(poles * lag)
    return terms.sum(axis=(1, 2)).real, np.abs(terms).max()


def _random_modes(rng, count):
    """Real poles, conjugate pairs and the pole at 0 (each a slow or a stiff
    decay), about one in four with a residue of exactly 0."""
    poles, residues = [], []
    for _ in range(count):
        kind = rng.integers(3)
        stiff = rng.random() < 0.2
        rate = 10.0 ** (rng.uniform(2.0, 4.0) if stiff else rng.uniform(-1.5, 1.0))
        res = 0.0 if rng.random() < 0.25 else complex(rng.normal(), rng.normal())
        if kind == 0:
            poles.append(0.0)
            residues.append(res.real)
        elif kind == 1:
            poles.append(-rate)
            residues.append(res.real)
        else:
            p = complex(-rate, 10.0 ** rng.uniform(-1.0, 1.5))
            poles += [p, p.conjugate()]
            residues += [res, res.conjugate()]
    return np.array(poles, dtype=complex), np.array(residues, dtype=complex)


@settings(max_examples=60)
@given(seed=st.integers(0, 2**31 - 1))
def test_modal_sum_matches_a_dense_direct_sum(seed):
    """Random mixes of real poles, conjugate pairs, the pole at 0 and exact-zero
    residues, with edges on sample points, repeated edges and samples before
    the first edge: the engine against the term-by-term sum to 1e-12 of its
    largest term.  Dropping the zero-residue modes changes no bit."""
    rng = np.random.default_rng(seed)
    poles, residues = _random_modes(rng, int(rng.integers(1, 5)))
    t = np.linspace(-1.0, 12.0, int(rng.integers(2, 200)))
    E = int(rng.integers(1, 10_000 // (len(t) * len(poles)) + 1))
    edges = np.concatenate([rng.uniform(0.0, 10.0, E - E // 3), rng.choice(t[t >= 0.0], E // 3)])
    edges = np.sort(np.concatenate([edges, edges[: E // 5]]))[:E]
    weights = rng.normal(size=E)
    got = _modal_sum(PoleResidue(poles, residues), edges, weights, t)
    want, largest = _dense_modal_sum(poles, residues, edges, weights, t)
    assert np.all(np.abs(got - want) <= 1e-12 * largest)
    nonzero = residues != 0.0
    kept = PoleResidue(poles[nonzero], residues[nonzero])
    assert np.array_equal(_modal_sum(kept, edges, weights, t), got)


def test_transient_from_rest_is_exactly_zero():
    """Every mode of a transient from rest has residue 0: zeros of t's shape,
    and 0.0 for a scalar t, on the base filter and both extensions."""
    t = np.linspace(0.0, 1e-4, 12).reshape(3, 4)
    for d in (
        derive_dynamics(SLOW),
        Dynamics.of(build_parasitic_model(SLOW, ParasiticParams(esr_C=0.1, esl_C=10e-9))),
        Dynamics.of(build_general_load_model(SLOW, GeneralLoad(R_L=20.0, L_L=1e-5, C_L=1e-5))),
    ):
        v = transient_component(d, {}, t)
        assert v.shape == t.shape and not np.any(v)
        scalar = transient_component(d, {}, 2e-5)
        assert type(scalar) is float and scalar == 0.0


def test_inverse_laplace_rejects_unstable_poles():
    pr = PoleResidue(poles=np.array([0.5 + 0j]), residues=np.array([1.0 + 0j]))
    with pytest.raises(UnstablePoleError):
        _modal_sum(pr, [0.0], [1.0], np.array([0.0, 1.0]))


def test_inverse_laplace_rejects_non_conjugate_expansions():
    t = np.linspace(0.0, 5.0, 50)
    pair = np.array([-1.0 + 3j, -1.0 - 3j])
    for poles, residues in (
        (pair, np.array([0.5 + 0.1j, 0.5 + 0.1j])),  # residues not conjugate
        (pair[:1], np.array([0.5 + 0.1j])),  # complex pole without its partner
        (np.array([-1.0 + 0j]), np.array([1.0 + 1e-3j])),  # real pole, complex residue
    ):
        with pytest.raises(ArithmeticError):
            _modal_sum(PoleResidue(poles=poles, residues=residues), [0.0], [1.0], t)
    # conjugate to rounding passes, and gives the real sum
    ok = PoleResidue(poles=pair, residues=np.array([0.5 + 0.1j, 0.5 - 0.1j * (1 + 1e-13)]))
    expected = np.exp(-t) * (np.cos(3 * t) - 0.2 * np.sin(3 * t))
    assert np.allclose(_modal_sum(ok, [0.0], [1.0], t), expected, rtol=0, atol=1e-12)


def test_unstable_pole_rejected_among_delayed_terms():
    stable = PoleResidue(poles=np.array([-1.0 + 0j]), residues=np.array([1.0 + 0j]))
    unstable = PoleResidue(poles=np.array([-1.0 + 2j, 1e-3 - 2j]), residues=np.array([1.0, 1.0]))
    t = np.linspace(0.0, 5.0, 20)
    with pytest.raises(UnstablePoleError):
        _modal_sum(stable, [0.0], [1.0], t) + _modal_sum(unstable, [2.0], [1.0], t)


def test_degenerate_simulation_matches_base_closed_form():
    pat = pattern(K=12)
    d = derive_dynamics(SLOW)
    ic = InitialConditions(0.75, 0.0)
    J = 64
    w = simulate_generalized(
        SLOW, ParasiticParams(), pat, {"v2_0": ic.v2_0, "dv2_0": ic.dv2_0}, J
    )
    ref = sample_output(d, ic, pat, SLOW.V1, T / J, pat.K * J)
    assert np.abs(w.samples - ref.samples).max() < 1e-9 * np.abs(ref.samples).max()


def test_zero_drive_generalized_transient_decays():
    model_params = ParasiticParams(esr_C=0.1, esl_C=10e-9)
    model = build_parasitic_model(SLOW, model_params)
    ics = {"v2_0": 0.9, "dv2_0": 0.0, "d2v2_0": 0.0}
    t = np.linspace(0.0, 60.0 / 250000.0, 2000)
    v = transient_component(Dynamics.of(model), ics, t)
    assert v[0] == pytest.approx(0.9, rel=1e-9)
    assert abs(v[-1]) < 1e-6 * 0.9


def test_parasitic_simulation_matches_state_space_oracle():
    q = ParasiticParams(esr_C=0.1, esl_C=10e-9)
    pat = pattern(K=10)
    J = 64
    x0 = np.array([0.05, 0.01, 0.3])
    ics = parasitic_derivative_ics(SLOW, q, x0)
    w = simulate_generalized(SLOW, q, pat, ics, J)
    ref = rk4_parasitic(SLOW, q, pat, x0, J)
    assert np.abs(w.samples - ref).max() < 1e-3 * np.abs(ref).max()


@settings(max_examples=25)
@given(
    esl_C=st.floats(1e-9, 1e-7),
    esr_C=st.floats(0.0, 0.5),
    K=st.integers(1, 12),
    J=st.sampled_from([16, 40, 64]),
    vppm=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_parasitic_simulation_property_against_state_space_oracle(esl_C, esr_C, K, J, vppm, seed):
    """Stiff ESL (a real pole some 1e3 to 1e5 times faster than the LC pair's
    decay), abutting VPPM pulses and edges on grid points, against
    event-aligned RK4."""
    q = ParasiticParams(esr_C=esr_C, esl_C=esl_C)
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, K)
    if vppm:
        pat = encode(bits, ModulationConfig(Scheme.VPPM, T, 0.5, 0.25 * T))
    else:
        pat = encode(bits, ModulationConfig(Scheme.VPWM, T, 0.75, 0.2))
    x0 = np.array([rng.uniform(-0.2, 0.2), rng.uniform(-0.05, 0.05), rng.uniform(0.0, 1.0)])
    w = simulate_generalized(SLOW, q, pat, parasitic_derivative_ics(SLOW, q, x0), J)
    ref = rk4_parasitic(SLOW, q, pat, x0, J)
    assert np.abs(w.samples - ref).max() < 1e-6 * np.abs(ref).max()


def assert_transfer_matches_state_space(model, p, A, B, c_row, poles=None):
    """transfer_at(model, jw) against c (jwI - A)^-1 B to 1e-8 relative, at 25
    frequencies from 1e-3 to 1e3 times 1/sqrt(LC).  The scale is the size of
    Q's terms, sum |Q_j| w^j / |P(jw)|: never below |H|, and near it except
    where Q(jw) cancels (esr_C = 0 puts a zero on the jw axis at
    1/sqrt(esl_C*C), where |H| is 0 to rounding).  Given poles, H is instead
    sum_i res_i/(jw - p_i) from the model's residues there."""
    s = 1j * np.logspace(-3.0, 3.0, 25) / math.sqrt(p.L * p.C)
    ref = np.array([c_row @ np.linalg.solve(si * np.eye(len(B)) - A, B) for si in s])
    scale = np.polyval(np.abs(model.num[::-1]), np.abs(s)) / np.abs(np.polyval(model.den[::-1], s))
    if poles is None:
        h = transfer_at(model, s)
    else:
        pr = expand_strictly_proper(model.num, model.den, poles)
        h = np.sum(pr.residues / (s[:, None] - pr.poles), axis=1)
    assert np.all(np.abs(h - ref) <= 1e-8 * scale)


LOG_CIRCUIT = {
    "log_L": st.floats(-7.0, -3.0),
    "log_C": st.floats(-9.0, -4.0),
    "log_R": st.floats(-1.0, 3.0),
}
PRESENT = [(False, False), (True, False), (False, True), (True, True)]


@pytest.mark.parametrize("esr, r_ds_on", PRESENT)
@settings(max_examples=100)
@given(
    **LOG_CIRCUIT,
    log_esl=st.floats(-10.0, -7.0),
    log_esr=st.floats(-3.0, 0.0),
    log_r=st.floats(-3.0, 0.0),
)
def test_parasitic_transfer_matches_state_space_oracle(
    esr, r_ds_on, log_L, log_C, log_R, log_esl, log_esr, log_r
):
    """The parasitic model in the frequency domain, with esr_C and an equal
    r_ds_on each absent or present (the oracle needs esl_C > 0)."""
    p = CircuitParams(L=10.0**log_L, C=10.0**log_C, R_L=10.0**log_R)
    r = 10.0**log_r if r_ds_on else 0.0
    rc = 10.0**log_esr if esr else 0.0
    q = ParasiticParams(esr_C=rc, esl_C=10.0**log_esl, r_ds_on_1=r, r_ds_on_2=r)
    model = build_parasitic_model(p, q)
    assert_transfer_matches_state_space(model, p, *parasitic_state_space(p, q))


@pytest.mark.parametrize("series_L, series_C", PRESENT)
@settings(max_examples=100)
@given(**LOG_CIRCUIT, log_LL=st.floats(-7.0, -3.0), log_CL=st.floats(-9.0, -4.0))
def test_general_load_transfer_matches_state_space_oracle(
    series_L, series_C, log_L, log_C, log_R, log_LL, log_CL
):
    """The general-load model in the frequency domain, in all four cases of
    L_L (0 or present) and C_L (a short or present)."""
    p = CircuitParams(L=10.0**log_L, C=10.0**log_C, R_L=10.0**log_R)
    LL = 10.0**log_LL if series_L else 0.0
    gl = GeneralLoad(R_L=p.R_L, L_L=LL, C_L=10.0**log_CL if series_C else math.inf)
    model = build_general_load_model(p, gl)
    assert_transfer_matches_state_space(model, p, *general_state_space(p, gl))


def test_general_load_simulation_matches_state_space_oracle():
    gl = GeneralLoad(R_L=20.0, L_L=40e-6, C_L=2e-6)
    pat = pattern(K=10)
    J = 64
    x0 = np.array([0.1, 0.5, -0.02, 0.2])
    ics = general_derivative_ics(SLOW, gl, x0)
    w = simulate_generalized(SLOW, gl, pat, ics, J)
    ref = rk4_general(SLOW, gl, pat, x0, J)
    assert np.abs(w.samples - ref).max() < 1e-3 * np.abs(ref).max()


@settings(max_examples=25)
@given(
    log_R=st.floats(0.0, 2.5),
    log_LL=st.floats(-7.0, -3.0),
    log_CL=st.one_of(st.floats(-9.0, -4.0), st.just(math.inf)),
    K=st.integers(1, 12),
    J=st.sampled_from([16, 40, 64]),
    vppm=st.booleans(),
    from_rest=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_general_load_simulation_property_against_state_space_oracle(
    log_R, log_LL, log_CL, K, J, vppm, from_rest, seed
):
    """Series R-L-C loads from R_L = 1 to 316 ohm, L_L = 0.1 uH to 1 mH and
    C_L = 1 nF to 100 uF or a short: zero to four real poles (an overdamped
    load has two), from rest or a random state, with abutting VPPM pulses and
    edges on grid points, against event-aligned RK4."""
    gl = GeneralLoad(R_L=10.0**log_R, L_L=10.0**log_LL, C_L=10.0**log_CL)
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, K)
    if vppm:
        pat = encode(bits, ModulationConfig(Scheme.VPPM, T, 0.5, 0.25 * T))
    else:
        pat = encode(bits, ModulationConfig(Scheme.VPWM, T, 0.75, 0.2))
    n_states = len(general_state_space(SLOW, gl)[1])
    x0 = np.zeros(n_states) if from_rest else rng.uniform(-0.5, 0.5, n_states)
    ics = general_derivative_ics(SLOW, gl, x0)
    w = simulate_generalized(SLOW, gl, pat, ics, J)
    # a fast lightly damped pair (R_L = 1 ohm, L_L = 1 uH: -5e5 +- 3.1e6j rad/s)
    # leaves 1e-6 of RK4 error at the default 0.1/|eig| substep
    ref = rk4_general(SLOW, gl, pat, x0, J, step=0.01)
    assert np.abs(w.samples - ref).max() < 1e-6 * np.abs(ref).max()


LOAD_SHAPES = {
    "ohmic": GeneralLoad(R_L=20.0),
    "short_with_inductor": GeneralLoad(R_L=20.0, L_L=1e-5),
    "series_rc": GeneralLoad(R_L=20.0, C_L=1e-5),
    "series_rlc": GeneralLoad(R_L=20.0, L_L=1e-5, C_L=1e-5),
}


@pytest.mark.parametrize("shape", list(LOAD_SHAPES))
def test_general_derivative_ics_are_the_models_symbols(shape):
    """The oracle's initial values name only symbols the load's model takes,
    and they start the closed form where event-aligned RK4 starts."""
    gl = LOAD_SHAPES[shape]
    x0 = np.linspace(0.3, -0.2, len(general_state_space(SLOW, gl)[1]))
    ics = general_derivative_ics(SLOW, gl, x0)
    w = simulate_generalized(SLOW, gl, pattern(K=16), ics, 16)
    ref = rk4_general(SLOW, gl, pattern(K=16), x0, 16, step=0.01)
    assert np.abs(w.samples - ref).max() < 1e-6 * np.abs(ref).max()


def test_generalized_unmodulated_settles_to_duty_level():
    cfg = ModulationConfig(Scheme.UNMODULATED, T, 0.75)
    pat = encode(np.zeros(40, dtype=int), cfg)
    w = simulate_generalized(SLOW, ParasiticParams(esr_C=0.05, esl_C=5e-9), pat, {}, 32)
    tail = w.samples[-10 * 32 :]
    assert np.mean(tail) == pytest.approx(0.75, rel=0.01)


def test_unknown_ic_symbol_rejected():
    model_params = ParasiticParams()
    pat = pattern(K=2)
    with pytest.raises(ValueError):
        simulate_generalized(SLOW, model_params, pat, {"d3v2_0": 1.0}, 8)


@pytest.mark.parametrize(
    "kwargs",
    [{"esr_C": float("nan")}, {"esl_C": float("inf")}, {"r_ds_on_1": -1.0}],
)
def test_parasitic_params_reject_negative_or_non_finite(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        ParasiticParams(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"R_L": float("inf")},
        {"R_L": 0.0},
        {"R_L": 1.0, "L_L": float("nan")},
        {"R_L": 1.0, "C_L": float("nan")},
    ],
)
def test_general_load_rejects_out_of_range_or_non_finite(kwargs):
    with pytest.raises(ValueError):
        GeneralLoad(**kwargs)
