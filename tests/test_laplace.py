"""Tests for the generalized rational transfer models and inverse transforms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    general_derivative_ics,
    parasitic_derivative_ics,
    rk4_general,
    rk4_parasitic,
)
from tpcsim.analytic import sample_output, transient_component
from tpcsim.circuit import CircuitParams, Dynamics, InitialConditions, derive_dynamics
from tpcsim.errors import DegenerateTopologyError, RepeatedPolesError, UnstablePoleError
from tpcsim.laplace import (
    GeneralLoad,
    ParasiticParams,
    PoleResidue,
    RationalLaplace,
    build_general_load_model,
    build_parasitic_model,
    expand_strictly_proper,
    find_poles,
    ic_numerator,
    simulate_generalized,
    transfer_at,
)
from tpcsim.modal import _modal_sum
from tpcsim.modulation import ModulationConfig, Scheme, alternating_bits, encode_vppm, encode_vpwm

SLOW = CircuitParams(L=100e-6, C=0.1e-6, R_L=20.0)
T = 1e-6


def pattern(K=10, depth=0.025):
    cfg = ModulationConfig(Scheme.VPWM, T, 0.75, depth)
    return encode_vpwm(alternating_bits(K), cfg)


def make_rational(den_roots, num=(1.0,)):
    den = np.poly(den_roots)[::-1].real
    return RationalLaplace(num=np.array(num, float), den=den, ic_numerators=())


def test_no_parasitics_reduces_to_base_model():
    model = build_parasitic_model(SLOW, ParasiticParams())
    assert model.degree == 2
    d = derive_dynamics(SLOW)
    poles = find_poles(model)
    assert np.allclose(sorted(poles, key=lambda z: z.imag), [d.s02, d.s01], rtol=1e-10)
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
    with pytest.raises(DegenerateTopologyError):
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


def test_partial_fraction_round_trip_reconstruction():
    model = build_parasitic_model(SLOW, ParasiticParams(esr_C=0.2, esl_C=15e-9))
    ics = {"v2_0": 0.4, "dv2_0": 1e4, "d2v2_0": -2e9, "v1_0": 0.0, "dv1_0": 0.0}
    pr = expand_strictly_proper(ic_numerator(model, ics), model.den, find_poles(model))
    # rebuild the rational function from the expansion at random test points
    rng = np.random.default_rng(6)
    scale = np.abs(pr.poles).max()
    s_test = (rng.uniform(-3, 3, 100) + 1j * rng.uniform(-3, 3, 100)) * scale
    table = dict(model.ic_numerators)
    num = np.zeros(model.degree)
    for sym, val in ics.items():
        c = table[sym]
        num[: len(c)] += val * c
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
    expected = {
        d.s01: (v2_0 * (d.s01 + rc_inv) + dv2_0) / (d.s01 - d.s02),
        d.s02: -(v2_0 * (d.s02 + rc_inv) + dv2_0) / (d.s01 - d.s02),
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
        pat = encode_vppm(bits, ModulationConfig(Scheme.VPPM, T, 0.5, 0.25 * T))
    else:
        pat = encode_vpwm(bits, ModulationConfig(Scheme.VPWM, T, 0.75, 0.2))
    x0 = np.array([rng.uniform(-0.2, 0.2), rng.uniform(-0.05, 0.05), rng.uniform(0.0, 1.0)])
    w = simulate_generalized(SLOW, q, pat, parasitic_derivative_ics(SLOW, q, x0), J)
    ref = rk4_parasitic(SLOW, q, pat, x0, J)
    assert np.abs(w.samples - ref).max() < 1e-6 * np.abs(ref).max()


def test_general_load_simulation_matches_state_space_oracle():
    gl = GeneralLoad(R_L=20.0, L_L=40e-6, C_L=2e-6)
    pat = pattern(K=10)
    J = 64
    x0 = np.array([0.1, 0.5, -0.02, 0.2])
    ics = general_derivative_ics(SLOW, gl, x0)
    w = simulate_generalized(SLOW, gl, pat, ics, J)
    ref = rk4_general(SLOW, gl, pat, x0, J)
    assert np.abs(w.samples - ref).max() < 1e-3 * np.abs(ref).max()


def test_generalized_unmodulated_settles_to_duty_level():
    cfg = ModulationConfig(Scheme.UNMODULATED, T, 0.75)
    from tpcsim.modulation import unmodulated_pattern

    pat = unmodulated_pattern(cfg, 40)
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
