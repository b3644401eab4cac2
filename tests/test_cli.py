"""Tests for the command-line front end: validation, outputs, determinism."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpcsim.analytic import Waveform, sample_output
from tpcsim.circuit import CircuitParams, Dynamics, InitialConditions, derive_dynamics
from tpcsim.cli import _RUN, _render, main, run_scenario, validate_config
from tpcsim.discrete import ConductionMode, Variant, simulate
from tpcsim.equalization import MAX_DETECT_BITS, ObservationModel, brute_force_detect, observe
from tpcsim.errors import ConfigError
from tpcsim.laplace import ParasiticParams, build_parasitic_model
from tpcsim.modulation import ModulationConfig, Scheme, alternating_bits, encode
from tpcsim.presets import get_preset, list_presets
from tpcsim.spectrum import ripple_spectrum


def fig4_config():
    return get_preset("fig4_ltspice_check")


def test_list_presets_names():
    names = list_presets()
    for required in (
        "fig2_gtx",
        "fig3_components",
        "fig4_ltspice_check",
        "fig5_spectrum",
        "fig6_bias",
        "fig7_mse",
        "fig8_params",
    ):
        assert required in names


def test_all_presets_validate():
    for name in list_presets():
        resolved = validate_config(get_preset(name))
        assert resolved["run"]["type"]


def test_invalid_delta_names_field():
    cfg = fig4_config()
    cfg["modulation"]["delta"] = 1.5
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert "modulation.delta" in str(err.value)


def test_validation_error_paths():
    cfg = fig4_config()
    del cfg["circuit"]["L"]
    with pytest.raises(ConfigError, match="circuit.L"):
        validate_config(cfg)
    cfg = fig4_config()
    cfg["run"]["type"] = "nonsense"
    with pytest.raises(ConfigError, match="run.type"):
        validate_config(cfg)
    cfg = fig4_config()
    cfg["bits"] = "10x"
    with pytest.raises(ConfigError, match="bits"):
        validate_config(cfg)


def test_fig4_row_count(tmp_path):
    files = run_scenario(fig4_config(), tmp_path)
    v2 = tmp_path / "v2_total.csv"
    assert v2 in files
    lines = v2.read_text().splitlines()
    assert lines[0] == "t_s,value"
    assert len(lines) == 1 + 64 * 100
    # sidecar carries the resolved config
    meta = json.loads((tmp_path / "v2_total.csv.meta.json").read_text())
    assert meta["circuit"]["R_L"] == 20.0
    assert meta["ic"]["v2_0"] == pytest.approx(0.75)


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**fig4_config(), "modulation": {"scheme": "vpwm", "T": 1e-6, "delta": 1.5}}))
    assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2

    overdamped = fig4_config()
    overdamped["circuit"]["R_L"] = 1.0  # below the damping boundary: two real poles
    od = tmp_path / "overdamped.json"
    od.write_text(json.dumps(overdamped))
    assert main(["run", str(od), "--out", str(tmp_path / "o2")]) == 0
    critical = fig4_config()  # poles closer than 1e-6 of their magnitude
    boundary = CircuitParams(**critical["circuit"]).damping_boundary()
    critical["circuit"]["R_L"] = boundary * (1 - 2e-14)
    cd = tmp_path / "critical.json"
    cd.write_text(json.dumps(critical))
    assert main(["run", str(cd), "--out", str(tmp_path / "o5")]) == 1

    notjson = tmp_path / "broken.json"
    notjson.write_text("{nope")
    assert main(["run", str(notjson), "--out", str(tmp_path / "o3")]) == 2

    good = tmp_path / "good.json"
    good.write_text(json.dumps(fig4_config()))
    assert main(["run", str(good), "--out", str(tmp_path / "o4")]) == 0


def test_reruns_are_byte_identical(tmp_path):
    cfg = get_preset("equalize_k8")  # exercises the seeded noise path
    a, b = tmp_path / "a", tmp_path / "b"
    run_scenario(cfg, a)
    run_scenario(cfg, b)
    for f in sorted(a.iterdir()):
        assert (b / f.name).read_bytes() == f.read_bytes()


def test_spectrum_csv_schema(tmp_path):
    cfg = get_preset("fig5_spectrum")
    cfg["run"]["points"] = 64
    cfg["run"]["J_fft"] = 16
    cfg["run"]["settle_symbols"] = 8
    run_scenario(cfg, tmp_path)
    header = (tmp_path / "spectrum.csv").read_text().splitlines()[0]
    assert header == "frequency_hz,re,im,mag_db"


def test_accuracy_csv_schema(tmp_path):
    cfg = get_preset("fig7_mse")
    cfg["bits"] = {"pattern": "alternating", "K": 64}
    cfg["run"]["J_list"] = [4, 8]
    cfg["run"]["settle_symbols"] = 8
    run_scenario(cfg, tmp_path)
    lines = (tmp_path / "accuracy.csv").read_text().splitlines()
    assert lines[0] == "J,variant,bias_over_v1,mse_over_v1sq"
    assert len(lines) == 1 + 2 * 3


def test_detection_report(tmp_path):
    run_scenario(get_preset("equalize_k8"), tmp_path)
    report = json.loads((tmp_path / "detection.json").read_text())
    assert report["bits_true"] == [1, 0, 1, 1, 0, 0, 1, 0]
    assert report["bit_errors"] == 0


def test_generalized_outputs(tmp_path):
    run_scenario(get_preset("generalized_parasitic"), tmp_path)
    model = json.loads((tmp_path / "model.json").read_text())
    assert len(model["den_ascending"]) == 4
    assert len(model["poles"]) == 3
    assert model["dc_gain"] == pytest.approx(1.0)


def test_full_precision_round_trip(tmp_path):
    run_scenario(fig4_config(), tmp_path)
    line = (tmp_path / "v2_total.csv").read_text().splitlines()[5]
    t_str, v_str = line.split(",")
    # 17 significant digits survive a parse round trip
    assert float(v_str) == float(f"{float(v_str):.17g}")


def test_every_preset_runs_clean_within_budget(tmp_path):
    import time

    for name in list_presets():
        start = time.perf_counter()
        assert main(["preset", name, "--out", str(tmp_path / name)]) == 0
        assert time.perf_counter() - start < 60.0


def test_unreadable_config_is_a_config_error(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["run", str(missing), "--out", str(tmp_path / "out")]) == 2
    assert f"config error: {missing}: cannot read config" in capsys.readouterr().err


def test_unknown_preset_is_a_config_error(tmp_path, capsys):
    assert main(["preset", "nope", "--out", str(tmp_path)]) == 2
    assert "config error: preset: unknown preset 'nope'; available: " in capsys.readouterr().err


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "tpcsim.cli", "list-presets"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "fig4_ltspice_check" in proc.stdout


def test_presets_resolve_to_committed_configs():
    """The resolved form of every preset, as its sidecars carry it, compared
    as JSON so that an int turning into a float shows too."""
    expected = json.loads((Path(__file__).parent / "data" / "resolved_presets.json").read_text())
    assert sorted(expected) == list_presets()
    for name in list_presets():
        cfg = get_preset(name)
        cfg.setdefault("name", name)
        got = json.dumps(validate_config(cfg), sort_keys=True)
        assert got == json.dumps(expected[name], sort_keys=True), name


def _mutated(preset, changes):
    cfg = get_preset(preset)
    for path, value in changes.items():
        *parents, key = path.split(".")
        node = cfg
        for part in parents:
            node = node[part]
        node[key] = value
    return cfg


NAN, INF = float("nan"), float("inf")
FIG4, SPECTRUM, ACCURACY, PARAMS = "fig4_ltspice_check", "fig5_spectrum", "fig7_mse", "fig8_params"
GTX, EQUALIZE, GENERALIZED = "fig2_gtx", "equalize_k8", "generalized_parasitic"
FIG6 = "fig6_bias"
DISCRETE = {"type": "discrete", "J": 10}
LOAD = {"kind": "general_load"}
# a DCM start with negative current and voltage, which the diode cannot hold
NEGATIVE_DCM_START = {"run": {**DISCRETE, "mode": "dcm"}, "ic": {"v2_0": -0.1}}
OVERDAMPED = {"circuit.R_L": 0.5}  # below the damping boundary of every preset circuit
# within 1.3e-13 of the damping boundary of L = 10 uH, C = 1 uF: repeated poles
CRITICAL = {"circuit.R_L": 0.5 * math.sqrt(10.0) * (1 - 2e-14)}

# (preset, changes, field named in the error, exit code)
REJECTED = [
    # rules the domain constructors own
    (FIG4, {"circuit.L": -1e-6}, "circuit.L", 2),
    (FIG4, {"circuit.C": 0.0}, "circuit.C", 2),
    (FIG4, {"circuit.R_L": -20.0}, "circuit.R_L", 2),
    (FIG4, {"circuit.V1": 0.0}, "circuit.V1", 2),
    (FIG4, {"modulation.scheme": "qam"}, "modulation.scheme", 2),
    (FIG4, {"modulation.T": 0.0}, "modulation.T", 2),
    (FIG4, {"modulation.delta": 1.0}, "modulation.delta", 2),
    (FIG4, {"modulation.depth": -0.01}, "modulation.depth", 2),
    (FIG4, {"modulation.depth": 0.25}, "modulation.depth", 2),
    (FIG4, {"modulation.scheme": "vppm", "modulation.depth": 0.2e-6}, "modulation.depth", 2),
    (FIG4, {"bits": "10x"}, "bits", 2),
    (FIG4, {"bits": "102"}, "bits", 2),
    (GTX, {"bits": "12"}, "bits", 2),
    (FIG4, {"bits": [1, 0, 2]}, "bits", 2),
    (FIG4, {"bits": [1, 0, 10**30]}, "bits", 2),
    (FIG4, {"bits": [1, 0, True]}, "bits[2]", 2),
    (FIG4, {"bits": [1, 0, 1.0]}, "bits[2]", 2),
    (FIG4, {"bits": {"pattern": "alternating", "K": -1}}, "bits.K", 2),
    (FIG4, {"bits": {"pattern": "random", "K": 4}}, "bits.pattern", 2),
    (FIG4, {"run": {**DISCRETE, "variant": "implicit"}}, "run.variant", 2),
    (FIG4, {"run": {**DISCRETE, "mode": "bcm"}}, "run.mode", 2),
    (ACCURACY, {"run.variants": ["exact", "implicit"]}, "run.variants", 2),
    (EQUALIZE, {"run.sigma": -0.1}, "run.sigma", 2),
    (EQUALIZE, {"run.c_factor": 0.0}, "run.c_factor", 2),
    (EQUALIZE, {"seed": -1}, "seed", 2),
    (GENERALIZED, {"run.topology.esr_C": -0.1}, "run.topology.esr_C", 2),
    (GENERALIZED, {"run.topology.kind": "buck_boost"}, "run.topology.kind", 2),
    (GENERALIZED, {"run.topology": {**LOAD, "R_L": -1.0}}, "run.topology.R_L", 2),
    (GENERALIZED, {"run.topology": {**LOAD, "L_L": -1e-6}}, "run.topology.L_L", 2),
    (GENERALIZED, {"run.topology": {**LOAD, "C_L": 0.0}}, "run.topology.C_L", 2),
    # initial-condition symbols the run's filter does not know, and the
    # generalized run's own field that the root ic replaced
    (GENERALIZED, {"ic": {"v3_0": 0.0}}, "ic.v3_0", 2),
    (FIG4, {"ic": {"d2v2_0": 1.0}}, "ic.d2v2_0", 2),
    (FIG4, {**OVERDAMPED, "run": DISCRETE, "ic": {"d2v2_0": 1.0}}, "ic.d2v2_0", 2),
    (GENERALIZED, {"run.ic_values": {"v2_0": 0.0}}, "run.ic_values", 2),
    # a start the run's conduction mode cannot hold
    (FIG4, NEGATIVE_DCM_START, "ic", 2),
    # a spectrum pattern too short for its FFT cross-check
    (SPECTRUM, {"bits": ""}, "bits", 2),
    (SPECTRUM, {"bits": "1", "run.J_fft": 1, "run.settle_symbols": 0}, "run.J_fft", 2),
    # an equalize pattern too short to equalize
    (EQUALIZE, {"bits": ""}, "bits", 2),
    (EQUALIZE, {"bits": "1", "run.J": 1}, "run.J", 2),
    # a negative settle guard
    (SPECTRUM, {"run.settle_symbols": -60}, "run.settle_symbols", 2),
    (ACCURACY, {"run.settle_symbols": -5}, "run.settle_symbols", 2),
    # a settle guard the pattern does not outlast: given, and the circuit's default
    (FIG6, {"run.settle_symbols": 341}, "run.settle_symbols", 2),
    (FIG4, {"bits": "1", "run": {"type": "accuracy", "J_list": [4]}}, "run.settle_symbols", 2),
    # booleans that are not JSON booleans, and JSON booleans as numbers
    (FIG4, {"ic": {"steady": "false"}}, "ic.steady", 2),
    (ACCURACY, {"run.align_predictive": "no"}, "run.align_predictive", 2),
    (PARAMS, {"run.c_values": [True]}, "run.c_values[0]", 2),
    # non-finite numbers
    (FIG4, {"ic": {"v2_0": INF}}, "ic.v2_0", 2),
    (GTX, {"run.t_max_periods": INF}, "run.t_max_periods", 2),
    (GENERALIZED, {"run.topology.esr_C": NAN}, "run.topology.esr_C", 2),
    (GENERALIZED, {"ic": {"v2_0": NAN}}, "ic.v2_0", 2),
    (FIG4, {"circuit.L": 10**400}, "circuit.L", 2),
    # unknown fields
    (GENERALIZED, {"run.topology.esr": 0.1}, "run.topology.esr", 2),
    (FIG4, {"circuit.Rl": 20.0}, "circuit.Rl", 2),
    (GTX, {"run.J": 8}, "run.J", 2),
    # bounds on run fields that no constructor receives, and on c_values,
    # which the command line divides L*C by before CircuitParams sees it
    (FIG4, {"run.J": 0}, "run.J", 2),
    (SPECTRUM, {"run.f_max": 1.0}, "run.f_max", 2),
    (PARAMS, {"run.c_values": [1e-6, -1e-7]}, "run.c_values", 2),
    (PARAMS, {"run.c_values": [0.0]}, "run.c_values", 2),
    # unsupported or missing root and run fields
    (FIG4, {"schema_version": 2}, "schema_version", 2),
    (ACCURACY, {"run.J_list": []}, "run.J_list", 2),
    (FIG4, {"run": {"J": 100}}, "run.type", 2),
    (FIG4, {"run": {"type": "generalized", "J": 8, "topology": {"esr_C": 0.1}}}, "run.topology.kind", 2),
    # config errors come before the filter is built, on an overdamped circuit
    # and on one whose repeated poles no filter can be built from
    (EQUALIZE, {**CRITICAL, "run.sigma": -0.1}, "run.sigma", 2),
    (ACCURACY, {**CRITICAL, "run.variants": ["exact", "implicit"]}, "run.variants", 2),
    (EQUALIZE, {**OVERDAMPED, "run.sigma": -0.1}, "run.sigma", 2),
    (EQUALIZE, {**OVERDAMPED, "run.c_factor": 0.0}, "run.c_factor", 2),
    (EQUALIZE, {**OVERDAMPED, "seed": -1}, "seed", 2),
    (EQUALIZE, {**OVERDAMPED, "bits": ""}, "bits", 2),
    (EQUALIZE, {**OVERDAMPED, "bits": "1", "run.J": 1}, "run.J", 2),
    (SPECTRUM, {**OVERDAMPED, "bits": ""}, "bits", 2),
    (SPECTRUM, {**OVERDAMPED, "bits": "1", "run.J_fft": 1, "run.settle_symbols": 0}, "run.J_fft", 2),
    (ACCURACY, {**OVERDAMPED, "run.variants": ["exact", "implicit"]}, "run.variants", 2),
]


# the overdamped and critical rows repeat earlier ones, so their ids say so
REJECTED_IDS = [
    f"{preset}:{field}"
    + (":overdamped" if OVERDAMPED.items() <= changes.items() else "")
    + (":critical" if CRITICAL.items() <= changes.items() else "")
    for preset, changes, field, _ in REJECTED
]


@pytest.mark.parametrize("preset, changes, field, code", REJECTED, ids=REJECTED_IDS)
def test_rejected_config_names_its_field(tmp_path, capsys, preset, changes, field, code):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_mutated(preset, changes)))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == code
    assert f"config error: {field}: " in capsys.readouterr().err


def test_console_entry_point_exit_codes(tmp_path):
    """The console script returns main's 2 for a config error and 1 for a model error."""
    circuit = get_preset(FIG4)["circuit"]
    boundary = 0.5 * math.sqrt(circuit["L"] / circuit["C"])
    runs = [
        ({"circuit.R_L": boundary * (1 - 2e-14)}, 1, "model error: "),
        (NEGATIVE_DCM_START, 2, "config error: ic: "),
    ]
    cases = [(["preset", "nope"], 2, "config error: preset: ")]
    for i, (changes, code, message) in enumerate(runs):
        path = tmp_path / f"scenario{i}.json"
        path.write_text(json.dumps(_mutated(FIG4, changes)))
        cases.append((["run", str(path)], code, message))
    for args, code, message in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "tpcsim.cli", *args, "--out", str(tmp_path / "out")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == code, (args, proc.stderr)
        assert message in proc.stderr


def test_config_that_is_not_an_object_is_refused(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text("[1]")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "config error: <root>: config must be a JSON object" in capsys.readouterr().err


def test_unstable_predictive_run_is_a_model_error(tmp_path, capsys):
    """dt = T > L/R_L: the predictive update diverged, and the run used to exit
    0 with v2 = 3.9 V from a 1 V supply after 200 symbols."""
    changes = {
        "circuit.R_L": 12.0,
        "bits": {"pattern": "alternating", "K": 200},
        "run": {"type": "discrete", "J": 1, "variant": "predictive"},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_mutated("fig3_components", changes)))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "model error: dt = 1e-06 s: the predictive update" in capsys.readouterr().err


def _csv_columns(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)


# given ic -> the resolved ic without steady: v2_0 and dv2_0 default to 0, any
# other symbol appears when given, and steady sets v2_0 = delta*V1*H(0) (H(0) = 1
# here) and the rest 0
GENERALIZED_ICS = {
    "v2_0": ({"v2_0": 0.5}, {"v2_0": 0.5, "dv2_0": 0.0}),
    "d2v2_0": ({"d2v2_0": 1e9}, {"v2_0": 0.0, "dv2_0": 0.0, "d2v2_0": 1e9}),
    "steady": ({"steady": True}, {"v2_0": 0.75, "dv2_0": 0.0}),
    "steady_d2v2_0": ({"steady": True, "d2v2_0": 1e9}, {"v2_0": 0.75, "dv2_0": 0.0, "d2v2_0": 0.0}),
}


@pytest.mark.parametrize("case", list(GENERALIZED_ICS))
def test_generalized_run_starts_from_the_root_ic(tmp_path, case):
    """The sidecar's ic is the one the generalized output starts from."""
    given, resolved = GENERALIZED_ICS[case]
    run_scenario(_mutated(GENERALIZED, {"ic": given}), tmp_path)
    meta = json.loads((tmp_path / "v2_generalized.csv.meta.json").read_text())
    assert meta["ic"] == {"steady": "steady" in given, **resolved}
    p = CircuitParams(**meta["circuit"])
    d = Dynamics.of(build_parasitic_model(p, ParasiticParams(esr_C=0.1, esl_C=10e-9)))
    pat = encode(meta["bits"], ModulationConfig(Scheme.VPWM, 1e-6, 0.75, 0.025))
    expected = sample_output(d, resolved, pat, p.V1, 1e-6 / 64, pat.K * 64)
    _, v2 = _csv_columns(tmp_path / "v2_generalized.csv")
    assert np.array_equal(v2, expected.samples)


def _lossy(r_ds_on):
    """generalized_parasitic with equal switch on-resistances r_ds_on, from a
    steady start, on 200 alternating symbols."""
    changes = {
        "ic": {"steady": True},
        "bits": {"pattern": "alternating", "K": 200},
        "run.topology.r_ds_on_1": r_ds_on,
        "run.topology.r_ds_on_2": r_ds_on,
    }
    return _mutated(GENERALIZED, changes)


@pytest.mark.parametrize("r_ds_on", [0.5, 2.0])
def test_steady_start_is_the_filters_dc_operating_point(tmp_path, r_ds_on):
    """Switch resistance r lowers the DC gain to H(0) = R_L/(R_L + r), and the
    output settles at delta*V1*H(0).  A steady start at delta*V1 = 0.75 V left
    the first symbol pair's mean 18 mV (r = 0.5 ohm) and 65 mV (2 ohm) off the
    last pair's."""
    run_scenario(_lossy(r_ds_on), tmp_path)
    meta = json.loads((tmp_path / "v2_generalized.csv.meta.json").read_text())
    v2_0 = meta["ic"]["v2_0"]
    R_L, delta_v1 = meta["circuit"]["R_L"], meta["modulation"]["delta"] * meta["circuit"]["V1"]
    assert v2_0 == pytest.approx(delta_v1 * R_L / (R_L + r_ds_on), rel=1e-15, abs=0.0)
    _, v2 = _csv_columns(tmp_path / "v2_generalized.csv")
    pair_means = v2.reshape(-1, 2 * meta["run"]["J"]).mean(axis=1)
    assert abs(pair_means[0] - pair_means[-1]) < 5e-3
    model = json.loads((tmp_path / "model.json").read_text())
    assert model["dc_gain"] == v2_0 / delta_v1


def test_negligible_esl_runs_as_the_model_without_it(tmp_path):
    """esl_C = 1e-70 H used to exit 1: the pole solve left the LC pair with
    backward error 1.0.  Its output now matches the run without ESL."""
    for name, esl_C in (("esl", 1e-70), ("none", 0.0)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(_mutated(GENERALIZED, {"run.topology.esl_C": esl_C})))
        assert main(["run", str(path), "--out", str(tmp_path / name)]) == 0
    _, with_esl = _csv_columns(tmp_path / "esl" / "v2_generalized.csv")
    _, without = _csv_columns(tmp_path / "none" / "v2_generalized.csv")
    assert np.max(np.abs(with_esl - without)) <= 1e-12


@pytest.mark.parametrize(
    "preset, changes, symbols",
    [
        (GENERALIZED, {"ic": {"v3_0": 0.0}}, ["v2_0", "dv2_0", "d2v2_0", "v1_0", "dv1_0"]),
        (FIG4, {"ic": {"d2v2_0": 1.0}}, ["v2_0", "dv2_0"]),
        (FIG4, {**OVERDAMPED, "run": DISCRETE, "ic": {"d2v2_0": 1.0}}, ["v2_0", "dv2_0"]),
    ],
    ids=["generalized", "analytic", "discrete_overdamped"],
)
def test_unknown_ic_symbol_names_the_filters_symbols(preset, changes, symbols):
    """The run's filter, or the base LC model where a run builds none, owns the symbols."""
    with pytest.raises(ConfigError) as err:
        validate_config(_mutated(preset, changes))
    assert err.value.field == f"ic.{next(iter(changes['ic']))}"
    assert err.value.message == f"unknown initial-condition symbol; one of {symbols}"


FAST = {"L": 10e-6, "C": 1e-6, "R_L": 10.0, "V1": 1.0}


def test_spectrum_settle_guard_defaults_to_the_filters(tmp_path):
    """On FAST (a*T = 0.05) a fixed 48-symbol guard left enough transient in
    the cross-check window to miss the closed form by 16%; the filter's own
    guard, as an accuracy run's, leaves the aliasing floor (0.4%)."""
    cfg = _defaulted(SPECTRUM, "settle_symbols")
    cfg["circuit"] = FAST
    cfg["run"]["points"] = 64
    assert validate_config(cfg)["run"]["settle_symbols"] == 277
    run_scenario(cfg, tmp_path)
    f, re, im, _ = _csv_columns(tmp_path / "spectrum_fft.csv")
    p = CircuitParams(**FAST)
    pat = encode(alternating_bits(64), ModulationConfig(Scheme.VPWM, 1e-6, 0.75, 0.025))
    closed = np.abs(ripple_spectrum(p, derive_dynamics(p), pat, f).values)
    lines = (f < 8e6) & (closed > 1e-3 * closed.max())
    assert lines.sum() >= 8
    assert np.max(np.abs(np.abs(re + 1j * im)[lines] / closed[lines] - 1.0)) < 0.01


def _defaulted(preset, run_field):
    cfg = get_preset(preset)
    del cfg["run"][run_field]
    return cfg


# every preset, the defaults a sidecar once could not hold: C_L = inf (written
# as the non-JSON Infinity) and the circuit's settle guards (null), and the run
# types and initial conditions no preset has
RERUN = {name: {"name": name, **get_preset(name)} for name in list_presets()}
RERUN["general_load_default_C_L"] = _mutated(GENERALIZED, {"run.topology": LOAD})
RERUN["accuracy_default_settle_symbols"] = _defaulted(ACCURACY, "settle_symbols")
RERUN["spectrum_default_settle_symbols"] = _defaulted(SPECTRUM, "settle_symbols")
RERUN["generalized_nonzero_ic"] = _mutated(GENERALIZED, {"ic": {"v2_0": 0.5, "d2v2_0": 1e9}})
RERUN["lossy_steady"] = _lossy(2.0)
# a series R-L-C load with a finite C_L, whose poles are real
SERIES_LOAD = {**LOAD, "R_L": 20.0, "L_L": 1e-5, "C_L": 1e-5}
RERUN["series_load"] = _mutated(GENERALIZED, {"run.topology": SERIES_LOAD})
# an Ohmic load 1e-13 above the damping boundary of the preset's L = 100 uH,
# C = 0.1 uF: the base filter's pair, 0.14 rad/s off the real axis
NEAR_BOUNDARY = {"circuit.R_L": 0.5 * math.sqrt(100e-6 / 0.1e-6) * (1 + 1e-13)}
RERUN["ohmic_load_near_boundary"] = _mutated(GENERALIZED, {"run.topology": LOAD, **NEAR_BOUNDARY})
# a frame too long for brute-force detection
RERUN["equalize_k13"] = _mutated(EQUALIZE, {"bits": {"pattern": "alternating", "K": 13}})
DISCRETE_RUNS = {
    "discrete_exact_ccm": {**DISCRETE, "variant": "exact", "mode": "ccm"},
    "discrete_predictive_dcm": {**DISCRETE, "variant": "predictive", "mode": "dcm"},
}
RERUN.update(
    {case: _mutated("fig3_components", {"run": run}) for case, run in DISCRETE_RUNS.items()}
)
# no preset modulates by pulse position
VPPM = {"scheme": "vppm", "T": 1e-6, "delta": 0.5, "depth": 0.1e-6}
RERUN["vppm_analytic"] = _mutated(
    "fig3_components", {"modulation": VPPM, "bits": "10110010", "seed": 7, "run.J": 64}
)
RERUN["vppm_equalize"] = _mutated(EQUALIZE, {"modulation": VPPM, "run.J": 32})
# every run type on an overdamped converter: R_L = 1 ohm is below the damping
# boundary of every preset circuit, and a default guard follows the slow pole
OVERDAMPED_RUNS = {
    "analytic": get_preset("fig3_components"),
    "gtx": get_preset(GTX),
    "discrete": _mutated("fig3_components", {"run": DISCRETE}),
    "spectrum": _defaulted(SPECTRUM, "settle_symbols"),
    "accuracy": _mutated(ACCURACY, {"run.J_list": [4, 8]}),
    "params": get_preset(PARAMS),
    "equalize": get_preset(EQUALIZE),
    "generalized": get_preset(GENERALIZED),
}
for run_type, cfg in OVERDAMPED_RUNS.items():
    cfg["circuit"]["R_L"] = 1.0
    RERUN[f"overdamped_{run_type}"] = cfg


def test_reruns_cover_every_run_type():
    assert {cfg["run"]["type"] for cfg in RERUN.values()} == set(_RUN)
    assert {cfg["run"]["type"] for cfg in OVERDAMPED_RUNS.values()} == set(_RUN)


@pytest.mark.parametrize("case", list(DISCRETE_RUNS))
def test_discrete_run_writes_simulate(tmp_path, case):
    run = DISCRETE_RUNS[case]
    run_scenario(RERUN[case], tmp_path)
    p = CircuitParams(**get_preset("fig3_components")["circuit"])
    pat = encode([1, 0, 1, 0, 1], ModulationConfig(Scheme.VPWM, 1e-6, 0.75, 0.2))
    variant, mode = Variant(run["variant"]), ConductionMode(run["mode"])
    v2, _ = simulate(p, pat, InitialConditions(0.75), run["J"], variant, mode)
    _, got = _csv_columns(tmp_path / "v2_discrete.csv")
    assert np.array_equal(got, v2.samples)


def test_vppm_equalize_run_detects_as_brute_force_detect(tmp_path):
    cfg = RERUN["vppm_equalize"]
    run_scenario(cfg, tmp_path)
    detection = json.loads((tmp_path / "detection.json").read_text())
    p = CircuitParams(**cfg["circuit"])
    mcfg = ModulationConfig(Scheme.VPPM, 1e-6, 0.5, 0.1e-6)
    bits = [int(b) for b in cfg["bits"]]
    ic = InitialConditions(0.5)  # steady: delta*V1
    v2, _ = simulate(p, encode(bits, mcfg), ic, 32, Variant.EXACT)
    r = observe(v2, ObservationModel(sigma=0.002, seed=7))
    detected = brute_force_detect(r, p, mcfg, ic, 32, len(bits))
    assert detection["bits_detected"] == detected.tolist()
    assert detection["bits_true"] == bits
    assert detection["bit_errors"] == 0


def test_equalize_run_past_the_detection_limit_writes_no_detection(tmp_path):
    assert RERUN["equalize_k13"]["bits"]["K"] == MAX_DETECT_BITS + 1
    run_scenario(RERUN["equalize_k13"], tmp_path)
    names = sorted(f.name for f in tmp_path.iterdir())
    assert names == ["equalized.csv", "equalized.csv.meta.json"]


def test_ohmic_load_near_the_boundary_runs_as_the_base_filter(tmp_path):
    """An Ohmic load reduces to the base filter, and both get their poles from
    one degree-2 rule: where the companion solve called the pair repeated
    (exit 1), the generalized output is the analytic run's to 1e-15 V."""
    cfg = RERUN["ohmic_load_near_boundary"]
    run_scenario(cfg, tmp_path / "generalized")
    run_scenario({**cfg, "run": {"type": "analytic", "J": cfg["run"]["J"]}}, tmp_path / "analytic")
    _, v2 = _csv_columns(tmp_path / "generalized" / "v2_generalized.csv")
    _, base = _csv_columns(tmp_path / "analytic" / "v2_total.csv")
    assert np.max(np.abs(v2 - base)) <= 1e-15


@pytest.mark.parametrize("case", list(RERUN))
def test_sidecar_regenerates_its_outputs(tmp_path, case):
    """Running a sidecar reproduces the outputs and sidecars it came with, byte for byte."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(RERUN[case]))
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["run", str(scenario), "--out", str(first)]) == 0
    sidecar = sorted(first.glob("*.meta.json"))[0]
    json.loads(sidecar.read_text(), parse_constant=lambda c: pytest.fail(f"{c} is not JSON"))
    assert main(["run", str(sidecar), "--out", str(second)]) == 0
    names = sorted(f.name for f in first.iterdir())
    assert sorted(f.name for f in second.iterdir()) == names
    for name in names:
        assert (second / name).read_bytes() == (first / name).read_bytes(), name


def _render_by_cell(header, rows) -> str:
    """The CSV writer's earlier form, one Python format per cell."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(x if isinstance(x, str) else f"{float(x):.17g}" for x in row))
    return "\n".join(lines) + "\n"


EXTREMES = [-0.0, 0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1]
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EXTREMES)
INTS = st.integers(-(2**62), 2**62) | st.sampled_from([2**53 + 1, -(2**53) - 1, 0])
COLUMNS = {
    "float list": (FLOATS, list),
    "float64 array": (FLOATS, lambda v: np.array(v, dtype=np.float64)),
    "int list": (INTS, list),
    "int64 array": (INTS, lambda v: np.array(v, dtype=np.int64)),
    "text": (st.text("abcdefghijklmnopqrstuvwxyz_-", min_size=1, max_size=12), list),
}


@st.composite
def tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMNS)), min_size=1, max_size=5))
    n_rows = draw(st.integers(0, 12))
    columns = []
    for kind in kinds:
        values, build = COLUMNS[kind]
        columns.append(build(draw(st.lists(values, min_size=n_rows, max_size=n_rows))))
    return [f"c{i}" for i in range(len(kinds))], columns


@settings(max_examples=200)
@given(table=tables())
def test_render_matches_per_cell_formatting(table):
    header, columns = table
    assert _render((header, columns)) == _render_by_cell(header, zip(*columns))


@settings(max_examples=50)
@given(
    dt=st.floats(1e-12, 1.0),
    t0=st.floats(-1e3, 1e3),
    samples=st.lists(FLOATS, max_size=20),
)
def test_render_waveform_matches_per_cell_formatting(dt, t0, samples):
    w = Waveform(dt=dt, t0=t0, samples=np.array(samples))
    expected = _render_by_cell(["t_s", "value"], zip(w.times(), w.samples))
    assert _render(w) == expected
