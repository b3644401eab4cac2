"""Command-line front end: validate a scenario config, run it, write CSV/JSON.

Scenario files are JSON with a versioned schema.  Every output file gets a
JSON sidecar (<file>.meta.json) holding the fully resolved configuration, so a
result can always be regenerated.  Numeric output uses 17 significant digits
(full round-trip precision) and files are written atomically.

Exit codes: 0 success, 1 model error (e.g. overdamped circuit), 2 config error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import presets as presets_mod
from .accuracy import sweep
from .analytic import Waveform, data_component, pulse_shape_gtx, sample_output, transient_component
from .circuit import CircuitParams, InitialConditions, derive_dynamics
from .discrete import ConductionMode, Variant, derive_params, simulate
from .equalization import (
    EstimatedIC,
    ObservationModel,
    brute_force_detect,
    equalize_frequency_domain,
    observe,
    subtract_transient,
)
from .errors import ConfigError, ModelError
from .laplace import (
    GeneralLoad,
    ParasiticParams,
    build_general_load_model,
    build_parasitic_model,
    find_poles,
    simulate_generalized,
    transfer_at,
)
from .modulation import ModulationConfig, Scheme, alternating_bits, encode
from .spectrum import ripple_spectrum, spectrum_via_fft

SCHEMA_VERSION = 1

_RUN_TYPES = (
    "analytic",
    "gtx",
    "discrete",
    "spectrum",
    "accuracy",
    "params",
    "equalize",
    "generalized",
)


# ---------------------------------------------------------------------------
# config validation


def _expect(cfg: dict, field: str, key: str, kinds, default=None, required=False):
    path = f"{field}.{key}" if field else key
    if key not in cfg:
        if required:
            raise ConfigError(path, "missing required field")
        return default
    value = cfg[key]
    if kinds is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(path, f"expected a number, got {value!r}")
        return float(value)
    if kinds is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(path, f"expected an integer, got {value!r}")
        return value
    if not isinstance(value, kinds):
        raise ConfigError(path, f"expected {kinds}, got {type(value).__name__}")
    return value


def _positive(value: float, path: str) -> float:
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(path, f"must be finite and > 0, got {value!r}")
    return value


def _resolve_bits(raw, mod: dict) -> list[int]:
    if isinstance(raw, str):
        if raw and not set(raw) <= {"0", "1"}:
            raise ConfigError("bits", f"bit string may contain only 0/1, got {raw!r}")
        return [int(ch) for ch in raw]
    if isinstance(raw, dict):
        pattern = _expect(raw, "bits", "pattern", str, required=True)
        if pattern != "alternating":
            raise ConfigError("bits.pattern", f"unknown pattern {pattern!r}")
        count = _expect(raw, "bits", "K", int, required=True)
        if count < 0:
            raise ConfigError("bits.K", "must be >= 0")
        return [int(b) for b in alternating_bits(count)]
    raise ConfigError("bits", "expected a 0/1 string or {pattern, K}")


def validate_config(raw: dict) -> dict:
    """Check a scenario dict and return its fully resolved form.

    Raises ConfigError naming the offending field on the first problem found.
    """
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    version = _expect(raw, "", "schema_version", int, required=True)
    if version != SCHEMA_VERSION:
        raise ConfigError("schema_version", f"unsupported version {version}")
    seed = _expect(raw, "", "seed", int, default=0)
    name = _expect(raw, "", "name", str, default="scenario")

    circuit = _expect(raw, "", "circuit", dict, required=True)
    res_circuit = {
        "L": _positive(_expect(circuit, "circuit", "L", float, required=True), "circuit.L"),
        "C": _positive(_expect(circuit, "circuit", "C", float, required=True), "circuit.C"),
        "R_L": _positive(_expect(circuit, "circuit", "R_L", float, required=True), "circuit.R_L"),
        "V1": _positive(_expect(circuit, "circuit", "V1", float, default=1.0), "circuit.V1"),
    }

    mod = _expect(raw, "", "modulation", dict, required=True)
    scheme = _expect(mod, "modulation", "scheme", str, required=True)
    if scheme not in ("vpwm", "vppm", "unmodulated"):
        raise ConfigError("modulation.scheme", f"unknown scheme {scheme!r}")
    T = _positive(_expect(mod, "modulation", "T", float, required=True), "modulation.T")
    delta = _expect(mod, "modulation", "delta", float, required=True)
    if not 0.0 < delta < 1.0:
        raise ConfigError("modulation.delta", f"must lie in (0, 1), got {delta!r}")
    depth = _expect(mod, "modulation", "depth", float, default=0.0)
    if depth < 0:
        raise ConfigError("modulation.depth", f"must be >= 0, got {depth!r}")
    if scheme == "vpwm" and depth >= min(delta, 1.0 - delta):
        raise ConfigError(
            "modulation.depth",
            f"duty {delta} +/- {depth} leaves (0, 1) for some bit value",
        )
    if scheme == "vppm" and depth > (1.0 - delta) * T / 2.0:
        raise ConfigError(
            "modulation.depth",
            f"center shift {depth} s pushes the pulse outside the period",
        )
    res_mod = {"scheme": scheme, "T": T, "delta": delta, "depth": depth}

    bits = _resolve_bits(raw.get("bits", ""), res_mod)

    ic_raw = _expect(raw, "", "ic", dict, default={})
    if ic_raw.get("steady"):
        res_ic = {"v2_0": delta * res_circuit["V1"], "dv2_0": 0.0, "steady": True}
    else:
        res_ic = {
            "v2_0": _expect(ic_raw, "ic", "v2_0", float, default=0.0),
            "dv2_0": _expect(ic_raw, "ic", "dv2_0", float, default=0.0),
            "steady": False,
        }

    run = _expect(raw, "", "run", dict, required=True)
    run_type = _expect(run, "run", "type", str, required=True)
    if run_type not in _RUN_TYPES:
        raise ConfigError("run.type", f"unknown run type {run_type!r}; one of {_RUN_TYPES}")
    res_run = {"type": run_type}

    def _j(key="J", default=None, required=False):
        j = _expect(run, "run", key, int, default=default, required=required)
        if j is not None and j < 1:
            raise ConfigError(f"run.{key}", "must be >= 1")
        return j

    if run_type in ("analytic", "discrete"):
        res_run["J"] = _j(required=True)
    if run_type == "gtx":
        res_run["points"] = _expect(run, "run", "points", int, default=2000)
        if res_run["points"] < 2:
            raise ConfigError("run.points", "must be >= 2")
        res_run["t_min_periods"] = _expect(run, "run", "t_min_periods", float, default=-1.0)
        res_run["t_max_periods"] = _expect(run, "run", "t_max_periods", float, default=10.0)
        if res_run["t_max_periods"] <= res_run["t_min_periods"]:
            raise ConfigError("run.t_max_periods", "must exceed t_min_periods")
    if run_type == "discrete":
        variant = _expect(run, "run", "variant", str, default="exact")
        if variant not in ("exact", "simplified", "predictive"):
            raise ConfigError("run.variant", f"unknown variant {variant!r}")
        mode = _expect(run, "run", "mode", str, default="ccm")
        if mode not in ("ccm", "dcm"):
            raise ConfigError("run.mode", f"unknown mode {mode!r}")
        res_run.update(variant=variant, mode=mode)
    if run_type == "spectrum":
        f_min = _positive(_expect(run, "run", "f_min", float, required=True), "run.f_min")
        f_max = _positive(_expect(run, "run", "f_max", float, required=True), "run.f_max")
        if f_max <= f_min:
            raise ConfigError("run.f_max", "must exceed f_min")
        points = _expect(run, "run", "points", int, default=2000)
        if points < 2:
            raise ConfigError("run.points", "must be >= 2")
        res_run.update(
            f_min=f_min,
            f_max=f_max,
            points=points,
            J_fft=_j("J_fft", default=64),
            settle_symbols=_expect(run, "run", "settle_symbols", int, default=48),
        )
    if run_type == "accuracy":
        j_list = _expect(run, "run", "J_list", list, required=True)
        if not j_list or not all(isinstance(j, int) and j >= 1 for j in j_list):
            raise ConfigError("run.J_list", "must be a non-empty list of integers >= 1")
        variants = _expect(run, "run", "variants", list, default=["exact", "simplified", "predictive"])
        for v in variants:
            if v not in ("exact", "simplified", "predictive"):
                raise ConfigError("run.variants", f"unknown variant {v!r}")
        res_run.update(
            J_list=list(j_list),
            variants=list(variants),
            settle_symbols=_expect(run, "run", "settle_symbols", int, default=None),
            align_predictive=bool(run.get("align_predictive", True)),
        )
    if run_type == "params":
        res_run["J"] = _j(required=True)
        c_values = _expect(run, "run", "c_values", list, required=True)
        if not c_values or not all(
            isinstance(c, (int, float)) and c > 0 for c in c_values
        ):
            raise ConfigError("run.c_values", "must be a non-empty list of positive numbers")
        res_run["c_values"] = [float(c) for c in c_values]
    if run_type == "equalize":
        res_run["J"] = _j(required=True)
        sigma = _expect(run, "run", "sigma", float, default=0.0)
        if sigma < 0:
            raise ConfigError("run.sigma", "must be >= 0")
        c_factor = _expect(run, "run", "c_factor", float, default=1.0)
        if c_factor == 0:
            raise ConfigError("run.c_factor", "must be nonzero")
        eps = _expect(run, "run", "eps", float, default=0.0)
        if eps < 0:
            raise ConfigError("run.eps", "must be >= 0")
        res_run.update(sigma=sigma, c_factor=c_factor, eps=eps)
    if run_type == "generalized":
        res_run["J"] = _j(required=True)
        topo = _expect(run, "run", "topology", dict, required=True)
        kind = _expect(topo, "run.topology", "kind", str, required=True)
        if kind == "parasitic":
            res_topo = {
                "kind": kind,
                "esr_C": _expect(topo, "run.topology", "esr_C", float, default=0.0),
                "esl_C": _expect(topo, "run.topology", "esl_C", float, default=0.0),
                "r_ds_on_1": _expect(topo, "run.topology", "r_ds_on_1", float, default=0.0),
                "r_ds_on_2": _expect(topo, "run.topology", "r_ds_on_2", float, default=0.0),
            }
            for key, val in res_topo.items():
                if key != "kind" and val < 0:
                    raise ConfigError(f"run.topology.{key}", "must be >= 0")
        elif kind == "general_load":
            c_l = topo.get("C_L", "inf")
            if c_l == "inf":
                c_l = math.inf
            elif isinstance(c_l, bool) or not isinstance(c_l, (int, float)) or c_l <= 0:
                raise ConfigError("run.topology.C_L", 'must be a positive number or "inf"')
            res_topo = {
                "kind": kind,
                "R_L": _positive(
                    _expect(topo, "run.topology", "R_L", float, default=res_circuit["R_L"]),
                    "run.topology.R_L",
                ),
                "L_L": _expect(topo, "run.topology", "L_L", float, default=0.0),
                "C_L": float(c_l),
            }
            if res_topo["L_L"] < 0:
                raise ConfigError("run.topology.L_L", "must be >= 0")
        else:
            raise ConfigError("run.topology.kind", f"unknown topology {kind!r}")
        ic_values = _expect(run, "run", "ic_values", dict, default={})
        for sym, val in ic_values.items():
            if isinstance(val, bool) or not isinstance(val, (int, float)):
                raise ConfigError(f"run.ic_values.{sym}", f"expected a number, got {val!r}")
        res_run.update(topology=res_topo, ic_values={k: float(v) for k, v in ic_values.items()})

    return {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "seed": seed,
        "circuit": res_circuit,
        "modulation": res_mod,
        "bits": bits,
        "ic": res_ic,
        "run": res_run,
    }


def _build_objects(cfg: dict):
    c = cfg["circuit"]
    p = CircuitParams(L=c["L"], C=c["C"], R_L=c["R_L"], V1=c["V1"])
    m = cfg["modulation"]
    mcfg = ModulationConfig(
        scheme=Scheme(m["scheme"]), T=m["T"], delta=m["delta"], depth=m["depth"]
    )
    bits = np.array(cfg["bits"], dtype=int)
    ic = InitialConditions(v2_0=cfg["ic"]["v2_0"], dv2_0=cfg["ic"]["dv2_0"])
    return p, mcfg, bits, ic


# ---------------------------------------------------------------------------
# output helpers


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) if not isinstance(x, str) else x for x in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_json(path: Path, obj) -> None:
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _waveform_csv(path: Path, w: Waveform) -> None:
    _write_csv(path, ["t_s", "value"], zip(w.times(), w.samples))


# ---------------------------------------------------------------------------
# runners (one per run type); each returns the list of files written


def _run_analytic(cfg, out: Path) -> list[Path]:
    p, mcfg, bits, ic = _build_objects(cfg)
    d = derive_dynamics(p)
    pat = encode(bits, mcfg)
    J = cfg["run"]["J"]
    dt = mcfg.T / J
    N = pat.K * J
    t = np.arange(N) * dt
    transient = Waveform(dt=dt, t0=0.0, samples=transient_component(d, ic, t))
    data = Waveform(dt=dt, t0=0.0, samples=data_component(d, pat, p.V1, t))
    total = Waveform(dt=dt, t0=0.0, samples=transient.samples + data.samples)
    files = []
    for name, w in (("v2_total", total), ("v2_transient", transient), ("v2_data", data)):
        path = out / f"{name}.csv"
        _waveform_csv(path, w)
        files.append(path)
    return files


def _run_gtx(cfg, out: Path) -> list[Path]:
    p, mcfg, _, _ = _build_objects(cfg)
    d = derive_dynamics(p)
    run = cfg["run"]
    t = np.linspace(
        run["t_min_periods"] * mcfg.T, run["t_max_periods"] * mcfg.T, run["points"]
    )
    g = pulse_shape_gtx(d, mcfg.delta * mcfg.T, t)
    path = out / "gtx.csv"
    _write_csv(path, ["t_s", "value"], zip(t, g))
    return [path]


def _run_discrete(cfg, out: Path) -> list[Path]:
    p, mcfg, bits, ic = _build_objects(cfg)
    pat = encode(bits, mcfg)
    run = cfg["run"]
    v2, iL = simulate(
        p, pat, ic, run["J"], Variant(run["variant"]), ConductionMode(run["mode"])
    )
    files = []
    for name, w in (("v2_discrete", v2), ("il_discrete", iL)):
        path = out / f"{name}.csv"
        _waveform_csv(path, w)
        files.append(path)
    return files


def _run_spectrum(cfg, out: Path) -> list[Path]:
    p, mcfg, bits, _ = _build_objects(cfg)
    d = derive_dynamics(p)
    pat = encode(bits, mcfg)
    run = cfg["run"]
    grid = np.logspace(np.log10(run["f_min"]), np.log10(run["f_max"]), run["points"])
    sg = ripple_spectrum(p, d, pat, grid)
    scale = p.V1 * mcfg.T
    path_a = out / "spectrum.csv"
    _write_csv(
        path_a,
        ["frequency_hz", "re", "im", "mag_db"],
        zip(sg.frequencies, sg.values.real, sg.values.imag, sg.magnitude_db(scale)),
    )

    # FFT cross-check: settle on a cyclically extended pattern, transform the
    # final pat.K symbols only.
    settle = run["settle_symbols"]
    reps = -(-(settle + pat.K) // max(pat.K, 1))
    bits_ext = np.tile(bits, reps)[-(settle + pat.K) :]
    pat_ext = encode(bits_ext, mcfg)
    ic = InitialConditions(v2_0=mcfg.delta * p.V1, dv2_0=0.0)
    J = run["J_fft"]
    w_full = sample_output(d, ic, pat_ext, p.V1, mcfg.T / J, pat_ext.K * J)
    w_win = Waveform(
        dt=w_full.dt, t0=settle * mcfg.T, samples=w_full.samples[settle * J :]
    )
    sg_fft = spectrum_via_fft(w_win, dc_remove=pat.mean_duty() * p.V1)
    path_f = out / "spectrum_fft.csv"
    _write_csv(
        path_f,
        ["frequency_hz", "re", "im", "mag_db"],
        zip(
            sg_fft.frequencies,
            sg_fft.values.real,
            sg_fft.values.imag,
            sg_fft.magnitude_db(scale),
        ),
    )
    return [path_a, path_f]


def _run_accuracy(cfg, out: Path) -> list[Path]:
    p, mcfg, bits, _ = _build_objects(cfg)
    run = cfg["run"]
    reports = sweep(
        p,
        mcfg,
        bits,
        run["J_list"],
        [Variant(v) for v in run["variants"]],
        settle_symbols=run["settle_symbols"],
        align_predictive=run["align_predictive"],
    )
    path = out / "accuracy.csv"
    _write_csv(
        path,
        ["J", "variant", "bias_over_v1", "mse_over_v1sq"],
        (
            (r.J, r.variant.value, r.bias / p.V1, r.mse / p.V1**2)
            for r in reports
        ),
    )
    return [path]


def _run_params(cfg, out: Path) -> list[Path]:
    base, mcfg, _, _ = _build_objects(cfg)
    run = cfg["run"]
    lc = base.L * base.C
    rows = []
    for c_val in run["c_values"]:
        p = CircuitParams(L=lc / c_val, C=c_val, R_L=base.R_L, V1=base.V1)
        exact = derive_params(p, run["J"], mcfg.T, Variant.EXACT)
        approx = derive_params(p, run["J"], mcfg.T, Variant.SIMPLIFIED)
        rows.append(
            (
                c_val,
                p.L,
                exact.alpha,
                exact.beta,
                exact.gamma,
                exact.kappa,
                exact.mu,
                approx.alpha,
                approx.beta,
                approx.gamma,
                approx.kappa,
                approx.mu,
            )
        )
    path = out / "coefficients.csv"
    _write_csv(
        path,
        [
            "C_farad",
            "L_henry",
            "alpha_exact",
            "beta_exact",
            "gamma_exact",
            "kappa_exact",
            "mu_exact",
            "alpha_approx",
            "beta_approx",
            "gamma_approx",
            "kappa_approx",
            "mu_approx",
        ],
        rows,
    )
    return [path]


def _run_equalize(cfg, out: Path) -> list[Path]:
    p, mcfg, bits, ic = _build_objects(cfg)
    d = derive_dynamics(p)
    pat = encode(bits, mcfg)
    run = cfg["run"]
    J = run["J"]
    v2, _ = simulate(p, pat, ic, J, Variant.EXACT)
    om = ObservationModel(c=run["c_factor"], sigma=run["sigma"], seed=cfg["seed"])
    r = observe(v2, om)
    r_v2_units = Waveform(dt=r.dt, t0=r.t0, samples=r.samples / run["c_factor"])
    cleaned = subtract_transient(
        r_v2_units, d, EstimatedIC(v2_0_hat=ic.v2_0, dv2_0_hat=ic.dv2_0)
    )
    eq = equalize_frequency_domain(cleaned, p, eps=run["eps"])
    path_eq = out / "equalized.csv"
    _waveform_csv(path_eq, eq)
    files = [path_eq]
    if 1 <= pat.K <= 12:
        detected = brute_force_detect(r_v2_units, p, mcfg, ic, J, pat.K)
        path_det = out / "detection.json"
        _write_json(
            path_det,
            {
                "bits_true": [int(b) for b in bits],
                "bits_detected": [int(b) for b in detected],
                "bit_errors": int(np.sum(detected != bits)),
                "sigma": run["sigma"],
                "seed": cfg["seed"],
            },
        )
        files.append(path_det)
    return files


def _run_generalized(cfg, out: Path) -> list[Path]:
    p, mcfg, bits, _ = _build_objects(cfg)
    pat = encode(bits, mcfg)
    run = cfg["run"]
    topo = run["topology"]
    if topo["kind"] == "parasitic":
        obj = ParasiticParams(
            esr_C=topo["esr_C"],
            esl_C=topo["esl_C"],
            r_ds_on_1=topo["r_ds_on_1"],
            r_ds_on_2=topo["r_ds_on_2"],
        )
        model = build_parasitic_model(p, obj)
    else:
        obj = GeneralLoad(R_L=topo["R_L"], L_L=topo["L_L"], C_L=topo["C_L"])
        model = build_general_load_model(p, obj)
    poles = find_poles(model)
    w = simulate_generalized(p, obj, pat, run["ic_values"], run["J"])
    path_w = out / "v2_generalized.csv"
    _waveform_csv(path_w, w)
    path_m = out / "model.json"
    _write_json(
        path_m,
        {
            "num_ascending": [float(x) for x in model.num],
            "den_ascending": [float(x) for x in model.den],
            "poles": [[float(z.real), float(z.imag)] for z in poles],
            "dc_gain": float(transfer_at(model, 0.0).real),
        },
    )
    return [path_w, path_m]


_RUNNERS = {
    "analytic": _run_analytic,
    "gtx": _run_gtx,
    "discrete": _run_discrete,
    "spectrum": _run_spectrum,
    "accuracy": _run_accuracy,
    "params": _run_params,
    "equalize": _run_equalize,
    "generalized": _run_generalized,
}


def run_scenario(config: dict, out_dir) -> list[Path]:
    """Validate and execute one scenario, writing outputs plus sidecars."""
    cfg = validate_config(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = _RUNNERS[cfg["run"]["type"]](cfg, out)
    for f in files:
        _write_json(f.with_name(f.name + ".meta.json"), cfg)
    print(f"{cfg['name']}: wrote {', '.join(str(f) for f in files)}")
    return files


# ---------------------------------------------------------------------------
# entry point


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read config: {exc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"not valid JSON: {exc}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tpc",
        description="Simulate data-modulated buck-converter output voltages.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config file")
    p_run.add_argument("config", help="path to a JSON scenario")
    p_run.add_argument("--out", default=".", help="output directory")

    p_preset = sub.add_parser("preset", help="run a named built-in scenario")
    p_preset.add_argument("name", help="preset name (see list-presets)")
    p_preset.add_argument("--out", default=".", help="output directory")

    sub.add_parser("list-presets", help="list built-in scenario names")

    args = parser.parse_args(argv)
    try:
        if args.command == "list-presets":
            for name in presets_mod.list_presets():
                print(name)
            return 0
        if args.command == "run":
            config = _load_config(args.config)
        else:
            try:
                config = presets_mod.get_preset(args.name)
            except KeyError as exc:
                raise ConfigError("preset", str(exc))
            config.setdefault("name", args.name)
        run_scenario(config, args.out)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ModelError, ValueError) as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
