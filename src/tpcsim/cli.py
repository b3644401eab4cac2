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
import operator
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import presets as presets_mod
from .accuracy import _settle_guard, reference_samples, sweep
from .analytic import Waveform, data_component, pulse_shape_gtx, sample_output, transient_component
from .circuit import CircuitParams, Dynamics, InitialConditions, derive_dynamics
from .discrete import ConductionMode, Variant, derive_params, simulate
from .equalization import (
    ObservationModel,
    brute_force_detect,
    equalize_frequency_domain,
    observe,
    subtract_transient,
)
from .errors import ConfigError, DepthOutOfRangeError, ModelError, PatternTooShortError
from .laplace import GeneralLoad, ParasiticParams, _build_model, ic_numerator, transfer_at
from .modulation import ModulationConfig, Scheme, alternating_bits, encode
from .spectrum import ripple_spectrum, spectrum_via_fft

SCHEMA_VERSION = 1

# ---------------------------------------------------------------------------
# config validation
#
# The field tables below check JSON types, required fields and finiteness.
# Every range rule belongs to the domain constructor that receives the value;
# a table bound only covers a run field that no constructor sees.

_REQUIRED = object()

# field -> (kind, default or _REQUIRED[, bound]).  A dict kind is a nested
# field table, "[kind, ...]" a non-empty array.  A bound (op, limit) means
# op(value, limit) holds for the value, or each element of an array; the limit
# is a number or the name of an earlier field of the same object.
_CIRCUIT = {
    "L": ("number", _REQUIRED),
    "C": ("number", _REQUIRED),
    "R_L": ("number", _REQUIRED),
    "V1": ("number", 1.0),
}
_MODULATION = {
    "scheme": ("string", _REQUIRED),
    "T": ("number", _REQUIRED),
    "delta": ("number", _REQUIRED),
    "depth": ("number", 0.0),
}
_IC = {"steady": ("boolean", False), "v2_0": ("number", 0.0), "dv2_0": ("number", 0.0)}
_ROOT = {
    "schema_version": ("integer", _REQUIRED),
    "name": ("string", "scenario"),
    "seed": ("integer", 0),
    "circuit": (_CIRCUIT, _REQUIRED),
    "modulation": (_MODULATION, _REQUIRED),
    "bits": ("string, array or object", ""),
    "ic": (_IC, {}),
    "run": ("object", _REQUIRED),
}
_ALTERNATING = {"pattern": ("string", _REQUIRED), "K": ("integer", _REQUIRED)}
_J = ("integer", _REQUIRED, (operator.ge, 1))
# run.type -> the run's fields besides "type"
_RUN = {
    "analytic": {"J": _J},
    "gtx": {
        "points": ("integer", 2000, (operator.ge, 2)),
        "t_min_periods": ("number", -1.0),
        "t_max_periods": ("number", 10.0, (operator.gt, "t_min_periods")),
    },
    "discrete": {"J": _J, "variant": ("string", "exact"), "mode": ("string", "ccm")},
    "spectrum": {
        "f_min": ("number", _REQUIRED, (operator.gt, 0)),
        "f_max": ("number", _REQUIRED, (operator.gt, "f_min")),
        "points": ("integer", 2000, (operator.ge, 2)),
        "J_fft": ("integer", 64, (operator.ge, 1)),
        "settle_symbols": ("integer", 48, (operator.ge, 0)),
    },
    "accuracy": {
        "J_list": ("[integer, ...]", _REQUIRED, (operator.ge, 1)),
        "variants": ("[string]", ["exact", "simplified", "predictive"]),
        "settle_symbols": ("integer", None, (operator.ge, 0)),
        "align_predictive": ("boolean", True),
    },
    "params": {"J": _J, "c_values": ("[number, ...]", _REQUIRED, (operator.gt, 0))},
    "equalize": {
        "J": _J,
        "sigma": ("number", 0.0),
        "c_factor": ("number", 1.0),
        "eps": ("number", 0.0, (operator.ge, 0)),
    },
    "generalized": {
        "J": _J,
        "topology": ("object", _REQUIRED),
        "ic_values": ("{name: number}", {}),
    },
}
# run.topology.kind -> the topology's fields besides "kind"; general_load's
# R_L defaults to circuit.R_L
_TOPOLOGY = {
    "parasitic": {
        "esr_C": ("number", 0.0),
        "esl_C": ("number", 0.0),
        "r_ds_on_1": ("number", 0.0),
        "r_ds_on_2": ("number", 0.0),
    },
    "general_load": {
        "R_L": ("number", None),
        "L_L": ("number", 0.0),
        "C_L": ('number or "inf"', "inf"),
    },
}
_SYMBOLS = {operator.ge: ">=", operator.gt: ">"}
_JSON_TYPES = {
    "integer": int,
    "number": (int, float),
    "string": str,
    "boolean": bool,
    "object": dict,
    "array": list,
    "string, array or object": (str, list, dict),
}


def _typed(path: str, kind, value):
    """value checked against a table kind: JSON type, and finite if a number."""
    if isinstance(kind, dict):
        return _section(path, _typed(path, "object", value), kind)
    if kind.startswith("["):
        items = _typed(path, "array", value)
        if kind.endswith(", ...]") and not items:
            raise ConfigError(path, "must not be empty")
        elem = kind[1:-1].removesuffix(", ...")
        return [_typed(f"{path}[{i}]", elem, v) for i, v in enumerate(items)]
    if kind == "{name: number}":
        items = _typed(path, "object", value).items()
        return {k: _typed(f"{path}.{k}", "number", v) for k, v in items}
    if kind == 'number or "inf"':
        if value == "inf":  # kept as the string, which JSON can hold
            return value
        kind = "number"
    # bool is an int subclass in Python; JSON keeps them apart
    if isinstance(value, bool) != (kind == "boolean") or not isinstance(value, _JSON_TYPES[kind]):
        raise ConfigError(path, f"expected {kind}, got {value!r}")
    if kind == "number":
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(path, f"must be finite, got {value!r}")
    return value


def _section(path: str, raw: dict, fields: dict) -> dict:
    """Resolved copy of a config object: unknown fields rejected, defaults filled."""
    prefix = f"{path}." if path else ""
    for key in raw:
        if key not in fields:
            raise ConfigError(prefix + key, "unknown field")
    out = {}
    for key, (kind, default, *bound) in fields.items():
        if key in raw:
            out[key] = value = _typed(prefix + key, kind, raw[key])
        elif default is _REQUIRED:
            raise ConfigError(prefix + key, "missing required field")
        else:
            out[key] = value = default if default is None else _typed(prefix + key, kind, default)
        if bound and value is not None:
            op, limit = bound[0]
            ref = out[limit] if isinstance(limit, str) else limit
            values = value if isinstance(value, list) else [value]
            if not all(op(v, ref) for v in values):
                raise ConfigError(prefix + key, f"must be {_SYMBOLS[op]} {limit}")
    return out


def _tagged(path: str, raw: dict, tag: str, tables: dict) -> dict:
    """Resolve an object whose `tag` field picks its field table."""
    if tag not in raw:
        raise ConfigError(f"{path}.{tag}", "missing required field")
    name = _typed(f"{path}.{tag}", "string", raw[tag])
    if name not in tables:
        raise ConfigError(f"{path}.{tag}", f"unknown {tag} {name!r}; one of {', '.join(tables)}")
    return _section(path, raw, {tag: ("string", _REQUIRED), **tables[name]})


def _checked(path: str, build, *args, **kwargs):
    """build(*args, **kwargs), its ValueError re-raised as a ConfigError under path."""
    try:
        return build(*args, **kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{path}.{exc.field}", exc.message) from None
    except ValueError as exc:  # enum lookups, bit values
        raise ConfigError(path, str(exc)) from None


def _two_samples(pat, run: dict, field: str, purpose: str) -> None:
    """ConfigError unless pat.K symbols at run[field] samples each give purpose two samples."""
    if not pat.K:
        raise ConfigError("bits", f"{purpose} needs at least one symbol")
    if pat.K * run[field] < 2:
        raise ConfigError(f"run.{field}", f"K*{field} < 2 leaves {purpose} fewer than two samples")


def _resolve(raw) -> tuple[dict, SimpleNamespace]:
    """The resolved config and the domain objects built from it."""
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    cfg = _section("", raw, _ROOT)
    if cfg["schema_version"] != SCHEMA_VERSION:
        raise ConfigError("schema_version", f"unsupported version {cfg['schema_version']}")

    p = _checked("circuit", CircuitParams, **cfg["circuit"])
    mod = cfg["modulation"]
    scheme = _checked("modulation.scheme", Scheme, mod["scheme"])
    mcfg = _checked("modulation", ModulationConfig, scheme, mod["T"], mod["delta"], mod["depth"])
    try:
        encode([0, 1], mcfg)
    except DepthOutOfRangeError as exc:
        raise ConfigError("modulation.depth", str(exc)) from None

    bits = cfg["bits"]
    if isinstance(bits, dict):
        spec = _section("bits", bits, _ALTERNATING)
        if spec["pattern"] != "alternating":
            raise ConfigError("bits.pattern", f"unknown pattern {spec['pattern']!r}")
        bits = _checked("bits", alternating_bits, spec["K"])
    elif isinstance(bits, list):  # the form the sidecar holds
        bits = _typed("bits", "[integer]", bits)
    pat = _checked("bits", encode, list(bits), mcfg)
    cfg["bits"] = [int(b) for b in bits]

    ic = cfg["ic"]
    if ic["steady"]:
        ic.update(v2_0=mcfg.delta * p.V1, dv2_0=0.0)
    built = SimpleNamespace(
        p=p,
        mcfg=mcfg,
        bits=np.array(cfg["bits"], dtype=int),
        pat=pat,
        ic=_checked("ic", InitialConditions, ic["v2_0"], ic["dv2_0"]),
    )

    run = cfg["run"] = _tagged("run", cfg["run"], "type", _RUN)
    if run["type"] == "discrete":
        built.variant = _checked("run.variant", Variant, run["variant"])
        built.mode = _checked("run.mode", ConductionMode, run["mode"])
    elif run["type"] == "spectrum":
        # the FFT cross-check transforms the last pat.K symbols at J_fft samples each
        _two_samples(pat, run, "J_fft", "the FFT cross-check")
    elif run["type"] == "accuracy":
        built.variants = [_checked("run.variants", Variant, v) for v in run["variants"]]
    elif run["type"] == "params":
        lc = p.L * p.C
        built.circuits = [
            _checked(f"run.c_values[{i}]", CircuitParams, lc / c, c, p.R_L, p.V1)
            for i, c in enumerate(run["c_values"])
        ]
    elif run["type"] == "equalize":
        _two_samples(pat, run, "J", "the equalizer")
        try:
            built.om = ObservationModel(run["c_factor"], run["sigma"], cfg["seed"])
        except ConfigError as exc:
            path = {"c": "run.c_factor", "sigma": "run.sigma", "seed": "seed"}[exc.field]
            raise ConfigError(path, exc.message) from None
    elif run["type"] == "generalized":
        topo = run["topology"] = _tagged("run.topology", run["topology"], "kind", _TOPOLOGY)
        if topo["kind"] == "general_load" and topo["R_L"] is None:
            topo["R_L"] = p.R_L
        load_type = ParasiticParams if topo["kind"] == "parasitic" else GeneralLoad
        params = {k: float(v) for k, v in topo.items() if k != "kind"}  # float("inf") for C_L
        model = _build_model(p, _checked("run.topology", load_type, **params))
        # the model owns its initial-condition symbols
        _checked("run.ic_values", ic_numerator, model, run["ic_values"])
        built.d = Dynamics.of(model)
    if run["type"] not in ("discrete", "params", "generalized"):
        # one base filter per run, built once the checks that do not need it
        # passed; discrete and params runs accept overdamped circuits
        built.d = derive_dynamics(p)
    if run["type"] == "accuracy":
        # the accuracy module owns the settling guard and its default, which
        # follows the filter's decay
        try:
            run["settle_symbols"] = _settle_guard(built.d, pat, run["settle_symbols"])
        except PatternTooShortError as exc:
            raise ConfigError("run.settle_symbols", str(exc)) from None
    return cfg, built


def validate_config(raw: dict) -> dict:
    """Check a scenario dict and return its fully resolved form.

    Raises ConfigError naming the offending field on the first problem found,
    and ModelError when the run's filter cannot be built (an overdamped
    circuit where a run needs the complex-pole model).
    """
    return _resolve(raw)[0]


# ---------------------------------------------------------------------------
# runners (one per run type): each takes the resolved run dict and the built
# objects and returns {file name: Waveform, (header, columns) table or JSON object}


def _run_analytic(run, b) -> dict:
    dt = b.mcfg.T / run["J"]
    t = np.arange(b.pat.K * run["J"]) * dt
    transient = transient_component(b.d, b.ic, t)
    data = data_component(b.d, b.pat, b.p.V1, t)
    return {
        f"v2_{name}.csv": Waveform(dt=dt, t0=0.0, samples=samples)
        for name, samples in (("total", transient + data), ("transient", transient), ("data", data))
    }


def _run_gtx(run, b) -> dict:
    T = b.mcfg.T
    t = np.linspace(run["t_min_periods"] * T, run["t_max_periods"] * T, run["points"])
    return {"gtx.csv": (["t_s", "value"], [t, pulse_shape_gtx(b.d, b.mcfg.delta * T, t)])}


def _run_discrete(run, b) -> dict:
    v2, iL = simulate(b.p, b.pat, b.ic, run["J"], b.variant, b.mode)
    return {"v2_discrete.csv": v2, "il_discrete.csv": iL}


def _run_spectrum(run, b) -> dict:
    p, d, mcfg, pat = b.p, b.d, b.mcfg, b.pat
    grid = np.logspace(np.log10(run["f_min"]), np.log10(run["f_max"]), run["points"])
    sg = ripple_spectrum(p, d, pat, grid)

    # FFT cross-check: settle on a cyclically extended pattern, transform the
    # final pat.K symbols only.
    settle, J = run["settle_symbols"], run["J_fft"]
    reps = -(-(settle + pat.K) // pat.K)
    pat_ext = encode(np.tile(b.bits, reps)[-(settle + pat.K) :], mcfg)
    ic = InitialConditions(v2_0=mcfg.delta * p.V1, dv2_0=0.0)
    w_win = reference_samples(d, ic, pat_ext, p.V1, J, settle)
    sg_fft = spectrum_via_fft(w_win, dc_remove=pat.mean_duty() * p.V1)

    scale = p.V1 * mcfg.T
    return {
        name: (
            ["frequency_hz", "re", "im", "mag_db"],
            [s.frequencies, s.values.real, s.values.imag, s.magnitude_db(scale)],
        )
        for name, s in (("spectrum.csv", sg), ("spectrum_fft.csv", sg_fft))
    }


def _run_accuracy(run, b) -> dict:
    reports = sweep(
        b.p,
        b.mcfg,
        b.bits,
        run["J_list"],
        b.variants,
        settle_symbols=run["settle_symbols"],
        align_predictive=run["align_predictive"],
    )
    V1 = b.p.V1
    columns = [
        [r.J for r in reports],
        [r.variant.value for r in reports],
        [r.bias / V1 for r in reports],
        [r.mse / V1**2 for r in reports],
    ]
    return {"accuracy.csv": (["J", "variant", "bias_over_v1", "mse_over_v1sq"], columns)}


_COEFFICIENTS = ("alpha", "beta", "gamma", "kappa", "mu")


def _run_params(run, b) -> dict:
    sets = (("exact", Variant.EXACT), ("approx", Variant.SIMPLIFIED))
    header = ["C_farad", "L_henry"] + [f"{c}_{name}" for name, _ in sets for c in _COEFFICIENTS]
    rows = []
    for q in b.circuits:
        coeffs = [derive_params(q, run["J"], b.mcfg.T, variant) for _, variant in sets]
        rows.append((q.C, q.L, *(getattr(dp, c) for dp in coeffs for c in _COEFFICIENTS)))
    return {"coefficients.csv": (header, list(zip(*rows)))}


def _run_equalize(run, b) -> dict:
    p, ic, J = b.p, b.ic, run["J"]
    v2, _ = simulate(p, b.pat, ic, J, Variant.EXACT)
    r = observe(v2, b.om)
    r_v2_units = Waveform(dt=r.dt, t0=r.t0, samples=r.samples / run["c_factor"])
    cleaned = subtract_transient(r_v2_units, b.d, ic)
    outputs = {"equalized.csv": equalize_frequency_domain(cleaned, p, eps=run["eps"])}
    if b.pat.K <= 12:
        detected = brute_force_detect(r_v2_units, p, b.mcfg, ic, J, b.pat.K)
        outputs["detection.json"] = {
            "bits_true": [int(x) for x in b.bits],
            "bits_detected": [int(x) for x in detected],
            "bit_errors": int(np.sum(detected != b.bits)),
            "sigma": run["sigma"],
            "seed": b.om.seed,
        }
    return outputs


def _run_generalized(run, b) -> dict:
    d, J = b.d, run["J"]
    w = sample_output(d, run["ic_values"], b.pat, b.p.V1, b.pat.T / J, b.pat.K * J)
    return {
        "v2_generalized.csv": w,
        "model.json": {
            "num_ascending": [float(x) for x in d.model.num],
            "den_ascending": [float(x) for x in d.model.den],
            "poles": [[float(z.real), float(z.imag)] for z in d.poles],
            "dc_gain": float(transfer_at(d.model, 0.0).real),
        },
    }


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


# ---------------------------------------------------------------------------
# output


def _render(content) -> str:
    """CSV text of a Waveform or (header, columns) table; JSON text of anything else.

    Each column is converted to Python values once and every row goes through
    one %-format: text columns as they are, numbers with 17 significant digits.
    """
    if isinstance(content, Waveform):
        content = (["t_s", "value"], [content.times(), content.samples])
    if not isinstance(content, tuple):
        return json.dumps(content, indent=2, sort_keys=True, allow_nan=False) + "\n"
    header, columns = content
    arrays = [np.asarray(c) for c in columns]
    fmt = ",".join("%s" if a.dtype.kind == "U" else "%.17g" for a in arrays)
    rows = map(fmt.__mod__, zip(*(a.tolist() for a in arrays)))
    return "\n".join([",".join(header), *rows]) + "\n"


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)


def run_scenario(config: dict, out_dir) -> list[Path]:
    """Validate and execute one scenario, writing outputs plus sidecars."""
    cfg, built = _resolve(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    outputs = _RUNNERS[cfg["run"]["type"]](cfg["run"], built)
    meta = _render(cfg)
    files = []
    for name, content in outputs.items():
        path = out / name
        _atomic_write(path, _render(content))
        _atomic_write(path.with_name(name + ".meta.json"), meta)
        files.append(path)
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
