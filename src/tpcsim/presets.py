"""Named scenario presets shipped with the command-line tool.

Each preset is a complete, validated scenario configuration.  The fig* names
reproduce the standard demonstration scenarios of the toolkit: pulse shape,
output-voltage components, full output against the settled DC level, ripple
spectrum, discrete-model bias and MSE sweeps, and the coefficient comparison
of the exact and approximated iteration parameters.
"""

from __future__ import annotations

import copy

import numpy as np

_FAST_CIRCUIT = {"L": 10e-6, "C": 1e-6, "R_L": 10.0, "V1": 1.0}
_SLOW_CIRCUIT = {"L": 100e-6, "C": 0.1e-6, "R_L": 20.0, "V1": 1.0}

# Long alternating pattern: 277 settle symbols (transient envelope below 1e-6)
# plus a 65-symbol statistics window.  The odd window length keeps the duty
# quantization of the two symbol types from cancelling exactly, which is what
# makes the favorable/unfavorable oversampling structure visible in the bias.
_ACCURACY_BASE = {
    "circuit": _FAST_CIRCUIT,
    "modulation": {"scheme": "vpwm", "T": 1e-6, "delta": 0.75, "depth": 0.2},
    "bits": {"pattern": "alternating", "K": 341},
    "ic": {"steady": True},
}

_PRESETS = {
    "fig2_gtx": {
        "schema_version": 1,
        "seed": 0,
        "circuit": _FAST_CIRCUIT,
        "modulation": {"scheme": "unmodulated", "T": 1e-6, "delta": 0.75, "depth": 0.0},
        "bits": {"pattern": "alternating", "K": 1},
        "ic": {"v2_0": 0.0, "dv2_0": 0.0},
        "run": {
            "type": "gtx",
            "points": 4000,
            "t_min_periods": -1.0,
            "t_max_periods": 12.0,
        },
    },
    "fig3_components": {
        "schema_version": 1,
        "seed": 0,
        "circuit": _FAST_CIRCUIT,
        "modulation": {"scheme": "vpwm", "T": 1e-6, "delta": 0.75, "depth": 0.2},
        "bits": "10101",
        "ic": {"steady": True},
        "run": {"type": "analytic", "J": 200},
    },
    "fig4_ltspice_check": {
        "schema_version": 1,
        "seed": 0,
        "circuit": _SLOW_CIRCUIT,
        "modulation": {"scheme": "vpwm", "T": 1e-6, "delta": 0.75, "depth": 0.025},
        "bits": {"pattern": "alternating", "K": 64},
        "ic": {"steady": True},
        "run": {"type": "analytic", "J": 100},
    },
    "fig5_spectrum": {
        "schema_version": 1,
        "seed": 0,
        "circuit": _SLOW_CIRCUIT,
        "modulation": {"scheme": "vpwm", "T": 1e-6, "delta": 0.75, "depth": 0.025},
        "bits": {"pattern": "alternating", "K": 64},
        "ic": {"steady": True},
        "run": {
            "type": "spectrum",
            "f_min": 1e3,
            "f_max": 2e7,
            "points": 4000,
            "J_fft": 64,
            "settle_symbols": 48,
        },
    },
    "fig6_bias": {
        "schema_version": 1,
        "seed": 0,
        **_ACCURACY_BASE,
        "run": {
            "type": "accuracy",
            "J_list": [4, 5, 6, 7, 8, 10, 12, 16, 20, 24, 32, 48, 64, 96, 128, 192, 255, 256],
            "variants": ["exact", "simplified", "predictive"],
            "settle_symbols": 277,
        },
    },
    "fig7_mse": {
        "schema_version": 1,
        "seed": 0,
        **_ACCURACY_BASE,
        "run": {
            "type": "accuracy",
            "J_list": [4, 8, 16, 32, 64, 128, 256],
            "variants": ["exact", "simplified", "predictive"],
            "settle_symbols": 277,
        },
    },
    "fig8_params": {
        "schema_version": 1,
        "seed": 0,
        "circuit": {"L": 1e-4, "C": 1e-7, "R_L": 20.0, "V1": 1.0},
        "modulation": {"scheme": "unmodulated", "T": 1e-6, "delta": 0.75, "depth": 0.0},
        "bits": {"pattern": "alternating", "K": 1},
        "ic": {"steady": True},
        "run": {
            "type": "params",
            "J": 10,
            "c_values": [float(c) for c in np.logspace(np.log10(3e-7), np.log10(3e-4), 10)],
        },
    },
    "equalize_k8": {
        "schema_version": 1,
        "seed": 7,
        "circuit": _FAST_CIRCUIT,
        "modulation": {"scheme": "vpwm", "T": 1e-6, "delta": 0.75, "depth": 0.2},
        "bits": "10110010",
        "ic": {"steady": True},
        "run": {"type": "equalize", "J": 8, "sigma": 0.002, "c_factor": 1.0, "eps": 0.0},
    },
    "generalized_parasitic": {
        "schema_version": 1,
        "seed": 0,
        "circuit": _SLOW_CIRCUIT,
        "modulation": {"scheme": "vpwm", "T": 1e-6, "delta": 0.75, "depth": 0.025},
        "bits": {"pattern": "alternating", "K": 16},
        "ic": {},
        "run": {
            "type": "generalized",
            "J": 64,
            "topology": {"kind": "parasitic", "esr_C": 0.1, "esl_C": 10e-9},
        },
    },
}


def list_presets() -> list[str]:
    return sorted(_PRESETS)


def get_preset(name: str) -> dict:
    """Deep copy of a named preset configuration."""
    if name not in _PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(list_presets())}")
    return copy.deepcopy(_PRESETS[name])
