"""Every public constructor and function refuses a malformed argument.

One row per argument check that no scenario test reaches: the call, the
exception it must raise and a fragment of the message, which pins the row to
its own check rather than to another one the same call could trip.
"""

import numpy as np
import pytest

from tpcsim.analytic import Waveform, pulse_shape_gtx
from tpcsim.circuit import CircuitParams, InitialConditions, derive_dynamics
from tpcsim.discrete import Variant, derive_params
from tpcsim.equalization import brute_force_detect, equalize_frequency_domain, subtract_transient
from tpcsim.laplace import simulate_generalized
from tpcsim.modal import PoleResidue, RationalLaplace
from tpcsim.modulation import ModulationConfig, Scheme, SwitchingPattern, encode, sample_switching
from tpcsim.spectrum import SpectrumGrid, envelope_slope_db_per_decade, spectrum_via_fft

P = CircuitParams(L=100e-6, C=0.1e-6, R_L=20.0)
CFG = ModulationConfig(Scheme.VPWM, T=1e-6, delta=0.75, depth=0.025)
IC = InitialConditions(v2_0=0.75)
J = 8


def _one_sample(dt=1e-7, t0=0.0):
    return Waveform(dt=dt, t0=t0, samples=np.zeros(1))


# (id, call, exception, message fragment)
CHECKS = [
    ("Waveform:dt", lambda: Waveform(dt=0.0, t0=0.0, samples=np.zeros(2)), ValueError, "dt must"),
    ("Waveform:1-d", lambda: Waveform(dt=1.0, t0=0.0, samples=np.zeros((2, 2))), ValueError, "1-d"),
    (
        "Waveform:finite",
        lambda: Waveform(dt=1.0, t0=0.0, samples=np.array([0.0, np.nan])),
        ValueError,
        "finite",
    ),
    ("pulse_shape_gtx:Tp", lambda: pulse_shape_gtx(derive_dynamics(P), 0.0, 0.0), ValueError, "Tp"),
    ("InitialConditions:finite", lambda: InitialConditions(v2_0=np.inf), ValueError, "v2_0"),
    ("derive_params:T", lambda: derive_params(P, J, 0.0, Variant.EXACT), ValueError, "T must"),
    (
        "subtract_transient:t0",
        lambda: subtract_transient(_one_sample(t0=1e-6), derive_dynamics(P), IC),
        ValueError,
        "t = 0",
    ),
    (
        "equalize_frequency_domain:samples",
        lambda: equalize_frequency_domain(_one_sample(), P),
        ValueError,
        "two samples",
    ),
    (
        "brute_force_detect:K",
        lambda: brute_force_detect(_one_sample(CFG.T / J), P, CFG, IC, J, 0),
        ValueError,
        "K must",
    ),
    (
        "brute_force_detect:observation",
        lambda: brute_force_detect(_one_sample(CFG.T / J), P, CFG, IC, J, 2),
        ValueError,
        "need 16",
    ),
    (
        "simulate_generalized:model",
        lambda: simulate_generalized(P, object(), encode([1, 0], CFG), {}, J),
        TypeError,
        "ParasiticParams or GeneralLoad",
    ),
    (
        "RationalLaplace:degree",
        lambda: RationalLaplace(num=[1.0], den=[1.0, 1.0]),
        ValueError,
        "degree",
    ),
    (
        "RationalLaplace:leading",
        lambda: RationalLaplace(num=[1.0], den=[1.0, 1.0, 0.0]),
        ValueError,
        "leading",
    ),
    (
        "RationalLaplace:numerator",
        lambda: RationalLaplace(num=[1.0, 1.0, 1.0, 1.0], den=[1.0, 1.0, 1.0]),
        ValueError,
        "numerator degree",
    ),
    (
        "PoleResidue:shape",
        lambda: PoleResidue(poles=np.array([-1.0, -2.0]), residues=np.array([1.0])),
        ValueError,
        "matching shapes",
    ),
    (
        "SwitchingPattern:shape",
        lambda: SwitchingPattern(T=1.0, t_start=np.array([0.1, 0.2]), t_end=np.array([0.5])),
        ValueError,
        "equal length",
    ),
    ("encode:1-d", lambda: encode([[1, 0]], CFG), ValueError, "1-d"),
    (
        "sample_switching:dt",
        lambda: sample_switching(encode([1], CFG), 0.0, 4),
        ValueError,
        "dt must",
    ),
    (
        "SpectrumGrid:shape",
        lambda: SpectrumGrid(frequencies=np.array([1.0, 2.0]), values=np.array([1.0])),
        ValueError,
        "equal length",
    ),
    (
        "spectrum_via_fft:samples",
        lambda: spectrum_via_fft(_one_sample()),
        ValueError,
        "two samples",
    ),
    (
        "envelope_slope_db_per_decade:n_bins",
        lambda: envelope_slope_db_per_decade(np.arange(1.0, 6.0), np.zeros(5), n_bins=20),
        ValueError,
        "n_bins",
    ),
    # a pole at s = 0, which dc_gain and the step expansion divide by
    (
        "RationalLaplace:pole_at_zero",
        lambda: RationalLaplace(num=[1.0], den=[0.0, 0.0, 1.0]),
        ValueError,
        "den\\[0\\]",
    ),
]


@pytest.mark.parametrize("call, exc, match", [c[1:] for c in CHECKS], ids=[c[0] for c in CHECKS])
def test_bad_argument_is_refused(call, exc, match):
    with pytest.raises(exc, match=match):
        call()
