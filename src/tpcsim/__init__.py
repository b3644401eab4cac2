"""Simulation and analysis toolkit for talkative power conversion.

A DC/DC buck converter doubles as a transmitter by modulating data onto its
switching signal; the information rides on the output-voltage ripple.  The
package provides the exact continuous-time output voltage for pulse-based
modulation, discrete-time iteration models with accuracy metrics, ripple
spectrum analysis, receiver-side equalization blocks, and rational
Laplace-domain solvers for circuit extensions (capacitor parasitics, general
impedance loads).
"""

from .accuracy import AccuracyReport, bias, default_settle_symbols, mse, reference_samples, sweep
from .analytic import (
    Waveform,
    convolve_end_to_end,
    data_component,
    output_voltage,
    pulse_shape_gtx,
    sample_output,
    transient_component,
    unit_step_component,
)
from .circuit import (
    CircuitParams,
    Dynamics,
    InitialConditions,
    cutoff_frequency,
    derive_dynamics,
    frequency_response,
    impulse_response,
    initial_inductor_current,
)
from .discrete import ConductionMode, DiscreteParams, SimState, Variant, derive_params, simulate, step
from .equalization import (
    ObservationModel,
    brute_force_detect,
    equalize_frequency_domain,
    observe,
    subtract_transient,
    zf_response,
)
from .laplace import GeneralLoad, ParasiticParams, build_general_load_model, build_parasitic_model
from .laplace import simulate_generalized
from .modal import PoleResidue, RationalLaplace, expand_strictly_proper, find_poles, transfer_at
from .modulation import (
    ModulationConfig,
    Scheme,
    SwitchingPattern,
    alternating_bits,
    encode,
    sample_switching,
)
from .spectrum import (
    SpectrumGrid,
    envelope_slope_db_per_decade,
    ripple_spectrum,
    spectrum_via_fft,
    v1_spectrum,
)

__version__ = "0.1.0"
