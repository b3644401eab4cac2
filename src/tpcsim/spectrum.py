"""Closed-form ripple spectrum and its FFT cross-check.

The analytic path evaluates the Fourier transform of the data-dependent output
component on an arbitrary positive-frequency grid.  The DC content delta*V1*H(0) is
a Dirac mass and cannot live on a numeric grid; it is carried alongside the
grid as the scalar ``dc_mass``.  The FFT path transforms a sampled waveform
with the continuous-transform convention X(f) = sum x[n] exp(-j2pi f t_n) * dt
so both paths are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import Waveform
from .circuit import CircuitParams, Dynamics
from .errors import ZeroFrequencyError
from .modal import _readonly, transfer_at
from .modulation import SwitchingPattern

_BLOCK = 128  # frequencies and symbols per block: each complex temporary <= 256 KB


@dataclass(frozen=True)
class SpectrumGrid:
    """Complex spectrum values (volt*s) on strictly positive frequencies.

    dc_mass records the Dirac mass at f = 0 that the grid values exclude: the
    ripple is defined relative to this DC level.
    """

    frequencies: np.ndarray
    values: np.ndarray
    dc_mass: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "frequencies", _readonly(self.frequencies))
        object.__setattr__(self, "values", _readonly(self.values, dtype=complex))
        f = self.frequencies
        if f.shape != self.values.shape or f.ndim != 1:
            raise ValueError("frequencies and values must be 1-d arrays of equal length")
        if f.size and not (np.all(f > 0.0) and np.all(np.diff(f) > 0.0)):
            raise ValueError("frequencies must be strictly positive and increasing")

    def magnitude_db(self, scale: float = 1.0) -> np.ndarray:
        """20*log10(|X|/scale), with -inf clamped for exact nulls."""
        mag = np.abs(self.values) / scale
        return 20.0 * np.log10(np.maximum(mag, 1e-300))


def v1_spectrum(pat: SwitchingPattern, V1: float, f):
    """Fourier transform of the right-sided switching voltage V1*s1(t).

    (V1/(j2pi f)) * sum_k (exp(-j2pi f t_s[k]) - exp(-j2pi f t_e[k])) * exp(-j2pi f kT).
    Raises ZeroFrequencyError for f = 0, where the transform carries the DC
    Dirac handled separately.

    The sum runs over blocks of _BLOCK frequencies and _BLOCK symbols.  With
    z = exp(-j2pi f T), symbol k0 + i of a block contributes z^k0 * z^i * c_k:
    z^i comes from one table per frequency block, z^k0 from one exponential
    per symbol block, and c_k from the phasors of the distinct edge times.
    """
    f_arr = np.asarray(f, dtype=float)
    if np.any(f_arr == 0.0):
        raise ZeroFrequencyError("f = 0 is carried by the DC mass, not the grid")
    w = 2.0 * np.pi * f_arr.ravel()
    total = np.zeros(w.shape, dtype=complex)
    edges = [np.unique(t, return_inverse=True) for t in (pat.t_start, pat.t_end)]
    lags = np.arange(min(pat.K, _BLOCK)) * pat.T
    for lo in range(0, w.size, _BLOCK):
        wb = w[lo : lo + _BLOCK]
        z_i = np.exp(-1j * np.multiply.outer(lags, wb))
        start, end = (_edge_phasors(u, inv, wb) for u, inv in edges)
        for k0 in range(0, pat.K, _BLOCK):
            k1 = min(k0 + _BLOCK, pat.K)
            terms = start(k0, k1)
            terms -= end(k0, k1)
            terms *= z_i[: k1 - k0]
            # a sum, not @, keeps this off BLAS (see equalization)
            total[lo : lo + _BLOCK] += np.exp(-1j * wb * (k0 * pat.T)) * terms.sum(axis=0)
    out = V1 / (2j * np.pi * f_arr) * total.reshape(f_arr.shape)
    if np.isscalar(f):
        return complex(out)
    return out


def _edge_phasors(u, inv, w):
    """(k0, k1) -> exp(-j*w*u[inv[k]]) for the symbols k0 <= k < k1, one row each.

    The phasors of the distinct edge times u are computed once when they fit
    a block; past that, each call exponentiates its own symbols' edge times.
    """
    if u.size <= _BLOCK:
        table = np.exp(-1j * np.multiply.outer(u, w))
        return lambda k0, k1: table[inv[k0:k1]]
    return lambda k0, k1: np.exp(-1j * np.multiply.outer(u[inv[k0:k1]], w))


def ripple_spectrum(
    p: CircuitParams,
    d: Dynamics,
    pat: SwitchingPattern,
    grid,
) -> SpectrumGrid:
    """Analytic spectrum of the output ripple on the given frequency grid.

    value(f) = V1(f)*H(j2pi f), with H the filter's model.  The subtracted DC
    level is reported as dc_mass = mean duty * V1 * H(0).
    """
    f = np.asarray(grid, dtype=float)
    values = v1_spectrum(pat, p.V1, f) * transfer_at(d.model, 2j * np.pi * f)
    dc_mass = pat.mean_duty() * p.V1 * float(d.model.num[0] / d.model.den[0])
    return SpectrumGrid(frequencies=f, values=values, dc_mass=dc_mass)


def spectrum_via_fft(w: Waveform, dc_remove: float = 0.0) -> SpectrumGrid:
    """DFT of (samples - dc_remove), scaled by dt, on the positive FFT bins.

    The phase is referenced to absolute time (the waveform's t0 enters as a
    linear phase) so results line up with the analytic transform.
    """
    if len(w) < 2:
        raise ValueError("need at least two samples")
    x = w.samples - dc_remove
    spec = np.fft.rfft(x) * w.dt
    freqs = np.fft.rfftfreq(len(x), w.dt)
    spec = spec * np.exp(-2j * np.pi * freqs * w.t0)
    return SpectrumGrid(frequencies=freqs[1:], values=spec[1:], dc_mass=dc_remove)


def envelope_slope_db_per_decade(
    frequencies: np.ndarray,
    magnitudes_db: np.ndarray,
    n_bins: int = 20,
) -> float:
    """Slope of the upper spectral envelope on a log-log axis.

    The envelope is taken through the local maxima: the frequency axis is cut
    into n_bins logarithmic bins, the peak magnitude of each bin is kept, and a
    least-squares line is fitted to (log10 f, peak dB).
    """
    f = np.asarray(frequencies, dtype=float)
    m = np.asarray(magnitudes_db, dtype=float)
    if f.size < n_bins:
        raise ValueError("need at least n_bins frequency samples")
    edges = np.logspace(np.log10(f[0]), np.log10(f[-1]), n_bins + 1)
    edges[-1] *= 1.0 + 1e-12
    peak_f, peak_m = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mask = (f >= lo) & (f < hi)
        if mask.any():
            i = np.argmax(m[mask])
            peak_f.append(f[mask][i])
            peak_m.append(m[mask][i])
    slope, _ = np.polyfit(np.log10(np.asarray(peak_f)), np.asarray(peak_m), 1)
    return float(slope)
