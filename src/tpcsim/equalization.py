"""Receiver building blocks: observation, transient subtraction, equalization,
and brute-force sequence detection on the discrete-model state space.

The observed signal is r[n] = c*v2[n] + noise.  Before any equalization the
initial-condition transient can be reconstructed from (estimated) initial
values and subtracted; estimation errors leave a residual transient that is
linear in those errors.  Zero-forcing equalization inverts the filter response
1/H(f), optionally regularized.  Sequence detection compares the observation
against the trajectories of all candidate bit sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from .analytic import Waveform, transient_component
from .circuit import (
    CircuitParams,
    Dynamics,
    InitialConditions,
    frequency_response,
    initial_inductor_current,
)
from .discrete import Variant, _check_oversampling, _iterate, derive_params
from .errors import ConfigError, GridMismatchError, TooManyBitsError
from .modulation import ModulationConfig, encode, sample_switching


@dataclass(frozen=True)
class ObservationModel:
    """Scale factor, additive white Gaussian noise level, and RNG seed."""

    c: float = 1.0
    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c != 0):
            raise ConfigError("c", f"must be finite and != 0, got {self.c!r}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ConfigError("sigma", f"must be finite and >= 0, got {self.sigma!r}")
        if self.seed < 0:
            raise ConfigError("seed", f"must be >= 0, got {self.seed!r}")


# the former name of the estimates type, still imported by the long_stream benchmark
EstimatedIC = InitialConditions


def observe(w: Waveform, om: ObservationModel) -> Waveform:
    """r[n] = c*w[n] + N(0, sigma^2), drawn deterministically from the seed."""
    rng = np.random.default_rng(om.seed)
    noise = rng.normal(0.0, om.sigma, len(w))
    return Waveform(dt=w.dt, t0=w.t0, samples=om.c * w.samples + noise)


def subtract_transient(
    r: Waveform, d: Dynamics, ic: InitialConditions | Mapping[str, float]
) -> Waveform:
    """Remove d's transient from an observation that starts at t = 0; ic is
    InitialConditions or a mapping of d's initial-condition symbols."""
    if r.t0 != 0.0:
        raise ValueError(f"observation must start at t = 0, got t0 = {r.t0!r}")
    return Waveform(dt=r.dt, t0=r.t0, samples=r.samples - transient_component(d, ic, r.times()))


def zf_response(p: CircuitParams, f, eps: float = 0.0):
    """Zero-forcing equalizer F(f) = 1/H(f); eps > 0 switches to the
    regularized form conj(H)/(|H|^2 + eps) to bound the high-frequency gain."""
    h = frequency_response(p, f)
    if eps == 0.0:
        return 1.0 / h
    return np.conj(h) / (np.abs(h) ** 2 + eps)


def equalize_frequency_domain(r: Waveform, p: CircuitParams, eps: float = 0.0) -> Waveform:
    """Apply F(f) per FFT bin; the mean is set aside and restored so the DC
    operating point survives equalization.  Lengths that are not a power of
    two are edge-padded for the transform and trimmed afterwards."""
    n = len(r)
    if n < 2:
        raise ValueError("need at least two samples")
    n_fft = 1 << (n - 1).bit_length()
    mean = float(np.mean(r.samples))
    x = np.pad(r.samples - mean, (0, n_fft - n), mode="edge")
    freqs = np.fft.fftfreq(n_fft, r.dt)
    gains = zf_response(p, freqs, eps)
    y = np.fft.ifft(np.fft.fft(x) * gains).real[:n] + mean
    return Waveform(dt=r.dt, t0=r.t0, samples=y)


MAX_DETECT_BITS = 12  # the most symbols brute_force_detect takes: 2^12 candidates
# frame models kept, one per receiver configuration in use; a detection
# sweep over K = 8..12 needs five
_FRAME_MODELS = 16


@lru_cache(maxsize=_FRAME_MODELS)
def _frame_model(
    p: CircuitParams,
    cfg: ModulationConfig,
    ic: InitialConditions,
    J: int,
    K: int,
    variant: Variant,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(z, Y, B, q): the frame-independent part of the candidate distances.

    z is the all-zero-bits trajectory from the initial conditions, row k of Y
    the zero-state response to symbol k's one-minus-zero switching difference,
    row i of B the bits b_i that spell i in binary, first bit most significant,
    and q_i = b_i^T G b_i with G = Y Y^T.  Each row of Y is one zero-state
    kernel run over the whole frame, driven by symbol k's difference block
    alone.  Memoized per configuration; every array is read-only.
    """
    dp = derive_params(p, J, cfg.T, variant)
    N = K * J
    s1_zero = sample_switching(encode(np.zeros(K, dtype=int), cfg), dp.dt, N)
    s1_one = sample_switching(encode(np.ones(K, dtype=int), cfg), dp.dt, N)
    _, z = _iterate(dp, p.V1, False, initial_inductor_current(p, ic), ic.v2_0, memoryview(s1_zero))
    diff = s1_one - s1_zero
    Y = np.zeros((K, N))
    for k in range(K):
        s1_k = np.zeros(N)
        s1_k[k * J : (k + 1) * J] = diff[k * J : (k + 1) * J]
        Y[k] = _iterate(dp, p.V1, False, 0.0, 0.0, memoryview(s1_k))[1]
    B = ((np.arange(1 << K)[:, None] >> np.arange(K - 1, -1, -1)) & 1).astype(float)
    # einsum rather than @ keeps detection off BLAS, whose first call maps
    # about 0.5 MB of work buffers into the process
    G = np.einsum("jn,kn->jk", Y, Y)
    q = np.einsum("ij,jk,ik->i", B, G, B)
    z = np.frombuffer(z)
    for a in (z, Y, B, q):
        a.flags.writeable = False
    return z, Y, B, q


def _candidate_distances(
    r: Waveform,
    p: CircuitParams,
    cfg: ModulationConfig,
    ic: InitialConditions,
    J: int,
    K: int,
    variant: Variant,
) -> np.ndarray:
    """Squared distances ||z + B_i Y - r||^2 of all 2^K candidates from r[:K*J]:
    e.e + q + B (2h), with e = z - r and h = Y e (see _frame_model)."""
    z, Y, B, q = _frame_model(p, cfg, ic, int(J), int(K), variant)
    e = z - r.samples[: K * J]
    h = np.einsum("kn,n->k", Y, e)
    return np.einsum("n,n->", e, e) + q + np.einsum("ik,k->i", B, 2.0 * h)


def brute_force_detect(
    r: Waveform,
    p: CircuitParams,
    cfg: ModulationConfig,
    ic: InitialConditions,
    J: int,
    K: int,
    variant: Variant = Variant.EXACT,
) -> np.ndarray:
    """Exhaustive minimum-distance sequence detection over all 2^K candidates.

    The observation is compared (in v2 units, i.e. assuming unit scale) against
    the discrete-model trajectory of every bit sequence; ties resolve to the
    lexicographically smallest sequence.  The observation must start at t = 0
    on the model's grid dt = T/J.  Limited to K <= MAX_DETECT_BITS.  The frame
    model (the all-zero trajectory and one zero-state response per symbol) is
    built once per (p, cfg, ic, J, K, variant) and memoized read-only, so
    further frames on one configuration cost only the scoring.
    """
    if K > MAX_DETECT_BITS:
        raise TooManyBitsError(f"search over 2^{K} sequences refused (K <= {MAX_DETECT_BITS})")
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K!r}")
    _check_oversampling(J)
    N = K * J
    if len(r) < N:
        raise ValueError(f"observation has {len(r)} samples, need {N}")
    if r.t0 != 0.0 or abs(r.dt - cfg.T / J) > 1e-12 * (cfg.T / J):
        raise GridMismatchError(
            f"observation grid (t0 = {r.t0!r}, dt = {r.dt!r}) is not the "
            f"detection grid (t0 = 0, dt = T/J = {cfg.T / J!r})"
        )
    i = np.argmin(_candidate_distances(r, p, cfg, ic, J, K, variant))
    # candidate i spells its bits in binary, first bit most significant
    return (i >> np.arange(K - 1, -1, -1)) & 1
