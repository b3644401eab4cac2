"""Binary data to per-symbol pulse timings, and ideal switching-signal sampling.

Every scheme places one pulse per symbol period T; `encode` holds each
scheme's rule for the pulse's duty cycle and center.  Pulse membership is
half-open, [t_start, t_end), so each sample belongs to exactly one signal
level even when it lands on an edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, DepthOutOfRangeError
from .modal import _readonly


class Scheme(Enum):
    VPWM = "vpwm"
    VPPM = "vppm"
    UNMODULATED = "unmodulated"


@dataclass(frozen=True)
class ModulationConfig:
    scheme: Scheme
    T: float
    delta: float
    depth: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.T) and self.T > 0):
            raise ConfigError("T", f"must be finite and > 0, got {self.T!r}")
        if not (0.0 < self.delta < 1.0):
            raise ConfigError("delta", f"must lie in (0, 1), got {self.delta!r}")
        if not (math.isfinite(self.depth) and self.depth >= 0):
            raise ConfigError("depth", f"must be finite and >= 0, got {self.depth!r}")


@dataclass(frozen=True)
class SwitchingPattern:
    """Per-symbol pulse start/end times, each relative to its own symbol period."""

    T: float
    t_start: np.ndarray
    t_end: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t_start", _readonly(self.t_start))
        object.__setattr__(self, "t_end", _readonly(self.t_end))
        if self.t_start.shape != self.t_end.shape or self.t_start.ndim != 1:
            raise ValueError("t_start and t_end must be 1-d arrays of equal length")
        if self.K and not (
            np.all(self.t_start >= 0.0)
            and np.all(self.t_start < self.t_end)
            and np.all(self.t_end <= self.T)
        ):
            raise ValueError("each symbol needs 0 <= t_start < t_end <= T")

    @property
    def K(self) -> int:
        return len(self.t_start)

    @property
    def t_center(self) -> np.ndarray:
        return _readonly((self.t_start + self.t_end) / 2.0)

    @property
    def widths(self) -> np.ndarray:
        return _readonly(self.t_end - self.t_start)

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Absolute edge times, non-decreasing, and their signs: +1 on, -1 off."""
        offsets = np.arange(self.K) * self.T
        times = np.empty((self.K, 2))
        times[:, 0] = offsets + self.t_start
        times[:, 1] = offsets + self.t_end
        signs = np.ones((self.K, 2))
        signs[:, 1] = -1.0
        # abutting pulses can invert by an ulp; the edges must stay ordered
        return np.maximum.accumulate(times.ravel()), signs.ravel()

    def mean_duty(self) -> float:
        """Average duty cycle of the pattern (delta for both schemes' balanced use)."""
        if self.K == 0:
            return 0.0
        return float(np.mean(self.widths)) / self.T


def _validated_bits(bits) -> np.ndarray:
    try:
        arr = np.asarray(bits, dtype=int)
    except OverflowError:  # an integer beyond the int64 range
        raise ValueError("bits must contain only 0 and 1") from None
    if arr.ndim != 1:
        raise ValueError("bits must be a 1-d sequence")
    values = np.asarray(bits, dtype=float)  # the int cast turns 0.5 into 0 and 1.7 into 1
    if arr.size and not np.all((values == 0) | (values == 1)):
        raise ValueError("bits must contain only 0 and 1")
    return arr


def alternating_bits(K: int) -> np.ndarray:
    """The [1, 0, 1, 0, ...] test sequence of length K."""
    if K < 0:
        raise ConfigError("K", f"must be >= 0, got {K!r}")
    return (1 - np.arange(K) % 2).astype(int)


def encode(bits, cfg: ModulationConfig) -> SwitchingPattern:
    """One pulse per symbol, of duty d_k centered at c_k, with s_k = 2*bits[k] - 1:

    * VPWM varies the width: d_k = delta + s_k*depth, c_k = T/2;
    * VPPM shifts the pulse: d_k = delta, c_k = T/2 + s_k*depth (depth in seconds);
    * UNMODULATED: d_k = delta, c_k = T/2 (the bits are checked, then ignored).

    The pulse spans c_k -/+ d_k*T/2.  Raises DepthOutOfRangeError when a duty
    leaves (0, 1) or a pulse leaves [0, T]: the pattern's range rule refuses
    every such pulse but one of duty 1, which encode refuses itself.
    """
    s = 2 * _validated_bits(bits) - 1
    half = 0.5 * cfg.T
    duty = cfg.delta + s * cfg.depth if cfg.scheme is Scheme.VPWM else np.full(s.size, cfg.delta)
    center = half + s * cfg.depth if cfg.scheme is Scheme.VPPM else np.full(s.size, half)
    try:
        pat = SwitchingPattern(T=cfg.T, t_start=center - duty * half, t_end=center + duty * half)
    except ValueError:
        pat = None
    if pat is None or (s.size and duty.max() >= 1.0):
        raise DepthOutOfRangeError(
            f"{cfg.scheme.value} depth {cfg.depth:.6g} at delta {cfg.delta:.6g} puts a duty "
            f"outside (0, 1) or a pulse outside the symbol period [0, {cfg.T:.6g}] s"
        )
    return pat


def sample_switching(pat: SwitchingPattern, dt: float, N: int) -> np.ndarray:
    """Point samples s1[n] = s1(n*dt) of the ideal two-level switching signal.

    A sample is 1 exactly when its time falls inside [k*T + t_start[k],
    k*T + t_end[k]) for the symbol k containing it, and 0 outside all pulses
    or beyond the last symbol.  Edges need not align with the grid; one within
    1e-9 samples (+1e-12 relative) of a grid point starts there, so float
    rounding of k*T + t_start[k] cannot make identical symbols' windows differ.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt!r}")
    x = pat.edges()[0] / dt
    first = np.ceil(x - (1e-9 + 1e-12 * x))
    inside = np.searchsorted(first, np.arange(N, dtype=float), side="right") & 1
    return inside.astype(float)
