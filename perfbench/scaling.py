"""Scaling probe: per-layer cost per sample at K = 64, 1e3, 1e4 and 1e5 symbols.

    python3 perfbench/scaling.py [--out DIR]

A report, not a gate.  Each cell times one layer call on a random-bit VPWM
stream of K symbols sampled J = 2 times per symbol (the long_stream shape).
Before a cell runs, its cost is extrapolated quadratically from the layer's
previous cell; when that estimate exceeds CAP_S seconds the cell is recorded
as skipped with the estimate and not run, and neither are larger K.  This is
where the O(N*K) paths show: the closed form past a*K*T = 600 and the
Laplace solver's per-edge loop.  Writes scaling.json next to the run results.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

import run  # pins BLAS/OpenMP threads before numpy loads

SIZES = (64, 1_000, 10_000, 100_000)
J = 2
MIN_TIMED = 0.2  # repeat cheap cells until this many seconds have been timed
CAP_S = 20.0  # skip cells estimated to take longer than this
SEED = 0  # of the random bit patterns


def layer_cases():
    """(layer, metric, units of work per call, call) for a pattern of K symbols."""
    import numpy as np

    from tpcsim import analytic, circuit, discrete, equalization, laplace, modulation, spectrum
    from tpcsim.discrete import ConductionMode, Variant
    from tpcsim.laplace import ParasiticParams
    from workloads import SLOW, SLOW_MOD, LongStream

    p, mod = SLOW, SLOW_MOD
    ic = circuit.InitialConditions(v2_0=mod.delta * p.V1)
    d = circuit.derive_dynamics(p)
    dt = mod.T / J
    grid = LongStream.GRID

    def signal(K):
        return analytic.Waveform(dt=dt, t0=0.0, samples=np.full(K * J, 0.75))

    return [
        ("modulation", "ns_per_sample", lambda K: K * J,
         lambda bits: modulation.sample_switching(modulation.encode(bits, mod), dt, len(bits) * J)),
        ("analytic", "ns_per_sample", lambda K: K * J,
         lambda bits: analytic.sample_output(d, ic, modulation.encode(bits, mod), p.V1, dt, len(bits) * J)),
        ("discrete", "ccm_ns_per_step", lambda K: K * J,
         lambda bits: discrete.simulate(p, modulation.encode(bits, mod), ic, J, Variant.EXACT)),
        ("discrete", "dcm_ns_per_step", lambda K: K * J,
         lambda bits: discrete.simulate(p, modulation.encode(bits, mod), ic, J, Variant.EXACT, ConductionMode.DCM)),
        ("spectrum", "ns_per_freq_symbol", lambda K: K * len(grid),
         lambda bits: spectrum.ripple_spectrum(p, d, modulation.encode(bits, mod), grid)),
        ("equalization", "ns_per_sample", lambda K: K * J,
         lambda bits: equalization.equalize_frequency_domain(signal(len(bits)), p, eps=1e-3)),
        ("laplace", "ns_per_sample", lambda K: K * J,
         lambda bits: laplace.simulate_generalized(p, ParasiticParams(esr_C=0.1, esl_C=10e-9), modulation.encode(bits, mod),
                                                  {"v2_0": 0.0}, J)),
    ]


def time_call(fn, arg) -> float:
    """Median seconds per call, repeating until MIN_TIMED seconds are timed."""
    times = []
    while not times or (sum(times) < MIN_TIMED and len(times) < 50):
        t0 = perf_counter()
        fn(arg)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def probe() -> list[dict]:
    import numpy as np

    rng = np.random.default_rng(SEED)
    patterns = {K: rng.integers(0, 2, K) for K in SIZES}
    cells = []
    for layer, metric, units, call in layer_cases():
        prev = None
        for K in SIZES:
            cell = {"layer": layer, "metric": metric, "K": K, "units": units(K)}
            estimate = prev[1] * (K / prev[0]) ** 2 if prev else None
            if estimate is not None and (estimate > CAP_S or prev[2] == "skipped"):
                cell.update(status="skipped", estimate_s=estimate)
                prev = (K, estimate, "skipped")
            else:
                seconds = time_call(call, patterns[K])
                cell.update(status="measured", seconds=seconds, value=1e9 * seconds / units(K))
                prev = (K, seconds, "measured")
            cells.append(cell)
            shown = f"{cell['value']:12.1f}" if "value" in cell else f"{'skipped':>12s}"
            cost = cell.get("seconds", cell.get("estimate_s"))
            print(f"{layer:13s} {metric:19s} K={K:<7d} {shown} "
                  f"({'took' if 'seconds' in cell else 'estimated'} {cost:.3g} s)", flush=True)
    return cells


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, default=run.HERE / "out")
    args = ap.parse_args(argv)
    if not (run.SRC / "tpcsim" / "__init__.py").is_file():
        print(f"no tpcsim sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    cells = probe()
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "scaling.json"
    path.write_text(json.dumps({"env": run.env_stamp(SEED), "J": J, "cap_s": CAP_S, "cells": cells}, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
