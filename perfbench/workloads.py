"""The four benchmark workloads: seeded inputs, the timed op, the output check.

All are closed loops with one client.  Inputs come in blocks of ops whose
sizes are stratified, so every whole block carries the same mix of small and
large ops and runs of different seeds measure the same thing.  tpcsim is
reached only through its public functions, looked up on the modules at call
time so that the traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tpcsim import analytic, circuit, cli, discrete, equalization, laplace, modulation, presets, spectrum
from tpcsim.circuit import CircuitParams, InitialConditions
from tpcsim.discrete import ConductionMode, Variant
from tpcsim.equalization import EstimatedIC, ObservationModel
from tpcsim.laplace import GeneralLoad, ParasiticParams
from tpcsim.modulation import ModulationConfig, Scheme

import refs

HERE = Path(__file__).resolve().parent
PRESET_REFERENCE = HERE / "preset_reference.json"

# fig4 circuit: a = 2.5e5 1/s, so with T = 1 us the closed form switches to
# its O(N*K) path once K exceeds 2400 symbols (a*K*T = 600).
SLOW = CircuitParams(L=100e-6, C=0.1e-6, R_L=20.0)
SLOW_MOD = ModulationConfig(Scheme.VPWM, T=1e-6, delta=0.75, depth=0.025)
# equalize_k8 circuit and modulation
FAST = CircuitParams(L=10e-6, C=1e-6, R_L=10.0)
FAST_MOD = ModulationConfig(Scheme.VPWM, T=1e-6, delta=0.75, depth=0.2)


def _steady(mod: ModulationConfig, p: CircuitParams) -> InitialConditions:
    return InitialConditions(v2_0=mod.delta * p.V1, dv2_0=0.0)


def _rng(seed: int, block: int) -> np.random.Generator:
    """Generator of one block's inputs; block -1 is the warm-up op."""
    return np.random.default_rng([seed, block + 1])


def _stratified(rng, lo: int, hi: int, n: int) -> np.ndarray:
    """n integers in [lo, hi), one drawn uniformly from each of n equal strata."""
    u = (np.arange(n) + rng.random(n)) / n
    return (lo + u * (hi - lo)).astype(int)


def _close(got, want, tol, what: str) -> list[str]:
    err = np.abs(np.asarray(got) - np.asarray(want))
    worst = float(np.max(err / tol)) if err.size else 0.0
    if not worst <= 1.0:
        return [f"{what}: error {worst:.3g}x the tolerance"]
    return []


@dataclass
class Tally:
    """Frames the checks found detected without error."""

    frames_correct: int = 0


# ---------------------------------------------------------------------------
# preset_suite


class PresetSuite:
    """Every shipped preset through the `tpc` entry point, one per op."""

    name = "preset_suite"
    # With 14 cycles the tail (11th-largest latency) is the 4th-fastest of
    # 14 fig6_bias ops, about twice as slow as any other preset.  With 7 it
    # would be the median of 7 fig7_mse ops, which spreads twice as far from
    # run to run.
    min_blocks = 14

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.reference = json.loads(PRESET_REFERENCE.read_text())
        self.names = presets.list_presets()
        self.tally = Tally()
        self._n = 0

    def block(self, i: int) -> list:
        return [str(n) for n in _rng(self.seed, i).permutation(self.names)]

    def warmup(self):
        return "fig4_ltspice_check"

    def run(self, name):
        self._n += 1
        out = self.work_dir / f"op{self._n}"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["preset", name, "--out", str(out)])
        return rc, out

    def check(self, name, result) -> list[str]:
        rc, out = result
        try:
            return check_preset_output(name, rc, out, self.reference[name], self.tally)
        finally:
            shutil.rmtree(out, ignore_errors=True)


def csv_digest(path: Path, n_points: int = 17) -> dict:
    """Header, row count and, per column, sampled rows plus sum and scale."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    idx = sorted(set(np.linspace(0, len(rows) - 1, n_points).astype(int).tolist())) if rows else []
    cols = {}
    for j, name in enumerate(header):
        raw = [r[j] for r in rows]
        try:
            vals = np.array(raw, dtype=float)
        except ValueError:
            cols[name] = {"kind": "text", "at": [raw[i] for i in idx]}
            continue
        if name.endswith("_db"):
            vals = 10.0 ** (vals / 20.0)
        cols[name] = {
            "kind": "db" if name.endswith("_db") else "number",
            "at": [float(vals[i]) for i in idx],
            "sum": float(vals.sum()),
            "abs_sum": float(np.abs(vals).sum()),
            "abs_max": float(np.abs(vals).max()) if vals.size else 0.0,
        }
    return {"header": header, "rows": len(rows), "index": idx, "columns": cols}


# Values may move by rounding (a refactor that reorders sums) but not more.
CSV_RTOL = 1e-9


def compare_digest(got: dict, want: dict, what: str) -> list[str]:
    if got["header"] != want["header"] or got["rows"] != want["rows"]:
        return [f"{what}: header/rows {got['header']}/{got['rows']} != {want['header']}/{want['rows']}"]
    errors = []
    for name, w in want["columns"].items():
        g = got["columns"][name]
        if w["kind"] == "text":
            if g["at"] != w["at"]:
                errors.append(f"{what}.{name}: text values differ")
            continue
        tol = CSV_RTOL * max(w["abs_max"], 1e-300)
        errors += _close(g["at"], w["at"], tol, f"{what}.{name} sampled rows")
        errors += _close(g["sum"], w["sum"], CSV_RTOL * max(w["abs_sum"], 1e-300), f"{what}.{name} sum")
    return errors


def check_preset_output(name: str, rc: int, out: Path, want: dict, tally: Tally) -> list[str]:
    if rc != 0:
        return [f"{name}: exit code {rc}"]
    files = sorted(p.name for p in out.iterdir()) if out.is_dir() else []
    if files != want["files"]:
        return [f"{name}: files {files} != {want['files']}"]
    errors = []
    for fname, digest in want["csv"].items():
        errors += compare_digest(csv_digest(out / fname), digest, f"{name}/{fname}")
    for fname in files:
        if fname.endswith(".meta.json"):
            meta = json.loads((out / fname).read_text())
            if meta.get("name") != name or meta["run"]["type"] != want["run_type"]:
                errors.append(f"{name}/{fname}: sidecar does not describe the preset")
    if "detection.json" in files:
        det = json.loads((out / "detection.json").read_text())
        if det["bit_errors"] == 0 and det["bits_detected"] == det["bits_true"]:
            tally.frames_correct += 1
        else:
            errors.append(f"{name}: {det['bit_errors']} bit errors")
    if "model.json" in files:
        model = json.loads((out / "model.json").read_text())
        got = np.array(model["poles"], dtype=float)
        ref = np.array(want["poles"], dtype=float)
        if got.shape != ref.shape:
            errors.append(f"{name}: {len(got)} poles, expected {len(ref)}")
        else:
            errors += _close(got, ref, CSV_RTOL * np.abs(ref).max(), f"{name} poles")
    return errors


def make_preset_reference(work_dir: Path) -> dict:
    """Digest of every preset's outputs at the current commit."""
    ref = {}
    for name in presets.list_presets():
        out = work_dir / name
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["preset", name, "--out", str(out)])
        if rc != 0:
            raise RuntimeError(f"preset {name} exited with {rc}")
        files = sorted(p.name for p in out.iterdir())
        entry = {
            "files": files,
            "run_type": presets.get_preset(name)["run"]["type"],
            "csv": {f: csv_digest(out / f) for f in files if f.endswith(".csv")},
        }
        if "model.json" in files:
            entry["poles"] = json.loads((out / "model.json").read_text())["poles"]
        ref[name] = entry
        shutil.rmtree(out)
    return ref


# ---------------------------------------------------------------------------
# long_stream


@dataclass
class StreamOp:
    bits: np.ndarray
    J: int
    noise_seed: int
    sample_idx: np.ndarray
    freq_idx: np.ndarray


class LongStream:
    """Transmitter plus receiver front end on random-bit VPWM streams."""

    name = "long_stream"
    min_blocks = 6  # 2 ops above the closed-form switch per block: >= 12 tail samples
    J = 2
    GRID = np.logspace(3.0, np.log10(2e7), 128)
    SIGMA = 1e-3
    EPS = 1e-3
    # 8 of 10 streams below the switch at K = 2400, 2 above it
    SHORT = (256, 2300, 8)
    LONG = (2450, 2650, 2)

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.ic = _steady(SLOW_MOD, SLOW)
        self.tally = Tally()

    def _op(self, rng, K: int) -> StreamOp:
        N = K * self.J
        return StreamOp(
            bits=rng.integers(0, 2, K),
            J=self.J,
            noise_seed=int(rng.integers(2**31)),
            sample_idx=np.sort(rng.choice(N, 8, replace=False)),
            freq_idx=np.sort(rng.choice(len(self.GRID), 4, replace=False)),
        )

    def block(self, i: int) -> list:
        rng = _rng(self.seed, i)
        sizes = np.concatenate([_stratified(rng, *self.SHORT), _stratified(rng, *self.LONG)])
        return [self._op(rng, int(K)) for K in rng.permutation(sizes)]

    def warmup(self):
        return self._op(_rng(self.seed, -1), 512)

    def run(self, op: StreamOp):
        p, ic = SLOW, self.ic
        pat = modulation.encode(op.bits, SLOW_MOD)
        dt = SLOW_MOD.T / op.J
        N = pat.K * op.J
        s1 = modulation.sample_switching(pat, dt, N)
        d = circuit.derive_dynamics(p)
        w = analytic.sample_output(d, ic, pat, p.V1, dt, N)
        ccm = discrete.simulate(p, pat, ic, op.J, Variant.EXACT)
        dcm = discrete.simulate(p, pat, ic, op.J, Variant.EXACT, ConductionMode.DCM)
        sg = spectrum.ripple_spectrum(p, d, pat, self.GRID)
        r = equalization.observe(w, ObservationModel(c=1.0, sigma=self.SIGMA, seed=op.noise_seed))
        cleaned = equalization.subtract_transient(r, d, EstimatedIC(ic.v2_0, ic.dv2_0))
        eq = equalization.equalize_frequency_domain(cleaned, p, eps=self.EPS)
        return {"s1": s1, "w": w, "ccm": ccm, "dcm": dcm, "sg": sg, "r": r, "cleaned": cleaned, "eq": eq}

    def check(self, op: StreamOp, out) -> list[str]:
        p, ic, T = SLOW, self.ic, SLOW_MOD.T
        N = len(op.bits) * op.J
        dt = T / op.J
        t = np.arange(N) * dt
        starts, ends = refs.vpwm_edges(op.bits, T, SLOW_MOD.delta, SLOW_MOD.depth)
        errors = []
        s1_ref = refs.switching_levels(starts, ends, t)
        if len(out["s1"]) != N or np.any(out["s1"] != s1_ref):
            errors.append("sample_switching differs from the edge test")
        w = out["w"].samples
        if len(w) != N:
            return errors + [f"closed form has {len(w)} samples, expected {N}"]
        t_chk = op.sample_idx * dt
        v_ref = refs.closed_form_points(p.L, p.C, p.R_L, p.V1, ic.v2_0, ic.dv2_0, starts, ends, t_chk)
        errors += _close(w[op.sample_idx], v_ref, 1e-9 * p.V1, "closed form vs per-edge sum")
        n_pre = min(N, 256)
        for mode, (v2, iL) in (("ccm", out["ccm"]), ("dcm", out["dcm"])):
            v_pre, i_pre = refs.exact_iteration(
                p.L, p.C, p.R_L, p.V1, dt, s1_ref, ic.v2_0, ic.dv2_0, n_pre, dcm=mode == "dcm"
            )
            if len(v2) != N:
                errors.append(f"{mode}: {len(v2)} samples, expected {N}")
                continue
            errors += _close(v2.samples[:n_pre], v_pre, 1e-10 * p.V1, f"{mode} v2 vs scalar loop")
            errors += _close(iL.samples[:n_pre], i_pre, 1e-10 * p.V1 / p.R_L, f"{mode} iL vs scalar loop")
        if np.any(out["dcm"][1].samples < 0.0):
            errors.append("dcm inductor current went negative")
        f_chk = self.GRID[op.freq_idx]
        x_ref, scale = refs.spectrum_points(p.L, p.C, p.R_L, p.V1, starts, ends, f_chk)
        errors += _close(out["sg"].values[op.freq_idx], x_ref, 1e-8 * scale, "spectrum vs direct sum")
        noise = out["r"].samples - w
        if abs(np.std(noise) / self.SIGMA - 1.0) > 0.25 or abs(np.mean(noise)) > 6 * self.SIGMA / np.sqrt(N):
            errors.append("observation noise does not match sigma")
        tr = refs.transient_points(p.L, p.C, p.R_L, ic.v2_0, ic.dv2_0, t_chk)
        errors += _close(
            out["cleaned"].samples[op.sample_idx], out["r"].samples[op.sample_idx] - tr, 1e-12, "subtract_transient"
        )
        eq = out["eq"].samples
        if len(eq) != N or not np.all(np.isfinite(eq)):
            errors.append("equalizer output has the wrong length or is not finite")
        return errors


# ---------------------------------------------------------------------------
# generalized


@dataclass
class GeneralizedOp:
    bits: np.ndarray
    topology: str
    sample_idx: np.ndarray


class Generalized:
    """Laplace-domain solver on the cubic and quartic circuit extensions."""

    name = "generalized"
    min_blocks = 2
    J = 8
    SIZES = (200, 320, 5)  # per topology and block
    PARASITIC = ParasiticParams(esr_C=0.1, esl_C=10e-9)
    LOAD = GeneralLoad(R_L=20.0, L_L=10e-6, C_L=10e-6)
    IC = {"v2_0": 0.0}

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.tally = Tally()
        p = SLOW
        self.ref = {
            "parasitic": refs.EdgeStepReference(
                *refs.parasitic_transfer(p.L, p.C, p.R_L, self.PARASITIC.esr_C, self.PARASITIC.esl_C), SLOW_MOD.T
            ),
            "load": refs.EdgeStepReference(
                *refs.series_load_transfer(p.L, p.C, self.LOAD.R_L, self.LOAD.L_L, self.LOAD.C_L), SLOW_MOD.T
            ),
        }

    def _op(self, rng, K: int, topology: str) -> GeneralizedOp:
        idx = np.sort(rng.choice(K * self.J, 6, replace=False))
        return GeneralizedOp(bits=rng.integers(0, 2, K), topology=topology, sample_idx=idx)

    def block(self, i: int) -> list:
        rng = _rng(self.seed, i)
        cubic = rng.permutation(_stratified(rng, *self.SIZES))
        quartic = rng.permutation(_stratified(rng, *self.SIZES))
        ops = []
        for kc, kq in zip(cubic, quartic):
            ops.append(self._op(rng, int(kc), "parasitic"))
            ops.append(self._op(rng, int(kq), "load"))
        return ops

    def warmup(self):
        return self._op(_rng(self.seed, -1), 64, "parasitic")

    def run(self, op: GeneralizedOp):
        pat = modulation.encode(op.bits, SLOW_MOD)
        obj = self.PARASITIC if op.topology == "parasitic" else self.LOAD
        return laplace.simulate_generalized(SLOW, obj, pat, self.IC, self.J)

    def check(self, op: GeneralizedOp, w) -> list[str]:
        T = SLOW_MOD.T
        N = len(op.bits) * self.J
        if len(w) != N:
            return [f"{len(w)} samples, expected {N}"]
        starts, ends = refs.vpwm_edges(op.bits, T, SLOW_MOD.delta, SLOW_MOD.depth)
        edges = np.empty(2 * len(starts))
        edges[0::2] = starts
        edges[1::2] = ends
        levels = np.tile([SLOW.V1, 0.0], len(starts))
        t = op.sample_idx * (T / self.J)
        ref = self.ref[op.topology].outputs(edges, levels, t)
        return _close(w.samples[op.sample_idx], ref, 1e-8 * SLOW.V1, f"{op.topology} vs state-space reference")


# ---------------------------------------------------------------------------
# detect_frames


@dataclass
class FrameOp:
    bits: np.ndarray
    noise_seed: int


class DetectFrames:
    """Short noisy frames through brute-force sequence detection."""

    name = "detect_frames"
    min_blocks = 3
    J = 32
    # The closest pair of candidate trajectories at J = 32 is 0.060 apart,
    # so a decision error needs a 15-sigma noise projection.
    SIGMA = 0.002
    SIZES = (8, 9, 10, 11, 12)

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.ic = _steady(FAST_MOD, FAST)
        self.tally = Tally()

    def block(self, i: int) -> list:
        rng = _rng(self.seed, i)
        return [FrameOp(rng.integers(0, 2, int(K)), int(rng.integers(2**31))) for K in rng.permutation(self.SIZES)]

    def warmup(self):
        rng = _rng(self.seed, -1)
        return FrameOp(rng.integers(0, 2, 8), int(rng.integers(2**31)))

    def run(self, op: FrameOp):
        pat = modulation.encode(op.bits, FAST_MOD)
        v2, _ = discrete.simulate(FAST, pat, self.ic, self.J, Variant.EXACT)
        r = equalization.observe(v2, ObservationModel(c=1.0, sigma=self.SIGMA, seed=op.noise_seed))
        return equalization.brute_force_detect(r, FAST, FAST_MOD, self.ic, self.J, len(op.bits))

    def check(self, op: FrameOp, detected) -> list[str]:
        errors = int(np.sum(np.asarray(detected) != op.bits)) if len(detected) == len(op.bits) else len(op.bits)
        if errors:
            return [f"{errors} bit errors in a {len(op.bits)}-bit frame"]
        self.tally.frames_correct += 1
        return []


WORKLOADS = {w.name: w for w in (PresetSuite, LongStream, Generalized, DetectFrames)}
