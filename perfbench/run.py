"""tpcsim benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload long_stream --seed 1 --seconds 10 --trace 0

Run it from the repository root (or any checkout holding src/tpcsim).  With
--trace 0 it reports the end-to-end metrics, measured with tracing off, times
scaled to a reference machine speed (see MachineSpeed); with --trace 1
it runs every block untraced and traced and reports the per-layer metrics,
the benchmark's own time, the time neither accounts for, and the tracing
overhead.  Every op's output is checked;
the last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A copy of the result with an environment
stamp goes to --out (default perfbench/out).

BLAS/OpenMP pools are pinned to one thread, and everything runs in this
process except the fresh processes that measure set-up time, one at a time.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("preset_suite", "long_stream", "generalized", "detect_frames")
SETUP_STARTS = 3
TAIL_BEYOND = 10  # op_tail_s is the highest percentile with this many samples above it
# Typical MachineSpeed sample (the fastest of SPEED_CALLS kernel() calls) on
# the machine the benchmark was defined on (2-core Intel Xeon, Python 3.11,
# numpy 2.4): end-to-end op times are reported at that machine speed.
SPEED_REF_S = 5.3e-4
SPEED_EVERY_S = 0.1  # sample the machine speed between ops at most this often
SPEED_CALLS = 5  # kernel calls per sample; the fastest is kept, so a preempted call does not count
SPEED_WINDOW_S = 1.0  # an op is scaled by the machine speed from this long before it to this long after


class MachineSpeed:
    """How fast this machine runs fixed work right now, sampled between ops.

    The sandbox shares its cores with other tenants.  Their load moves the
    time of a fixed op by up to 2x within seconds, so runs minutes apart are
    not comparable, and longer runs do not help.  kernel() does interpreter,
    complex-exponential and array work in about equal parts, like the
    layers, and never touches tpcsim.  Each op's latency is scaled to the
    reference speed by the kernel samples in a window around it (local()).
    The set-up time is scaled by the time-weighted mean over the op loop
    that follows it (factor()): kernel calls next to each start swung
    further than set-up time did.
    """

    def __init__(self):
        self._vec = np.linspace(0.0, 1e-3, 2000)
        self._mat = np.ones((4096, 8))
        self.samples: list[tuple[float, float]] = []  # (end time, kernel seconds)

    def kernel(self) -> float:
        x, y = 0.0, 1.0
        for _ in range(2000):
            x, y = 0.9 * x + 0.1 * y, 0.5 * y + 0.01 * x
        s = 0j
        for pole in (-2.5e5 + 1.9e5j, -2.5e5 - 1.9e5j, -5e3 + 0j):
            s += np.exp(pole * self._vec).sum()
        m = self._mat
        for _ in range(2):
            m = 0.9 * m + 0.1
        return x + s.real + float(m.sum())

    def due(self) -> bool:
        return not self.samples or perf_counter() - self.samples[-1][0] >= SPEED_EVERY_S

    def sample(self) -> None:
        best = float("inf")
        for _ in range(SPEED_CALLS):
            t0 = perf_counter()
            self.kernel()
            best = min(best, perf_counter() - t0)
        self.samples.append((perf_counter(), best))

    def local(self, starts: list, latencies: list) -> list:
        """Scale factor of each op: SPEED_REF_S over the time-weighted mean
        kernel time from SPEED_WINDOW_S before the op to SPEED_WINDOW_S after it."""
        ends = [t for t, _ in self.samples]
        # integral of the kernel time up to each sample; each sample stands
        # for the time until the next one, as in factor()
        area = [0.0]
        for (t, k), (t_next, _) in zip(self.samples, self.samples[1:]):
            area.append(area[-1] + k * (t_next - t))

        def integral(t: float) -> float:
            i = min(max(bisect.bisect_right(ends, t) - 1, 0), len(ends) - 1)
            return area[i] + self.samples[i][1] * (min(max(t, ends[0]), ends[-1]) - ends[i])

        out = []
        for start, latency in zip(starts, latencies):
            lo = max(start - SPEED_WINDOW_S, ends[0])
            hi = min(start + latency + SPEED_WINDOW_S, ends[-1])
            out.append(SPEED_REF_S * (hi - lo) / (integral(hi) - integral(lo)))
        return out

    def factor(self) -> float:
        """SPEED_REF_S over the time-weighted mean kernel time; below 1 on a slower machine."""
        # each sample stands for the time until the next one
        weighted = spanned = 0.0
        for (t, k), (t_next, _) in zip(self.samples, self.samples[1:]):
            weighted += k * (t_next - t)
            spanned += t_next - t
        return SPEED_REF_S * spanned / weighted


@dataclass
class Pass:
    latencies: list = field(default_factory=list)
    starts: list = field(default_factory=list)
    speed: MachineSpeed | None = None
    failed: int = 0
    blocks: int = 0
    wall: float = 0.0


def untraced(name: str):
    return contextlib.nullcontext()


def run_op(wl, op, errors_shown: list, own=untraced) -> tuple[float, bool]:
    """Time one op, then check it inside own("check").  Returns (latency, ok)."""
    t0 = perf_counter()
    try:
        out = wl.run(op)
        problems = None
    except Exception:
        out = None
        problems = [traceback.format_exc()]
    latency = perf_counter() - t0
    with own("check"):
        if problems is None:
            try:
                problems = wl.check(op, out)
            except Exception:
                problems = [traceback.format_exc()]
    if problems and len(errors_shown) < 5:
        errors_shown.append(problems)
        print(f"{wl.name}: op failed: {problems[0]}", file=sys.stderr)
    return latency, not problems


def run_block(wl, i: int, p: Pass, errors_shown: list, tracer=None) -> None:
    """Run and check the ops of block i, adding them to p.  With a tracer,
    input generation and checks are timed as the benchmark's own spans."""
    own = untraced if tracer is None else tracer.own
    start = perf_counter()
    with own("inputs"):
        ops = wl.block(i)
    for op in ops:
        if p.speed is not None and p.speed.due():
            p.speed.sample()
        if tracer is not None:
            tracer.op_id = len(p.latencies)
        p.starts.append(perf_counter())
        latency, ok = run_op(wl, op, errors_shown, own)
        p.latencies.append(latency)
        p.failed += not ok
    p.blocks += 1
    p.wall += perf_counter() - start


def tail(latencies: list) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    xs = sorted(latencies)
    k = max(len(xs) - TAIL_BEYOND - 1, 0)
    return xs[k], 100.0 * (k + 1) / len(xs)


def env_stamp(seed: int) -> dict:
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        except OSError:
            proc = None
        if proc is not None and proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "tpcsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def prepare(name: str, seed: int, work_dir: Path, errors_shown: list):
    """Import, build the workload and run its warm-up op: everything before the first timed op."""
    import workloads

    wl = workloads.WORKLOADS[name](seed, work_dir)
    _, ok = run_op(wl, wl.warmup(), errors_shown)
    return wl, ok


def measure_setup(args) -> list[float]:
    """Seconds from spawning a fresh process to its first timed op, SETUP_STARTS times."""
    times = []
    for _ in range(SETUP_STARTS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload,
               "--seed", str(args.seed), "--out", str(args.out)]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        ready = float(proc.stdout.strip().splitlines()[-1].split()[1])
        times.append(ready - t0)
    return times


def end_to_end(args, wl, errors_shown: list) -> tuple[dict, dict, int, int]:
    setup = measure_setup(args)
    p = Pass(speed=MachineSpeed())
    while p.blocks < wl.min_blocks or p.wall < args.seconds:
        run_block(wl, p.blocks, p, errors_shown)
    p.speed.sample()
    factor = p.speed.factor()
    local = p.speed.local(p.starts, p.latencies)
    scaled = [x * f for x, f in zip(p.latencies, local)]
    n = len(p.latencies)
    tail_value, tail_pct = tail(scaled)
    metrics = {
        "setup_s": (statistics.median(setup) * factor, "s"),
        "ops_per_s": (n / sum(scaled), "1/s"),
        "op_p50_s": (statistics.median(scaled), "s"),
        "op_tail_s": (tail_value, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "setup_starts_s": setup,
        "ops": n,
        "blocks": p.blocks,
        "fail_frac": p.failed / n,
        "op_tail_percentile": tail_pct,
        "op_tail_samples": n,
        "loop_wall_s": p.wall,
        "machine_speed": factor,
        "machine_speed_per_op": {"min": min(local), "median": statistics.median(local), "max": max(local)},
        "speed_samples": len(p.speed.samples),
        "wall_clock": {
            "setup_s": statistics.median(setup),
            "ops_per_s": n / sum(p.latencies),
            "op_p50_s": statistics.median(p.latencies),
            "op_tail_s": tail(p.latencies)[0],
        },
    }
    return metrics, detail, n, p.failed


def traced(args, wl, errors_shown: list) -> tuple[dict, dict, int, int]:
    from tracing import Tracer

    # Each block runs untraced and traced back to back, in alternating order,
    # so drift over the run does not show up as tracing overhead.  Half the
    # blocks of an end-to-end run then do as many ops.
    plain, p = Pass(), Pass()
    tracer = Tracer()
    frames_correct = 0
    t0 = perf_counter()
    while plain.blocks < (wl.min_blocks + 1) // 2 or plain.wall < args.seconds / 2.0:
        i = plain.blocks
        if i % 2:
            run_block(wl, i, plain, errors_shown)
        correct_before = wl.tally.frames_correct
        tracer.install()
        try:
            run_block(wl, i, p, errors_shown, tracer)
        finally:
            tracer.uninstall()
        frames_correct += wl.tally.frames_correct - correct_before
        if not i % 2:
            run_block(wl, i, plain, errors_shown)
    values = tracer.metrics(p.wall)
    frames = values["equalization.frames"]
    values["equalization.frames_correct_ratio"] = frames_correct / frames if frames else 0.0
    values["trace.untraced_wall_s"] = plain.wall
    values["trace.overhead_s"] = p.wall - plain.wall
    values["trace.overhead_share"] = (p.wall - plain.wall) / plain.wall
    units = per_layer_units()
    metrics = {name: (values[name], units[name]) for name in units}
    spans_path = args.out / f"spans-{args.workload}-s{args.seed}.jsonl"
    tracer.dump(spans_path, t0)
    detail = {"ops_per_pass": len(p.latencies), "blocks": p.blocks, "spans_file": spans_path.name}
    attempted = len(plain.latencies) + len(p.latencies)
    return metrics, detail, attempted, plain.failed + p.failed


def per_layer_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=HERE / "out", help="directory for result and span files")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tpcsim" / "__init__.py").is_file():
        print(f"no tpcsim sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args.out = args.out.resolve()
    work_dir = args.out / "work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    errors_shown: list = []
    try:
        wl, warm_ok = prepare(args.workload, args.seed, work_dir, errors_shown)
        if args.setup_probe:
            print(f"READY {time.monotonic()!r}", flush=True)
            return 0 if warm_ok else 1
        measure = traced if args.trace else end_to_end
        metrics, detail, attempted, failed = measure(args, wl, errors_shown)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    attempted += 1
    failed += not warm_ok
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env_stamp(args.seed),
        "detail": detail,
        "result": result,
    }
    (args.out / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"env": record["env"], "detail": detail}))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:14s} {name:40s} {value:>16.6g} {unit}")
    if not args.trace:
        print(f"{args.workload:14s} {'fail_frac':40s} {detail['fail_frac']:>16.6g} ratio")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
