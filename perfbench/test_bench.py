"""Tests of the benchmark itself: checks catch perturbed outputs, the tracer
accounts for time, and the compare verdicts follow their rules.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tpcsim.analytic import Waveform  # noqa: E402
from tpcsim.spectrum import SpectrumGrid  # noqa: E402


@pytest.fixture
def work():
    """A scratch directory inside the benchmark's own output directory."""
    base = HERE / "out"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=base))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def bumped(w: Waveform, i: int, by: float) -> Waveform:
    samples = w.samples.copy()
    samples[i] += by
    return Waveform(dt=w.dt, t0=w.t0, samples=samples)


def test_long_stream_check_catches_perturbed_outputs(work):
    wl = workloads.LongStream(seed=3, work_dir=work)
    op = wl.warmup()
    out = wl.run(op)
    assert wl.check(op, out) == []

    i = int(op.sample_idx[3])
    assert wl.check(op, {**out, "w": bumped(out["w"], i, 1e-7)})

    v2, iL = out["ccm"]
    assert wl.check(op, {**out, "ccm": (bumped(v2, 100, 1e-8), iL)})

    values = out["sg"].values.copy()
    values[op.freq_idx[0]] *= 1.0 + 1e-5
    sg = SpectrumGrid(frequencies=out["sg"].frequencies, values=values, dc_mass=out["sg"].dc_mass)
    assert wl.check(op, {**out, "sg": sg})

    s1 = out["s1"].copy()
    s1[1] = 1.0 - s1[1]
    assert wl.check(op, {**out, "s1": s1})


def test_generalized_check_catches_perturbed_output(work):
    wl = workloads.Generalized(seed=3, work_dir=work)
    for topology in ("parasitic", "load"):
        op = replace(wl.warmup(), topology=topology)
        w = wl.run(op)
        assert wl.check(op, w) == []
        assert wl.check(op, bumped(w, int(op.sample_idx[-1]), 1e-7))


def test_detect_frames_check_catches_a_bit_error(work):
    wl = workloads.DetectFrames(seed=3, work_dir=work)
    op = wl.block(0)[0]
    detected = wl.run(op)
    assert wl.check(op, detected) == []
    flipped = detected.copy()
    flipped[-1] ^= 1
    assert wl.check(op, flipped) == ["1 bit errors in a %d-bit frame" % len(op.bits)]


def test_preset_check_catches_a_changed_csv_value(work):
    wl = workloads.PresetSuite(seed=3, work_dir=work)
    name = "fig4_ltspice_check"

    rc, out = wl.run(name)
    path = out / "v2_total.csv"
    lines = path.read_text().splitlines()
    t, v = lines[1].split(",")
    lines[1] = f"{t},{float(v) * (1 + 1e-6):.17g}"
    path.write_text("\n".join(lines) + "\n")
    errors = wl.check(name, (rc, out))
    assert any("v2_total.csv.value" in e for e in errors)
    assert not out.exists()

    rc, out = wl.run(name)
    (out / "v2_data.csv").unlink()
    assert wl.check(name, (rc, out))

    rc, out = wl.run(name)
    assert wl.check(name, (1, out)) == [f"{name}: exit code 1"]

    rc, out = wl.run(name)
    assert wl.check(name, (rc, out)) == []


def test_tracer_wraps_every_binding_and_accounts_for_time(work):
    import tpcsim
    from tpcsim import accuracy, cli, discrete

    original = discrete.simulate
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert accuracy.simulate is discrete.simulate is tpcsim.simulate is cli.simulate
        assert discrete.simulate is not original
        wl = workloads.LongStream(seed=3, work_dir=work)
        op = wl.warmup()
        tracer.op_id = 7
        t0 = perf_counter()
        _, ok = run.run_op(wl, op, [], tracer.own)
        wall = perf_counter() - t0
    finally:
        tracer.uninstall()
    assert discrete.simulate is original and accuracy.simulate is original
    assert ok

    assert {s[2] for s in tracer.spans} == {7}
    m = tracer.metrics(wall)
    layers = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    top = sum(s[5] - s[4] for s in tracer.spans if s[1] is None and not s[3].startswith("bench."))
    assert layers == pytest.approx(top, rel=1e-9)
    assert m["bench.self_s"] > 0.0
    assert layers + m["bench.self_s"] + m["trace.unaccounted_s"] == pytest.approx(wall, rel=1e-9)
    assert 0.0 <= m["trace.unaccounted_s"] < 0.05 * wall
    N = len(op.bits) * op.J
    assert m["discrete.ccm_steps"] == N and m["discrete.dcm_steps"] == N
    # sample_output, plus the transient that subtract_transient rebuilds
    assert m["analytic.samples"] == 2 * N
    # the op's own sample_switching, plus one inside each simulate
    assert m["modulation.samples"] == 3 * N
    assert m["spectrum.freq_symbols"] == len(op.bits) * len(wl.GRID)
    assert m["equalization.frames"] == 0 and m["equalization.ns_per_candidate_sample"] == 0.0


@pytest.mark.parametrize("name", ["preset_suite", "detect_frames"])
def test_traced_block_leaves_little_unaccounted(work, name):
    """Layer self times plus the benchmark's own spans cover the traced wall time."""
    wl = workloads.WORKLOADS[name](seed=3, work_dir=work)
    run.run_op(wl, wl.warmup(), [])
    p = run.Pass()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run.run_block(wl, 0, p, [], tracer)
    finally:
        tracer.uninstall()
    assert p.failed == 0
    m = tracer.metrics(p.wall)
    assert m["bench.self_s"] > 0.0
    assert 0.0 <= m["trace.unaccounted_s"] < 0.05 * p.wall


def test_tail_has_ten_samples_beyond_it():
    xs = list(np.arange(40.0))
    value, pct = run.tail(xs)
    assert sum(x > value for x in xs) == 10
    assert pct == pytest.approx(75.0)


def test_op_scaled_by_machine_speed_around_it():
    speed = run.MachineSpeed()
    ref = run.SPEED_REF_S
    assert run.SPEED_WINDOW_S < 4.5  # the first two ops' windows stay on one side of t = 10 s
    # the kernel takes the reference time until t = 10 s, twice as long after
    speed.samples = [(0.1 * i, ref if i < 100 else 2.0 * ref) for i in range(201)]
    starts = [5.0, 15.0, 9.5, 0.0, 19.9]
    latencies = [0.5, 0.2, 1.0, 0.01, 0.1]
    factors = speed.local(starts, latencies)
    # the third op's window lies as long before t = 10 s as after it
    assert factors[:3] == pytest.approx([1.0, 0.5, 2.0 / 3.0])
    # windows are cut at the first and last sample
    assert factors[3:] == pytest.approx([1.0, 0.5])


def test_compare_verdicts():
    parent = {s: 100.0 + s % 3 for s in range(10)}
    ok = (0.0, 0.0)
    faster = {s: 80.0 + s % 3 for s in range(10)}
    assert compare.verdict(parent, faster, "lower", 0.1, ok)[0] == "improved"
    assert compare.verdict(parent, {s: 130.0 + s % 3 for s in range(10)}, "lower", 0.1, ok)[0] == "worse"
    assert compare.verdict(parent, {s: 101.0 + s % 3 for s in range(10)}, "lower", 0.1, ok)[0] == "no worse"
    noisy = {s: 100.0 * (1 + 0.5 * (s % 2)) for s in range(10)}
    assert compare.verdict(parent, noisy, "lower", 0.1, ok)[0] == "unresolved"
    # higher-is-better metrics win in the other direction
    assert compare.verdict(parent, {s: 130.0 + s % 3 for s in range(10)}, "higher", 0.1, ok)[0] == "improved"
    # a gain does not count when the change fails more of its ops
    assert compare.verdict(parent, faster, "lower", 0.1, (0.0, 0.01))[0] == "worse"
    assert compare.verdict(parent, faster, "lower", 0.1, (0.02, 0.01))[0] == "improved"
