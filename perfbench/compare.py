"""Summarize benchmark runs, or compare a parent's runs with a change's.

    python3 perfbench/compare.py RUNS_DIR               # medians, quartiles, spread
    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR  # plus pair wins and a verdict

Each directory holds the result-<workload>-s<seed>-t<trace>.json files that
run.py writes.  End-to-end metrics come from the --trace 0 runs and are
judged against the bounds in BENCHMARK.json; runs of the two sides are paired
by seed.  Verdicts:

* worse       -- whatever the timings, when the change fails a larger share
                 of its ops than the parent;
* improved    -- the change wins at least 9 of every 10 pairs (ties count
                 for neither, at least 10 pairs) and the medians differ by
                 more than the parent's interquartile range;
* worse       -- the change's median is worse than the parent's by more than
                 the bound, and either both spreads are within the bound or
                 every change run is worse than every parent run;
* unresolved  -- a spread (IQR / median) exceeds the bound, unless every
                 change run reads better than every parent run;
* no worse    -- otherwise.

Per-layer metrics from --trace 1 runs are listed by median, without verdict.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(directory: Path) -> dict:
    """{(workload, trace): {seed: {metric: value}}}"""
    runs: dict = defaultdict(dict)
    for path in sorted(Path(directory).glob("result-*.json")):
        rec = json.loads(path.read_text())
        values = {name: m["value"] for name, m in rec["result"]["metrics"].items()}
        values["failed"] = rec["result"]["failed"]
        values["attempted"] = rec["result"]["attempted"]
        for name, value in rec["detail"].get("wall_clock", {}).items():
            values[f"wall_clock.{name}"] = value
        runs[(rec["workload"], rec["trace"])][rec["seed"]] = values
    return runs


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def fail_share(runs: dict) -> tuple[int, int]:
    """(failed, attempted) ops over all runs of one side."""
    return sum(v["failed"] for v in runs.values()), sum(v["attempted"] for v in runs.values())


def verdict(parent: dict, change: dict, better: str, bound: float, fails: tuple) -> tuple[str, int, int]:
    """(verdict, pair wins of the change, pairs) for one metric on one workload.

    `fails` holds the failed share of ops of the parent and of the change.
    """
    sign = 1.0 if better == "higher" else -1.0
    seeds = sorted(set(parent) & set(change))
    wins = sum(1 for s in seeds if sign * (change[s] - parent[s]) > 0)
    if fails[1] > fails[0]:
        return "worse", wins, len(seeds)
    p, c = list(parent.values()), list(change.values())
    pq1, pm, pq3 = quartiles(p)
    _, cm, _ = quartiles(c)
    gain = sign * (cm - pm)
    all_better = min(sign * x for x in c) > max(sign * x for x in p)
    all_worse = max(sign * x for x in c) < min(sign * x for x in p)
    within = max(spread(p), spread(c)) <= bound
    if len(seeds) >= MIN_PAIRS and wins >= WIN_SHARE * len(seeds) and gain > pq3 - pq1:
        return "improved", wins, len(seeds)
    if -gain > bound * abs(pm) and (within or all_worse):
        return "worse", wins, len(seeds)
    if not within and not all_better:
        return "unresolved", wins, len(seeds)
    return "no worse", wins, len(seeds)


def fmt(x: float) -> str:
    return f"{x:.4g}"


def summarize(runs: dict, spec: dict) -> None:
    """Median, quartiles and spread per metric; for scaled times, also the
    median and spread of the unscaled wall-clock figures."""
    print(f"{'workload':14s} {'metric':12s} {'n':>3s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>8s} {'bound':>6s}"
          f"  {'unscaled median':>15s} {'spread':>8s}")
    for wl in (w["name"] for w in spec["workloads"]):
        seeds = runs.get((wl, 0), {})
        if not seeds:
            continue
        for m in spec["end_to_end"]:
            vals = [v[m["name"]] for v in seeds.values()]
            q1, med, q3 = quartiles(vals)
            line = (f"{wl:14s} {m['name']:12s} {len(vals):3d} {fmt(med):>10s} {fmt(q1):>10s} {fmt(q3):>10s} "
                    f"{spread(vals):8.4f} {m['bound']:6.2f}")
            raw = [v[f"wall_clock.{m['name']}"] for v in seeds.values() if f"wall_clock.{m['name']}" in v]
            if len(raw) == len(vals):
                line += f"  {fmt(quartiles(raw)[1]):>15s} {spread(raw):8.4f}"
            print(line)
        failed, attempted = fail_share(seeds)
        print(f"{wl:14s} {'fail_frac':12s} {len(seeds):3d} {fmt(failed / attempted):>10s}  ({failed} of {attempted} ops)")


def compare(parent: dict, change: dict, spec: dict) -> None:
    print(f"{'workload':14s} {'metric':12s} {'parent median [q1, q3]':>32s} {'change median [q1, q3]':>32s} "
          f"{'wins':>6s}  verdict")
    for wl in (w["name"] for w in spec["workloads"]):
        ps, cs = parent.get((wl, 0), {}), change.get((wl, 0), {})
        if not ps or not cs:
            continue
        fails = tuple(f / a for f, a in (fail_share(ps), fail_share(cs)))
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = {s: v[name] for s, v in ps.items()}
            cv = {s: v[name] for s, v in cs.items()}
            result, wins, pairs = verdict(pv, cv, m["better"], m["bound"], fails)
            pq, cq = quartiles(list(pv.values())), quartiles(list(cv.values()))
            print(f"{wl:14s} {name:12s} {fmt(pq[1]):>10s} [{fmt(pq[0])}, {fmt(pq[2])}]".ljust(60)
                  + f"{fmt(cq[1]):>10s} [{fmt(cq[0])}, {fmt(cq[2])}]".ljust(33)
                  + f"{wins:>3d}/{pairs:<3d} {result}")
        for side, runs in (("parent", ps), ("change", cs)):
            failed, attempted = fail_share(runs)
            print(f"{wl:14s} fail_frac {side}: {failed} of {attempted} ops")
    layer_names = [m["name"] for m in spec["per_layer"]]
    for wl in (w["name"] for w in spec["workloads"]):
        ps, cs = parent.get((wl, 1), {}), change.get((wl, 1), {})
        if not ps or not cs:
            continue
        print(f"\n{wl}: per-layer medians (traced runs: {len(ps)} parent, {len(cs)} change)")
        for name in layer_names:
            pm = statistics.median(v[name] for v in ps.values())
            cm = statistics.median(v[name] for v in cs.values())
            if pm or cm:
                ratio = f"{cm / pm:8.3f}x" if pm else ""
                print(f"  {name:40s} {fmt(pm):>12s} {fmt(cm):>12s} {ratio}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    runs = [load_runs(Path(d)) for d in argv]
    if not any(runs[0].values()):
        print(f"no result files in {argv[0]}", file=sys.stderr)
        return 2
    if len(runs) == 1:
        summarize(runs[0], spec)
    else:
        compare(runs[0], runs[1], spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
