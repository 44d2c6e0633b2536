#!/usr/bin/env python3
"""Repeated runs, quartile summaries and fingerprint-checked comparisons.

    # ten runs of one workload, one seed each, appended to runs.jsonl
    python3 perfbench/stats.py collect --workload query_mix --seeds 1-10 \
        --out runs.jsonl [--trace 1]
    # median, quartiles and spread (IQR / median) per workload and metric,
    # with each end-to-end spread checked against a third of its bound
    python3 perfbench/stats.py summary runs.jsonl
    # parent vs change: refuses runs whose host/build fingerprints differ
    python3 perfbench/stats.py compare parent.jsonl change.jsonl

Run records are the lines run.py --out appends.
"""

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def spec():
    with open(HERE.parent / "BENCHMARK.json") as f:
        return json.load(f)


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def grouped(records):
    """{(workload, traced): {metric: [values]}} plus the unit per metric."""
    groups = defaultdict(lambda: defaultdict(list))
    units = {}
    for r in records:
        key = (r["detail"]["workload"], bool(r["detail"]["traced"]))
        for name, m in r["result"]["metrics"].items():
            groups[key][name].append(m["value"])
            units[name] = m["unit"]
    return groups, units


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def fingerprints(records):
    return {json.dumps(r["fingerprint"], sort_keys=True) for r in records}


def cmd_collect(args):
    for seed in seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace), "--out",
               args.out]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: run.py exited {proc.returncode}",
                  file=sys.stderr)
            return 1
        print(proc.stdout.strip().splitlines()[-1], flush=True)
    return 0


def cmd_summary(args):
    records = [r for path in args.files for r in load(path)]
    if len(fingerprints(records)) > 1:
        print("warning: runs from different hosts/builds are mixed",
              file=sys.stderr)
    bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    groups, units = grouped(records)
    steady = True
    for (workload, traced), metrics in sorted(groups.items()):
        n = len(next(iter(metrics.values())))
        print(f"== {workload} ({'traced' if traced else 'untraced'}, "
              f"{n} runs)")
        print(f"{'metric':40} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8}  unit")
        for name, values in metrics.items():
            q1, q2, q3 = quartiles(values)
            spread = (q3 - q1) / q2 if q2 else 0.0
            flag = ""
            if not traced and name in bounds and name != "setup_s":
                if spread >= bounds[name] / 3:
                    flag = f"  > bound/3 ({bounds[name] / 3:.3f})"
                    steady = False
            print(f"{name:40} {q2:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f}  {units[name]}{flag}")
    return 0 if steady else 1


def cmd_compare(args):
    base, change = load(args.base), load(args.change)
    prints = fingerprints(base) | fingerprints(change)
    if len(prints) != 1:
        print("refusing to compare: host/build fingerprints differ:",
              file=sys.stderr)
        for p in sorted(prints):
            print("  " + p, file=sys.stderr)
        return 2
    bounds = {m["name"]: m for m in spec()["end_to_end"]}
    gb, units = grouped(base)
    gc, _ = grouped(change)
    worse = False
    for key in sorted(set(gb) & set(gc)):
        workload, traced = key
        print(f"== {workload} ({'traced' if traced else 'untraced'})")
        for name in gb[key]:
            if name not in gc[key]:
                continue
            mb = statistics.median(gb[key][name])
            mc = statistics.median(gc[key][name])
            change_frac = (mc - mb) / mb if mb else 0.0
            verdict = ""
            if not traced and name in bounds:
                m = bounds[name]
                signed = change_frac if m["better"] == "lower" else -change_frac
                if signed > m["bound"]:
                    verdict = f"  WORSE than bound {m['bound']}"
                    worse = True
            print(f"{name:40} {mb:12.6g} -> {mc:12.6g} "
                  f"({change_frac * 100:+7.2f}%) {units[name]}{verdict}")
    return 1 if worse else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--workload", required=True)
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--seconds", type=float,
                   default=spec()["run_seconds"])
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    c.add_argument("--out", required=True)
    s = sub.add_parser("summary")
    s.add_argument("files", nargs="+")
    k = sub.add_parser("compare")
    k.add_argument("base")
    k.add_argument("change")
    args = p.parse_args()
    return {"collect": cmd_collect, "summary": cmd_summary,
            "compare": cmd_compare}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
