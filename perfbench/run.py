#!/usr/bin/env python3
"""Build and run the provenance-pipeline benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root. The first call configures and builds
perfbench/ (which compiles ../src) under $CARGO_TARGET_DIR, default
.bench_build; later calls rebuild incrementally. The last line of stdout is
the result object of BENCHMARK.json's contract; the lines before it carry
the host/build fingerprint and the untimed detail. --out FILE appends the
run (fingerprint, detail and result) as one JSON line, for stats.py.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The query morsel pool is pinned to one thread, so each server worker runs
# its kernels inline and the workers cannot oversubscribe a small box (with
# two pool threads query_mix's run-to-run spread grew by half). The value is
# part of the fingerprint.
RECUP_THREADS = "1"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build():
    """Configures once, then builds incrementally; returns the binary."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            raise RuntimeError("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", str(out), "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise RuntimeError("build failed")
    return out / "perfbench"


def check_result(result, traced):
    """Raises unless `result` has exactly the contract's keys and every
    metric of the mode, each with its unit."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int):
        raise ValueError("failed must be a whole number")
    wanted = spec()["per_layer" if traced else "end_to_end"]
    metrics = result["metrics"]
    names = {m["name"] for m in wanted}
    if set(metrics) != names:
        missing = sorted(names - set(metrics))
        extra = sorted(set(metrics) - names)
        raise ValueError(f"metrics missing {missing}, unexpected {extra}")
    for m in wanted:
        got = metrics[m["name"]]
        if got.get("unit") != m["unit"]:
            raise ValueError(f"{m['name']}: unit {got.get('unit')!r}, "
                             f"want {m['unit']!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"{m['name']}: value {value!r}")
        if not traced and value <= 0:
            raise ValueError(f"{m['name']}: end-to-end value {value} <= 0")


def run(binary, workload, seed, seconds, traced, units=0, size="full"):
    """Runs one workload; returns (fingerprint, detail, result)."""
    out = build_dir()
    work = out / f"work-{os.getpid()}"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if traced else "0",
           "--work-dir", str(work), "--size", size]
    if units:
        cmd += ["--units", str(units)]
    if traced:
        traces = out / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    env = dict(os.environ, RECUP_THREADS=RECUP_THREADS)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                              timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    fields = {}
    for line in lines[:-1]:
        tag, _, body = line.partition(" ")
        if tag in ("fingerprint", "detail"):
            fields[tag] = json.loads(body)
    result = json.loads(lines[-1])
    check_result(result, traced)
    return fields.get("fingerprint"), fields.get("detail"), result


def smoke(binary):
    """Each workload once at tiny size, traced and untraced: every metric of
    BENCHMARK.json must be printed with its unit and every check pass."""
    ok = True
    for w in spec()["workloads"]:
        for traced in (False, True):
            mode = "per-layer" if traced else "end-to-end"
            try:
                _, _, result = run(binary, w["name"], 1, 1, traced, units=1,
                                   size="tiny")
                if not result["correct"] or result["failed"]:
                    raise ValueError(f"correct={result['correct']} "
                                     f"failed={result['failed']}")
                log(f"smoke {w['name']} {mode}: ok")
            except Exception as e:  # report every workload, then fail
                log(f"smoke {w['name']} {mode}: FAILED: {e}")
                ok = False
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--units", type=int, default=0,
                   help="execute exactly this many units (exact counts)")
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--out", help="append the run as one JSON line")
    p.add_argument("--smoke", action="store_true",
                   help="tiny run of every workload in both modes")
    args = p.parse_args()
    try:
        binary = build()
        if args.smoke:
            return 0 if smoke(binary) else 1
        names = [w["name"] for w in spec()["workloads"]]
        if args.workload not in names:
            raise ValueError(f"--workload must be one of {names}")
        fingerprint, detail, result = run(
            binary, args.workload, args.seed, args.seconds, bool(args.trace),
            args.units, args.size)
    except Exception as e:
        log(f"error: {e}")
        return 1
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps({"fingerprint": fingerprint, "detail": detail,
                                "result": result}) + "\n")
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
