#!/usr/bin/env python3
"""Benchmark of the rsmoment moment checker: cold workloads, checked outputs.

    python3 perfbench/run.py --workload flagship --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Each round of a workload runs in a
fresh worker process (worker.py), one process at a time, because every
rsmoment command starts cold.  A run repeats whole rounds while another one
still fits in --seconds (at least one round) and reports medians.  Set-up
time is sampled by two extra processes that only set up, plus each round.

--trace 0 reports the end-to-end metrics; --trace 1 runs traced rounds and
reports the per-layer metrics, and writes a span dump per workload.  The
last line of standard output is one JSON object: correct, attempted,
failed, metrics.  --workload all runs every workload in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / "perfbench-out"
WORKLOADS = ("flagship", "scan", "long_series", "hilbert_rhs")
NEEDS_NEWFORM = ("flagship", "scan")
NEWFORM_COUNT = 40000
SETUP_SAMPLES = 2       # set-up-only processes per run, besides each round
DEADLINE_S = 170.0      # a run never outlasts this, whatever --seconds says


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        asked = env.get(var, "")
        env[var] = str(min(int(asked), nproc) if asked.isdigit() and int(asked) > 0 else nproc)
    return env


def write_reference(workload: str, seed: int) -> Path:
    """Inputs and independent facts for one run; written before any timed process."""
    rng = random.Random(seed)
    ref = {"outdir": str(OUT)}
    if workload in NEEDS_NEWFORM:
        nf = OUT / "delta.nf"
        try:
            subprocess.run([sys.executable, "-m", "rsmoment", "make-newform", "--k", "12",
                            "--count", str(NEWFORM_COUNT), "--out", str(nf)],
                           env=child_env(), check=True, stdout=subprocess.DEVNULL,
                           timeout=60)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            raise BenchError(f"writing the newform file failed: {exc}") from exc
        ref["newform"] = str(nf)
        ref["tau"] = reference.tau_table(reference.TAU_CHECK_MAX)
        ref["tau_sample"] = sorted(rng.sample(range(1, reference.TAU_CHECK_MAX + 1), 40))
    if workload == "long_series":
        ref["series_samples"] = {"24": reference.series_samples(2 ** 18, rng),
                                 "36": reference.series_samples(2 ** 18, rng)}
    if workload == "hilbert_rhs":
        ref["kloosterman"] = reference.kloosterman_table(seed)
    path = OUT / f"ref_{workload}.json"
    path.write_text(json.dumps(ref))
    return path


def run_worker(workload: str, mode: str, ref: Path, trace: int, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--mode", mode, "--ref", str(ref), "--trace", str(trace),
           "--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker ran past the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    ref = write_reference(workload, seed)
    t0 = time.monotonic()
    setups = [] if trace else [run_worker(workload, "setup", ref, 0, deadline)["setup_s"]
                               for _ in range(SETUP_SAMPLES)]
    rounds = []
    while True:
        r0 = time.monotonic()
        rounds.append(run_worker(workload, "run", ref, trace, deadline))
        took = time.monotonic() - r0
        if time.monotonic() - t0 + took > seconds:
            break
    for r in rounds:
        for name, why in r["failures"]:
            print(f"{workload}: FAILED {name}: {why}", file=sys.stderr)
    setups += [r["setup_s"] for r in rounds]

    def median(name):
        if trace:  # a layer that never ran on this workload reads 0
            return statistics.median(r["layers"].get(name, 0) for r in rounds)
        return statistics.median(setups if name == "setup_s" else [r[name] for r in rounds])

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = declared["per_layer" if trace else "end_to_end"]
    return {"correct": all(r["correct"] for r in rounds),
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds),
            "rounds": len(rounds),
            "metrics": {m["name"]: {"value": median(m["name"]), "unit": m["unit"]}
                        for m in metrics}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0,
                    help="picks which indices and slot pairs the checks sample")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "rsmoment" / "__init__.py").is_file():
        print(f"perfbench: no rsmoment sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for w in names:
            res = run_workload(w, args.seed, args.seconds, args.trace)
            print(f"{w}: {res['rounds']} round(s), {res['attempted']} operations, "
                  f"{res['failed']} failed, correct={res['correct']}")
            for name, m in res["metrics"].items():
                print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
                key = name if len(names) == 1 else f"{w}.{name}"
                total["metrics"][key] = m
            total["correct"] &= res["correct"]
            total["attempted"] += res["attempted"]
            total["failed"] += res["failed"]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
