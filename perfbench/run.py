#!/usr/bin/env python3
"""Builds the perfbench binary and runs one workload.

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 20 --trace 0

Run from the repository root. The binary is built from source into
.bench_build/ (CMake, Release) and runs inside a per-run directory under
.bench_run/ that holds every JSONL shard and giant journal; the directory
is removed afterwards.

With --trace 0 the printed metrics are the end-to-end ones of
BENCHMARK.json; setup_s is the median over this run and SETUP_REPEATS
fresh processes that only set up. With --trace 1 they are the per-layer
ones. The second-to-last stdout line is the run stamp (build, hardware,
autotune choices, layer sources); the last line is the result:
{"correct", "attempted", "failed", "metrics"}.
"""
import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
RUNS = ROOT / ".bench_run"
BINARY = BUILD / "perfbench"
PINS = HERE / "pins.json"
WORKLOADS = ("paper_sweep", "tightness", "giant_grid", "faulted_sweep")
SETUP_REPEATS = 6
DEADLINE_S = 170.0  # every run must end within 180 s once built


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures and builds the binary; a lock serializes builds.

    Configuring on every build re-reads the commit SHA that the stamp
    carries; only build_info.cpp recompiles when it changed."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no beepkit sources in {ROOT}; cannot build perfbench")
        sys.exit(2)
    tmp = BUILD / "tmp"  # compiler temporaries stay in the checkout
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, env=env, check=True)
        subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench",
                        "-j", "4"], stdout=sys.stderr, env=env, check=True)


def run_binary(args, timeout):
    """Runs the binary; returns its last stdout line parsed as JSON."""
    proc = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE,
                          text=True, timeout=max(timeout, 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench exited {proc.returncode}")
    return json.loads(lines[-1])


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    build()
    start = time.monotonic()
    run_dir = RUNS / f"{os.getpid()}-{opts.workload}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    common = ["--workload", opts.workload, "--seed", str(opts.seed),
              "--run-dir", str(run_dir), "--pins", str(PINS)]
    try:
        setup_samples = []
        if opts.trace == 0:
            for _ in range(SETUP_REPEATS):
                left = DEADLINE_S - (time.monotonic() - start)
                setup_samples.append(
                    run_binary(common + ["--setup-only"], left)["setup_s"])
        left = DEADLINE_S - (time.monotonic() - start)
        result = run_binary(common + ["--seconds", str(opts.seconds),
                                      "--trace", str(opts.trace)], left)
    except (RuntimeError, subprocess.SubprocessError, ValueError) as error:
        log(f"run failed: {error}")
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    metrics = result["metrics"]
    if opts.trace == 0:
        setup_samples.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setup_samples)
    expected = declared_metrics()[opts.trace]
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != expected:
        log(f"metrics {sorted(got.items())} differ from BENCHMARK.json "
            f"{sorted(expected.items())}")
        return 1

    stamp = dict(result["stamp"], setup_s_samples=setup_samples)
    print(json.dumps({"stamp": stamp}))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
