#!/usr/bin/env python3
"""Regenerates perfbench/pins.json: the pass-0 output digest of every
workload (or of the named ones) for run seeds 0..31, as computed by the
current beepkit.

    python3 perfbench/make_pins.py [WORKLOAD ...]

Pins fix the numbers a workload must reproduce, so regenerate them only
when a change is meant to alter simulation results; a pure performance
change must leave every pin matching.
"""
import json
import shutil
import subprocess
import sys

import run

SEEDS = range(32)


def main():
    run.build()
    run_dir = run.RUNS / "pins"
    pins = json.loads(run.PINS.read_text()) if run.PINS.is_file() else {}
    try:
        for workload in sys.argv[1:] or run.WORKLOADS:
            pins[workload] = {}
            for seed in SEEDS:
                shutil.rmtree(run_dir, ignore_errors=True)
                run_dir.mkdir(parents=True)
                out = subprocess.run(
                    [str(run.BINARY), "--workload", workload, "--seed", str(seed),
                     "--seconds", "0", "--run-dir", str(run_dir)],
                    stdout=subprocess.PIPE, text=True, check=True).stdout
                result = json.loads(out.strip().splitlines()[-1])
                if not result["correct"]:
                    sys.exit(f"{workload} seed {seed}: {result['stamp']['errors']}")
                pins[workload][str(seed)] = result["stamp"]["digest"]
                print(workload, seed, pins[workload][str(seed)], flush=True)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
