#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds perfbench like run.py does, then checks that every workload runs
clean at tiny sizes, that a pinned seed passes and a pins file with that
pin perturbed counts the pass as failed work, and that every metric the
binary prints is declared in BENCHMARK.json with the same unit.
"""
import json
import shutil
import subprocess
import unittest

import run


RUN_DIR = run.RUNS / "tests"


def drive(*args, pins=run.PINS):
    shutil.rmtree(RUN_DIR, ignore_errors=True)
    RUN_DIR.mkdir(parents=True)
    try:
        out = subprocess.run([str(run.BINARY), "--run-dir", str(RUN_DIR),
                              "--pins", str(pins)] + list(args),
                             stdout=subprocess.PIPE, text=True, check=True).stdout
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)
    return json.loads(out.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_tiny_smoke_of_every_workload(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = drive("--workload", workload, "--seed", "3",
                               "--seconds", "0.2", "--scale", "tiny")
                self.assertTrue(result["correct"], result["stamp"]["errors"])
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(result["failed"], 0)

    def test_perturbed_digest_counts_as_failure(self):
        pins = json.loads(run.PINS.read_text())
        pin = pins["faulted_sweep"]["1"]
        pins["faulted_sweep"]["1"] = pin[:-1] + ("1" if pin[-1] == "0" else "0")
        perturbed = run.RUNS / "perturbed_pins.json"
        perturbed.parent.mkdir(parents=True, exist_ok=True)
        perturbed.write_text(json.dumps(pins))
        try:
            result = drive("--workload", "faulted_sweep", "--seed", "1",
                           "--seconds", "0", pins=perturbed)
        finally:
            perturbed.unlink()
        self.assertTrue(result["stamp"]["pinned"])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertEqual(result["failed"], result["attempted"])

    def test_full_scale_seed_matches_its_pin(self):
        result = drive("--workload", "faulted_sweep", "--seed", "1",
                       "--seconds", "0")
        self.assertTrue(result["stamp"]["pinned"])
        self.assertTrue(result["correct"], result["stamp"]["errors"])

    def test_every_metric_is_declared_with_its_unit(self):
        end_to_end, per_layer = run.declared_metrics()
        for trace, declared in (("0", end_to_end), ("1", per_layer)):
            with self.subTest(trace=trace):
                result = drive("--workload", "paper_sweep", "--seed", "2",
                               "--seconds", "0.2", "--scale", "tiny",
                               "--trace", trace)
                printed = {name: m["unit"] for name, m in result["metrics"].items()}
                self.assertEqual(printed, declared)


if __name__ == "__main__":
    unittest.main()
