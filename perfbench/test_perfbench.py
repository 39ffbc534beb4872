#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py        # from the checkout root

They build perfbench if needed and run every workload briefly, so they
take about two minutes on a 4-core host.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def bench(*args):
    """Run the benchmark; @return (exit code, last stdout line as JSON)."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py")] + list(args),
                          capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, last


class Helpers(unittest.TestCase):
    def test_tail_percent_keeps_ten_samples_beyond(self):
        self.assertEqual(run.tail_percent(192), 90)
        self.assertEqual(run.tail_percent(96), 89)
        self.assertEqual(run.tail_percent(12), 50)

    def test_percentile_interpolates(self):
        self.assertEqual(run.percentile([1, 2, 3, 4, 5], 0.5), 3)
        self.assertAlmostEqual(run.percentile([0, 10], 0.9), 9.0)

    def test_check_counts_a_wrong_digest_and_a_missing_label(self):
        refs = {"w": {"a": {"digest": "0x1", "result": 5, "events": 9, "rank": -1},
                      "b": {"digest": "0x2", "result": 6, "events": 9, "rank": -1}}}
        raw = {"sims": [
            {"label": "a", "digest": "0x1", "result": 5, "events": 9,
             "rank": -1, "outcome": "completed"},
            {"label": "a", "digest": "0x3", "result": 5, "events": 9,
             "rank": -1, "outcome": "completed"},
        ]}
        attempted, failed, _ = run.check("w", raw, refs)
        self.assertEqual((attempted, failed), (3, 2))

    def test_check_counts_an_unranked_candidate(self):
        refs = {"w": {"a": {"digest": "0x1", "result": 5, "events": 9, "rank": 0}}}
        raw = {"sims": [{"label": "a", "digest": "0x1", "result": 5, "events": 9,
                         "rank": -1, "outcome": "completed"}]}
        self.assertEqual(run.check("w", raw, refs)[:2], (1, 1))


class BenchmarkJson(unittest.TestCase):
    def test_names_and_units_match_the_runner(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]], run.WORKLOADS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        per_layer = {n: u for names in run.PER_LAYER.values() for n, u in names.items()}
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, per_layer)


class Override(unittest.TestCase):
    def test_link_latency_override_fails_every_simulation(self):
        for workload in ("garnet_faulty64", "explore64"):
            with self.subTest(workload=workload):
                code, last = bench("--workload", workload, "--seconds", "0",
                                   "--package-link-latency=250")
                self.assertNotEqual(code, 0)
                self.assertFalse(last["correct"])
                self.assertGreater(last["attempted"], 0)
                self.assertEqual(last["failed"], last["attempted"])  # failed_ratio 1


# Metrics that count a layer's work: positive wherever the layer runs.
WORK = {
    "eq": ["eq.events", "eq.run_ns_per_event", "eq.probe_ns_per_event"],
    "net": ["net.probe_ns_per_msg", "net.delivered_messages", "net.byte_hops",
            "net.packets"],
    "core": ["core.cluster_build_ms", "core.run_ms", "core.sent_messages",
             "core.issued_chunks"],
    "collective": ["collective.chunk_payloads",
                   "collective.chunk_latency_p50_cycles"],
    "workload": ["workload.generate_ms", "workload.run_ms",
                 "workload.makespan_cycles", "workload.exposed_ratio"],
    "explore": ["explore.candidates", "explore.enumerate_ms",
                "explore.candidate_build_ms", "explore.candidate_run_ms"],
    "fault": ["fault.lost_messages", "fault.retries", "fault.packets_dropped"],
    "trace": [],
}


class EveryMetric(unittest.TestCase):
    def test_every_metric_is_printed_for_every_workload(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload, trace=0):
                code, last = bench("--workload", workload, "--seconds", "0")
                self.assertEqual(code, 0)
                self.assertTrue(last["correct"])
                self.assertEqual(last["failed"], 0)
                self.assertEqual(set(last["metrics"]), set(run.END_TO_END))
                for name, m in last["metrics"].items():
                    self.assertEqual(m["unit"], run.END_TO_END[name])
                    self.assertGreater(m["value"], 0, name)
            with self.subTest(workload=workload, trace=1):
                code, last = bench("--workload", workload, "--seconds", "0",
                                   "--trace", "1")
                self.assertEqual(code, 0)
                self.assertTrue(last["correct"])
                metrics = last["metrics"]
                for layer, names in run.PER_LAYER.items():
                    for name in names:
                        self.assertIn(name, metrics)
                        self.assertEqual(metrics[name]["unit"], names[name])
                    runs = layer in run.LAYERS_RUN[workload]
                    for name in WORK[layer]:
                        value = metrics[name]["value"]
                        if runs:
                            self.assertGreater(value, 0, name)
                        else:
                            self.assertEqual(value, 0, name)


class Refusals(unittest.TestCase):
    def test_exits_nonzero_without_the_simulator_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               "garnet_ar64", "--seed", "1", "--seconds", "1",
                               "--trace", "0"], capture_output=True, text=True,
                              cwd=bare)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")

    def test_compare_refuses_another_host(self):
        saved = os.path.join(ROOT, ".bench_build", "other-host.json")
        os.makedirs(os.path.dirname(saved), exist_ok=True)
        with open(saved, "w") as f:
            json.dump({"host": {"cpu": "another cpu", "nproc": 1, "compiler": "x",
                                "build_type": "Debug", "commit": "none",
                                "source": "0"},
                       "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}, f)
        code, _ = bench("--workload", "garnet_faulty64", "--seconds", "0",
                        "--compare", saved)
        os.remove(saved)
        self.assertEqual(code, 3)


if __name__ == "__main__":
    unittest.main()
