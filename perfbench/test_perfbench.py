#!/usr/bin/env python3
"""Self-tests of the benchmark: determinism of counts and digests.

    python3 perfbench/test_perfbench.py

Runs every workload in tiny mode twice with the same seed and asserts that the
outcome digest and every count repeat exactly. It also asserts that
fanout_parallel (workers=2) produces the same digest as a workers=1 run, and
that a run passes the correctness gate.
"""
import json
import os
import subprocess
import sys
import unittest

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
SEED = 5


def run(workload, trace=0, workers=0):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    if workers:
        cmd += ["--workers", str(workers)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


# Counts that must repeat exactly between two runs of one seed.
COUNT_KEYS = ("digest", "ops", "setup_join_failures", "packets", "rsa_private",
              "rsa_public", "failed_by_kind", "sent_msgs", "sent_bytes", "gate")
SIM_METRICS = ("ctrl_kb_per_op",)
# Per-layer counts and simulated-time metrics that must repeat exactly.
TRACED_COUNTS = ("crypto.rsa_private_ops", "crypto.rsa_public_ops", "net.events",
                 "net.deliveries", "lkh.rekey_bytes", "mykil.join_sim_ms_p50",
                 "mykil.rejoin_sim_ms_p99", "mykil.rekey_sim_ms_p99",
                 "mykil.packet_misses", "mykil.loss_misses", "mykil.crash_misses",
                 "mykil.takeovers")


class Determinism(unittest.TestCase):
    def check_repeats(self, workload):
        info_a, res_a = run(workload)
        info_b, res_b = run(workload)
        self.assertTrue(res_a["correct"], info_a["gate"])
        self.assertEqual(info_a["setup_join_failures"], 0)
        self.assertGreaterEqual(res_a["attempted"], 1)
        for key in COUNT_KEYS:
            self.assertEqual(info_a[key], info_b[key], key)
        self.assertEqual(res_a["attempted"], res_b["attempted"])
        self.assertEqual(res_a["failed"], res_b["failed"])
        for key in SIM_METRICS:
            self.assertEqual(res_a["metrics"][key], res_b["metrics"][key], key)

    def test_churn_handoff_repeats(self):
        self.check_repeats("churn_handoff")

    def test_data_fanout_repeats(self):
        self.check_repeats("data_fanout")

    def test_data_fanout_delivers_everything(self):
        _, res = run("data_fanout")
        self.assertEqual(res["failed"], 0)

    def test_fanout_parallel_matches_sequential(self):
        parallel, res = run("fanout_parallel")
        sequential, _ = run("fanout_parallel", workers=1)
        self.assertEqual(parallel["workers"], 2)
        self.assertTrue(res["correct"], parallel["gate"])
        self.assertEqual(parallel["digest"], sequential["digest"])

    def test_traced_run_reports_per_layer_metrics(self):
        info_a, res_a = run("churn_handoff", trace=1)
        info_b, res_b = run("churn_handoff", trace=1)
        path = os.path.join(os.path.dirname(os.path.dirname(RUN)), "BENCHMARK.json")
        with open(path) as f:
            names = {m["name"] for m in json.load(f)["per_layer"]}
        self.assertEqual(names, set(res_a["metrics"]))
        self.assertEqual(info_a["digest"], info_b["digest"])
        for key in TRACED_COUNTS:
            self.assertEqual(res_a["metrics"][key], res_b["metrics"][key], key)
        # The traced run measures the same work as the untraced one.
        info_u, untraced = run("churn_handoff")
        self.assertEqual(info_a["digest"], info_u["digest"])
        self.assertEqual(res_a["attempted"], untraced["attempted"])
        self.assertEqual(res_a["failed"], untraced["failed"])


if __name__ == "__main__":
    unittest.main()
