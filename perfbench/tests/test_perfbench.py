"""Self-tests of the repository benchmark. Run from the root of a checkout:

    python3 -m unittest discover -s perfbench/tests -v

They build the helper through run.py, then check that a short run prints every
metric BENCHMARK.json names with its unit, and that each correctness check
fires when it is fed a wrong answer. The short runs take about two minutes.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
os.chdir(ROOT)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def bench(*args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)


def setUpModule():
    os.makedirs(run.SCRATCH, exist_ok=True)
    run.build()


class ShortRun(unittest.TestCase):
    def check_result(self, proc, specs):
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(sorted(result["metrics"]), sorted(m["name"] for m in specs))
        for m in specs:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        provenance = json.loads(lines[-2])["provenance"]
        for key in ("seed", "nproc", "recommended_domain_count", "jobs", "ocaml", "transport",
                    "git_commit", "source_digest"):
            self.assertIn(key, provenance)
        return result

    def test_untraced_run_prints_every_end_to_end_metric(self):
        result = self.check_result(
            bench("--workload", "serve-udp", "--seed", "1", "--seconds", "1", "--trace", "0"),
            BENCHMARK["end_to_end"])
        for name, m in result["metrics"].items():
            self.assertGreater(m["value"], 0, name)

    def test_traced_run_prints_every_per_layer_metric(self):
        result = self.check_result(
            bench("--workload", "serve-udp", "--seed", "1", "--seconds", "1", "--trace", "1"),
            BENCHMARK["per_layer"])
        m = {k: v["value"] for k, v in result["metrics"].items()}
        attributed = sum(m[k] for k in ("analysis.analyze_s", "symex.exec_self_s", "symex.summarize_self_s",
                                        "refine.layers_s", "refine.qtype_s", "store.open_s"))
        self.assertAlmostEqual(attributed + m["pipeline.unattributed_s"], m["pipeline.verify_s"], places=9)
        self.assertGreaterEqual(m["pipeline.unattributed_s"], 0)


class ChecksFire(unittest.TestCase):
    def test_buggy_version_labelled_fixed_is_caught(self):
        code, res, _ = run.run_child([run.HELPER, "verify", "--engine", "1.0", "--label", "1.0-fixed"])
        self.assertEqual(code, 1)
        self.assertFalse(res["ok"])
        self.assertEqual((res["status"], res["expected"]), ("refuted", "proved"))

    def test_known_answers_follow_table2(self):
        for v in run.VERSIONS:
            code, res, _ = run.run_child([run.HELPER, "verify", "--engine", v])
            self.assertEqual(code, 0, v)
            self.assertEqual(res["expected"], "proved" if v.endswith("-fixed") else "refuted")

    def test_store_changed_verdict_is_caught(self):
        tally = run.Tally()
        steps = [{"engine": "3.0", "fingerprint": "aa"}, {"engine": "dev", "fingerprint": "bb"}]
        run.check_fingerprints(tally, steps, {"3.0": "aa", "dev": "cc"}, "chain")
        self.assertEqual((tally.attempted, tally.failed), (2, 1))

    def test_mutated_reply_bytes_and_buggy_engine_are_caught(self):
        code, res, _ = run.run_child([run.HELPER, "selfcheck"])
        self.assertEqual(code, 0, res)
        self.assertEqual(res["mutations_missed"], [])
        self.assertGreater(res["content_mutations"], 0)
        self.assertEqual(res["correct_replies_rejected"], 0)
        self.assertGreater(res["buggy_replies_caught"], 0)
        self.assertTrue(res["p99_refused_below_1000"])

    def test_stats_reconciliation(self):
        load = {"rcodes": {"NOERROR": 5, "FORMERR": 2}, "replies": 7, "stray": 0}

        def counters(**over):
            c = {"serve.answered": 6, "serve.formerr": 2, "serve.servfail": 0, "serve.dropped": 0,
                 "serve.rcode.NOERROR": 6, "serve.rcode.FORMERR": 2}
            c.update(over)
            return {"counters": c}

        tally = run.Tally()
        run.reconcile(tally, load, counters(), 1)
        self.assertEqual(tally.failed, 0)
        for wrong in (counters(**{"serve.rcode.NOERROR": 5, "serve.rcode.SERVFAIL": 1}),
                      counters(**{"serve.answered": 5, "serve.servfail": 1}),
                      counters(**{"serve.formerr": 3, "serve.rcode.FORMERR": 3})):
            tally = run.Tally()
            run.reconcile(tally, load, wrong, 1)
            self.assertGreater(tally.failed, 0, wrong)

    def test_percentile_needs_ten_samples_beyond(self):
        load = {"phases": [{"phase": "r200", "p99_ms": {"n": 999}}]}
        with self.assertRaises(run.BenchError):
            run.udp_pct(load, "r200", "p99_ms")


class OutsideACheckout(unittest.TestCase):
    def test_refuses_without_printing_a_result(self):
        bare = os.path.join(ROOT, run.SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify-cold", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
                              cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
