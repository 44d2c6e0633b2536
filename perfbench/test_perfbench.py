#!/usr/bin/env python3
"""The benchmark's own tests: smoke mode, seed determinism, and the
fingerprint refusal of stats.py compare.

    python3 perfbench/test_perfbench.py

Builds the benchmark on first use (see run.py); every run here is at the
tiny size with a fixed unit count, so the whole file takes well under a
minute once built.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

EXACT_COUNTS = {
    "online_capture": ["mofka.events", "dtr.transitions",
                       "dtr.journal_frames"],
    "query_mix": ["query.cache_lookups"],
    "scheduler_waves": ["dtr.transitions", "dtr.journal_frames"],
}


def tiny(workload, seed, traced=True):
    return run.run(BINARY, workload, seed, 1, traced, units=2, size="tiny")


def value(result, name):
    return result["metrics"][name]["value"]


class Smoke(unittest.TestCase):
    def test_every_metric_printed_with_its_unit(self):
        self.assertTrue(run.smoke(BINARY))

    def test_spec_is_well_formed(self):
        spec = run.spec()
        self.assertEqual(spec["command"], ["python3", "perfbench/run.py"])
        names = [m["name"] for m in spec["end_to_end"]]
        self.assertIn("setup_s", names)
        self.assertEqual(len(names), len(set(names)))
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)


class Determinism(unittest.TestCase):
    def test_same_seed_same_queries_and_counts(self):
        for workload, counts in EXACT_COUNTS.items():
            with self.subTest(workload=workload):
                _, d1, r1 = tiny(workload, 7)
                _, d2, r2 = tiny(workload, 7)
                self.assertTrue(r1["correct"] and r2["correct"])
                self.assertEqual(d1.get("query_sequence"),
                                 d2.get("query_sequence"))
                for name in counts:
                    self.assertGreater(value(r1, name), 0, name)
                    self.assertEqual(value(r1, name), value(r2, name), name)

    def test_other_seed_other_queries(self):
        for workload in ("online_capture", "query_mix"):
            with self.subTest(workload=workload):
                _, d1, _ = tiny(workload, 7)
                _, d2, _ = tiny(workload, 8)
                self.assertIsNotNone(d1["query_sequence"])
                self.assertNotEqual(d1["query_sequence"],
                                    d2["query_sequence"])


class Compare(unittest.TestCase):
    def test_refuses_other_fingerprints(self):
        fingerprint, detail, result = tiny("scheduler_waves", 1, traced=False)
        record = {"fingerprint": fingerprint, "detail": detail,
                  "result": result}
        other = dict(record, fingerprint=dict(fingerprint, nproc=-1))
        with tempfile.TemporaryDirectory() as tmp:
            a, b = Path(tmp, "a.jsonl"), Path(tmp, "b.jsonl")
            a.write_text(json.dumps(record) + "\n")
            b.write_text(json.dumps(other) + "\n")
            stats = [sys.executable, str(HERE / "stats.py"), "compare"]
            same = subprocess.run(stats + [str(a), str(a)],
                                  capture_output=True)
            self.assertEqual(same.returncode, 0, same.stderr)
            differ = subprocess.run(stats + [str(a), str(b)],
                                    capture_output=True)
            self.assertEqual(differ.returncode, 2)


if __name__ == "__main__":
    BINARY = run.build()
    unittest.main()
