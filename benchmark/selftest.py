#!/usr/bin/env python3
"""Self-tests for the benchmark's references, parsers and failure count.

    python3 benchmark/selftest.py

Needs no build: the inputs are tiny hand-solved cases and verb outputs
written out in the CLI's formats.
"""

import json
import os
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


class Closure(unittest.TestCase):
    def test_three_chain(self):
        want = {(7, 3), (7, 5), (3, 5)}
        self.assertEqual(reference.chain_closure([7, 3, 5]), want)
        self.assertEqual(reference.closure([(7, 3), (3, 5)]), want)
        self.assertEqual(reference.closure_digest([(7, 3), (3, 5)]), reference.digest(want))

    def test_digest_sees_one_changed_tuple(self):
        self.assertNotEqual(reference.digest({(1, 2), (1, 3)}), reference.digest({(1, 2), (1, 4)}))

    def test_cycle_rejected(self):
        with self.assertRaises(ValueError):
            reference.closure([(1, 2), (2, 1)])


class Win(unittest.TestCase):
    def test_three_cycle_is_all_drawn(self):
        self.assertEqual(reference.retrograde([(1, 2), (2, 3), (3, 1)]), (set(), {1, 2, 3}))

    def test_four_node_game(self):
        # 4 is stuck and loses; 2 moves to 4 and wins; 3 can only move to
        # the winner 2 and loses; 1 wins by moving to 3.
        won, drawn = reference.retrograde([(1, 2), (1, 3), (2, 4), (3, 2)])
        self.assertEqual((won, drawn), ({1, 2}, set()))


class Parsers(unittest.TestCase):
    LISTING = ("move(1, 2)\nmove(2, 3)\nmove(3, 1)\nmove(4, 5)\n"
               "win(4)\nundef: win(1)\nundef: win(2)\nundef: win(3)\n")
    DUMP = "e(1, 2). e(2, 3). t(1, 2). t(1, 3). t(2,\n3).\n\n"

    def test_run_listing_with_undefined(self):
        edges = [(1, 2), (2, 3), (3, 1), (4, 5)]
        self.assertEqual(reference.check(reference.win_expect(edges), self.LISTING), 4)

    def test_stratified_dump_with_wrapped_fact(self):
        true, undef = reference.parse_run(self.DUMP)
        self.assertEqual(undef, set())
        self.assertIn(("t", (2, 3)), true)
        self.assertEqual(len(true), 5)

    def test_run_garbage_rejected(self):
        with self.assertRaises(ValueError):
            reference.parse_run("t(1, 2)\nerror: fuel exhausted\n")

    def test_alg_exact_and_three_valued(self):
        text = ("move = {[1, 2], [2, 3], [3, 1], [4, 5]}\n"
                "win = [certain {4}, possible {1, 2, 3, 4}]\n"
                "query = [certain {4}, possible {1, 2, 3, 4}]\n")
        edges = {(1, 2), (2, 3), (3, 1), (4, 5)}
        expect = reference.alg_expect({"move": edges}, {"win": reference.retrograde(edges)}, "win")
        self.assertEqual(reference.check(expect, text), 4)

    def test_alg_empty_set(self):
        self.assertEqual(reference.parse_alg("s = {}\n"), {"s": (set(), set())})


class FailureCount(unittest.TestCase):
    def expect(self):
        return reference.datalog_expect({"e": {(1, 2), (2, 3)},
                                         "t": reference.closure([(1, 2), (2, 3)])})

    def test_corrupted_output_counts_as_failure(self):
        good = "e(1, 2)\ne(2, 3)\nt(1, 2)\nt(1, 3)\nt(2, 3)\n"
        tally = run.Tally()
        self.assertEqual(tally.verify("good", lambda: run.verb_ok(0, "", self.expect(), good)), 3)
        corrupt = good.replace("t(1, 3)", "t(1, 4)")
        self.assertEqual(tally.verify("corrupt", lambda: run.verb_ok(0, "", self.expect(), corrupt)), 0)
        self.assertEqual((tally.attempted, tally.failed), (2, 1))

    def test_nonzero_exit_counts_as_failure(self):
        tally = run.Tally()
        tally.verify("crash", lambda: run.verb_ok(3, "error: fuel exhausted", self.expect(), ""))
        self.assertEqual((tally.attempted, tally.failed), (1, 1))


def events(spans):
    """Obs span events for (sid, parent, path, start ms, duration ms) rows."""
    out = []
    for sid, parent, path, at, ms in spans:
        out.append({"ev": "span_begin", "span": path, "sid": sid, "parent": parent,
                    "at": at / 1000})
        out.append({"ev": "span_end", "span": path, "sid": sid, "ms": ms, "at": (at + ms) / 1000})
    return out


class Attribution(unittest.TestCase):
    VALID_JOB = [(1, 0, "job", 0, 100), (2, 1, "job > parser", 0, 1),
                 (3, 1, "job > run.valid", 1, 90), (4, 3, "job > run.valid > ground", 1, 60),
                 (5, 3, "job > run.valid > valid", 61, 20),
                 (6, 5, "job > run.valid > valid > round 1", 61, 20),
                 (7, 1, "job > render", 91, 8)]

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.work, run.WORK = run.WORK, self.tmp.name

    def tearDown(self):
        run.WORK = self.work
        self.tmp.cleanup()

    def test_self_time_per_layer_and_coverage(self):
        tally = run.Tally()
        rec = {"job": "j", "events": events(self.VALID_JOB),
               "alloc_words": {"job": 100, "job > run.valid": 70, "job > run.valid > ground": 50}}
        m, _ = run.layers([rec], 100.0, tally, top=None)
        # run.valid's own 10 ms is Valid.solve building its interpretation.
        self.assertEqual((m["grounder.ms"], m["valid.ms"], m["render.ms"]), (60, 30, 8))
        self.assertAlmostEqual(m["trace.coverage_min"], 0.99)
        self.assertEqual(m["grounder.alloc_mw"] * 1e6, 50)
        self.assertEqual((tally.attempted, tally.failed), (1, 0))

    def test_low_coverage_counts_as_failure(self):
        tally = run.Tally()
        rec = {"job": "j", "events": events([(1, 0, "job", 0, 100), (2, 1, "job > render", 0, 50)])}
        m, _ = run.layers([rec], 100.0, tally, top=None)
        self.assertEqual(m["trace.coverage_min"], 0.5)
        self.assertEqual((tally.attempted, tally.failed), (1, 1))

    def test_query_solve_is_the_query_layer(self):
        spans = run.span_tree(events([(1, 0, "job", 0, 10), (2, 1, "job > rec_eval", 0, 4),
                                      (3, 1, "job > rec_eval.query", 4, 6),
                                      (4, 3, "job > rec_eval.query > rec_eval", 4, 5),
                                      (5, 4, "job > rec_eval.query > rec_eval > planner", 4, 1)]))
        self.assertEqual([s["layer"] for s in spans],
                         [None, "rec_eval.solve", "rec_eval.query", "rec_eval.query", "planner"])


class UpdateCheck(unittest.TestCase):
    def test_failed_operation_verifies_no_tuples(self):
        rung = {"n": 2, "initial": [(1, 2), (2, 3)], "stream": [("-", [(2, 3)])]}
        count, digest = reference.closure_digest([(1, 2)])
        ops = [{"rung": 2, "batch": 0, "session": "stratified", "count": count,
                "digest": digest, "undef": 0},
               {"rung": 2, "batch": 0, "session": "valid", "count": count + 2,
                "digest": digest, "undef": 0}]
        tally = run.Tally()
        self.assertEqual(run.verify_update([rung], 1, ops, (0, ""), tally), [1, 0])
        self.assertEqual((tally.attempted, tally.failed), (2, 1))


class Inputs(unittest.TestCase):
    def test_same_seed_same_stream(self):
        a = workloads.update_stream(5, 32, 40)
        self.assertEqual(a, workloads.update_stream(5, 32, 40))
        self.assertNotEqual(a, workloads.update_stream(6, 32, 40))

    def test_same_seed_same_inputs(self):
        for build in list(workloads.BATCH.values()) + [workloads.update_mix]:
            inputs, _ = build(3, "w")
            self.assertEqual(inputs, build(3, "w")[0])
            self.assertNotEqual(inputs, build(4, "w")[0])

    def test_update_mix_proportions(self):
        _, _, stream = workloads.update_stream(1, 32, 200)
        self.assertEqual(sum(sign == "+" for sign, _ in stream), 120)
        self.assertEqual([len(b) for _, b in stream[:10]], [1] * 9 + [16])

    def test_metrics_match_benchmark_json(self):
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], run.E2E)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], run.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), run.WORKLOADS)

    def test_host_scaling(self):
        # A job measured while the calibration ran twice its reference time.
        self.assertEqual(run.host_scaled(10.0, 2 * run.CALIBRATION_REF_MS,
                                         run.CALIBRATION_REF_MS), 5.0)

    def test_kernel_scaling(self):
        # A host twice as slow for the last rounds: each round is scaled
        # by the median kernel time of its window.
        n = 4 * run.KERNEL_WINDOW
        cal = [run.KERNEL_REF_MS] * n + [2 * run.KERNEL_REF_MS] * n
        self.assertEqual(run.kernel_scaled([(0, 10.0), (2 * n - 1, 10.0)], cal), [10.0, 5.0])

    def test_scale_fit(self):
        self.assertAlmostEqual(run.slope([(10, 1.0), (100, 100.0), (1000, 10000.0)]), 2.0)


if __name__ == "__main__":
    unittest.main()
