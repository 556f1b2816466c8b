"""Tests of the benchmark's own arithmetic and workload definitions.

Run from the root of the repository:
    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import metrics as M  # noqa: E402
import run  # noqa: E402


def cell(sweep="s", machine="Baseline", workload="W", cycles=100,
         num_sms=1, verified=True, timed_out=False, ipc=1.0, **stats):
    st = {"cycles": cycles, "thread_instructions": 10, "units": []}
    st.update(stats)
    return {"sweep": sweep, "machine": machine, "workload": workload,
            "size": "tiny", "num_sms": num_sms, "verified": verified,
            "timed_out": timed_out, "ipc": ipc,
            "excluded_from_means": False, "stats": st}


def span(sid, parent, start, end, name="x", tid=1, cell_id=0):
    return {"id": sid, "parent": parent, "start": start, "end": end,
            "name": name, "tid": tid, "cell": cell_id}


class SmCycles(unittest.TestCase):
    def test_totals_skip_frac_and_ns_per_stepped_cycle(self):
        cells = [cell(cycles=1000, num_sms=1),
                 cell(cycles=500, num_sms=16),
                 cell(cycles=250, num_sms=64)]
        total = sum(M.sm_cycles(c) for c in cells)
        self.assertEqual(total, 1000 + 8000 + 16000)
        self.assertAlmostEqual(M.skip_frac(total, 5000), 0.2)
        # 0.02 s of launch over 20000 stepped SM-cycles = 1000 ns.
        self.assertAlmostEqual(M.ns_per_stepped(0.02, total, 5000), 1000.0)
        self.assertEqual(M.ns_per_stepped(1.0, 100, 100), 0.0)
        self.assertEqual(M.skip_frac(0, 0), 0.0)

    def test_distinct_cells_key_on_resolved_config(self):
        doc = {"machines": [
            {"sweep": "a", "machine": "SWI", "config": {"k": 1}},
            {"sweep": "b", "machine": "SWI-full", "config": {"k": 1}},
            {"sweep": "b", "machine": "SWI-3way", "config": {"k": 2}}],
            "cells": [cell("a", "SWI"), cell("b", "SWI-full"),
                      cell("b", "SWI-3way"), cell("b", "SWI-full", "V")]}
        self.assertEqual(len(M.distinct_cells(doc)), 3)


class Tail(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        # 105 cells: p99 leaves 1 beyond, p90 leaves exactly 10.
        label, value = M.tail([float(i) for i in range(1, 106)])
        self.assertEqual((label, value), ("p90", 95.0))
        # 1000 cells: p99 leaves 10 beyond.
        label, value = M.tail([float(i) for i in range(1, 1001)])
        self.assertEqual((label, value), ("p99", 990.0))
        # 10000 cells: p99.9 leaves 10 beyond.
        self.assertEqual(M.tail(list(range(1, 10001)))[0], "p99.9")

    def test_too_few_samples_is_the_max(self):
        self.assertEqual(M.tail([3.0, 1.0, 2.0] * 5), ("max", 3.0))
        self.assertEqual(M.tail(list(range(50)))[0], "max")

    def test_nearest_rank(self):
        self.assertEqual(M.nearest_rank([1, 2, 3, 4], 50), (2, 2))
        self.assertEqual(M.nearest_rank([1, 2, 3, 4], 100), (4, 0))


class SelfTime(unittest.TestCase):
    def test_span_minus_children(self):
        spans = [span(1, 0, 0.0, 10.0, "runner.cell"),
                 span(2, 1, 1.0, 3.0, "core.launch"),
                 span(3, 1, 4.0, 8.0, "workloads.verify"),
                 span(4, 3, 5.0, 6.0, "inner")]
        st = M.self_times(spans)
        self.assertAlmostEqual(st[1], 4.0)
        self.assertAlmostEqual(st[2], 2.0)
        self.assertAlmostEqual(st[3], 3.0)
        self.assertAlmostEqual(st[4], 1.0)

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [span(1, 0, 0.0, 10.0),
                 span(2, 1, 2.0, 6.0), span(3, 1, 4.0, 7.0),
                 span(4, 1, 9.0, 12.0)]
        self.assertAlmostEqual(M.self_times(spans)[1], 10.0 - 5.0 - 1.0)

    def test_totals_by_name(self):
        spans = [span(1, 0, 0.0, 4.0, "runner.cell"),
                 span(2, 1, 0.0, 1.0, "core.launch"),
                 span(3, 0, 5.0, 7.0, "runner.cell", cell_id=1),
                 span(4, 3, 5.0, 6.5, "core.launch", cell_id=1)]
        by = M.self_time_by_name(spans)
        self.assertAlmostEqual(by["runner.cell"], 3.0 + 0.5)
        self.assertAlmostEqual(by["core.launch"], 2.5)


class Pool(unittest.TestCase):
    def test_busy_frac_and_tail_idle(self):
        cells = [span(1, 0, 0.0, 4.0, tid=1), span(2, 0, 0.0, 2.0, tid=2),
                 span(3, 0, 2.0, 3.0, tid=2)]
        # 7 busy seconds over 4 s x 2 workers.
        self.assertAlmostEqual(M.pool_busy_frac(cells, 4.0, 2), 7.0 / 8.0)
        # Worker 2 runs dry at 3 s, the last cell ends at 4 s.
        self.assertAlmostEqual(M.tail_idle_s(cells), 1.0)


class Failures(unittest.TestCase):
    def test_unverified_and_timed_out_cells_count(self):
        doc = {"cells": [cell(), cell(verified=False),
                         cell(timed_out=True), cell()]}
        failed = M.failed_cells(doc, 4, 0)
        self.assertEqual(failed, 2)
        self.assertAlmostEqual(M.fail_frac(failed, 4), 0.5)

    def test_missing_cells_and_nonzero_exit_count(self):
        doc = {"cells": [cell(), cell()]}
        self.assertEqual(M.failed_cells(doc, 5, 0), 3)
        self.assertEqual(M.failed_cells(doc, 2, 1), 2)
        self.assertEqual(M.failed_cells(None, 7, 0), 7)


class Digest(unittest.TestCase):
    def test_digest_sees_any_statistic(self):
        a = {"cells": [cell(l1_hits=3)]}
        b = {"cells": [cell(l1_hits=4)]}
        self.assertEqual(M.stats_digest(a), M.stats_digest(json.loads(
            json.dumps(a))))
        self.assertNotEqual(M.stats_digest(a), M.stats_digest(b))


class PaperGap(unittest.TestCase):
    def test_gap_against_reported_speedups(self):
        cells = []
        for sweep in ("fig7_regular", "fig7_irregular"):
            cells.append(cell(sweep, "Baseline", ipc=10.0))
            for m in ("SBI", "SWI", "SBI+SWI"):
                cells.append(cell(sweep, m, ipc=10.0))
        # No measured speedup: the gap is the mean reported speedup.
        want = (15 + 25 + 23 + 41 + 33 + 40) / 6.0
        self.assertAlmostEqual(M.paper_gap_pp({"cells": cells}), want)
        self.assertAlmostEqual(M.ipc_gmeans({"cells": cells})["SBI"], 10.0)


class WorkloadDefinitions(unittest.TestCase):
    def load(self, path):
        with open(path) as f:
            return json.load(f)

    def test_chip_banked_matches_scaling_spec(self):
        """chip_banked is fig_scaling_banked's set block verbatim,
        narrowed to SBI+SWI at 16, 32 and 64 SMs."""
        ours = self.load(os.path.join(HERE, "specs", "chip_banked.json"))
        ref = self.load(os.path.join(REPO, "bench", "specs",
                                     "scaling.json"))
        (sweep,) = ours["sweeps"]
        (banked,) = [s for s in ref["sweeps"]
                     if s["name"] == "fig_scaling_banked"]
        self.assertEqual(sweep["name"], banked["name"])
        self.assertEqual(sweep["set"], banked["set"])
        self.assertEqual(sweep["workloads"], banked["workloads"])
        self.assertEqual(sweep["size"], banked["size"])
        self.assertEqual(sweep["machines"], ["SBI+SWI"])
        self.assertIn("SBI+SWI", banked["machines"])
        self.assertEqual(sweep["sms"], [16, 32, 64])
        self.assertTrue(set(sweep["sms"]) <= set(banked["sms"]))

    def test_fig7_full_is_the_figure_7_spec(self):
        ours = self.load(os.path.join(HERE, "specs", "fig7_full.json"))
        ref = self.load(os.path.join(REPO, "bench", "specs", "fig7.json"))
        self.assertEqual(ours["sweeps"], ref["sweeps"])

    def test_figures_cached_is_every_figure_at_tiny_size(self):
        ours = self.load(os.path.join(HERE, "specs",
                                      "figures_cached.json"))
        sweeps, machines = [], []
        for fig in ("fig7", "fig8a", "fig8b", "fig9", "policy"):
            ref = self.load(os.path.join(REPO, "bench", "specs",
                                         fig + ".json"))
            machines += ref.get("machines", [])
            sweeps += [dict(s, size="tiny") for s in ref["sweeps"]]
        self.assertEqual(ours["sweeps"], sweeps)
        self.assertEqual(ours["machines"], machines)

    def test_every_workload_has_a_spec(self):
        for name in run.WORKLOADS:
            self.assertTrue(os.path.exists(os.path.join(HERE, "specs",
                                                        name + ".json")))


@unittest.skipUnless(os.environ.get("PERFBENCH_RUSAGE"),
                     "set PERFBENCH_RUSAGE to a perfbench-rusage binary")
class Rusage(unittest.TestCase):
    def test_peak_rss_is_the_commands_own(self):
        """A large benchmark process must not show in a child's peak
        RSS (Linux carries the peak across exec)."""
        ballast = b"x" * (64 << 20)  # noqa: F841 (held on purpose)
        run.Child.rusage = os.environ["PERFBENCH_RUSAGE"]
        with tempfile.TemporaryDirectory() as tmp:
            c = run.Child(["sh", "-c", "echo hi; exit 3"],
                          os.path.join(tmp, "log"))
        self.assertEqual(c.code, 3)
        self.assertEqual(c.text, "hi\n")
        self.assertGreater(c.wall, 0.0)
        self.assertLess(c.rss_mb, 32.0)


@unittest.skipUnless(os.environ.get("SIWI_RUN"),
                     "set SIWI_RUN to a siwi-run binary")
class SpecsValidate(unittest.TestCase):
    def test_dry_run(self):
        for name in run.WORKLOADS:
            subprocess.run([os.environ["SIWI_RUN"], "--spec",
                            os.path.join(HERE, "specs", name + ".json"),
                            "--dry-run"], check=True,
                           stdout=subprocess.DEVNULL)


if __name__ == "__main__":
    unittest.main()
