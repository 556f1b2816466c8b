#!/usr/bin/env python3
"""The repository benchmark: one workload, end to end or traced.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S
                                --trace 0|1

Run from the root of a checkout. The first run builds siwi-run,
perfbench-trace and perfbench-rusage from source into
$CARGO_TARGET_DIR (default .bench_build) with this directory's
CMakeLists.txt.

--trace 0 measures the user path: `siwi-run --spec specs/<NAME>.json
-j 4 --quiet --json ...` as a child process, repeated for about S
seconds, and reports every end-to-end metric. On figures_cached
every timed run is a warm re-run through a result cache filled once
beforehand. --trace 1 pairs an untraced run with a perfbench-trace
replay of the same cells and reports the per-layer metrics. Either
way the outputs are checked and the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. See
README.md here.

Exit codes: 0 all checks passed, 1 an output check failed (the
result line says correct: false), 2 usage or build error (no
result line).
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import metrics as M  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
    BENCH = json.load(f)
# Every workload is specs/<name>.json; these run through the cache.
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
CACHED = {"figures_cached"}
END_TO_END = [m["name"] for m in BENCH["end_to_end"]]
# A per-layer metric whose layer does no such work on a workload
# reads 0 there (README.md).
PER_LAYER = [m["name"] for m in BENCH["per_layer"]]
UNIT = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}

JOBS = min(4, os.cpu_count() or 1)
# Dry runs before every timed run and after the last; setup_s is
# their median, so it samples the whole measuring window, not one
# burst.
SETUP_PER_RUN = 20
CHIP_SIZES = (16, 32, 64)
FIG7_MACHINES = ("Baseline", "SBI", "SWI", "SBI+SWI", "Warp64")


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


class Child:
    """One finished child process: wall time, exit code, peak RSS,
    as perfbench-rusage measures them."""

    rusage = None  # the perfbench-rusage binary, set once built

    def __init__(self, argv, log_path):
        usage_path = log_path + ".rusage"
        with open(log_path, "w") as log:
            self.code = subprocess.call([Child.rusage, usage_path] + argv,
                                        stdout=log,
                                        stderr=subprocess.STDOUT)
        if not os.path.exists(usage_path):
            die("perfbench-rusage could not run " + argv[0])
        with open(usage_path) as f:
            wall, rss_kb = f.read().split()
        self.wall = float(wall)
        self.rss_mb = int(rss_kb) / 1024.0
        with open(log_path) as f:
            self.text = f.read()


def load_doc(path):
    """The results document at @p path, or None when none was written."""
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def build(build_root):
    bdir = os.path.join(build_root, "perfbench")
    os.makedirs(build_root, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", bdir, "-j", str(JOBS),
                  "--target", "siwi-run", "perfbench-trace",
                  "perfbench-rusage"])
    log_path = os.path.join(build_root, "perfbench-build.log")
    with open(log_path, "w") as log:
        for argv in steps:
            if subprocess.call(argv, stdout=log,
                               stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                die("build failed: " + " ".join(argv))
    Child.rusage = os.path.join(bdir, "perfbench-rusage")
    return (os.path.join(bdir, "siwi", "siwi-run"),
            os.path.join(bdir, "perfbench-trace"))


class Bench:
    def __init__(self, workload, build_root, siwi_run, tracer):
        self.cached = workload in CACHED
        self.spec = os.path.join(HERE, "specs", workload + ".json")
        self.siwi_run = siwi_run
        self.tracer = tracer
        self.tmp = os.path.join(build_root, "perfbench-tmp",
                                "%s-%d" % (workload, os.getpid()))
        self.out = os.path.join(build_root, "perfbench-out", workload)
        self.expected = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digest = None
        self.n = 0

    def path(self, name):
        return os.path.join(self.tmp, name)

    def problem(self, msg):
        if msg not in self.problems:
            self.problems.append(msg)
            print("CHECK FAILED: " + msg, file=sys.stderr)

    def dry_run(self):
        """Validate the spec; returns the wall time of the dry run."""
        c = Child([self.siwi_run, "--spec", self.spec, "--dry-run"],
                  self.path("dry.log"))
        m = re.search(r"dry run: (\d+) cell\(s\)", c.text)
        if c.code != 0 or not m:
            sys.stderr.write(c.text)
            die("spec %s does not validate" % self.spec)
        self.expected = int(m.group(1))
        return c.wall

    def fresh_cache(self):
        self.n += 1
        d = self.path("cache-%d" % self.n)
        shutil.rmtree(d, ignore_errors=True)
        return d

    def account(self, doc, code, what):
        """Count one run's cells and check its outputs."""
        self.attempted += self.expected
        bad = M.failed_cells(doc, self.expected, code)
        self.failed += bad
        if bad:
            self.problem("%s: %d of %d cell(s) failed (exit %d)"
                         % (what, bad, self.expected, code))
        if doc is None:
            return
        d = M.stats_digest(doc)
        if self.digest is None:
            self.digest = d
        elif d != self.digest:
            self.problem("%s: statistics digest %s differs from %s"
                         % (what, d[:16], self.digest[:16]))

    def check_hits(self, hits, want, what):
        if hits != want:
            self.problem("%s: %s cache hit(s), expected %d"
                         % (what, hits, want))

    def untraced(self, cache_dir=None, what="siwi-run"):
        out = self.path("results.json")
        if os.path.exists(out):
            os.remove(out)
        argv = [self.siwi_run, "--spec", self.spec, "-j", str(JOBS),
                "--quiet", "--json", out]
        if cache_dir:
            argv += ["--cache", cache_dir]
        c = Child(argv, self.path("run.log"))
        c.doc = load_doc(out)
        m = re.search(r"(\d+) hit\(s\), (\d+) computed", c.text)
        c.hits = int(m.group(1)) if m else None
        self.account(c.doc, c.code, what)
        return c

    def expected_hits(self, doc):
        return self.expected - len(M.distinct_cells(doc))

    # ---------------------------------------------------------------
    # --trace 0: end-to-end metrics of the user path
    # ---------------------------------------------------------------
    def end_to_end(self, seconds):
        """Repeated runs of the selection. With the result cache, the
        cache is filled once first and every timed run is a warm
        re-run: all hits, read back, checked and serialized."""
        self.dry_run()
        setup, runs = [], []
        work = None
        cdir = None
        if self.cached:
            cdir = self.fresh_cache()
            fill = self.untraced(cdir, "cache fill")
            if fill.doc is None:
                die("the cache fill wrote no results document")
            self.check_hits(fill.hits, self.expected_hits(fill.doc),
                            "cache fill")
        t0 = time.perf_counter()
        while True:
            setup += [self.dry_run() for _ in range(SETUP_PER_RUN)]
            c = self.untraced(cdir, "run %d" % (len(runs) + 1))
            if self.cached:
                self.check_hits(c.hits, self.expected,
                                "warm run %d" % (len(runs) + 1))
            runs.append(c)
            if work is None and c.doc is not None:
                work = M.distinct_cells(c.doc)
            elapsed = time.perf_counter() - t0
            if elapsed + elapsed / len(runs) > seconds:
                break
        setup += [self.dry_run() for _ in range(SETUP_PER_RUN)]
        if work is None:
            die("no run produced a results document")
        wall = statistics.median([c.wall for c in runs])
        smc = sum(M.sm_cycles(c) for c in work)
        insts = sum(c["stats"]["thread_instructions"] for c in work)
        measured = {
            "wall_s": wall,
            "sm_cycles_per_s": smc / wall,
            "thread_insts_per_s": insts / wall,
            "peak_rss_mb": statistics.median(c.rss_mb for c in runs),
            "setup_s": statistics.median(setup),
        }
        metrics = {k: measured[k] for k in END_TO_END}
        info = [("runs", len(runs)), ("jobs", JOBS),
                ("setup samples", len(setup)),
                ("cells per run", self.expected),
                ("distinct cells per run", len(work)),
                ("fail_frac", M.fail_frac(self.failed, self.attempted))]
        if self.cached:
            info += [("cache fill s", fill.wall),
                     ("cache hits in the fill", fill.hits)]
        return metrics, info

    # ---------------------------------------------------------------
    # --trace 1: per-layer metrics from a traced replay
    # ---------------------------------------------------------------
    def traced(self, cdir, name):
        """A perfbench-trace replay; its spans go to <name>.json."""
        out = self.path("traced.json")
        trace_path = os.path.join(self.out, name + ".json")
        argv = [self.tracer, "--spec", self.spec, "-j", str(JOBS),
                "--json", out, "--trace-out", trace_path]
        if cdir:
            argv += ["--cache", cdir]
        c = Child(argv, self.path("trace.log"))
        c.doc = load_doc(out)
        self.account(c.doc, c.code, name)
        if c.code != 0 or c.doc is None:
            sys.stderr.write(c.text)
            die(name + " failed")
        with open(trace_path) as f:
            c.trace = json.load(f)
        c.spans = M.spans_from_trace(c.trace)
        c.cells = [s for s in c.spans if s["name"] == "runner.cell"]
        c.hits = sum(1 for s in c.cells if s["cached"])
        return c

    def layer_pass(self):
        """One untraced run and one traced replay; per-layer metrics.

        With the result cache, each of the two fills a fresh cache and
        is then re-run warm on it, as the timed runs are. The fill
        gives every layer's metrics but three: serve.key_s,
        serve.lookup_s and runner.serialize_s come from the warm
        replay, the path that wall_s times."""
        ucache = self.fresh_cache() if self.cached else None
        u = self.untraced(ucache, "untraced run")
        if u.doc is None:
            die("untraced run wrote no results document")
        doc = u.doc
        work = M.distinct_cells(doc)
        untraced_wall = u.wall
        tcache = self.fresh_cache() if self.cached else None
        t = self.traced(tcache, "trace")
        traced_wall = t.wall
        spans, cells = t.spans, t.cells
        by = M.self_time_by_name(spans)
        cache_bytes = 0
        if self.cached:
            want = self.expected_hits(doc)
            self.check_hits(u.hits, want, "untraced fill")
            self.check_hits(t.hits, want, "traced fill")
            cache_bytes = M.dir_bytes(ucache)
            w = self.untraced(ucache, "untraced warm run")
            tw = self.traced(tcache, "trace-warm")
            self.check_hits(w.hits, self.expected, "untraced warm run")
            self.check_hits(tw.hits, self.expected, "traced warm run")
            untraced_wall += w.wall
            traced_wall += tw.wall
            for k, v in M.self_time_by_name(tw.spans).items():
                by["warm " + k] = v
            for d in (ucache, tcache):
                shutil.rmtree(d, ignore_errors=True)
        timed = "warm " if self.cached else ""

        # Host time per stepped SM-cycle, over the cells the traced
        # run simulated, in total and by chip size.
        launch = {}
        for s in spans:
            if s["name"] == "core.launch":
                launch[s["cell"]] = launch.get(s["cell"], 0.0) + (
                    s["end"] - s["start"])
        tdoc = t.doc["cells"]
        groups = {}
        for s in cells:
            if s["skipped_sm_cycles"] is None:
                continue
            c = tdoc[s["cell"]]
            for g in (0, c["num_sms"]):
                acc = groups.setdefault(g, [0.0, 0, 0])
                acc[0] += launch.get(s["cell"], 0.0)
                acc[1] += M.sm_cycles(c)
                acc[2] += s["skipped_sm_cycles"]
        total = groups.get(0, [0.0, 0, 0])

        durs = [s["end"] - s["start"] for s in cells]
        tail_label, tail_value = M.tail(durs)
        other = t.trace["otherData"]
        gm = M.ipc_gmeans(doc)
        m = M.count_metrics(work)
        m.update({
            "core.launch_s": by.get("core.launch", 0.0),
            "core.gpu_build_s": by.get("core.gpu_build", 0.0),
            "core.skipped_sm_cycles": total[2],
            "core.skip_frac": M.skip_frac(total[1], total[2]),
            "core.ns_per_stepped_sm_cycle": M.ns_per_stepped(*total),
            "core.paper_gap_pp": M.paper_gap_pp(doc),
            "workloads.instance_s": by.get("workloads.instance", 0.0),
            "cfg.compile_s": by.get("cfg.compile", 0.0),
            "workloads.init_s": by.get("workloads.init", 0.0),
            "workloads.verify_s": by.get("workloads.verify", 0.0),
            "runner.cell_s_p50": statistics.median(durs),
            "runner.cell_s_tail": tail_value,
            "runner.cell_s_tail_pct":
                100.0 if tail_label == "max" else float(tail_label[1:]),
            "runner.pool_busy_frac": M.pool_busy_frac(
                cells, other["cell_phase_s"], other["jobs"]),
            "runner.tail_idle_s": M.tail_idle_s(cells),
            "runner.serialize_s": by[timed + "runner.serialize"],
            "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
            "serve.key_s": by.get(timed + "serve.key", 0.0),
            "serve.lookup_s": by.get(timed + "serve.lookup", 0.0),
            "serve.store_s": by.get("serve.store", 0.0),
            "serve.cache_bytes": cache_bytes,
            "serve.hit_frac": t.hits / len(cells),
            "serve.fill_s": u.wall if self.cached else 0.0,
        })
        for n in CHIP_SIZES:
            m["core.ns_per_stepped_sm_cycle.%dsm" % n] = M.ns_per_stepped(
                *groups.get(n, [0.0, 0, 0]))
        for name in FIG7_MACHINES:
            m["core.ipc_gmean.%s" % name.replace("+", "_")] = gm.get(name, 0.0)
        return m, by, tail_label, untraced_wall, traced_wall

    def per_layer(self, seconds):
        self.dry_run()
        passes = []
        t0 = time.perf_counter()
        while True:
            passes.append(self.layer_pass())
            elapsed = time.perf_counter() - t0
            if elapsed + elapsed / len(passes) > seconds:
                break
        metrics = {k: statistics.median([p[0][k] for p in passes])
                   for k in PER_LAYER}
        print("self time per span (median of %d traced pass(es)):"
              % len(passes))
        for span in sorted({n for p in passes for n in p[1]}):
            print("  %-22s %12.6f s" % (span, statistics.median(
                [p[1].get(span, 0.0) for p in passes])))
        info = [("passes", len(passes)), ("jobs", JOBS),
                ("runner.cell_s_tail is", passes[0][2]),
                ("untraced wall s",
                 statistics.median([p[3] for p in passes])),
                ("traced wall s",
                 statistics.median([p[4] for p in passes])),
                ("spans written to", os.path.join(self.out, "trace.json")
                 + (" and trace-warm.json" if self.cached else "")),
                ("fail_frac", M.fail_frac(self.failed, self.attempted))]
        return metrics, info


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                 or ".bench_build")
    siwi_run, tracer = build(build_root)
    b = Bench(args.workload, build_root, siwi_run, tracer)
    os.makedirs(b.tmp, exist_ok=True)
    os.makedirs(b.out, exist_ok=True)
    try:
        if args.trace:
            metrics, info = b.per_layer(args.seconds)
        else:
            metrics, info = b.end_to_end(args.seconds)
    finally:
        shutil.rmtree(b.tmp, ignore_errors=True)

    print("workload %s, seed %d (recorded only: the spec fixes every "
          "simulator input)" % (args.workload, args.seed))
    for k, v in info:
        print("  %-24s %s" % (k, v))
    print("  %-24s %s" % ("stats digest sha256", b.digest))
    for k, v in metrics.items():
        print("  %-38s %18.6f %s" % (k, v, UNIT[k]))
    correct = not b.problems
    for p in b.problems:
        print("  CHECK FAILED: " + p)
    print(json.dumps({
        "correct": correct,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": {k: {"value": v, "unit": UNIT[k]}
                    for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
