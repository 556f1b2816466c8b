"""Arithmetic of the repository benchmark.

Pure functions over results documents (the JSON `siwi-run --json`
writes), span lists (the Chrome trace `perfbench-trace` writes) and
timing samples. run.py does the I/O; test_perfbench.py checks these
functions on fixed synthetic inputs.
"""

import hashlib
import json
import math
import os
import statistics

# Figure 7 geomean speedups over Baseline as the paper reports them,
# in percent, TMD1/TMD2 excluded (the header fig7_performance prints).
PAPER_FIG7_SPEEDUP_PCT = {
    "fig7_regular": {"SBI": 15.0, "SWI": 25.0, "SBI+SWI": 23.0},
    "fig7_irregular": {"SBI": 41.0, "SWI": 33.0, "SBI+SWI": 40.0},
}

# Percentiles tried for a tail, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
TAIL_MIN_BEYOND = 10


def quartile_spread(values):
    """(Q3 - Q1) / median, quartiles as statistics.quantiles gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def nearest_rank(sorted_values, pct):
    """Nearest-rank percentile and the number of samples beyond it."""
    n = len(sorted_values)
    # The epsilon keeps 99.9% of 10000 at rank 9990, not 9991.
    rank = max(1, math.ceil(pct * n / 100.0 - 1e-9))
    return sorted_values[rank - 1], n - rank


def tail(values):
    """The highest percentile that leaves at least ten samples beyond it.

    Returns (label, value). When even the 90th percentile leaves fewer
    than ten samples beyond it the tail is the maximum, labelled "max".
    """
    s = sorted(values)
    for pct in TAIL_PERCENTILES:
        value, beyond = nearest_rank(s, pct)
        if beyond >= TAIL_MIN_BEYOND:
            return "p%g" % pct, value
    return "max", s[-1]


def self_times(spans):
    """Self time of each span: its duration minus the part of its
    interval that its children cover. Returns {span id: seconds}.

    A span is a dict with "id", "parent" (0 for none), "start" and
    "end" in seconds.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cur_start = cur_end = None
        kids = sorted(children.get(s["id"], []), key=lambda k: k["start"])
        for k in kids:
            a, b = max(k["start"], s["start"]), min(k["end"], s["end"])
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def self_time_by_name(spans):
    """Total self time per span name, in seconds."""
    st = self_times(spans)
    out = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + st[s["id"]]
    return out


def spans_from_trace(trace):
    """Spans of a Chrome trace document as run.py's span dicts."""
    out = []
    for e in trace["traceEvents"]:
        a = e["args"]
        out.append({
            "name": e["name"], "id": a["span"], "parent": a["parent"],
            "cell": a["cell"], "tid": e["tid"],
            "start": e["ts"] * 1e-6, "end": (e["ts"] + e["dur"]) * 1e-6,
            "skipped_sm_cycles": a.get("skipped_sm_cycles"),
            "cached": a.get("cached", False),
        })
    return out


def cell_key(doc, cell):
    """What a cell is a pure function of: its resolved chip config,
    workload and size (the fields the result-cache key hashes)."""
    cfg = None
    for m in doc["machines"]:
        if m["sweep"] == cell["sweep"] and m["machine"] == cell["machine"]:
            cfg = m["config"]
            break
    return json.dumps([cfg, cell["workload"], cell["size"]], sort_keys=True)


def distinct_cells(doc):
    """One cell per distinct key, first occurrence in canonical order:
    the cells a run with an empty result cache simulates."""
    seen = set()
    out = []
    for c in doc["cells"]:
        k = cell_key(doc, c)
        if k not in seen:
            seen.add(k)
            out.append(c)
    return out


def dir_bytes(path):
    """Total size of the files under @p path."""
    return sum(os.path.getsize(os.path.join(root, f))
               for root, _, files in os.walk(path) for f in files)


def sm_cycles(cell):
    """Simulated SM-cycles of one cell: chip cycles times SM count."""
    return cell["stats"]["cycles"] * cell["num_sms"]


def stats_digest(doc):
    """SHA-256 of the cells array (identity, verdicts and every
    simulated statistic), canonically serialized."""
    text = json.dumps(doc["cells"], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def failed_cells(doc, expected, exit_code):
    """Cells of one run that count as failed: unverified, timed out or
    missing. A run that exits nonzero fails all its expected cells."""
    if exit_code != 0 or doc is None:
        return expected
    bad = sum(1 for c in doc["cells"]
              if not c["verified"] or c["timed_out"])
    return bad + max(0, expected - len(doc["cells"]))


def fail_frac(failed, attempted):
    return failed / attempted if attempted else 1.0


def skip_frac(total_sm_cycles, skipped):
    return skipped / total_sm_cycles if total_sm_cycles else 0.0


def ns_per_stepped(launch_s, total_sm_cycles, skipped):
    stepped = total_sm_cycles - skipped
    return launch_s * 1e9 / stepped if stepped > 0 else 0.0


def geomean(values):
    if not values or min(values) <= 0:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def ipc_gmeans(doc):
    """Geomean IPC per machine label over every cell that counts
    towards the paper's means."""
    per = {}
    for c in doc["cells"]:
        if not c["excluded_from_means"]:
            per.setdefault(c["machine"], []).append(c["ipc"])
    return {m: geomean(v) for m, v in per.items()}


def paper_gap_pp(doc):
    """Mean absolute gap, in percentage points, between the measured
    and the paper's Figure 7 geomean speedups over Baseline."""
    gaps = []
    for sweep, paper in PAPER_FIG7_SPEEDUP_PCT.items():
        per = {}
        for c in doc["cells"]:
            if c["sweep"] == sweep and not c["excluded_from_means"]:
                per.setdefault(c["machine"], []).append(c["ipc"])
        if "Baseline" not in per:
            continue
        base = geomean(per["Baseline"])
        for machine, pct in paper.items():
            if machine in per and base > 0:
                measured = 100.0 * (geomean(per[machine]) / base - 1.0)
                gaps.append(abs(measured - pct))
    return sum(gaps) / len(gaps) if gaps else 0.0


def pool_busy_frac(cell_spans, wall_s, jobs):
    """Sum of cell spans over the pool's capacity (wall times jobs)."""
    busy = sum(s["end"] - s["start"] for s in cell_spans)
    return busy / (wall_s * jobs) if wall_s > 0 and jobs else 0.0


def tail_idle_s(cell_spans):
    """The straggler window: from the moment the first worker runs dry
    (its last cell ends) until the last cell ends."""
    last_end = {}
    for s in cell_spans:
        last_end[s["tid"]] = max(last_end.get(s["tid"], 0.0), s["end"])
    if not last_end:
        return 0.0
    return max(last_end.values()) - min(last_end.values())


def count_metrics(cells):
    """Per-layer work counts over @p cells (exact: the simulator is
    deterministic)."""
    tot = {}
    for c in cells:
        st = c["stats"]
        for k, v in st.items():
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                tot[k] = tot.get(k, 0) + v
        tot["unit_busy"] = tot.get("unit_busy", 0) + sum(
            u["busy_cycles"] for u in st["units"])
    smc = sum(sm_cycles(c) for c in cells)

    def frac(a, b):
        return a / b if b else 0.0

    return {
        "core.sm_cycles": smc,
        "pipeline.warp_sleep_cycles": tot["warp_sleep_cycles"],
        "pipeline.avg_runnable_warps": frac(tot["runnable_warp_cycles"], smc),
        "frontend.instructions": tot["instructions"],
        "frontend.secondary_issue_frac": frac(tot["secondary_issues"],
                                              tot["instructions"]),
        "frontend.fallback_issues": tot["fallback_issues"],
        "divergence.warp_splits": tot["warp_splits"],
        "divergence.merges": tot["merges"],
        "divergence.heap_full_stalls": tot["heap_full_stalls"],
        "exec.unit_busy_cycles": tot["unit_busy"],
        "mem.l1_hit_frac": frac(tot["l1_hits"],
                                tot["l1_hits"] + tot["l1_misses"]),
        "mem.l2_hit_frac": frac(tot["l2_hits"],
                                tot["l2_hits"] + tot["l2_misses"]),
        "mem.mshr_stalls": tot["mshr_stalls"],
        "mem.dram_bytes": tot["dram_bytes"],
    }
