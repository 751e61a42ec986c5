#!/usr/bin/env python3
"""The recalg standing benchmark: one command, four workloads.

    python3 benchmark/run.py --workload tc-chain --seed 1 --seconds 25 --trace 0

Run it from the repository root. It builds the `recalg` CLI and the
in-process probe with dune, generates the workload's inputs from the
seed, runs the workload as a closed loop with one client, checks every
output against the independent references in reference.py, and prints
each metric with its unit. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.

--trace 0 measures the end-to-end metrics, with no tracing anywhere.
--trace 1 makes the separate traced in-process run that gives the
per-layer metrics. benchmark/README.md explains the workloads and
metrics. Generated inputs, outputs and span trees go to .benchmark-run/.
"""

import argparse
import collections
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import reference  # noqa: E402
import workloads  # noqa: E402

WORK = ".benchmark-run"
CLI = os.path.join("_build", "default", "bin", "recalg_cli.exe")
PROBE = os.path.join("_build", "default", "benchmark", "probe", "probe.exe")
CALIBRATE = os.path.join("_build", "default", "benchmark", "calibrate", "calibrate.exe")
ENV = dict(os.environ, RECALG_DOMAINS="1")
WORKLOADS = ("tc-chain", "win-chain", "alg-rec", "update-mix")
SETUPS = 5
# update-mix set-ups are scaled one by one by a short calibration, so
# their median needs more of them.
UPDATE_SETUPS = 15
# The calibration job's median wall time on the reference host (2 vCPUs at
# 2.1 GHz) in its steady phase. Batch timings are scaled to that speed.
CALIBRATION_REF_MS = 136.0
# The unit of update-mix's scaled timings: they read as on a host where
# one round's in-process calibration kernel (probe.ml) takes this long.
KERNEL_REF_MS = 10.0
KERNEL_WINDOW = 5
TRACE_ROUNDS = 100
RUN_BUDGET_S = 160.0
COVERAGE_MIN = 0.9

E2E = [("tuples_per_s", "tuples/s"), ("op_ms_p50", "ms"), ("op_ms_p95", "ms"),
       ("scale_exp", "slope"), ("peak_rss_mb", "MB"), ("setup_s", "s")]

PER_LAYER = [
    ("grounder.ms", "ms"), ("grounder.atoms", "count"), ("grounder.rules", "count"),
    ("grounder.probes_per_atom", "ratio"), ("grounder.alloc_mw", "Mwords"),
    ("valid.ms", "ms"), ("valid.rounds", "count"),
    ("wellfounded.ms", "ms"), ("wellfounded.rounds", "count"),
    ("seminaive.ms", "ms"), ("seminaive.rounds", "count"),
    ("seminaive.derived_per_tuple", "ratio"), ("seminaive.alloc_mw", "Mwords"),
    ("incremental.insert_ms_p50", "ms"), ("incremental.delete_ms_p50", "ms"),
    ("incremental.delete_ms_p95", "ms"), ("incremental.dred_batches", "count"),
    ("incremental.recompute_batches", "count"),
    ("grounder_live.update_ms_p50", "ms"), ("grounder_live.pruned_rules", "count"),
    ("valid.resolve_ms_p50", "ms"),
    ("planner.ms", "ms"), ("planner.reorders", "count"),
    ("rec_eval.solve_ms", "ms"), ("rec_eval.query_ms", "ms"), ("rec_eval.rounds", "count"),
    ("rec_eval.alloc_mw", "Mwords"), ("join.probes", "count"), ("join.out_per_probe", "ratio"),
    ("parser.ms", "ms"), ("render.ms", "ms"),
    ("value.intern_misses", "count"), ("value.hit_ratio", "ratio"),
    ("gc.major_collections", "count"),
    ("trace.overhead", "ratio"), ("trace.coverage_min", "ratio"),
]


# --- operations ---------------------------------------------------------------

class Tally:
    """Counts attempted and failed operations. A failure is a wrong
    output, an exception, or a non-zero exit."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def verify(self, what, check):
        """Count one operation; [check] returns its verified output tuples
        or raises. A failed operation verifies no tuples."""
        self.attempted += 1
        try:
            return check()
        except (ValueError, KeyError, IndexError, OSError) as e:
            self.failed += 1
            self.errors.append("%s: %s" % (what, e))
            return 0


def spawn(argv, deadline):
    """Run one child to completion, killing it at [deadline] (a
    time.monotonic() value). Returns (wall seconds, exit code, stdout,
    peak RSS in MB, tail of stderr)."""
    with tempfile.TemporaryFile(dir=WORK) as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=ENV)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), p.kill)
        timer.start()
        try:
            out = p.stdout.read()
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        p.stdout.close()
        err.seek(0)
        tail = err.read().decode(errors="replace")[-300:]
    return wall, p.returncode, out.decode(errors="replace"), usage.ru_maxrss / 1024.0, tail


def calibrate(deadline):
    """Milliseconds of one run of the fixed calibration job, which links
    no recalg code, so only the host's speed moves it."""
    wall, rc, _, _, err = spawn([CALIBRATE], deadline)
    exited_ok(rc, err)
    return 1000 * wall


def host_scaled(t, calibration_ms, ref_ms):
    """A time [t], in any unit, scaled to the reference host speed: by
    the ratio of [ref_ms] to the calibration time measured next to it.
    A shared 2-vCPU host has phases in which every job runs up to 2x
    slower for minutes, CPU time as much as wall time; the calibration
    slows with them."""
    return t * ref_ms / calibration_ms


def measured(calibration, calibration_ms, ref_ms, tuples_per_s, latency_ms, setup_s):
    """The lines that print the calibration and the timings as measured."""
    return ["host calibration: %s %.2f ms (median of %d), scaled to %.1f ms"
            % (calibration, median(calibration_ms), len(calibration_ms), ref_ms),
            "as measured: tuples_per_s %.4f  op_ms_p50 %.4f  op_ms_p95 %.4f  setup_s %.4f"
            % (tuples_per_s, median(latency_ms), p95(latency_ms), setup_s)]


def kernel_scaled(ms, calibration_ms):
    """Scale update-mix times to the reference speed, each by the host's
    speed at its moment: [ms] pairs (round, milliseconds) with the
    round's index in [calibration_ms], the probe's in-process kernel time
    after each round. The speed moves within seconds, and a single 10 ms
    kernel is noisy, so each round is scaled by the median kernel time
    over the KERNEL_WINDOW rounds on each side of it."""
    local = [median(calibration_ms[max(0, b - KERNEL_WINDOW):b + KERNEL_WINDOW + 1])
             for b in range(len(calibration_ms))]
    return [host_scaled(x, local[b], KERNEL_REF_MS) for b, x in ms]


def exited_ok(rc, err):
    if rc != 0:
        raise ValueError("exit code %d: %s" % (rc, err.strip()))


def verb_ok(rc, err, expect, out):
    exited_ok(rc, err)
    return reference.check(expect, out)


# --- statistics ---------------------------------------------------------------

def median(xs):
    return statistics.median(xs) if xs else 0.0


def p95(xs):
    if len(xs) < 2:
        return median(xs)
    return statistics.quantiles(xs, n=20, method="inclusive")[-1]


def slope(points):
    """Least-squares slope of log(seconds) against log(output tuples)."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len(pts) < 2:
        return 0.0
    mx = statistics.fmean(p[0] for p in pts)
    my = statistics.fmean(p[1] for p in pts)
    return (sum((x - mx) * (y - my) for x, y in pts)
            / sum((x - mx) ** 2 for x, _ in pts))


def curves(jobs, seconds):
    """Per ladder family, its (output tuples, median seconds) points."""
    fams = {}
    for j in jobs:
        if j["family"]:
            fams.setdefault(j["family"], []).append((j["expect"]["tuples"], seconds[j["id"]]))
    return {f: sorted(pts) for f, pts in fams.items()}


def scale_report(fams):
    """scale_exp (the largest family slope) and printable curves."""
    lines, exps = [], []
    for f, pts in sorted(fams.items()):
        e = slope(pts)
        exps.append(e)
        lines.append("scale %-12s exp %.3f  points %s" % (
            f, e, " ".join("(%d, %.4fs)" % p for p in pts)))
    return max(exps, default=0.0), lines


# --- batch workloads: recalg verbs as child processes --------------------------

def warm_up_jobs(jobs):
    """The smallest job of each ladder family: one run of every verb
    mode the workload times, on its smallest input."""
    first = {}
    for j in jobs:
        if j["family"]:
            first.setdefault(j["family"], j)
    return list(first.values())


def batch_e2e(name, seed, seconds, tally, deadline):
    """Set-up (writing the inputs and an untimed warm-up) SETUPS times,
    then passes over the job list until [seconds] are used up."""
    inputs, jobs = workloads.BATCH[name](seed, WORK)
    setups, warm = [], []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        workloads.save(inputs)
        for j in warm_up_jobs(jobs):
            warm.append((j, spawn([CLI] + j["argv"], deadline)))
        setups.append(time.perf_counter() - t0)
    workloads.resolve(jobs)
    for j, (_, rc, out, _, err) in warm:
        tally.verify("warm-up " + j["id"],
                     lambda j=j, rc=rc, out=out, err=err: verb_ok(rc, err, j["expect"], out))
    # Each job's time is scaled by the calibration run right after it.
    samples = {j["id"]: [] for j in jobs}
    raw = {j["id"]: [] for j in jobs}
    passes = tuples = 0
    calib = []
    rss = 0.0
    start = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        for j in jobs:
            wall, rc, out, mb, err = spawn([CLI] + j["argv"], deadline)
            tuples += tally.verify(j["id"], lambda: verb_ok(rc, err, j["expect"], out))
            rss = max(rss, mb)
            calib.append(calibrate(deadline))
            raw[j["id"]].append(wall)
            samples[j["id"]].append(host_scaled(wall, calib[-1], CALIBRATION_REF_MS))
        passes += 1
        now = time.perf_counter()
        if now - start + (now - p0) > seconds or time.monotonic() > deadline:
            break
    seconds_med = {k: statistics.median(v) for k, v in samples.items()}
    exp, lines = scale_report(curves(jobs, seconds_med))
    lines.append("passes %d" % passes)
    latency = [s * 1000 for s in seconds_med.values()]
    lines += measured("job", calib, CALIBRATION_REF_MS, tuples / sum(map(sum, raw.values())),
                      [1000 * statistics.median(v) for v in raw.values()], median(setups))
    # The set-ups come before the calibrations; they take their median.
    return {"tuples_per_s": tuples / sum(map(sum, samples.values())),
            "op_ms_p50": median(latency), "op_ms_p95": p95(latency), "scale_exp": exp,
            "peak_rss_mb": rss,
            "setup_s": host_scaled(median(setups), median(calib), CALIBRATION_REF_MS)}, lines


def probe_job(j, traced, tally, deadline):
    """One in-process evaluation of a batch job, in a fresh process.
    Returns the probe's record with the verified output tuples added."""
    kind = "alg" if j["argv"][0] == "alg" else j["argv"][3]
    out_path = os.path.join(WORK, "probe-output.txt")
    _, rc, out, _, err = spawn([PROBE, "job", kind, j["argv"][1], out_path, str(int(traced))],
                               deadline)
    rec = {"job": j["id"], "kind": kind}

    def check():
        exited_ok(rc, err)
        rec.update(json.loads(out.splitlines()[-1]))
        with open(out_path) as f:
            return reference.check(j["expect"], f.read())
    rec["tuples"] = tally.verify("%s (%s probe)" % (j["id"], "traced" if traced else "untraced"),
                                 check)
    return rec


def batch_trace(name, seed, tally, deadline):
    records, untraced_ms = [], 0.0
    inputs, jobs = workloads.BATCH[name](seed, WORK)
    workloads.save(inputs)
    for j in workloads.resolve(jobs):
        untraced_ms += probe_job(j, False, tally, deadline).get("job_ms", 0.0)
        records.append(probe_job(j, True, tally, deadline))
    return layers(records, untraced_ms, tally, top=None)


# --- update-mix: in-process sessions -------------------------------------------

def run_update_probe(rungs, setups, rounds, traced, deadline):
    """The probe's update sessions. Returns the operation records in the
    order they ran, the summary record, peak RSS and the exit status."""
    _, rc, out, mb, err = spawn(
        [PROBE, "update", WORK, ",".join(str(r["n"]) for r in rungs), str(setups),
         str(rounds), str(int(traced))], deadline)
    ops, summary = [], {}
    if rc == 0:
        for line in out.splitlines():
            rec = json.loads(line)
            if "rung" in rec:
                ops.append(rec)
            else:
                summary = rec
    return ops, summary, mb, (rc, err)


def verify_update(rungs, rounds, ops, status, tally):
    """Replay every rung's stream on the reference side and check each
    session after every batch (outside the timed region). Returns the
    verified |t| of each operation: 0 for a failed one."""
    by_key = {(o["rung"], o["batch"], o["session"]): o for o in ops}
    verified = []
    for r in rungs:
        edges = set(r["initial"])
        for b, (sign, batch) in enumerate(r["stream"][:rounds]):
            edges = edges | set(batch) if sign == "+" else edges - set(batch)
            want = reference.closure_digest(edges)
            for session in ("stratified", "valid"):
                def check(rec=by_key.get((r["n"], b, session))):
                    exited_ok(*status)
                    if rec is None:
                        raise ValueError("no result")
                    got = (rec["count"], rec["digest"])
                    if got != want or rec["undef"] != 0:
                        raise ValueError("t differs from the reference closure: %s vs %s"
                                         % (got, want))
                    return rec["count"]
                verified.append(tally.verify("r%d/b%d/%s" % (r["n"], b, session), check))
    return verified


def update_e2e(seed, tally, deadline):
    inputs, rungs = workloads.update_mix(seed, WORK)
    writes = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        workloads.save(inputs)
        writes.append(time.perf_counter() - t0)
    rounds = workloads.UPDATE_ROUNDS
    ops, summary, rss, status = run_update_probe(rungs, UPDATE_SETUPS, rounds, False, deadline)
    tuples = sum(verify_update(rungs, rounds, ops, status, tally))
    for o, ms in zip(ops, kernel_scaled([(o["batch"], o["ms"]) for o in ops],
                                        summary.get("calibration_ms", []))):
        o["raw_ms"], o["ms"] = o["ms"], ms
    # Each set-up is scaled by the kernel timed around it, because the
    # stream's kernel times come later. The writes take milliseconds and
    # are not scaled.
    init = [host_scaled(ms, k, KERNEL_REF_MS) for ms, k in
            zip(summary.get("setup_ms", []), summary.get("setup_calibration_ms", []))]
    top = rungs[-1]["n"]
    head = [o["ms"] for o in ops if o["rung"] == top]
    raw_head = [o["raw_ms"] for o in ops if o["rung"] == top]
    fams = {}
    for session in ("stratified", "valid"):
        fams[session] = []
        for r in rungs:
            mine = [o for o in ops if o["rung"] == r["n"] and o["session"] == session]
            if mine:
                # Means: the stream is 6 parts cheap inserts to 4 costlier
                # deletes, so a median sits on the insert tail and moves
                # from seed to seed.
                fams[session].append((statistics.fmean(o["count"] for o in mine),
                                      statistics.fmean(o["ms"] for o in mine) / 1000))
    exp, lines = scale_report(fams)
    lines.append("rounds %d over rungs %s, latency quantiles over rung %d"
                 % (rounds, ",".join(str(r["n"]) for r in rungs), top))
    total_ms = sum(o["ms"] for o in ops)
    raw_ms = sum(o["raw_ms"] for o in ops)
    lines += measured("in-process kernel", summary.get("calibration_ms", []), KERNEL_REF_MS,
                      tuples / raw_ms * 1000 if raw_ms else 0.0, raw_head,
                      median(writes) + median(summary.get("setup_ms", [])) / 1000)
    return {"tuples_per_s": tuples / total_ms * 1000 if total_ms else 0.0,
            "op_ms_p50": median(head), "op_ms_p95": p95(head), "scale_exp": exp,
            "peak_rss_mb": rss, "setup_s": median(writes) + median(init) / 1000}, lines


def update_trace(seed, tally, deadline):
    inputs, rungs = workloads.update_mix(seed, WORK)
    workloads.save(inputs)
    plain, _, _, status = run_update_probe(rungs, 1, TRACE_ROUNDS, False, deadline)
    verify_update(rungs, TRACE_ROUNDS, plain, status, tally)
    ops, summary, _, status = run_update_probe(rungs, 1, TRACE_ROUNDS, True, deadline)
    verify_update(rungs, TRACE_ROUNDS, ops, status, tally)
    summary.update(job="update-mix", tuples=0, ops=ops)
    return layers([summary], sum(o["ms"] for o in plain), tally, top=rungs[-1]["n"])


# --- per-layer attribution ----------------------------------------------------

# The layer of each span the library or the probe opens, by span name.
# Any other span (a solver round, a Rec_eval phase) belongs to its
# parent's layer. The probe's "job" span belongs to none: its self time
# is what the layer spans leave uncovered. A Run.* wrapper's own time
# belongs to its solver, because Valid.solve and Wellfounded.solve build
# their interpretation after their own span has closed.
LAYER = {
    "parser": "parser", "render": "render", "planner": "planner",
    "ground": "grounder", "ground.live_start": "grounder",
    "ground.live_update": "grounder_live",
    "valid": "valid", "wellfounded": "wellfounded",
    "seminaive": "seminaive", "seminaive.resume": "seminaive",
    "incremental.datalog_init": "incremental", "incremental.datalog_update": "incremental",
    "rec_eval": "rec_eval.solve", "rec_eval.query": "rec_eval.query",
    "run.valid": "valid", "run.live_start": "valid", "run.live_update": "valid",
    "run.wellfounded": "wellfounded", "run.stratified": "seminaive",
}


def span_layer(name, parent_layer):
    layer = LAYER.get(name, parent_layer)
    # What a layer does through another one's public function stays its
    # own: Incremental's Seminaive.resume, and the second Rec_eval solve
    # inside the alg verb's query.
    if (parent_layer in ("incremental", "rec_eval.query")
            and layer in ("seminaive", "rec_eval.solve")):
        return parent_layer
    return layer


def span_tree(events):
    """The spans of a probe's Obs event list, in opening order, each with
    its parent id, layer, root span and self time (its duration minus
    its children's)."""
    spans, by_sid = [], {}
    for e in events:
        if e["ev"] == "span_begin":
            parent = by_sid.get(e["parent"])
            name = e["span"].rpartition(" > ")[2]
            s = {"id": e["sid"], "parent": e["parent"], "name": name,
                 "layer": span_layer(name, parent["layer"] if parent else None),
                 "root": parent["root"] if parent else e["sid"],
                 "start_ms": e["at"] * 1000, "ms": 0.0}
            by_sid[s["id"]] = s
            spans.append(s)
        elif e["ev"] == "span_end":
            by_sid[e["sid"]]["ms"] = e["ms"]
    kids_ms = collections.Counter()
    for s in spans:
        kids_ms[s["parent"]] += s["ms"]
    for s in spans:
        s["self_ms"] = s["ms"] - kids_ms[s["id"]]
    return spans


def layer_words(alloc):
    """Self allocation per layer from Obs.Metrics' words per span path."""
    layer_of, kids = {}, collections.Counter()
    for path in sorted(alloc, key=lambda p: p.count(" > ")):
        parent, _, name = path.rpartition(" > ")
        layer_of[path] = span_layer(name, layer_of.get(parent))
        kids[parent] += alloc[path]
    words = collections.Counter()
    for path, w in alloc.items():
        words[layer_of[path]] += w - kids[path]
    return words


def layers(records, untraced_ms, tally, top):
    """Per-layer metrics from the traced records: self time per layer
    under the job spans, harvested counters, and, for update-mix (top =
    the rung whose batches give the latency quantiles), each operation's
    self time per layer."""
    self_ms, words = collections.Counter(), collections.Counter()
    ctr = collections.Counter()
    batch = collections.defaultdict(list)
    hits = misses = major = 0
    traced_ms, strat_tuples = 0.0, 0
    # Coverage is checked per batch job, and per session over its
    # operations on update-mix: one operation there can take 50 us, and a
    # GC slice that lands in the job span's own bookkeeping (0.36 ms was
    # seen) would fail a 10% check on one operation without anything of
    # size going unattributed.
    unit_ms, loose_ms = collections.Counter(), collections.Counter()
    trees = []
    for rec in records:
        spans = span_tree(rec.get("events", []))
        jobs = [s for s in spans if s["parent"] == 0 and s["name"] == "job"]
        ops = rec.get("ops", [{"id": rec.get("job")}])
        by_sid = {s["id"]: s for s in spans}
        under = collections.defaultdict(list)
        for s in spans:
            if by_sid[s["root"]]["name"] == "job":
                under[s["root"]].append(s)
                self_ms[s["layer"]] += s["self_ms"]
        for job, op in zip(jobs, ops):
            label = op.get("id") or "r%d/b%d/%s/%s" % (op["rung"], op["batch"], op["kind"],
                                                     op["session"])
            job["job"] = label
            unit = op.get("id") or "r%d/%s" % (op["rung"], op["session"])
            unit_ms[unit] += job["ms"]
            loose_ms[unit] += sum(s["self_ms"] for s in under[job["id"]] if s["layer"] is None)
            traced_ms += job["ms"]
            if top is not None and op["rung"] == top:
                per_layer = collections.Counter()
                for s in under[job["id"]]:
                    per_layer[s["layer"]] += s["self_ms"]
                for layer, ms in per_layer.items():
                    batch[(layer, op["kind"])].append(ms)
        if len(jobs) != len(ops):
            def unpaired(n=len(jobs), m=len(ops)):
                raise ValueError("%d job spans for %d operations" % (n, m))
            tally.verify("trace of %s" % rec.get("job"), unpaired)
        words.update(layer_words(rec.get("alloc_words", {})))
        ctr.update(rec.get("counters", {}))
        hits += rec.get("intern_hits", 0)
        misses += rec.get("intern_misses", 0)
        major += rec.get("gc_major", 0)
        if rec.get("kind") == "stratified":
            strat_tuples += rec["tuples"]
        trees.append({"job": rec.get("job"), "spans": spans})
    with open(os.path.join(WORK, "trace.json"), "w") as f:
        json.dump(trees, f)
    coverage = []
    for unit, ms in unit_ms.items():
        share = 1 - loose_ms[unit] / ms if ms > 0 else 1.0
        coverage.append(share)

        def check(share=share, unit=unit):
            if share < COVERAGE_MIN:
                raise ValueError("layer spans cover %.1f%% of %s" % (100 * share, unit))
            return 0
        tally.verify("coverage " + unit, check)

    def ratio(a, b):
        return a / b if b else 0.0

    both = lambda name: batch[(name, "+")] + batch[(name, "-")]  # noqa: E731
    return {
        "grounder.ms": self_ms["grounder"],
        "grounder.atoms": ctr["ground/atoms"],
        "grounder.rules": ctr["ground/rules"],
        "grounder.probes_per_atom": ratio(ctr["ground/index_hit"] + ctr["ground/index_miss"]
                                          + ctr["ground/scan"], ctr["ground/atoms"]),
        "grounder.alloc_mw": words["grounder"] / 1e6,
        "valid.ms": self_ms["valid"],
        "valid.rounds": ctr["valid/round"],
        "wellfounded.ms": self_ms["wellfounded"],
        "wellfounded.rounds": ctr["wellfounded/round"],
        "seminaive.ms": self_ms["seminaive"],
        "seminaive.rounds": ctr["seminaive/round"],
        "seminaive.derived_per_tuple": ratio(ctr["seminaive/derived"], strat_tuples),
        "seminaive.alloc_mw": words["seminaive"] / 1e6,
        "incremental.insert_ms_p50": median(batch[("incremental", "+")]),
        "incremental.delete_ms_p50": median(batch[("incremental", "-")]),
        "incremental.delete_ms_p95": p95(batch[("incremental", "-")]),
        "incremental.dred_batches": ctr["incr/dred"],
        "incremental.recompute_batches": ctr["incr/recompute"],
        "grounder_live.update_ms_p50": median(both("grounder_live")),
        "grounder_live.pruned_rules": ctr["incr/ground_pruned_rules"],
        "valid.resolve_ms_p50": median(both("valid")),
        "planner.ms": self_ms["planner"],
        "planner.reorders": ctr["plan/reorder"],
        "rec_eval.solve_ms": self_ms["rec_eval.solve"],
        "rec_eval.query_ms": self_ms["rec_eval.query"],
        "rec_eval.rounds": ctr["rec_eval/round"],
        "rec_eval.alloc_mw": (words["rec_eval.solve"] + words["rec_eval.query"]) / 1e6,
        "join.probes": ctr["join/probe"],
        "join.out_per_probe": ratio(ctr["join/out"], ctr["join/probe"]),
        "parser.ms": self_ms["parser"],
        "render.ms": self_ms["render"],
        "value.intern_misses": misses,
        "value.hit_ratio": ratio(hits, hits + misses),
        "gc.major_collections": major,
        "trace.overhead": ratio(traced_ms, untraced_ms),
        "trace.coverage_min": min(coverage) if coverage else 0.0,
    }, ["coverage checked on %d jobs or sessions, span tree in %s"
        % (len(coverage), os.path.join(WORK, "trace.json"))]


# --- main ---------------------------------------------------------------------

def build():
    if shutil.which("dune") is None:
        print("benchmark: dune not found", file=sys.stderr)
        return False
    p = subprocess.run(["dune", "build", "--root", ".", "./bin/recalg_cli.exe",
                        "./benchmark/probe/probe.exe", "./benchmark/calibrate/calibrate.exe"],
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if p.returncode != 0:
        print("benchmark: build failed\n" + p.stderr[-2000:], file=sys.stderr)
        return False
    return True


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not build():
        return 2
    os.makedirs(WORK, exist_ok=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    tally = Tally()
    if args.trace:
        units = dict(PER_LAYER)
        if args.workload == "update-mix":
            values, lines = update_trace(args.seed, tally, deadline)
        else:
            values, lines = batch_trace(args.workload, args.seed, tally, deadline)
    else:
        units = dict(E2E)
        if args.workload == "update-mix":
            values, lines = update_e2e(args.seed, tally, deadline)
        else:
            values, lines = batch_e2e(args.workload, args.seed, args.seconds, tally, deadline)
    print("workload %s  seed %d  trace %d" % (args.workload, args.seed, args.trace))
    for line in lines + tally.errors[:20]:
        print("  " + line)
    for name, unit in units.items():
        print("  %-30s %14.4f %s" % (name, values[name], unit))
    print("  %-30s %14.4f %s" % ("error_rate", tally.failed / max(1, tally.attempted), "ratio"))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
