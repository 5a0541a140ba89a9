"""Turn the raw document of one vsim_bench run into named metrics.

The driver (driver.cc) records what it measured: per-pass wall times,
per-job latencies and stats digests, summed simulated counters and, in
a traced run, spans around every call into a layer. This module holds
the rules that turn those records into metrics, so they can be tested
without running a simulation:

* percentiles are nearest-rank, and a tail percentile is reported only
  when at least ten samples lie beyond it;
* a span's self time is its duration minus the part of it that its
  child spans cover;
* a job fails when it threw, missed the cache on a warm pass, or its
  exit code, output or stats digest differs from the reference.
"""

import math
import re
import statistics

# Name, unit; the order is the order of the report.
END_TO_END = [
    ("wall_s", "s"),
    ("sim_minst_per_s", "Minst/s"),
    ("warm_wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("core.host_s", "s"),
    ("core.ns_per_inst", "ns"),
    ("core.ns_per_cycle", "ns"),
    ("core.ctor_ms", "ms"),
    ("core.issue_eff", "ratio"),
    ("core.fetch_eff", "ratio"),
    ("core.reissues_per_kinst", "1/kinst"),
    ("core.squashes_per_kinst", "1/kinst"),
    ("core.verify_touches_per_pred", "ratio"),
    ("core.inval_touches_per_pred", "ratio"),
    ("core.ipc", "inst/cycle"),
    ("core.cpi_verify", "cycle/inst"),
    ("core.cpi_inval_reissue", "cycle/inst"),
    ("core.cpi_window_full", "cycle/inst"),
    ("core.cpi_operand_wait", "cycle/inst"),
    ("vpred.ns_per_op", "ns"),
    ("vpred.pred_per_kinst", "1/kinst"),
    ("vpred.correct_confident_frac", "ratio"),
    ("vpred.wasted_frac", "ratio"),
    ("bpred.ns_per_op", "ns"),
    ("bpred.mispredict_frac", "ratio"),
    ("mem.ns_per_access", "ns"),
    ("mem.dcache_miss_per_kinst", "1/kinst"),
    ("mem.icache_miss_per_kinst", "1/kinst"),
    ("arch.preexec_s", "s"),
    ("arch.preexec_minst_per_s", "Minst/s"),
    ("arch.bbv_s", "s"),
    ("arch.trace_mb", "MB"),
    ("assembler.build_ms", "ms"),
    ("sample.cluster_s", "s"),
    ("sample.phases", "count"),
    ("sample.detail_frac", "ratio"),
    ("sample.reps_s", "s"),
    ("snapshot.warmup_s", "s"),
    ("snapshot.count", "count"),
    ("trace.record_s", "s"),
    ("trace.load_s", "s"),
    ("trace.load_mb_per_s", "MB/s"),
    ("trace.file_mb", "MB"),
    ("disk_cache.store_ms_p50", "ms"),
    ("disk_cache.load_ms_p50", "ms"),
    ("disk_cache.hit_ratio", "ratio"),
    ("disk_cache.codec_us_p50", "us"),
    ("disk_cache.entry_kb", "kB"),
    ("sweep.worker_util", "ratio"),
    ("sweep.queue_wait_s_p50", "s"),
    ("sweep.makespan_over_ideal", "ratio"),
    ("sweep.run_cache_hit_ratio", "ratio"),
    ("bench.trace_overhead_s", "s"),
]

WORKLOADS = ["fig3-cold", "wide-window", "sampled-long", "replay-cache"]

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Stages a sampled run performs before its representatives; their
# standalone spans are subtracted from ShardRunner::run's span.
SAMPLE_STAGES = ["assembler.build", "arch.preexec", "arch.bbv",
                 "sample.cluster", "snapshot.warmup"]


# ---- statistics -------------------------------------------------------------

def percentile(values, p):
    """Nearest-rank p-th percentile (0 < p <= 100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(values, p, beyond=10):
    """The p-th percentile, or None unless `beyond` samples exceed its rank."""
    n = len(values)
    if n == 0 or n - math.ceil(p / 100.0 * n) < beyond:
        return None
    return percentile(values, p)


def ratio(num, den):
    return num / den if den else 0.0


# ---- spans --------------------------------------------------------------------

def covered(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Map span id -> self time in seconds (duration minus covered children)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(
            (s["start_ns"], s["end_ns"]))
    return {
        s["id"]: (s["end_ns"] - s["start_ns"]
                  - covered(children.get(s["id"], []),
                            s["start_ns"], s["end_ns"])) * 1e-9
        for s in spans
    }


class SpanIndex:
    """Spans grouped by name, with self times."""

    def __init__(self, spans):
        self.self_s = self_times(spans)
        self.by_name = {}
        for s in spans:
            self.by_name.setdefault(s["name"], []).append(s)

    def spans(self, name):
        return self.by_name.get(name, [])

    def total_s(self, name):
        return sum(self.self_s[s["id"]] for s in self.spans(name))

    def times_s(self, name):
        return [self.self_s[s["id"]] for s in self.spans(name)]

    def arg_sum(self, name, key):
        return sum(s["args"].get(key, 0.0) for s in self.spans(name))

    def mean_s(self, name):
        times = self.times_s(name)
        return statistics.mean(times) if times else 0.0

    def median_s(self, name):
        times = self.times_s(name)
        return statistics.median(times) if times else 0.0


# ---- correctness ----------------------------------------------------------------

def job_failure(job, digests):
    """Why `job` failed its checks, or None when it passed."""
    if job["error"]:
        return job["error"]
    if not job["exit_ok"]:
        return "exit code differs from the functional model"
    if not job["output_ok"]:
        return "output differs from the functional model"
    want = digests.get(job["id"])
    if want is None:
        return "no reference digest"
    if job["digest"] != want:
        return "stats digest %s, reference %s" % (job["digest"], want)
    return None


def check_jobs(raw, digests):
    """(attempted, [(job id, reason)]) over every job record of the run."""
    jobs = [j for p in raw["passes"] for j in p["jobs"]] + raw["decomposed"]
    failures = []
    for job in jobs:
        why = job_failure(job, digests)
        if why:
            failures.append((job["id"], why))
    return len(jobs), failures


# ---- metrics ----------------------------------------------------------------------

def cold_jobs(raw):
    return [j for p in raw["passes"] for j in p["jobs"] if not j["warm"]]


def end_to_end(raw):
    passes = raw["passes"]
    wall = statistics.median(p["wall_s"] for p in passes)
    insts = statistics.median(p["instructions"] for p in passes)
    warm = [w for p in passes for w in p["warm_wall_s"]]
    return {
        "wall_s": wall,
        "sim_minst_per_s": insts / wall / 1e6,
        "warm_wall_s": statistics.median(warm),
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def sample_speedup_err_pct(raw, full_cycles):
    """|sampled great/base speedup / full-detail speedup - 1| in percent."""
    sampled = {}
    for j in cold_jobs(raw):
        kind = "base" if " base " in j["id"] else "great"
        sampled[kind] = j["cycles"]
    full = full_cycles["base"] / full_cycles["great"]
    return abs(sampled["base"] / sampled["great"] / full - 1.0) * 100.0


def per_layer(raw):
    ix = SpanIndex(raw["spans"])
    c = raw["counters"]
    retired = c.get("retired", 0.0)

    def per_kinst(key):
        return ratio(c.get(key, 0.0) * 1000.0, retired)

    def cpi(cat):
        return ratio(c.get("cpi." + cat, 0.0), retired)

    m = {}
    # core: host time from the call-by-call jobs, shares from the sweep.
    run_s = ix.total_s("core.run")
    m["core.host_s"] = run_s + ix.total_s("core.ctor")
    m["core.ns_per_inst"] = ratio(run_s * 1e9, ix.arg_sum("core.run", "insts"))
    m["core.ns_per_cycle"] = ratio(run_s * 1e9,
                                   ix.arg_sum("core.run", "cycles"))
    m["core.ctor_ms"] = ix.mean_s("core.ctor") * 1e3
    m["core.issue_eff"] = ratio(retired, c.get("issued", 0.0))
    m["core.fetch_eff"] = ratio(retired, c.get("fetched", 0.0))
    m["core.reissues_per_kinst"] = per_kinst("reissues")
    m["core.squashes_per_kinst"] = per_kinst("squashes")
    m["core.verify_touches_per_pred"] = ratio(c.get("verify_touches", 0.0),
                                              c.get("pred_made", 0.0))
    m["core.inval_touches_per_pred"] = ratio(c.get("inval_touches", 0.0),
                                             c.get("pred_made", 0.0))
    m["core.ipc"] = ratio(retired, c.get("cycles", 0.0))
    m["core.cpi_verify"] = cpi("verify")
    m["core.cpi_inval_reissue"] = cpi("inval_reissue")
    m["core.cpi_window_full"] = cpi("window_full")
    m["core.cpi_operand_wait"] = cpi("operand_wait")
    # models replayed alone
    m["vpred.ns_per_op"] = ratio(ix.total_s("vpred.replay") * 1e9,
                                 ix.arg_sum("vpred.replay", "ops"))
    m["vpred.pred_per_kinst"] = per_kinst("pred_made")
    m["vpred.correct_confident_frac"] = ratio(c.get("vp_ch", 0.0),
                                              c.get("vp_eligible", 0.0))
    m["vpred.wasted_frac"] = ratio(
        c.get("pred_squashed", 0.0) + c.get("invalidate_events", 0.0),
        c.get("pred_made", 0.0))
    m["bpred.ns_per_op"] = ratio(ix.total_s("bpred.replay") * 1e9,
                                 ix.arg_sum("bpred.replay", "ops"))
    m["bpred.mispredict_frac"] = ratio(c.get("cond_mispredicts", 0.0),
                                       c.get("cond_branches", 0.0))
    m["mem.ns_per_access"] = ratio(ix.total_s("mem.replay") * 1e9,
                                   ix.arg_sum("mem.replay", "ops"))
    m["mem.dcache_miss_per_kinst"] = per_kinst("dcache_misses")
    m["mem.icache_miss_per_kinst"] = per_kinst("icache_misses")
    # arch, assembler
    pre_s = ix.total_s("arch.preexec")
    m["arch.preexec_s"] = pre_s
    m["arch.preexec_minst_per_s"] = ratio(
        ix.arg_sum("arch.preexec", "entries"), pre_s * 1e6)
    m["arch.bbv_s"] = ix.total_s("arch.bbv")
    m["arch.trace_mb"] = max(
        [s["args"].get("trace_bytes", 0.0) / 1e6
         for name in ("arch.preexec", "trace.load")
         for s in ix.spans(name)] or [0.0])
    m["assembler.build_ms"] = ix.mean_s("assembler.build") * 1e3
    # sample, snapshot
    m["sample.cluster_s"] = ix.total_s("sample.cluster")
    warmups = ix.spans("snapshot.warmup")
    m["sample.phases"] = ratio(ix.arg_sum("snapshot.warmup", "phases"),
                               len(warmups))
    m["sample.detail_frac"] = ratio(
        ix.arg_sum("snapshot.warmup", "detail_insts"),
        ix.arg_sum("snapshot.warmup", "represented_insts"))
    reps = 0.0
    for s in ix.spans("sample.run"):
        stages = sum(ix.self_s[t["id"]] for name in SAMPLE_STAGES
                     for t in ix.spans(name) if t["run"] == s["run"])
        reps += max(0.0, ix.self_s[s["id"]] - stages)
    m["sample.reps_s"] = reps
    m["snapshot.warmup_s"] = ix.total_s("snapshot.warmup")
    m["snapshot.count"] = ratio(ix.arg_sum("snapshot.warmup", "count"),
                                len(warmups))
    # trace
    load_s = ix.total_s("trace.load")
    records = ix.spans("trace.record")
    m["trace.record_s"] = ix.total_s("trace.record")
    m["trace.load_s"] = load_s
    m["trace.load_mb_per_s"] = ratio(ix.arg_sum("trace.load", "bytes"),
                                     load_s * 1e6)
    m["trace.file_mb"] = ratio(ix.arg_sum("trace.record", "bytes") / 1e6,
                               len(records))
    # disk cache
    warm = [j for p in raw["passes"] for j in p["jobs"] if j["warm"]]
    m["disk_cache.store_ms_p50"] = ix.median_s("disk_cache.store") * 1e3
    m["disk_cache.load_ms_p50"] = ix.median_s("disk_cache.load") * 1e3
    m["disk_cache.hit_ratio"] = ratio(sum(j["cache_hit"] for j in warm),
                                      len(warm))
    m["disk_cache.codec_us_p50"] = ix.median_s("disk_cache.codec") * 1e6
    m["disk_cache.entry_kb"] = ratio(ix.arg_sum("disk_cache.codec", "bytes")
                                     / 1e3, len(ix.spans("disk_cache.codec")))
    # sweep: the traced pass's JobSpans
    sweep = ix.spans("sweep.run")
    jobs = ix.spans("sweep.job")
    if sweep and jobs:
        wall = (sweep[0]["end_ns"] - sweep[0]["start_ns"]) * 1e-9
        workers = sweep[0]["args"]["workers"]
        busy = [(j["end_ns"] - j["start_ns"]) * 1e-9 for j in jobs]
        ideal = max(sum(busy) / workers, max(busy))
        m["sweep.worker_util"] = ratio(sum(busy), workers * wall)
        m["sweep.queue_wait_s_p50"] = statistics.median(
            j["args"]["queue_wait_s"] for j in jobs)
        m["sweep.makespan_over_ideal"] = ratio(wall, ideal)
    else:
        m["sweep.worker_util"] = 0.0
        m["sweep.queue_wait_s_p50"] = 0.0
        m["sweep.makespan_over_ideal"] = 0.0
    traced = raw["passes"][-1]
    m["sweep.run_cache_hit_ratio"] = ratio(
        traced["run_cache_hits"],
        traced["run_cache_hits"] + traced["run_cache_misses"])
    m["bench.trace_overhead_s"] = raw["traced_wall_s"] - raw["untraced_wall_s"]
    return m


def evaluate(raw, reference, workload, trace):
    """(result line dict, report lines) for one run of `workload`."""
    digests = reference["digests"].get(workload, {})
    attempted, failures = check_jobs(raw, digests)
    report = ["FAIL %s: %s" % (job, why) for job, why in failures[:20]]
    if trace:
        values, names = per_layer(raw), PER_LAYER
    else:
        values, names = end_to_end(raw), END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in names}
    for name, unit in names:
        report.append("%-32s %14.6g %s" % (name, values[name], unit))

    # Printed only: each is undefined on some workload, can be 0, or
    # does not hold steady from run to run (README.md).
    report.append("%-32s %14.6g %s" % (
        "fail_frac", ratio(len(failures), attempted), "ratio"))
    if not trace:
        latencies = [j["latency_s"] for j in cold_jobs(raw)]
        p90 = tail_percentile(latencies, 90)
        report.append("%-32s %14.6g %s (n=%d)" % (
            "job_p50_s", statistics.median(latencies), "s", len(latencies)))
        report.append("%-32s %14s %s (n=%d%s)" % (
            "job_p90_s", "%.6g" % p90 if p90 is not None else "-", "s",
            len(latencies),
            "" if p90 is not None else ", fewer than 10 beyond p90"))
        if workload == "sampled-long":
            report.append("%-32s %14.6g %s" % (
                "sample_speedup_err_pct",
                sample_speedup_err_pct(raw, reference["full_detail_cycles"]),
                "%"))

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, report
