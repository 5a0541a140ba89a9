#!/usr/bin/env python3
"""vsim-bench: build the driver, run one workload, print its metrics.

    python3 vsimbench/run.py --workload fig3-cold --seed 1 --seconds 10 \\
        --trace 0

Run from the root of a checkout. The driver is built from the
checkout's sources into $CARGO_TARGET_DIR/vsimbench (default
.bench_build/vsimbench). The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}; --trace 0 gives
the end-to-end metrics, --trace 1 the per-layer ones. The lines above
it are the manifest and a readable report.

    python3 vsimbench/run.py --write-reference

re-records reference.json (stats digests and full-detail cycles). Only
a change that means to alter simulated results should do that.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import metrics  # noqa: E402

DRIVER_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") \
        / "vsimbench"


def build():
    """Configure (once) and build the driver; return its path."""
    if not (ROOT / "src" / "vsim").is_dir():
        raise SystemExit("vsim-bench: no vsim sources under %s/src" % ROOT)
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out)] + gen,
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return out / "vsim_bench"


def run_driver(exe, flags):
    """Run the driver with `flags` in a fresh work directory; raw JSON."""
    work = build_dir() / ("work-%d" % os.getpid())
    out = work / "raw.json"
    try:
        subprocess.run([str(exe), "--work", str(work), "--out", str(out)]
                       + flags, check=True, stdout=sys.stderr,
                       timeout=DRIVER_TIMEOUT_S)
        with open(out) as f:
            return json.load(f)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def git_revision():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() or "unknown"


def load_reference():
    with open(BENCH_DIR / "reference.json") as f:
        return json.load(f)


def write_reference(exe):
    digests = {}
    for w in metrics.WORKLOADS:
        log("recording reference digests for", w)
        raw = run_driver(exe, ["--workload", w, "--seed", "1",
                               "--seconds", "0", "--trace", "0"])
        jobs = raw["passes"][0]["jobs"]
        bad = [j["id"] for j in jobs
               if j["error"] or not (j["exit_ok"] and j["output_ok"])]
        if bad:
            raise SystemExit("vsim-bench: failing jobs: %s" % bad[:5])
        digests[w] = {j["id"]: j["digest"] for j in jobs if not j["warm"]}
    log("simulating the sampled-long jobs in full detail")
    full = run_driver(exe, ["--full-detail"])
    reference = {"digests": digests,
                 "full_detail_cycles": full["full_detail_cycles"]}
    with open(BENCH_DIR / "reference.json", "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=metrics.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()
    if not args.write_reference and not args.workload:
        ap.error("--workload is required")

    exe = build()
    if args.write_reference:
        write_reference(exe)
        return
    reference = load_reference()
    raw = run_driver(exe, ["--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(args.trace)])
    result, report = metrics.evaluate(raw, reference, args.workload,
                                      bool(args.trace))
    manifest = dict(raw["manifest"], git_revision=git_revision(),
                    trace=args.trace, seconds=args.seconds)
    print("manifest " + json.dumps(manifest, sort_keys=True))
    for line in report:
        print(line)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
