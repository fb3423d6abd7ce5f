#!/usr/bin/env python3
"""The repository's benchmark: build the perfbench driver, run one workload,
check every result, and print the metrics.

    python3 perfbench/run.py --workload stencil --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10   # everything
    python3 perfbench/run.py --workload all --smoke                 # tiny sizes

Run it from the repository root.  The driver is built (Release only) into
.bench_build/; scratch files go to .bench_tmp/ and are removed afterwards;
each run's full record, stamped with build type, compiler, nproc, seed and
git revision, goes to .bench_out/.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  See
perfbench/README.md for the metrics and workloads.
"""
import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("stencil", "gauss", "irregular", "service")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
SCRATCH = ".bench_tmp"
OUT = os.path.join(ROOT, ".bench_out")
# Fresh processes that each time set-up alone; the measuring process adds
# one more sample, and setup_s is the median of them all.
SETUP_PROCESSES = 4
# Each run must end within 180 s of its start once the driver is built.
RUN_DEADLINE_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (Release) and build the driver; refuse any other build type."""
    if not os.path.isfile(os.path.join(ROOT, "perfbench", "CMakeLists.txt")):
        raise RuntimeError("perfbench/CMakeLists.txt is missing")
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.isfile(cache) or not os.path.isfile(BINARY):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    build_type = ""
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.strip().split("=", 1)[1]
    if build_type != "Release":
        raise RuntimeError(f"refusing a {build_type or 'default'} build in {BUILD}; "
                           "benchmarks are recorded from Release only")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_type


def git_revision():
    """The checked-out commit, read from .git without running git (the
    checkout may not be a repository at all)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    """Runs the driver binary in fresh processes inside a scratch directory."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.scratch = os.path.join(SCRATCH, f"{os.getpid()}-{time.time_ns()}")
        os.makedirs(os.path.join(ROOT, self.scratch))
        self.env = dict(os.environ)
        # The native JIT and the compiler it runs write only in here.
        self.env["PERFBENCH_SCRATCH"] = self.scratch
        self.env["TMPDIR"] = os.path.join(ROOT, self.scratch)
        # Pinned to two CPUs so the scheduler cannot migrate the service's
        # client and worker threads across the machine (on a 4-vCPU VM that
        # cut the run-to-run spread of its throughput from ~40% to ~10%).
        cpus = sorted(os.sched_getaffinity(0))
        self.cpus = set(cpus[-2:])

    def close(self):
        shutil.rmtree(os.path.join(ROOT, self.scratch), ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, SCRATCH))
        except OSError:
            pass

    def run(self, args):
        """One driver process; returns (record or None, human-readable lines)."""
        left = self.deadline - time.monotonic()
        if left <= 1:
            return None, ["out of time before starting: " + " ".join(args)]
        try:
            p = subprocess.run([BINARY] + args, cwd=ROOT, env=self.env,
                               capture_output=True, text=True, timeout=left,
                               preexec_fn=lambda: os.sched_setaffinity(0, self.cpus))
        except subprocess.TimeoutExpired:
            return None, ["timed out: " + " ".join(args)]
        out = p.stdout.splitlines()
        record = None
        try:
            record = json.loads(out[-1])
        except (json.JSONDecodeError, IndexError):
            pass
        human = (out[:-1] if record is not None else out) + p.stderr.splitlines()
        if record is None:
            human.append(f"exit {p.returncode}, no record: " + " ".join(args))
        return record, human


def run_workload(workload, seed, seconds, trace, smoke, stamp):
    """Run one workload; returns the contract result and prints its lines."""
    runner = Runner(time.monotonic() + RUN_DEADLINE_S)
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if smoke:
        common.append("--smoke")
    records, problems = [], []
    try:
        if trace:
            os.makedirs(OUT, exist_ok=True)
            trace_file = os.path.join(OUT, f"trace-{workload}-s{seed}.json")
            rec, human = runner.run(common + ["--mode", "trace", "--trace-file", trace_file])
            records.append(rec)
            for line in human:
                print(line)
        else:
            for _ in range(SETUP_PROCESSES):
                rec, human = runner.run(common + ["--mode", "setup"])
                records.append(rec)
                problems += [h for h in human if h]
            rec, human = runner.run(common + ["--mode", "measure"])
            records.append(rec)
            problems += [h for h in human if h]
    finally:
        runner.close()

    for line in problems:
        print(line)
    final = records[-1]
    correct = all(r is not None and r["ok"] and not r["nondeterministic"] and r["failed"] == 0
                  for r in records)
    fingerprints = {r["fingerprint"] for r in records if r is not None}
    if len(fingerprints) > 1:
        print("nondeterministic: simulated results differ across processes at one seed")
        correct = False
    attempted = sum(r["attempted"] for r in records if r is not None)
    failed = sum(r["failed"] for r in records if r is not None)
    failed += sum(1 for r in records if r is None)
    metrics = {}
    if final is not None:
        metrics = dict(final["metrics"])
        if not trace:
            setups = [r["metrics"]["setup_s"]["value"] for r in records if r is not None]
            metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    result = {"correct": correct, "attempted": max(1, attempted), "failed": failed,
              "metrics": metrics}

    os.makedirs(OUT, exist_ok=True)
    record = dict(stamp, workload=workload, seed=seed, seconds=seconds, trace=trace,
                  smoke=smoke, result=result, error_rate=failed / result["attempted"],
                  info=(final or {}).get("info", {}),
                  driver_build_type=(final or {}).get("build_type"),
                  compiler=(final or {}).get("compiler"))
    name = f"{workload}-s{seed}-t{trace}{'-smoke' if smoke else ''}.json"
    with open(os.path.join(OUT, name), "w") as f:
        json.dump(record, f, indent=1)
    info = dict(record["info"], error_rate=failed / result["attempted"])
    for key, unit in (("run_ms_p50", "ms"), ("req_ms_p50", "ms"), ("compile_ms_p50", "ms"),
                      ("req_per_s_mean", "1/s"), ("error_rate", "ratio")):
        if key in info:
            print(f"unbounded {key} {info[key]:.6g} {unit}")
    print("stamp " + json.dumps(dict(stamp, workload=workload, seed=seed,
                                     compiler=record["compiler"])))
    return result


def main():
    # A termination request unwinds like an error: subprocess.run kills and
    # reaps the running driver process, and the scratch area is removed.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes: a few seconds per workload, for the benchmark's own tests")
    args = ap.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")

    try:
        build_type = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 2
    stamp = {"build_type": build_type, "nproc": os.cpu_count(), "git_revision": git_revision()}

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                              args.smoke, stamp)
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    # Everything: every workload, untraced then traced.
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        for trace in (0, 1):
            r = run_workload(w, args.seed, args.seconds, trace, args.smoke, stamp)
            print(f"== {w} trace={trace} correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}")
            for k, m in r["metrics"].items():
                print(f"   {k:34s} {m['value']:>16.6g} {m['unit']}")
            summary["correct"] &= r["correct"]
            summary["attempted"] += r["attempted"]
            summary["failed"] += r["failed"]
            for k, m in r["metrics"].items():
                summary["metrics"][f"{w}.t{trace}.{k}"] = m
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
