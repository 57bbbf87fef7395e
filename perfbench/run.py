#!/usr/bin/env python3
"""Repository benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first run builds the simulator's
libraries from ./src and the benchmark binary (perfbench/cpp) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later
runs only rebuild what changed.

A run repeats the workload in fresh processes ("reps") for --seconds
seconds (at least MIN_REPS of them). Every rep of one seed must produce
identical simulated-time metrics and fingerprints; host-time metrics
are reported as the median over the reps. Before the first rep and
after every rep the run times a fixed reference kernel (bmref,
perfbench/cpp/reference.cc) in its own process. The end-to-end
setup_s and wall_s are each rep's host seconds divided by the mean of
the two reference times around it, times REF_NOMINAL_S: seconds at the
reference host speed, which follow the simulator's speed and not the
speed the shared host gives the run. The raw host seconds are the
per-layer host.setup_raw_s and host.wall_raw_s. With --trace 1 the run
alternates untraced and traced reps, checks that tracing changes no
simulated result, and prints the per-layer metrics;
obs.trace_overhead_frac is the median normalised wall time of the
traced reps over that of the untraced reps, minus one. deploy_storm
runs its reps on SHARDS worker threads, plus one rep at SHARD_CHECK
shards whose fingerprint must equal theirs.

Human-readable lines go to stdout first; the last stdout line is the
JSON result. The exit code is 0 only if every check passed.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("deploy_storm", "db_during_deploy", "nic_serving", "lease_churn")
MIN_REPS = 3
MIN_TRACE_REPS = 2
SHARDS = {"deploy_storm": 2}
SHARD_CHECK = 4
REP_TIMEOUT_S = 150
# The reference kernel's median time on the 4-vCPU Xeon VM the
# baseline was recorded on, so normalised times read as seconds there.
REF_NOMINAL_S = 0.33
NORMALISED = ("setup_s", "wall_s")
RAW = {"host.setup_raw_s": "setup_s", "host.wall_raw_s": "wall_s"}
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")


class BenchError(Exception):
    """The benchmark could not run (as opposed to: it ran and a check
    failed)."""


def valid_name(name):
    return isinstance(name, str) and len(name) <= 64 and bool(NAME_RE.match(name))


def ops_fractions(attempted, failed):
    """(ok_frac, failed_frac) of the attempted operations. Refused and
    late operations are passed in as failed."""
    if attempted <= 0:
        raise BenchError("a run must attempt at least one operation")
    failed_frac = failed / attempted
    return 1.0 - failed_frac, failed_frac


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    bad = [n for n in names if not valid_name(n)]
    if bad:
        raise BenchError("invalid metric names in BENCHMARK.json: %s" % bad)
    return spec


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(targets=("bmbench", "bmref")):
    """Configure (once) and build @targets; returns the directory that
    holds the binaries."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("simulator sources (src/) not found next to perfbench/")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + list(targets))
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            raise BenchError("build failed: %s" % " ".join(cmd))
    return out


def run_ref(binary):
    """Host seconds of one run of the reference kernel."""
    r = subprocess.run([binary], stdout=subprocess.PIPE, text=True,
                       timeout=REP_TIMEOUT_S)
    if r.returncode != 0:
        raise BenchError("reference kernel failed (exit %d)" % r.returncode)
    ref_s = json.loads(r.stdout.splitlines()[-1])["ref_s"]
    if not ref_s > 0:
        raise BenchError("reference kernel reported %r s" % ref_s)
    return ref_s


def normalised(rep, name):
    """Host seconds @name of @rep at the reference host speed."""
    return rep["values"][name]["value"] / rep["ref_s"] * REF_NOMINAL_S


def median_normalised(reps, name):
    return statistics.median(normalised(r, name) for r in reps)


def run_rep(binary, workload, seed, shards=1, trace=False):
    """One workload execution in a fresh process; its own report."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--shards", str(shards), "--trace", "1" if trace else "0"]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=REP_TIMEOUT_S)
    lines = [l for l in r.stdout.splitlines() if l.startswith("{")]
    if not lines:
        sys.stderr.write(r.stderr[-4000:])
        raise BenchError("%s produced no result (exit %d)" % (workload, r.returncode))
    rep = json.loads(lines[-1])
    rep["exit_code"] = r.returncode
    rep["shards"] = shards
    rep["values"] = {m["name"]: m for m in rep["metrics"]}
    return rep


def sim_values(rep):
    return {n: m["value"] for n, m in rep["values"].items()
            if m["kind"] in ("sim", "layer_sim")}


def median_of(reps, name):
    return statistics.median(r["values"][name]["value"] for r in reps)


def same_sim(a, b):
    """Simulated metrics present in both reps, compared exactly."""
    va, vb = sim_values(a), sim_values(b)
    diff = sorted(n for n in set(va) & set(vb) if va[n] != vb[n])
    if a["fingerprint"] != b["fingerprint"]:
        diff.append("fingerprint")
    return diff


def collect(binary, ref_binary, workload, seed, seconds, trace):
    """Repeat the workload until the time budget is spent, timing the
    reference kernel before the first rep and after each rep."""
    start = time.monotonic()
    plain, traced = [], []
    ref_before = run_ref(ref_binary)
    while True:
        elapsed = time.monotonic() - start
        if trace:
            enough = (len(plain) >= MIN_TRACE_REPS and
                      len(traced) >= MIN_TRACE_REPS)
        else:
            enough = len(plain) >= MIN_REPS
        if enough and elapsed >= seconds:
            break
        want_trace = trace and len(traced) < len(plain)
        rep = run_rep(binary, workload, seed, shards=SHARDS.get(workload, 1),
                      trace=want_trace)
        ref_after = run_ref(ref_binary)
        rep["ref_s"] = (ref_before + ref_after) / 2.0
        ref_before = ref_after
        (traced if want_trace else plain).append(rep)
    sharded = None
    if workload == "deploy_storm":
        sharded = run_rep(binary, workload, seed, shards=SHARD_CHECK)
    return plain, traced, sharded


def evaluate(spec, plain, traced, sharded, trace):
    """Checks, determinism and the metric set this run prints."""
    problems = []
    reps = plain + traced + ([sharded] if sharded else [])
    for r in reps:
        for name, ok in r["checks"].items():
            if not ok:
                problems.append("check failed: %s" % name)
        if r["exit_code"] != 0:
            problems.append("exit code %d" % r["exit_code"])
    for r in reps[1:]:
        diff = same_sim(reps[0], r)
        if diff:
            problems.append("simulated results differ between reps "
                            "(shards=%d, traced=%s): %s" % (
                                r["shards"],
                                r in traced, ", ".join(diff[:8])))
    problems = sorted(set(problems))

    # Each distinct gate is one operation, failed if it failed in any
    # rep. Exit codes and determinism mismatches make the run incorrect
    # but are not operations.
    base = plain[0]
    gates = set()
    failed_gates = set()
    for r in reps:
        for name, ok in r["checks"].items():
            gates.add(name)
            if not ok:
                failed_gates.add(name)
    attempted = base["attempted"] + len(gates)
    failed = base["failed"] + len(failed_gates)
    ok_frac, failed_frac = ops_fractions(attempted, failed)

    metrics = {}
    if not trace:
        for m in spec["end_to_end"]:
            name = m["name"]
            if name == "ops_ok_frac":
                value = ok_frac
            elif name in NORMALISED:
                value = median_normalised(plain, name)
            elif base["values"][name]["kind"] == "host":
                value = median_of(plain, name)
            else:
                value = base["values"][name]["value"]
            metrics[name] = {"value": value, "unit": m["unit"]}
    else:
        wall_plain = median_normalised(plain, "wall_s")
        wall_traced = median_normalised(traced, "wall_s")
        src = traced[0]["values"]
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "ops_failed_frac":
                value = failed_frac
            elif name == "obs.trace_overhead_frac":
                value = wall_traced / wall_plain - 1.0
            elif name in RAW:
                value = median_of(plain, RAW[name])
            elif name == "host.ref_s":
                value = statistics.median(r["ref_s"] for r in plain)
            elif name == "simcore.shard.parallel_wall_s":
                value = sharded["values"]["wall_s"]["value"] if sharded else 0.0
            elif name not in src:
                raise BenchError("workload did not report %s" % name)
            elif src[name]["kind"] == "layer_host":
                value = median_of(traced, name)
            else:
                value = src[name]["value"]
            metrics[name] = {"value": value, "unit": m["unit"]}
    return problems, attempted, failed, metrics


def summary(workload, seed, plain, traced, sharded, problems):
    base = plain[0]
    print("workload %s seed %d: %d untraced reps, %d traced reps%s" % (
        workload, seed, len(plain), len(traced),
        ", 1 rep at %d shards" % SHARD_CHECK if sharded else ""))
    print("fingerprint %s" % base["fingerprint"])
    print("host seconds, median of %d reps: setup %.6g, wall %.6g, "
          "reference kernel %.6g" % (
              len(plain), median_of(plain, "setup_s"),
              median_of(plain, "wall_s"),
              statistics.median(r["ref_s"] for r in plain)))
    for name, n in sorted(base["samples"].items()):
        print("  %-28s %14.6g  (%d samples)" % (
            name, base["values"][name]["value"], n))
    print("  %-28s %14.6g" % ("store.warm_deploy_frac",
                              base["values"]["store.warm_deploy_frac"]["value"]))
    for p in problems:
        print("PROBLEM: %s" % p)


def run(args):
    spec = load_spec()
    out = build()
    plain, traced, sharded = collect(os.path.join(out, "bmbench"),
                                     os.path.join(out, "bmref"),
                                     args.workload, args.seed,
                                     args.seconds, args.trace == 1)
    problems, attempted, failed, metrics = evaluate(
        spec, plain, traced, sharded, args.trace == 1)
    summary(args.workload, args.seed, plain, traced, sharded, problems)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def selftest():
    out = build(("bmbench", "bmref", "perfbench_selftest"))
    test = os.path.join(out, "perfbench_selftest")
    rc = subprocess.run([test]).returncode
    sys.path.insert(0, os.path.join(HERE, "tests"))
    suite = unittest.defaultTestLoader.loadTestsFromName("test_run")
    ok = unittest.TextTestRunner(verbosity=2).run(suite).wasSuccessful()
    return 0 if rc == 0 and ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args(argv)
    try:
        if args.selftest:
            return selftest()
        if not args.workload:
            p.error("--workload is required")
        if args.seed < 0 or args.seconds < 1:
            p.error("--seed must be >= 0 and --seconds >= 1")
        return run(args)
    except (BenchError, subprocess.TimeoutExpired, OSError,
            json.JSONDecodeError, KeyError) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
