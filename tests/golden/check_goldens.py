#!/usr/bin/env python3
"""Behaviour goldens: fail on any drift in what the simulator computes.

    python3 tests/golden/check_goldens.py --build build smoke figures
    python3 tests/golden/check_goldens.py --build build fig14
    python3 tests/golden/check_goldens.py perfbench
    python3 tests/golden/check_goldens.py --build build --update smoke

Each group is one key of goldens.json (next to this script):

  smoke      every "fingerprint" in the BENCH_*.json that a smoke run
             writes (abl_storm, abl_migrate, abl_shared_nic and
             abl_repair with --smoke), in document order
  figures    sha256 of the stdout of fig04, fig05, fig10 and fig11
  fig14      sha256 of fig14_moderation's stdout (about ten minutes)
  perfbench  per workload at seeds 1 and 1001: the fingerprint, the
             attempted/failed operation counts and every simulated
             end-to-end metric of `perfbench/run.py --seconds 1
             --trace 0` (the host-time metrics are left out)

--build names the CMake build tree holding bench/ (smoke, figures,
fig14); perfbench builds its own tree. The exit code is 0 when every
checked entry matches the table and 1 on any drift, each difference
printed. --update rewrites the checked groups' entries instead: an
intended behaviour change updates the table in the same change and
says why.
"""

import argparse
import glob
import hashlib
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
TABLE = os.path.join(HERE, "goldens.json")

SMOKES = ("abl_storm", "abl_migrate", "abl_shared_nic", "abl_repair")
FIGURES = ("fig04_startup", "fig05_database", "fig10_storage_tput",
           "fig11_storage_lat")
SLOW_FIGURES = ("fig14_moderation",)
WORKLOADS = ("deploy_storm", "db_during_deploy", "nic_serving",
             "lease_churn")
SEEDS = (1, 1001)
HOST_METRICS = ("setup_s", "wall_s", "peak_rss_mib")
TIMEOUT_S = 3600


class GoldenError(Exception):
    """A run that could not produce a value to compare."""


def run(cmd, cwd):
    r = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, timeout=TIMEOUT_S)
    if r.returncode != 0:
        sys.stderr.write(r.stderr.decode(errors="replace")[-4000:])
        raise GoldenError("%s exited %d" % (" ".join(cmd), r.returncode))
    return r.stdout


def fingerprints(node):
    """Every "fingerprint" value under @node, in document order."""
    if isinstance(node, dict):
        out = []
        for key, value in node.items():
            if key == "fingerprint":
                out.append(value)
            else:
                out.extend(fingerprints(value))
        return out
    if isinstance(node, list):
        return [fp for item in node for fp in fingerprints(item)]
    return []


def bench_binary(build, name):
    path = os.path.join(build, "bench", name)
    if not os.access(path, os.X_OK):
        raise GoldenError("%s not built (run cmake --build %s)"
                          % (path, build))
    return path


def smoke(build, name):
    with tempfile.TemporaryDirectory() as tmp:
        run([bench_binary(build, name), "--smoke"], tmp)
        reports = glob.glob(os.path.join(tmp, "BENCH_*.json"))
        if len(reports) != 1:
            raise GoldenError("%s --smoke wrote %d BENCH_*.json files"
                              % (name, len(reports)))
        with open(reports[0]) as f:
            return fingerprints(json.load(f))


def figure(build, name):
    with tempfile.TemporaryDirectory() as tmp:
        out = run([bench_binary(build, name)], tmp)
    return hashlib.sha256(out).hexdigest()


def perfbench(workload, seed):
    out = run([sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", "0"], ROOT)
    lines = out.decode().splitlines()
    fp = [l.split()[1] for l in lines if l.startswith("fingerprint ")]
    if len(fp) != 1:
        raise GoldenError("run.py printed no fingerprint for %s seed %d"
                          % (workload, seed))
    result = json.loads(lines[-1])
    return {"fingerprint": fp[0],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()
                        if k not in HOST_METRICS}}


def measure(group, build):
    """{entry name: value} for every entry of @group."""
    if group == "smoke":
        return {n: smoke(build, n) for n in SMOKES}
    if group == "figures":
        return {n: figure(build, n) for n in FIGURES}
    if group == "fig14":
        return {n: figure(build, n) for n in SLOW_FIGURES}
    return {"%s/%d" % (w, s): perfbench(w, s)
            for w in WORKLOADS for s in SEEDS}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("groups", nargs="+",
                   choices=("smoke", "figures", "fig14", "perfbench"))
    p.add_argument("--build", default=os.path.join(ROOT, "build"))
    p.add_argument("--update", action="store_true",
                   help="rewrite the groups' entries instead of checking")
    args = p.parse_args(argv)
    build = os.path.abspath(args.build)

    with open(TABLE) as f:
        table = json.load(f)
    drift = []
    for group in args.groups:
        try:
            now = measure(group, build)
        except (GoldenError, subprocess.TimeoutExpired) as e:
            print("golden %s: could not run: %s" % (group, e))
            return 1
        if args.update:
            table[group] = now
            continue
        golden = table.get(group, {})
        for name in sorted(set(golden) | set(now)):
            if golden.get(name) != now.get(name):
                drift.append("%s/%s: golden %s, now %s" % (
                    group, name, json.dumps(golden.get(name)),
                    json.dumps(now.get(name))))
        print("golden %s: %d entries checked" % (group, len(now)))

    if args.update:
        with open(TABLE, "w") as f:
            json.dump(table, f, indent=2, sort_keys=True)
            f.write("\n")
        print("updated %s: %s" % (TABLE, ", ".join(args.groups)))
        return 0
    for d in drift:
        print("DRIFT %s" % d)
    return 1 if drift else 0


if __name__ == "__main__":
    sys.exit(main())
