#!/usr/bin/env python3
"""Layered benchmark of the fault-tolerant oracle.

Run from the repository root:

  python3 perfbench/run.py                      # every workload, report only
  python3 perfbench/run.py --workload hot_read --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --self-test          # tiny sizes, checks the contract

Builds perfbench/ (and the library from src/) with CMake into the directory
named by CARGO_TARGET_DIR, else .bench_build, then runs each workload in its
own process. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json for --trace 0, its per-layer metrics for --trace 1. Every
line before it is a human-readable report. perfbench/GLOSSARY.md explains
the workloads and metrics.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# churn runs and reports like the others but is not registered in
# BENCHMARK.json: its tail latency follows the host's steal time (see
# GLOSSARY.md), so it cannot hold a regression bound on a shared machine.
WORKLOADS = ["hot_read", "cold_read", "churn", "rp_offline"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures once and builds incrementally; returns the binary path."""
    bdir = build_dir()
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp, CCACHE_DISABLE="1")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, env=env, check=False)
        if cfg.returncode != 0:
            raise RuntimeError("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    res = subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                         stdout=sys.stderr, stderr=sys.stderr, env=env,
                         check=False)
    binary = os.path.join(bdir, "perfbench")
    if res.returncode != 0 or not os.path.exists(binary):
        raise RuntimeError("build failed")
    return binary


def out_dir():
    d = os.path.join(ROOT, ".bench_out")
    os.makedirs(d, exist_ok=True)
    return d


def run_workload(binary, workload, seed, seconds, trace, tiny=False):
    """Runs one workload in its own process; returns its result document."""
    odir = out_dir()
    cmd = [binary, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out-dir", odir]
    if tiny:
        cmd.append("--tiny")
    if workload == "cold_read":
        # Packing the graph image is input preparation: done here, before
        # the measured process starts, deterministically from the seed.
        image = os.path.join(odir, "cold_read-%d%s.rcsr" % (seed, "-tiny" if tiny else ""))
        pack = [binary, "pack", "--seed", str(seed), "--out", image]
        if tiny:
            pack.append("--tiny")
        subprocess.run(pack, check=True, timeout=RUN_TIMEOUT_S)
        cmd += ["--rcsr", image]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                         timeout=RUN_TIMEOUT_S, check=False, text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        raise RuntimeError("%s exited with %d" % (workload, res.returncode))
    return json.loads(lines[-1])


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def report(workload, doc, names, trace, registered=True):
    """Prints every metric by name and unit, notes and the budget table."""
    print("== %s (%s run%s)" % (workload, "traced" if trace else "untraced",
                                "" if registered else ", not in BENCHMARK.json"))
    for name, m in doc["metrics"].items():
        mark = "*" if name in names else " "
        print("  %s %-36s %16.6g %s" % (mark, name, m["value"], m["unit"]))
    print("    %-36s %16s" % ("correct", doc["correct"]))
    for note in doc.get("notes", []):
        print("    note: " + note)
    if doc.get("budget"):
        print("  budget table:")
        for row in doc["budget"]:
            print("    " + row)


def result_line(doc, names):
    metrics = {}
    for name in names:
        if name not in doc["metrics"]:
            raise RuntimeError("metric %s was not emitted" % name)
        metrics[name] = doc["metrics"][name]
    return {"correct": bool(doc["correct"]), "attempted": int(doc["attempted"]),
            "failed": int(doc["failed"]), "metrics": metrics}


def metric_names(spec, trace):
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def self_test(binary, spec):
    """Every workload at a tiny size, untraced and traced: every metric of
    BENCHMARK.json is emitted with a unit, no operation fails, answers check."""
    ok = True
    for trace in (False, True):
        names = metric_names(spec, trace)
        units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
        for w in WORKLOADS:
            doc = run_workload(binary, w, 1, 1, trace, tiny=True)
            problems = []
            for name in names:
                m = doc["metrics"].get(name)
                if m is None:
                    problems.append("missing " + name)
                elif m.get("unit") != units[name]:
                    problems.append("%s unit %r, expected %r" % (name, m.get("unit"), units[name]))
            if doc["failed"] != 0:
                problems.append("error_rate %g" % (doc["failed"] / max(1, doc["attempted"])))
            if not doc["correct"]:
                problems.append("correctness check failed: %s" % doc.get("notes"))
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print("self-test %-10s %-8s %s" % (w, "traced" if trace else "untraced", status))
            ok = ok and not problems
    print("self-test %s" % ("passed" if ok else "FAILED"))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    try:
        spec = load_spec()
        binary = build()
    except (OSError, RuntimeError, ValueError) as e:
        log("perfbench: %s" % e)
        return 1
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    try:
        if args.self_test:
            return 0 if self_test(binary, spec) else 1
        trace = args.trace == 1
        names = metric_names(spec, trace)
        if args.workload is None:
            # The one command: every workload, each in its own process.
            registered = {x["name"] for x in spec["workloads"]}
            for w in WORKLOADS:
                report(w, run_workload(binary, w, args.seed, seconds, trace),
                       names, trace, w in registered)
            return 0
        doc = run_workload(binary, args.workload, args.seed, seconds, trace)
        report(args.workload, doc, names, trace)
        line = result_line(doc, names)
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        return 1
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
