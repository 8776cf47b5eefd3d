#!/usr/bin/env python3
"""Benchmark entry point for the NEVE simulator.

Run one workload (from the root of a source checkout):

    python3 perfbench/run.py --workload micro-trap --seed 1 --seconds 12 --trace 0

builds perfbench/main.exe from source with dune, times the workload's
set-up in 21 fresh processes, runs the workload once, checks its
results, and prints one JSON object as the last line of standard output:
the end-to-end metrics of BENCHMARK.json with --trace 0, the per-layer
metrics with --trace 1.  --out FILE also writes that object, with the
workload and seed, to FILE.

Compare saved runs of two commits (files written with --out):

    python3 perfbench/run.py --compare A1.json A2.json ... -- B1.json B2.json ...

Check that every workload prints every metric with its unit, that the
deterministic metrics repeat exactly across two short runs, and that the
simulated results do not depend on the seed:

    python3 perfbench/run.py --smoke
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
BUILD_DIR = os.path.abspath(
    os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "dune"))
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
SETUP_RUNS = 21
RUN_TIMEOUT_S = 170
# Units whose values are counts or simulated quantities: a fixed seed and
# segment count must reproduce them exactly.
DETERMINISTIC_UNITS = {
    "words/op", "1/kop", "MiB", "cycles", "traps/op", "events/op",
    "copies/op", "count", "KiB",
}
# Units of the simulated results.  The seed only orders a run's segments,
# so these are the same for every seed.
SEED_INVARIANT_UNITS = {"cycles"}
# End-to-end units --compare judges pair by pair: values a change moves
# only by changing what the program computes or allocates.  Major GC
# counts and the heap peak also repeat for a seed, but any change to the
# heap's layout moves them by chaotic amounts, so they are judged like
# timings.
PAIRED_UNITS = {"cycles", "words/op"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log("perfbench: " + msg)
    sys.exit(2)


def load_spec():
    try:
        with open(SPEC_PATH) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def build():
    """Build the benchmark executable from the checkout's sources."""
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s is missing: run from the root of a source checkout" % need)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = [dune, "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/main.exe"]
    r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0 or not os.path.exists(EXE):
        fail("build failed (exit %d)" % r.returncode)


def setup_seconds(workload):
    """The workload's set-up time: process start, module initialisation,
    machine creation and boot, warm-up, up to the point the first segment
    would start.  Each fresh process reports when it gets there, then
    times the host-speed calibration loop; the time is scaled to the
    loop's nominal speed like norm_ops_per_s, and the median of
    SETUP_RUNS processes is returned."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        p = subprocess.Popen([EXE, "setup", workload],
                             stdout=subprocess.PIPE, text=True)
        try:
            ready = p.stdout.readline()
            elapsed = time.perf_counter() - t0
            factor = p.stdout.readline()
            p.wait(timeout=RUN_TIMEOUT_S)
        finally:
            p.kill()
            p.wait()
        if p.returncode != 0 or ready.strip() != "ready":
            fail("set-up of %s failed (exit %d)" % (workload, p.returncode))
        times.append(elapsed * float(factor))
    return statistics.median(times)


def run_once(workload, seed, seconds, traced, echo=True):
    """Run the workload in one process; returns its results JSON."""
    out = os.path.join(BUILD_DIR, "results-%s-%d-%d.json" % (workload, seed, traced))
    if os.path.exists(out):
        os.remove(out)
    cmd = [EXE, "run", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--out", out]
    if traced:
        cmd += ["--traced", "--spans-dir", os.path.join(BUILD_DIR, "spans")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    if echo:
        sys.stdout.write(r.stdout)
        sys.stdout.flush()
    if r.returncode not in (0, 1) or not os.path.exists(out):
        fail("%s crashed (exit %d)" % (workload, r.returncode))
    with open(out) as f:
        return json.load(f)


def result_line(spec, workload, results, setup_s, traced):
    """The result object printed last: the metrics of the requested pass,
    each with the unit BENCHMARK.json gives it."""
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    measured = dict(results["metrics"])
    if setup_s is not None:
        measured["setup_s"] = {"value": setup_s, "unit": "s"}
    correct = bool(results["correct"])
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None or got["value"] is None or got["unit"] != m["unit"]:
            log("perfbench: %s: metric %s missing or in the wrong unit"
                % (workload, m["name"]))
            correct = False
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    for p in results["problems"]:
        log("perfbench: %s: %s" % (workload, p))
    return {"correct": correct, "attempted": int(results["attempted"]),
            "failed": int(results["failed"]), "metrics": metrics}


def bench(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (one of %s)" % (args.workload, ", ".join(names)))
    build()
    traced = args.trace == 1
    setup_s = None if traced else setup_seconds(args.workload)
    results = run_once(args.workload, args.seed, args.seconds, traced)
    line = result_line(spec, args.workload, results, setup_s, traced)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(dict(line, workload=args.workload, seed=args.seed,
                           trace=args.trace, digest=results["digest"]), f)
    print(json.dumps(line), flush=True)


# --- comparison of saved runs ---

def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def load_runs(spec, paths):
    """Saved untraced runs by workload, then by seed.  A run that is not
    correct or lacks an end-to-end metric cannot be compared."""
    runs = {}
    for p in paths:
        try:
            with open(p) as f:
                r = json.load(f)
        except (OSError, ValueError) as e:
            fail("cannot read %s: %s" % (p, e))
        if r.get("trace") != 0:
            fail("%s: a traced run; compare untraced runs" % p)
        if not r.get("correct"):
            fail("%s: the run is not correct" % p)
        missing = [m["name"] for m in spec["end_to_end"] if m["name"] not in r["metrics"]]
        if missing:
            fail("%s: missing %s" % (p, ", ".join(missing)))
        by_seed = runs.setdefault(r["workload"], {})
        if r["seed"] in by_seed:
            fail("%s: a second run of %s with seed %d" % (p, r["workload"], r["seed"]))
        by_seed[r["seed"]] = r
    return runs


def compare(files_a, files_b):
    """For every workload, each side's failed operations, and for every
    end-to-end metric each side's median, A's quartile spread, the change,
    the seed-paired runs B wins, and a verdict.

    Wall-clock metrics (choosing-metrics section 8): B improved when it
    wins at least nine tenths of the pairs and the medians differ by more
    than A's interquartile range; otherwise the comparison is unresolved
    when A's spread exceeds the bound and B's runs do not all beat A's;
    otherwise B regressed when its median is worse than A's by more than
    the bound, and is within bound when not.

    The simulated results and minor words repeat exactly for a seed, so
    they are judged pair by pair: unchanged when every pair is equal, improved when no
    pair is worse and nine tenths are better, regressed when a pair is
    worse by more than the bound, within bound otherwise.

    B never improves a workload on which it fails more operations than A;
    that counts as a regression."""
    spec = load_spec()
    a_runs, b_runs = load_runs(spec, files_a), load_runs(spec, files_b)
    worst = 0
    print("%-14s %-20s %12s %12s %12s %12s %6s  %s"
          % ("workload", "metric", "A median", "A q1-q3 %", "B median",
             "change %", "wins", "verdict"))
    for w in spec["workloads"]:
        name = w["name"]
        if name not in a_runs or name not in b_runs:
            continue
        seeds = sorted(set(a_runs[name]) & set(b_runs[name]))
        if not seeds:
            fail("%s: no seed run on both sides" % name)
        a = [a_runs[name][s] for s in seeds]
        b = [b_runs[name][s] for s in seeds]
        a_failed, b_failed = (sum(r["failed"] for r in rs) for rs in (a, b))
        a_tried, b_tried = (sum(r["attempted"] for r in rs) for rs in (a, b))
        more_failures = b_failed * a_tried > a_failed * b_tried
        print("%-14s %-20s %12s %12s %12s %12s %6s  %s"
              % (name, "failed", "%d/%d" % (a_failed, a_tried), "",
                 "%d/%d" % (b_failed, b_tried), "", "",
                 "regressed" if more_failures else "not worse"))
        if more_failures:
            worst = 2
        for m in spec["end_to_end"]:
            av = [r["metrics"][m["name"]]["value"] for r in a]
            bv = [r["metrics"][m["name"]]["value"] for r in b]
            lower = m["better"] == "lower"
            better = (lambda y, x: y < x) if lower else (lambda y, x: y > x)
            aq1, amed, aq3 = quartiles(av)
            _, bmed, _ = quartiles(bv)
            pairs = list(zip(av, bv))
            wins = sum(1 for x, y in pairs if better(y, x))
            spread = (aq3 - aq1) / amed if amed else 0.0
            change = (bmed - amed) / amed if amed else 0.0

            def worse_by(x, y):
                c = (y - x) / x if x else float(y != x)
                return c if lower else -c

            if m["unit"] in PAIRED_UNITS:
                if all(x == y for x, y in pairs):
                    verdict = "unchanged"
                elif (not more_failures and wins >= 0.9 * len(pairs)
                      and not any(better(x, y) for x, y in pairs)):
                    verdict = "improved"
                elif max(worse_by(x, y) for x, y in pairs) > m["bound"]:
                    verdict, worst = "regressed", 2
                else:
                    verdict = "within bound"
            elif (not more_failures and better(bmed, amed)
                    and wins >= 0.9 * len(pairs) and abs(bmed - amed) > aq3 - aq1):
                verdict = "improved"
            elif spread > m["bound"] and not all(better(y, x) for x in av for y in bv):
                verdict, worst = "unresolved", max(worst, 1)
            elif worse_by(amed, bmed) > m["bound"]:
                verdict, worst = "regressed", 2
            else:
                verdict = "within bound"
            print("%-14s %-20s %12.6g %12.2f %12.6g %12.2f %3d/%-2d  %s"
                  % (name, m["name"], amed, 100 * spread, bmed, 100 * change,
                     wins, len(pairs), verdict))
    sys.exit(worst)


# --- smoke check ---

def smoke():
    """Every workload twice per pass at four segments (the minimum), and
    untraced once more with another seed: every metric of BENCHMARK.json
    present with its unit, the deterministic ones identical for one seed,
    and the simulated results and digest identical across seeds."""
    spec = load_spec()
    build()
    bad = []

    def same(what, x, y, keys, units):
        for key in keys:
            if x[key] != y[key]:
                bad.append("%s: %s differs" % (what, key))
        for m in spec["per_layer"] if x["traced"] else spec["end_to_end"]:
            if m["unit"] in units:
                v = [r["metrics"].get(m["name"], {}).get("value") for r in (x, y)]
                if v[0] != v[1]:
                    bad.append("%s: %s differs: %r" % (what, m["name"], v))

    for w in spec["workloads"]:
        for traced in (0, 1):
            what = "%s trace %d" % (w["name"], traced)
            seeds = (7, 7) if traced else (7, 7, 8)
            # 0.1 s rounds to the four-segment minimum on every workload
            runs = [run_once(w["name"], s, 0.1, traced, echo=False) for s in seeds]
            for r in runs:
                if not result_line(spec, w["name"], r, 1.0, traced)["correct"]:
                    bad.append("%s: not correct" % what)
            keys = ("digest", "attempted", "failed")
            same(what, runs[0], runs[1], keys, DETERMINISTIC_UNITS)
            if not traced:
                same(what + " seeds 7/8", runs[0], runs[2], keys, SEED_INVARIANT_UNITS)
            log("smoke: %s done" % what)
    for b in bad:
        log("smoke: " + b)
    print("smoke: %s" % ("FAILED" if bad else "ok"))
    sys.exit(1 if bad else 0)


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["--compare"]:
        rest = argv[1:]
        if "--" not in rest:
            fail("usage: run.py --compare A.json... -- B.json...")
        i = rest.index("--")
        compare(rest[:i], rest[i + 1:])
    if argv[:1] == ["--smoke"]:
        smoke()
    p = argparse.ArgumentParser(description="NEVE simulator benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    bench(p.parse_args(argv))


if __name__ == "__main__":
    main()
