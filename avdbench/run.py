#!/usr/bin/env python3
"""The repository benchmark: builds avdbench from source and runs it.

One run of one workload (the form BENCHMARK.json names):

    python3 avdbench/run.py --workload day_dusk_640 --seed 7 --seconds 10 --trace 0

prints the metric table, writes a report with the host fingerprint under
.bench_build/avdbench/reports/, and ends with one JSON line holding
"correct", "attempted", "failed" and "metrics" (the end_to_end metrics of
BENCHMARK.json with --trace 0, the per_layer ones with --trace 1).

Other commands:

    python3 avdbench/run.py all [--seconds S] [--seed N]
        every workload, untraced then traced, on the default and the
        held-out seed; writes one combined report.
    python3 avdbench/run.py compare BASE.json NEW.json
        compares two reports metric by metric against the BENCHMARK.json
        bounds; refuses reports taken on different hosts.
    python3 avdbench/run.py test
        the benchmark's own tests (avdbench/tests).

Everything is built and written inside the checkout, under .bench_build/.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "avdbench")
REPORT_DIR = os.path.join(BUILD_DIR, "reports")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ("day_dusk_640", "night_1080", "adaptive_serve")
DEFAULT_SEED = 1
# Never tune against this seed: it exists so a claimed gain can be re-checked
# on inputs its author did not look at while writing the change.
HELD_OUT_SEED = 7919
# Host fields that must agree before two reports may be compared.
HOST_KEYS = ("nproc", "cpu_model", "llc", "compiler", "build_type")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark into BUILD_DIR."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   check=True, stdout=sys.stderr)


def load_benchmark():
    with open(BENCHMARK_JSON) as f:
        return json.load(f)


def _read(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return None


def _cpu_model():
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _llc():
    """Size of the highest-level cache of cpu0, as the kernel reports it."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = (0, "unknown")
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, entry, "level"))
        size = _read(os.path.join(base, entry, "size"))
        if level and size and int(level) >= best[0]:
            best = (int(level), "L%s %s" % (level, size))
    return best[1]


def _source_id():
    """The git commit when the checkout has one, and always a digest of the
    sources the benchmark builds (src/ and avdbench/), so reports from a
    plain export still identify the code they measured."""
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True,
                                 check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            sha = None
    digest = hashlib.sha256()
    for top in ("src", "avdbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return sha, digest.hexdigest()[:16]


def host_fingerprint(notes, seed):
    sha, digest = _source_id()
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "llc": _llc(),
        "compiler": notes.get("compiler", "unknown"),
        "build_type": notes.get("build_type", "unknown"),
        "git_sha": sha,
        "source_digest": digest,
        "seed": seed,
    }


def run_once(workload, seed, seconds, trace):
    """Runs the built binary once; returns (full report dict, contract dict)
    or raises RuntimeError when it produced no result line."""
    binary = os.path.join(BUILD_DIR, "avdbench")
    os.makedirs(REPORT_DIR, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (workload, seed, trace)
    spans = os.path.join(REPORT_DIR, stem + ".spans.json")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace)]
    if trace:
        cmd += ["--spans-out", spans]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError("avdbench produced no result (exit %d)"
                           % proc.returncode)
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    bench = load_benchmark()
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    metrics, missing = {}, []
    for m in wanted:
        got = result["metrics"].get(m["name"])
        value = None if got is None else got["value"]
        if value is None or not math.isfinite(value):
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = bool(result["correct"]) and not missing
    if missing:
        log("avdbench: metrics missing from the run: " + ", ".join(missing))
    failed = [g for g, ok in result["gates"].items() if not ok]
    if failed:
        log("avdbench: failed gates: " + ", ".join(failed))

    report = {
        "workload": workload,
        "trace": trace,
        "seconds": seconds,
        "host": host_fingerprint(result.get("notes", {}), seed),
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "frames_failed_pct":
            100.0 * result["failed"] / max(1, result["attempted"]),
        "metrics": result["metrics"],
        "gates": result["gates"],
        "notes": result.get("notes", {}),
        "spans_file": os.path.relpath(spans, ROOT) if trace else None,
    }
    with open(os.path.join(REPORT_DIR, stem + ".json"), "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    contract = {"correct": correct, "attempted": result["attempted"],
                "failed": result["failed"], "metrics": metrics}
    return report, contract


def cmd_all(args):
    build()
    reports = []
    for seed in (args.seed, HELD_OUT_SEED):
        for workload in WORKLOADS:
            for trace in (0, 1):
                log("== %s seed %d trace %d" % (workload, seed, trace))
                report, _ = run_once(workload, seed, args.seconds, trace)
                reports.append(report)
    path = os.path.join(REPORT_DIR, "all-seed%d.json" % args.seed)
    with open(path, "w") as f:
        json.dump({"host": reports[0]["host"], "runs": reports}, f, indent=1,
                  sort_keys=True)
    ok = all(r["correct"] for r in reports)
    print("%d runs, %s; report %s" % (len(reports),
                                      "all gates passed" if ok else "FAILED",
                                      os.path.relpath(path, ROOT)))
    return 0 if ok else 1


def _runs(doc):
    return doc["runs"] if "runs" in doc else [doc]


def cmd_compare(args):
    with open(args.base) as f:
        base = json.load(f)
    with open(args.new) as f:
        new = json.load(f)
    host_a, host_b = _runs(base)[0]["host"], _runs(new)[0]["host"]
    diffs = ["%s: %r vs %r" % (k, host_a.get(k), host_b.get(k))
             for k in HOST_KEYS if host_a.get(k) != host_b.get(k)]
    if diffs:
        print("refusing to compare: the reports come from different hosts "
              "or builds (" + "; ".join(diffs) + ")")
        return 2
    bench = load_benchmark()
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    index = {(r["workload"], r["trace"], r["host"]["seed"]): r
             for r in _runs(new)}
    regressions = 0
    print("%-16s %-32s %14s %14s %9s  %s" % ("workload", "metric", "base",
                                            "new", "change", "verdict"))
    for a in _runs(base):
        b = index.get((a["workload"], a["trace"], a["host"]["seed"]))
        if b is None:
            continue
        for name, m in sorted(a["metrics"].items()):
            if name not in b["metrics"]:
                continue
            va, vb = m["value"], b["metrics"][name]["value"]
            if va is None or vb is None:
                continue
            change = (vb - va) / abs(va) if va else 0.0
            # Only bounded metrics get a verdict; the rest are shown as is.
            verdict = "-"
            if "bound" in spec.get(name, {}):
                worse = change if spec[name]["better"] == "lower" else -change
                verdict = "REGRESSED" if worse > spec[name]["bound"] else "ok"
                regressions += verdict == "REGRESSED"
            print("%-16s %-32s %14.6g %14.6g %+8.2f%%  %s" % (
                a["workload"], name, va, vb, 100 * change, verdict))
    return 1 if regressions else 0


def cmd_test(_args):
    return subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s",
         os.path.join(HERE, "tests"), "-v"]).returncode


def main(argv):
    if argv and argv[0] in ("all", "compare", "test"):
        parser = argparse.ArgumentParser(prog="run.py " + argv[0])
        if argv[0] == "all":
            parser.add_argument("--seconds", type=float, default=10.0)
            parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
        elif argv[0] == "compare":
            parser.add_argument("base")
            parser.add_argument("new")
        args = parser.parse_args(argv[1:])
        return {"all": cmd_all, "compare": cmd_compare,
                "test": cmd_test}[argv[0]](args)

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.time()
    try:
        build()
        _, contract = run_once(args.workload, args.seed, args.seconds,
                               args.trace)
    except (OSError, RuntimeError, subprocess.CalledProcessError,
            ValueError, KeyError) as e:
        log("avdbench: %s" % e)
        return 1
    log("avdbench: run took %.1f s" % (time.time() - started))
    print(json.dumps(contract))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
