#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the driver program in perfbench/ against the library sources in src/
(Release, into .bench_build/perfbench), generates the workload's inputs and
reference outputs from the seed in a separate process, runs the workload,
and prints a human-readable report. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer ones. The exit code is non-zero when any output differs from the
reference or any operation fails. perfbench/WORKLOADS.md describes the
workloads and every metric.

--selftest plants one wrong reference event (wire_fleet) and one wrong DSE
point (dse_paper) and checks that both runs report the failure.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_work")
BINARY = os.path.join(BUILD, "xbs_perfbench")
WORKLOADS = ("wire_fleet", "archive_exact", "dse_paper")
# setup_s is the median of the run's own set-up and this many more set-up-only
# processes (set-up compiles process-wide tables, so each repeat is a fresh
# process).
SETUP_REPEATS = 4


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def call(cmd, timeout):
    """Run cmd, wait for it, return its stdout; raise with its output on failure."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[:3])} exited {proc.returncode}:\n"
                           f"{proc.stdout[-4000:]}{proc.stderr[-4000:]}")
    return proc.stdout


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("the library sources (src/) are not next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        call(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    call(["cmake", "--build", BUILD, "-j", jobs], timeout=840)


def run_json(cmd, timeout):
    out = call(cmd, timeout)
    return json.loads(out.strip().splitlines()[-1])


def run_workload(workload, seed, seconds, trace, corrupt=False):
    """Generate inputs, run the workload, return the driver's report dict."""
    build()
    workdir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        gen = [BINARY, "gen", "--workload", workload, "--seed", str(seed), "--dir", workdir]
        call(gen + (["--corrupt"] if corrupt else []), timeout=60)
        run = [BINARY, "run", "--workload", workload, "--dir", workdir,
               "--seconds", str(seconds), "--trace", "1" if trace else "0"]
        report = run_json(run, timeout=4 * seconds + 60)
        if not trace:
            setups = [report["metrics"]["setup_s"]["value"]]
            for _ in range(SETUP_REPEATS):
                rep = run_json(run + ["--setup-only"], timeout=60)
                setups.append(rep["metrics"]["setup_s"]["value"])
            report["metrics"]["setup_s"]["value"] = statistics.median(setups)
            report["notes"].append("setup_s samples: " +
                                   ", ".join(f"{s:.6f}" for s in setups))
        spans = os.path.join(workdir, "spans.tsv")
        if os.path.isfile(spans):
            shutil.move(spans, os.path.join(WORK, f"spans-{workload}.tsv"))
            report["notes"].append(f"spans written to .bench_work/spans-{workload}.tsv")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return report


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def result_line(report, spec, trace):
    """The contract's last line: exactly the metrics of the run's kind."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None and trace:
            # A layer this workload bypasses did no work: report it as 0.
            got = {"value": 0.0, "unit": m["unit"]}
        if got is None:
            raise RuntimeError(f"the run did not report {m['name']}")
        if got["unit"] != m["unit"]:
            raise RuntimeError(f"{m['name']}: unit {got['unit']} != {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return {"correct": report["failed"] == 0, "attempted": max(1, report["attempted"]),
            "failed": report["failed"], "metrics": metrics}


def print_report(workload, seed, report, line):
    print(f"== {workload} (seed {seed})")
    for note in report["notes"]:
        print(f"   {note}")
    ratio = line["failed"] / line["attempted"]
    print(f"   {'fail_ratio':<34} {ratio:.6g} ({line['failed']} of {line['attempted']})")
    for name, m in line["metrics"].items():
        print(f"   {name:<34} {m['value']:.6g} {m['unit']}")


def selftest():
    ok = True
    for workload in ("wire_fleet", "dse_paper"):
        report = run_workload(workload, seed=1, seconds=2, trace=False, corrupt=True)
        seen = report["failed"] > 0
        ok = ok and seen
        print(f"selftest {workload}: planted reference error "
              f"{'reported' if seen else 'NOT reported'} (failed={report['failed']})")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    try:
        if args.selftest:
            return selftest()
        if args.workload is None:
            ap.error("--workload is required")
        spec = load_spec()
        report = run_workload(args.workload, args.seed, args.seconds, args.trace == 1)
        line = result_line(report, spec, args.trace == 1)
    except (RuntimeError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e}")
        return 2
    print_report(args.workload, args.seed, report, line)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
