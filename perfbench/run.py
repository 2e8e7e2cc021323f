#!/usr/bin/env python3
"""Run one benchmark workload and print its result line.

    python3 perfbench/run.py --workload bulk_n1024_t1 --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the simulator and the sorn_perfbench
program from source into .bench_build/perfbench (a no-op once built), runs
the workload in a process of its own, checks its outputs, prints every
metric as `name value unit`, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (from the traced run and the layer probes).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "sorn_perfbench"
WORKLOADS = HERE / "workloads"
EXPECTED = HERE / "expected_counts.json"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build (incrementally) sorn_perfbench."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", "sorn_perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def run_perfbench(workload, seed, seconds, trace, nodes):
    cmd = [str(BINARY), "--scenario", str(WORKLOADS / f"{workload}.json"),
           "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        cmd.append("--trace")
    if nodes:
        cmd += ["--nodes", str(nodes)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True)
    if proc.returncode != 0:
        fail(f"sorn_perfbench exited with {proc.returncode}")
    return json.loads(proc.stdout)


def run_problem(run, expected):
    """Why a run's output is wrong, or None when every check holds."""
    if run.get("error"):
        return run["error"]
    if expected is not None and run["counts"] != expected:
        diff = {k: (run["counts"].get(k), v) for k, v in expected.items()
                if run["counts"].get(k) != v}
        return f"counts differ from expected (got, want): {diff}"
    return None


def evaluate(report, expected):
    """(attempted, failed, problems) over the untraced repeats and the
    traced run. Without stored counts the traced run must reproduce the
    untraced counts (sorn_perfbench byte-compares its metrics JSON)."""
    runs = [(run, expected) for run in report["repeats"]]
    if "traced" in report:
        runs.append((report["traced"],
                     expected or report["repeats"][0]["counts"]))
    problems = [f"run {i}: {p}" for i, (run, want) in enumerate(runs)
                if (p := run_problem(run, want))]
    return len(runs), len(problems), problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--nodes", type=int, default=0,
                        help="replay the workload at this node count "
                             "(harness self-test)")
    parser.add_argument("--expected", type=Path,
                        help="stored counts per workload and seed (default: "
                             "expected_counts.json, full scale only)")
    parser.add_argument("--record", action="store_true",
                        help="store this run's counts as the expected ones "
                             "for its workload and seed, then check against "
                             "them")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    build()

    report = run_perfbench(args.workload, args.seed, args.seconds, args.trace,
                        args.nodes)
    expected_path = args.expected or (None if args.nodes else EXPECTED)
    stored = json.loads(expected_path.read_text()) if expected_path else {}
    if args.record:
        if expected_path is None:
            fail("--record at a scaled node count needs --expected")
        stored.setdefault(args.workload, {})[str(args.seed)] = \
            report["repeats"][0]["counts"]
        expected_path.write_text(json.dumps(stored, indent=1, sort_keys=True)
                                 + "\n")
    expected = stored.get(args.workload, {}).get(str(args.seed))
    attempted, failed, problems = evaluate(report, expected)
    for p in problems:
        print(f"perfbench: FAILED {p}", file=sys.stderr)

    rates = [r["counts"]["slots"] / r["run_s"] for r in report["repeats"]]
    values = {"failed_frac": failed / attempted}
    if args.trace:
        traced = report["traced"]
        values.update(traced.get("layers", {}))
        if "run_s" in traced:
            untraced_s = statistics.median(r["run_s"] for r in report["repeats"])
            values["trace_overhead_pct"] = \
                100.0 * (traced["run_s"] / untraced_s - 1.0)
        listed = spec["per_layer"]
    else:
        values["slots_per_sec"] = statistics.median(rates)
        values["setup_s"] = statistics.median(report["setup_s"])
        values["peak_rss_mb"] = report["peak_rss_mb"]
        listed = spec["end_to_end"]

    metrics = {}
    for m in listed:
        if m["name"] not in values:
            # A traced run that errored reports no layers; that run already
            # counts as failed, so the missing values read as absent work.
            if failed == 0:
                fail(f"metric {m['name']} was not measured")
            values[m["name"]] = 0.0
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    print(f"workload {args.workload} seed {args.seed}: {len(rates)} timed "
          f"repeats, slots/s min {min(rates):.1f} max {max(rates):.1f}")
    shown = dict(metrics)
    shown.setdefault("failed_frac", {"value": failed / attempted,
                                     "unit": "fraction"})
    for name, m in shown.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
