#!/usr/bin/env python3
"""Steadiness report: the evidence for the bounds in BENCHMARK.json.

Run each workload N times, each with another seed, and print for every
metric the median, the quartiles, the spread (q3 - q1) / median and the
range (max - min) / median:

    python3 perfbench/steady.py run --runs 10 --out .perfbench_run/set1.json

Compare two such sets (e.g. the same code measured twice, or a parent
commit against a change); for each end-to-end metric the second median
may be worse than the first by at most the metric's bound:

    python3 perfbench/steady.py compare .perfbench_run/set1.json .perfbench_run/set2.json

Options of `run`: --workloads a,b (default: all in BENCHMARK.json),
--runs N (10), --seed0 S (1; run k uses seed S + k), --seconds T
(BENCHMARK.json's run_seconds), --trace 0|1 (0). Quartiles are those of
Python's statistics.quantiles(values, n=4). Runs of equal seed must
give equal digests; `compare` checks that too.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run failed (%s seed %d, exit %d):\n%s" % (
            workload, seed, proc.returncode, proc.stderr[-2000:]))
    result = json.loads(lines[-1])
    report = next((json.loads(l)["report"] for l in lines if l.startswith('{"report"')), {})
    if not result["correct"] or result["failed"]:
        sys.exit("incorrect run (%s seed %d): %s" % (workload, seed, report.get("problems")))
    return result, report


def spread(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / med if med else 0.0,
        "range_share": (max(values) - min(values)) / med if med else 0.0,
    }


def bounds(spec):
    return {m["name"]: m for m in spec["end_to_end"]}


def cmd_run(args):
    spec = load_spec()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    out = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for w in workloads:
        values, digests, host = {}, {}, None
        for k in range(args.runs):
            seed = args.seed0 + k
            result, report = run_once(spec, w, seed, seconds, args.trace)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            digests[str(seed)] = report.get("digest")
            host = report.get("host", host)
            print("%s seed %d: %s" % (w, seed, " ".join(
                "%s=%.4g" % (n, m["value"]) for n, m in result["metrics"].items())), flush=True)
        out["workloads"][w] = {"values": values, "digests": digests, "host": host}
    print_report(out, spec)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1)


def print_report(data, spec):
    b = bounds(spec)
    print("%-12s %-34s %12s %12s %12s %8s %8s %6s" % (
        "workload", "metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound"))
    for w, d in data["workloads"].items():
        for name, vals in d["values"].items():
            s = spread(vals)
            bound = b.get(name, {}).get("bound")
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if s["iqr_share"] <= bound / 3 else ("within" if s["iqr_share"] <= bound else "NOISY")
            print("%-12s %-34s %12.5g %12.5g %12.5g %8.3f %8.3f %6s %s" % (
                w, name, s["median"], s["q1"], s["q3"], s["iqr_share"], s["range_share"],
                "" if bound is None else bound, flag))


def cmd_compare(args):
    spec = load_spec()
    b = bounds(spec)
    with open(args.first) as f:
        first = json.load(f)
    with open(args.second) as f:
        second = json.load(f)
    failures = 0
    print("%-12s %-16s %12s %12s %9s %6s" % ("workload", "metric", "median1", "median2", "worse by", "bound"))
    for w, d1 in first["workloads"].items():
        d2 = second["workloads"].get(w)
        if d2 is None:
            continue
        for seed, digest in d1["digests"].items():
            if seed in d2["digests"] and d2["digests"][seed] != digest:
                failures += 1
                print("%s seed %s: digest %s != %s" % (w, seed, digest, d2["digests"][seed]))
        for name, m in b.items():
            if name not in d1["values"] or name not in d2["values"]:
                continue
            m1 = statistics.median(d1["values"][name])
            m2 = statistics.median(d2["values"][name])
            worse = (m2 - m1) / m1 if m["better"] == "lower" else (m1 - m2) / m1
            ok = worse <= m["bound"]
            failures += not ok
            print("%-12s %-16s %12.5g %12.5g %8.1f%% %6s %s" % (
                w, name, m1, m2, 100 * worse, m["bound"], "ok" if ok else "WORSE"))
    sys.exit(1 if failures else 0)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workloads", default="")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seed0", type=int, default=1)
    r.add_argument("--seconds", type=int, default=0)
    r.add_argument("--trace", type=int, default=0, choices=[0, 1])
    r.add_argument("--out", default="")
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    args = p.parse_args()
    cmd_run(args) if args.cmd == "run" else cmd_compare(args)


if __name__ == "__main__":
    main()
