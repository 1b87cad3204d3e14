#!/usr/bin/env python3
"""Interleaved A/B runner for perfbench/run.py.

Runs the trace-replay benchmark alternately in two checkouts, a parent
and a change, pair by pair. Each checkout builds its own .bench_build.
Pair k runs both sides with seed SEED_BASE + k; the side that runs
first flips on every other pair, so a drifting host penalizes neither
side. Metric names and directions come from BENCHMARK.json (read only):
its end_to_end list with --trace 0, its per_layer list with --trace 1.

For every metric it prints the parent's median, the change's median,
the parent's interquartile range, the pairs the change won and the
median per-pair ratio change / parent, then the correct/failed totals.
It exits 1 if any run is not correct or fails an operation.

    python3 tools/perf_ab.py --parent ../parent --change . \\
        --workload office-dense --pairs 10 --seconds 40
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(checkout, workload, seed, seconds, trace):
    """One perfbench run; returns its final JSON line as a dict."""
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)  # each checkout builds its own tree
    proc = subprocess.run(
        [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", str(trace)],
        cwd=checkout, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        report = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    if proc.returncode != 0:
        report["correct"] = False
    return report


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent checkout")
    ap.add_argument("--change", default=ROOT, help="change checkout")
    ap.add_argument("--workload", action="append", required=True,
                    help="repeat for several workloads")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seed-base", type=int, default=2401)
    ap.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    ap.add_argument("--json", help="write every run's report here")
    args = ap.parse_args()

    with open(args.benchmark) as fh:
        bench = json.load(fh)
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}

    ok = True
    log = []
    for workload in args.workload:
        runs = {"parent": [], "change": []}
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                report = run_once(sides[side], workload, args.seed_base + k,
                                  args.seconds, args.trace)
                runs[side].append(report)
                log.append({"workload": workload, "pair": k, "side": side,
                            "report": report})
                print(f"# {workload} pair {k + 1}/{args.pairs} {side}: "
                      f"correct={report['correct']} failed={report['failed']}",
                      file=sys.stderr, flush=True)

        print(f"\n{workload}: {args.pairs} pairs x {args.seconds:g} s, "
              f"trace {args.trace}, seeds {args.seed_base}+")
        print("| metric | parent median | change median | change | "
              "parent IQR | pairs won | median pair ratio |")
        print("|---|---|---|---|---|---|---|")
        for m in metrics:
            name, higher = m["name"], m["better"] == "higher"
            pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                     for p, c in zip(runs["parent"], runs["change"])
                     if name in p["metrics"] and name in c["metrics"]]
            if not pairs:
                continue
            pv = [p for p, _ in pairs]
            cv = [c for _, c in pairs]
            pm, cm = statistics.median(pv), statistics.median(cv)
            q1, q3 = quartiles(pv)
            won = sum((c > p) if higher else (c < p) for p, c in pairs)
            ratio = statistics.median([c / p for p, c in pairs if p != 0] or [0])
            delta = f"{(cm - pm) / pm * 100.0:+.1f}%" if pm else "n/a"
            print(f"| {name} | {pm:.4g} | {cm:.4g} | {delta} | {q3 - q1:.3g} "
                  f"| {won}/{len(pairs)} | {ratio:.3f} |")
        for side in ("parent", "change"):
            rs = runs[side]
            correct = sum(bool(r["correct"]) for r in rs)
            attempted = sum(r["attempted"] for r in rs)
            failed = sum(r["failed"] for r in rs)
            print(f"{side}: {correct}/{len(rs)} runs correct, "
                  f"{failed} of {attempted} operations failed")
            ok = ok and correct == len(rs) and failed == 0

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(log, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
