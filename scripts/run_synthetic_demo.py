#!/usr/bin/env python3
"""End-to-end demo on a generated trace.

Synthesizes a small co-located cluster with a few planted anomalies and a
sensor gap, pushes it through preprocess/analyze/report, then prints the
highlights from report.json. Everything lands under --work-dir so the run
can be inspected afterwards.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from trace_insight.cli import main as cli_main

GRID_END = 39600 + 48 * 300   # 48 intervals is plenty for a demo


def run_stage(argv):
    code = cli_main(argv)
    if code != 0:
        sys.exit(code)


def quota_layout(machines):
    """Type1 dominates like in a real co-located cluster, the other types
    share the rest evenly; returns the quota list and the first machine id
    of every type block."""
    minority = machines // 16
    quotas = [machines - 7 * minority] + [minority] * 7
    firsts = []
    cursor = 1
    for q in quotas:
        firsts.append(cursor)
        cursor += q
    return quotas, firsts


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--work-dir", default="demo_run", help="output root")
    ap.add_argument("--machines", type=int, default=64)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--noise", type=float, default=0.03)
    args = ap.parse_args()
    if args.machines < 16:
        ap.error("need at least 16 machines for the demo plants")

    work = Path(args.work_dir)
    trace = work / "trace"
    out = work / "analysis"
    quotas, firsts = quota_layout(args.machines)

    # one plant of each flavor, placed on a machine of a fitting type
    plants = ";".join([
        f"Idle:{firsts[1]}",                    # a Type2 machine gone dark
        f"HeavyOnline:{firsts[0]}",             # overloaded Type1 machine
        f"LighterOnlineSkew:{firsts[0] + 1}",
        f"FrequentSoftError:{firsts[4]}",       # Type5, then batch stops
        f"SoftErrorWorkloadStop:{firsts[5]}",   # Type6, fails as its batch stops
    ])
    gaps = f"{firsts[0] + 2}:cpu:10-14;{firsts[0] + 3}:mem:30-33"

    t0 = time.perf_counter()
    run_stage(["synth", "--machines", str(args.machines),
               "--quotas", ",".join(map(str, quotas)),
               "--plants", plants, "--gaps", gaps,
               "--noise", str(args.noise), "--seed", str(args.seed),
               "--out-dir", str(trace), f"grid_end={GRID_END}"])
    run_stage(["preprocess", "--input-dir", str(trace), "--out-dir", str(out),
               f"grid_end={GRID_END}"])
    run_stage(["analyze", "--out-dir", str(out), "--seed", str(args.seed),
               f"grid_end={GRID_END}"])
    run_stage(["report", "--out-dir", str(out)])
    elapsed = time.perf_counter() - t0

    report = json.loads((out / "report.json").read_text())
    truth = json.loads((trace / "ground_truth.json").read_text())

    print()
    print(f"pipeline finished in {elapsed:.1f}s, artifacts in {work}/")
    print()
    print("type counts (found vs planted):")
    planted = {}
    for label in truth["types"].values():
        planted[label] = planted.get(label, 0) + 1
    for label in sorted(set(report["classification"]["counts"]) | set(planted)):
        got = report["classification"]["counts"].get(label, 0)
        print(f"  {label:<8} {got:>4}   planted {planted.get(label, 0)}")
    sim = report["similarity"]
    print()
    print(f"standard DTW value {sim['standard_value']:.3f}, "
          f"{sim['flagged_count']} machines above threshold {sim['threshold']}")
    print()
    print("top anomalies (planted machines marked *):")
    planted_anoms = {int(m) for m in truth["anomalies"]}
    for row in report["anomalies"]["top"][:8]:
        mark = "*" if row["machine"] in planted_anoms else " "
        causes = ",".join(row["causes"]) or "-"
        print(f"  {mark} rank {row['rank']:>2}  machine {row['machine']:>4}  "
              f"score {row['score']:+.3f}  {row['category']:<8} {causes}")


if __name__ == "__main__":
    main()
