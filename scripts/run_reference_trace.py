#!/usr/bin/env python3
"""Full analysis of the real cluster trace.

Point this at a directory holding the six trace CSVs (server_event.csv,
server_usage.csv, container_event.csv, container_usage.csv, batch_task.csv,
batch_instance.csv) and it runs preprocess/analyze/report with the published
baseline settings, then prints the headline numbers. Expect a few minutes
for the DTW pass over all machines.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from trace_insight.cli import main as cli_main


def run_stage(argv):
    code = cli_main(argv)
    if code != 0:
        sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("trace_dir", help="directory with the six trace CSVs")
    ap.add_argument("--out-dir", default="reference_run")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--standards", default="16,19,28,36",
                    help="machine ids used as standard curves "
                         "(empty string samples instead)")
    args = ap.parse_args()

    out = Path(args.out_dir)
    analyze = ["analyze", "--out-dir", str(out), "--seed", str(args.seed)]
    if args.standards:
        analyze += ["--standards", args.standards]

    t0 = time.perf_counter()
    run_stage(["preprocess", "--input-dir", args.trace_dir,
               "--out-dir", str(out)])
    run_stage(analyze)
    run_stage(["report", "--out-dir", str(out)])
    elapsed = time.perf_counter() - t0

    report = json.loads((out / "report.json").read_text())
    pre = report["preprocess"]
    sim = report["similarity"]
    cls = report["classification"]
    anom = report["anomalies"]

    print()
    print(f"pipeline finished in {elapsed:.1f}s, artifacts in {out}/")
    print(f"repairs: {pre['repairs']}")
    print()
    print("machines per type:")
    for label in sorted(cls["counts"]):
        print(f"  {label:<8} {cls['counts'][label]:>5}")
    print()
    edges = sim["bins"]
    print(f"standard machines {sim['standard_machines']}, "
          f"standard value {sim['standard_value']:.3f}")
    for row in edges:
        hi = "inf" if row["hi"] is None else row["hi"]
        print(f"  mean DTW in [{row['lo']}, {hi}): {row['count']}")
    print(f"flagged at threshold {sim['threshold']}: {sim['flagged_count']} "
          f"({sim['flagged_fraction']:.1%})")
    print()
    share = anom["negative_count"] / anom["machine_count"]
    print(f"{anom['negative_count']}/{anom['machine_count']} machines "
          f"({share:.0%}) score below 0")
    print("top anomalies:")
    for row in anom["top"][:10]:
        causes = ",".join(row["causes"]) or "-"
        print(f"  rank {row['rank']:>2}  machine {row['machine']:>4}  "
              f"score {row['score']:+.3f}  {row['category']:<8} {causes}")


if __name__ == "__main__":
    main()
