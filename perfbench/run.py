#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the trace-insight pipeline.

    python3 perfbench/run.py --workload ref --seed 7 --seconds 25 --trace 0

Run it from the root of a source checkout; the package is imported from
``src/`` and nothing is installed. One run:

1. Set-up: generates the workload's six trace CSVs with ``trace-insight
   synth`` several times from ``--seed`` and reports the median as
   ``setup_s``. The copies must be byte-identical.
2. ``--trace 0``: a closed loop from one process runs ``preprocess``,
   ``analyze`` and ``report`` as one CLI child each, one after another, into
   a fresh output directory per iteration, until ``--seconds`` are used up.
   Wall time and peak RSS come from ``os.wait4`` on each child. The
   reference task (``reference.py``) runs between the children, and the
   reported times are wall times scaled to a fixed host speed by it.
3. ``--trace 1``: the same stages run in-process, alternating a traced and an
   untraced iteration; the traced one records spans and counts around the
   calls into each layer (see ``tracing.py``).

Every stage run is checked: a nonzero exit, or an artifact named in the
stage manifest's ``outputs`` that is missing or whose sha256 differs from the
reference, counts as a failed operation. At the pinned seed the reference is
``pinned.json``; at other seeds it is the run's first iteration, so two
iterations of one seed must agree byte for byte. Planted types and anomalies
from ``ground_truth.json`` are scored against ``report.json``.

The last line on stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give each metric's median,
quartiles and sample count, and the artifact digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED_PATH = os.path.join(HERE, "pinned.json")
WORK_ROOT = ".perfbench_work"
SPANS_ROOT = ".perfbench_spans"

SETUP_REPEATS = 3
MIN_ITERATIONS = 3
STARTUP_REPEATS = 5
GRID_START = 39600
GRID_STEP = 300
NOISE = "0.03"


@dataclass(frozen=True)
class Workload:
    name: str
    machines: int
    intervals: int
    analyze: tuple[tuple[str, str], ...]   # config overrides for analyze
    why: str


# Sizes are chosen so that a run holds several pipeline iterations; each
# workload keeps the layer split it is named for (see README.md).
WORKLOADS = {w.name: w for w in (
    Workload("ref", 64, 143, (),
             "default grid and config at 1/16 of reference scale: DTW is the "
             "largest layer of analyze and parsing most of preprocess"),
    Workload("wide", 384, 16, (("anomaly_mode", "per_interval"),),
             "many machines on a 16-interval grid with per-interval iForest: "
             "anomaly scoring dominates, DTW runs on tiny curves"),
    Workload("long", 16, 288, (("dtw_normalized", "true"),),
             "few machines on a 24 h grid with normalized DTW: long DTW pairs "
             "and their path traceback dominate, parsing is small"),
)}


def demo_layout(machines: int) -> tuple[list[int], str, str]:
    """Quotas, plants and gaps of the synthetic demo: Type1 gets
    m - 7*(m//16) machines, every other type m//16; four anomaly kinds are
    planted on machines of fitting types and two sensor gaps are cut."""
    minority = machines // 16
    quotas = [machines - 7 * minority] + [minority] * 7
    firsts = [1]
    for quota in quotas[:-1]:
        firsts.append(firsts[-1] + quota)
    plants = (f"Idle:{firsts[1]};HeavyOnline:{firsts[0]};"
              f"LighterOnlineSkew:{firsts[0] + 1};FrequentSoftError:{firsts[4]}")
    gaps = f"{firsts[0] + 2}:cpu:4-6;{firsts[0] + 3}:mem:9-11"
    return quotas, plants, gaps


def stage_configs(w: Workload, seed: int, trace_dir: str,
                  out_dir: str) -> dict[str, dict[str, str]]:
    """Config of every stage. The CLI child receives it as key=value
    overrides and the in-process run passes it as is, so both record the
    same config."""
    grid = {"grid_end": str(GRID_START + w.intervals * GRID_STEP)}
    quotas, plants, gaps = demo_layout(w.machines)
    return {
        "synth": {"synth_machines": str(w.machines),
                  "synth_quotas": ",".join(map(str, quotas)),
                  "synth_plants": plants, "synth_gaps": gaps,
                  "synth_noise": NOISE, "synth_seed": str(seed),
                  "output_dir": trace_dir, **grid},
        "preprocess": {"input_dir": trace_dir, "output_dir": out_dir, **grid},
        "analyze": {"input_dir": trace_dir, "output_dir": out_dir, **grid,
                    "dtw_seed": str(seed), "classify_seed": str(seed),
                    "anomaly_seed": str(seed), **dict(w.analyze)},
        "report": {"output_dir": out_dir},
    }


PIPELINE_STAGES = ("preprocess", "analyze", "report")


# ---------------------------------------------------------------------------
# children

def child_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


@dataclass(frozen=True)
class ChildRun:
    code: int
    wall: float      # seconds from start to reaping
    rss_mb: float    # peak RSS of this child alone


def run_child(argv: list[str], env: dict[str, str], log_path: str) -> ChildRun:
    """Run one child to completion. Peak RSS comes from wait4 on this child,
    not from RUSAGE_CHILDREN, which keeps the maximum over all children."""
    with open(log_path, "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, *argv], env=env,
                                stdout=subprocess.DEVNULL, stderr=log)
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(proc.returncode, wall, usage.ru_maxrss / 1024.0)


def cli_argv(stage: str, config: dict[str, str]) -> list[str]:
    return ["-m", "trace_insight.cli", stage,
            *(f"{key}={value}" for key, value in config.items())]


# ---------------------------------------------------------------------------
# checks

def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def stage_digests(out_dir: str, stage: str) -> dict[str, str] | None:
    """sha256 of every artifact the stage manifest names in ``outputs``;
    None when the manifest is missing or unreadable, "missing" for an
    artifact that is not there."""
    try:
        with open(os.path.join(out_dir, f"manifest-{stage}.json"),
                  encoding="utf-8") as fh:
            names = json.load(fh)["outputs"]
    except (OSError, ValueError, KeyError):
        return None
    digests = {}
    for name in sorted(names):
        path = os.path.join(out_dir, name)
        digests[name] = sha256_file(path) if os.path.isfile(path) else "missing"
    return digests


def artifact_bytes(out_dir: str, digests: dict[str, str]) -> int:
    return sum(os.path.getsize(os.path.join(out_dir, name)) for name in digests)


class Checker:
    """Counts stage runs and failures against the reference digests."""

    def __init__(self, workload: str, seed: int, use_pins: bool = True):
        self.reference: dict[str, dict[str, str]] = {}
        self.pinned = False
        with open(PINNED_PATH, encoding="utf-8") as fh:
            pinned = json.load(fh)
        if (use_pins and seed == pinned["seed"]
                and workload in pinned["workloads"]):
            self.reference = {k: dict(v) for k, v in
                              pinned["workloads"][workload].items()}
            self.pinned = True
        self.attempted = 0
        self.failed = 0

    def stage(self, stage: str, out_dir: str, exit_code: int) -> dict | None:
        """Record one stage run; returns its digests, or None if it failed."""
        self.attempted += 1
        digests = stage_digests(out_dir, stage) if exit_code == 0 else None
        if digests is None:
            self.fail(f"{stage}: exit {exit_code} or no manifest in {out_dir}")
            return None
        missing = sorted(n for n, d in digests.items() if d == "missing")
        if missing:
            self.fail(f"{stage}: artifacts missing: {missing}")
            return None
        expected = self.reference.setdefault(stage, digests)
        bad = sorted(name for name in set(expected) | set(digests)
                     if expected.get(name) != digests.get(name))
        if bad:
            self.fail(f"{stage}: artifacts differ from the reference: {bad}")
            return None
        return digests

    def fail(self, problem: str) -> None:
        self.failed += 1
        print(f"FAILED {problem}", file=sys.stderr)


def score_report(trace_dir: str, out_dir: str) -> tuple[float, float]:
    """(share of machines whose reported type is the planted one, share of
    planted anomalous machines in the report's top-N)."""
    with open(os.path.join(trace_dir, "ground_truth.json"), encoding="utf-8") as fh:
        truth = json.load(fh)
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    reported = {str(m): label for label, members
                in report["classification"]["members"].items() for m in members}
    types = truth["types"]
    recovered = sum(reported.get(m) == label for m, label in types.items())
    top = {str(row["machine"]) for row in report["anomalies"]["top"]}
    planted = truth["anomalies"]
    return recovered / len(types), sum(m in top for m in planted) / len(planted)


def input_rows(trace_dir: str) -> tuple[int, int]:
    rows = size = 0
    for name in sorted(os.listdir(trace_dir)):
        if name.endswith(".csv"):
            path = os.path.join(trace_dir, name)
            size += os.path.getsize(path)
            with open(path, "rb") as fh:
                rows += sum(1 for line in fh if line.strip())
    return rows, size


# ---------------------------------------------------------------------------
# statistics and output

def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def emit(correct: bool, checker: Checker,
         metrics: dict[str, tuple[list[float], str]], listed: list[dict]) -> None:
    """Print every metric with its quartiles, then the result line with the
    metrics that BENCHMARK.json lists for this mode."""
    medians = {}
    for name, (values, unit) in metrics.items():
        if values:
            q1, medians[name], q3 = summary(values)
            print(f"{name:28s} {medians[name]:14.6g} {unit:6s} "
                  f"q1 {q1:.6g} q3 {q3:.6g} n {len(values)}")
        else:
            print(f"{name:28s} absent")
    out = {m["name"]: {"value": medians.get(m["name"], 0.0), "unit": m["unit"]}
           for m in listed}
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": out}))


# ---------------------------------------------------------------------------
# host speed

# Seconds reference.py's task takes on the 2-vCPU host the benchmark was
# tuned on, in its fast state; it only sets the scale of the end-to-end times.
REFERENCE_S = 0.25


class Reference:
    """The reference task (see reference.py), run in a child on request."""

    def __init__(self, env: dict[str, str]):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "reference.py")], env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def measure(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def __enter__(self) -> "Reference":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def scale(children: list[ChildRun], references: list[float]) -> list[float]:
    """The children's wall times at REFERENCE_S host speed."""
    factor = REFERENCE_S / statistics.mean(references)
    return [c.wall * factor for c in children]


# ---------------------------------------------------------------------------
# timed run: CLI children, no tracing

def timed_run(w: Workload, seed: int, seconds: float, work: str,
              env: dict[str, str], checker: Checker) -> dict:
    with Reference(env) as reference:
        return timed_loop(w, seed, seconds, work, env, checker, reference)


def timed_loop(w: Workload, seed: int, seconds: float, work: str,
               env: dict[str, str], checker: Checker,
               reference: Reference) -> dict:
    references = [reference.measure()]
    setup_runs = []
    for i in range(SETUP_REPEATS):
        target = os.path.join(work, f"trace-{i}")
        config = stage_configs(w, seed, target, "")["synth"]
        child = run_child(cli_argv("synth", config), env,
                          os.path.join(work, "synth.log"))
        references.append(reference.measure())
        if checker.stage("synth", target, child.code) is not None:
            setup_runs.append(child)
        if i > 0:
            shutil.rmtree(target, ignore_errors=True)
    metrics = {"setup_s": scale(setup_runs, references), "pipeline_s": [],
               "preprocess_s": [], "analyze_s": [], "rows_per_s": [],
               "preprocess_rss_mb": [], "analyze_rss_mb": []}
    wall = {"setup_s": [c.wall for c in setup_runs], "pipeline_s": [],
            "preprocess_s": [], "analyze_s": []}

    trace_dir = os.path.join(work, "trace-0")
    rows, size = input_rows(trace_dir)
    print(f"input: {rows} rows, {size / 1e6:.2f} MB in the six trace CSVs")
    quality: set[tuple[float, float]] = set()
    start = time.monotonic()
    attempts = 0
    last = 0.0
    while attempts < MIN_ITERATIONS or (
            time.monotonic() - start + last <= seconds):
        began = time.monotonic()
        attempts += 1
        out_dir = os.path.join(work, f"out-{attempts}")
        configs = stage_configs(w, seed, trace_dir, out_dir)
        references = references[-1:]
        children = []
        for stage in PIPELINE_STAGES:
            children.append(run_child(cli_argv(stage, configs[stage]), env,
                                      os.path.join(work, f"{stage}.log")))
            references.append(reference.measure())
            if checker.stage(stage, out_dir, children[-1].code) is None:
                break
        else:
            pre, ana, rep = scale(children, references)
            metrics["pipeline_s"].append(pre + ana + rep)
            metrics["preprocess_s"].append(pre)
            metrics["analyze_s"].append(ana)
            metrics["rows_per_s"].append(rows / (pre + ana + rep))
            metrics["preprocess_rss_mb"].append(children[0].rss_mb)
            metrics["analyze_rss_mb"].append(children[1].rss_mb)
            wall["pipeline_s"].append(sum(c.wall for c in children))
            wall["preprocess_s"].append(children[0].wall)
            wall["analyze_s"].append(children[1].wall)
            quality.add(score_report(trace_dir, out_dir))
        shutil.rmtree(out_dir, ignore_errors=True)
        last = time.monotonic() - began
    if len(quality) > 1:
        checker.fail(f"report scores differ between iterations: {quality}")
    for recovered, in_top in quality:
        print(f"report: types_recovered {recovered}, planted_in_top {in_top}")
    for name, values in wall.items():
        if values:
            print(f"wall-clock {name:17s} {statistics.median(values):14.6g} s")

    units = {"rows_per_s": "1/s", "preprocess_rss_mb": "MB",
             "analyze_rss_mb": "MB"}
    result = {name: (values, units.get(name, "s"))
              for name, values in metrics.items()}
    result["types_recovered"] = ([q[0] for q in quality], "share")
    return result


# ---------------------------------------------------------------------------
# traced run: in-process stages with spans around each layer's calls

COUNT_METRICS = {
    "trace_model.parse_calls": "count", "trace_model.rows": "count",
    "trace_model.rows_skipped": "count", "preprocess.repairs": "count",
    "preprocess.events_removed": "count", "preprocess.dense_cells": "count",
    "aggregate.instances": "count", "aggregate.cells": "count",
    "aggregate.bytes_written": "B", "similarity.dtw_pairs": "count",
    "similarity.dtw_cells": "count", "classify.matrix_cells": "count",
    "classify.lloyd_iters": "count", "anomaly.rows": "count",
    "anomaly.tree_nodes": "count", "anomaly.row_tree_visits": "count",
    "pipeline.artifact_bytes": "B",
}


def traced_run(w: Workload, seed: int, seconds: float, work: str,
               env: dict[str, str], checker: Checker, root: str) -> dict:
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, HERE)
    from trace_insight import pipeline, synth   # noqa: E402
    from tracing import LAYER_CALLS, Tracer     # noqa: E402

    startup = []
    for i in range(STARTUP_REPEATS):
        child = run_child(["-c", "import trace_insight.cli"], env,
                          os.path.join(work, f"startup-{i}.log"))
        if child.code == 0:
            startup.append(child.wall)

    tracer = Tracer()
    tracer.install({"pipeline": pipeline, "synth": synth})
    try:
        layer: dict[str, list[float]] = {m: [] for m, _mod, _n in LAYER_CALLS}
        counts: list[dict[str, float]] = []
        in_top: list[float] = []
        untraced: list[float] = []
        traced: list[float] = []

        def run_stages(run: str, stages, configs) -> bool:
            tracer.run = run
            for stage in stages:
                with tracer.span(f"stage.{stage}"):
                    try:
                        getattr(pipeline, f"run_{stage}")(configs[stage])
                        code = 0
                    except Exception:   # counted as a failed stage run
                        traceback.print_exc()
                        code = 2
                out = configs[stage]["output_dir"]
                digests = checker.stage(stage, out, code)
                if digests is None:
                    return False
                if stage != "synth":
                    tracer.add("pipeline.artifact_bytes", artifact_bytes(out, digests))
            return True

        trace_dir = os.path.join(work, "trace-0")
        for i in range(2):
            target = os.path.join(work, f"trace-{i}")
            if run_stages(f"setup-{i}", ("synth",),
                          stage_configs(w, seed, target, "")):
                times = tracer.layer_times(f"setup-{i}")
                layer["synth.generate_s"].append(times["synth.generate_s"])
                layer["synth.write_s"].append(times["synth.write_s"])
        shutil.rmtree(os.path.join(work, "trace-1"), ignore_errors=True)

        start = time.perf_counter()
        iteration = 0
        last = 0.0
        while iteration < MIN_ITERATIONS or (
                time.perf_counter() - start + last <= seconds):
            began = time.perf_counter()
            with_spans = iteration % 2 == 0
            run = f"{'traced' if with_spans else 'untraced'}-{iteration}"
            out_dir = os.path.join(work, f"out-{iteration}")
            configs = stage_configs(w, seed, trace_dir, out_dir)
            if not with_spans:
                tracer.uninstall()
            t0 = time.perf_counter()
            ok = run_stages(run, PIPELINE_STAGES, configs)
            wall = time.perf_counter() - t0
            if not with_spans:
                tracer.install({"pipeline": pipeline, "synth": synth})
            if ok and with_spans:
                traced.append(wall)
                times = tracer.layer_times(run)
                for metric, values in layer.items():
                    if not metric.startswith("synth."):
                        values.append(times[metric])
                counts.append(tracer.counts.get(run, {}))
                in_top.append(score_report(trace_dir, out_dir)[1])
            elif ok:
                untraced.append(wall)
            shutil.rmtree(out_dir, ignore_errors=True)
            iteration += 1
            last = time.perf_counter() - began
    finally:
        tracer.uninstall()

    os.makedirs(SPANS_ROOT, exist_ok=True)
    with open(os.path.join(SPANS_ROOT, f"{w.name}-seed{seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"absent": sorted(tracer.absent),
                   "spans": tracer.span_records()}, fh)
    if tracer.absent:
        print(f"absent: {sorted(tracer.absent)}")

    if any(c != counts[0] for c in counts[1:]):
        checker.fail("per-layer counts differ between iterations of one seed")
    metrics: dict[str, tuple[list[float], str]] = {}
    for metric, values in layer.items():
        metrics[metric] = (values, "s")
    for metric, unit in COUNT_METRICS.items():
        metrics[metric] = ([c[metric] for c in counts if metric in c], unit)
    metrics["trace_model.rows_per_s"] = (
        [c["trace_model.rows"] / t for c, t in
         zip(counts, layer["trace_model.parse_s"]) if t > 0], "1/s")
    metrics["similarity.cells_per_s"] = (
        [c["similarity.dtw_cells"] / (a + b) for c, a, b in
         zip(counts, layer["similarity.select_s"], layer["similarity.score_s"])
         if a + b > 0], "1/s")
    metrics["anomaly.planted_in_top"] = (in_top, "share")
    if len(set(in_top)) > 1:
        checker.fail(f"planted_in_top differs between iterations: {in_top}")
    metrics["cli.startup_s"] = (startup, "s")
    if traced and untraced:
        overhead = statistics.median(traced) - statistics.median(untraced)
        metrics["trace.overhead_s"] = ([overhead], "s")
    else:
        metrics["trace.overhead_s"] = ([], "s")
    return metrics


def repin(workload: str, seed: int, checker: Checker) -> int:
    with open(PINNED_PATH, encoding="utf-8") as fh:
        pinned = json.load(fh)
    if seed != pinned["seed"] or checker.failed:
        print(f"perfbench: not re-pinning (seed {seed}, pinned seed "
              f"{pinned['seed']}, {checker.failed} failed)", file=sys.stderr)
        return 1
    pinned["workloads"][workload] = checker.reference
    with open(PINNED_PATH, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repin", action="store_true",
                    help="write this run's artifact digests to pinned.json "
                         "(only at the pinned seed, only if nothing failed)")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "trace_insight", "cli.py")):
        print("perfbench: run from the root of a trace-insight checkout "
              "(src/trace_insight not found)", file=sys.stderr)
        return 2
    # The stages and the reference task share one CPU, so that the reference
    # sees the same host speed as the stages.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    w = WORKLOADS[args.workload]
    checker = Checker(w.name, args.seed, use_pins=not args.repin)
    env = child_env(root)
    work = os.path.join(WORK_ROOT, f"{w.name}-seed{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        if args.trace:
            metrics = traced_run(w, args.seed, args.seconds, work, env,
                                 checker, root)
        else:
            metrics = timed_run(w, args.seed, args.seconds, work, env, checker)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    print(f"digests ({'pinned' if checker.pinned else 'unpinned'} seed "
          f"{args.seed}): {json.dumps(checker.reference, sort_keys=True)}")
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    emit(checker.failed == 0, checker, metrics, listed)
    if args.repin:
        return repin(w.name, args.seed, checker)
    return 0


if __name__ == "__main__":
    sys.exit(main())
