"""The synth, preprocess and analyze stages behind the CLI, and
``STAGE_RUNNERS``, the table of all four stage runners.

What every stage shares (``StageError``, the config table, the manifests)
and the report stage live in ``stage``, which loads no numpy; the CLI
imports this module only for the three stages here. ``synth`` is imported
by ``run_synth`` alone, so preprocess and analyze never load it. The parse
names are imported at the top; ``preprocess`` and the four analysis modules
(``aggregate``, ``similarity``, ``classify``, ``anomaly``) are imported when
``run_preprocess`` or ``run_analyze`` first looks their names up on this
module, so each stage loads only what it runs. Either way the runners call
the names through this module's globals, where a tracer can wrap them.

Every stage reads its inputs from disk, writes its artifacts into the output
directory, and writes its manifest-<stage>.json last. Stages never touch
another stage's artifacts, but before its first write a stage deletes its
own manifest and those of the stages that read its artifacts, so a run that
fails part-way leaves no manifest vouching for what it overwrote.
``preprocess`` is the one stage that reads the trace. It hands analyze one
file, ``trace_columns.bin``: the parsed columns analyze reads, with the
container events filtered, the rows each file lost, and the repaired cpu,
mem and disk usage, and the grid of the repair. ``analyze`` reads nothing
else of its input, and loads that file only when manifest-preprocess.json
records its digest and the file's grid is its own. It classifies right after
aggregating: the cause tags and every writer read the (M,) categories. All
randomness comes from seeds named in the config; a missing seed is an error,
never a fallback to wall-clock entropy.

The count hooks of the benchmark's tracer (``perfbench/tracing.py``) bind the
arguments of these calls by position, so their shapes stay as they are until
ROADMAP item 1 makes the hooks read by name (see the count-hook FOUND in
CHANGES.md): ``parse_trace_dir(path, …)``; ``aggregate_container_usage(bundle,
…)`` and ``aggregate_batch_usage(bundle, …)``, whose results the hooks take
``len()`` of; ``select_standard(curves, sample_num=…)``; and
``score_similarity(curves, standard_curves, …)``.
"""

from __future__ import annotations

import dataclasses
import importlib
import os
import sys
from collections import Counter

import numpy as np

from .stage import (
    TYPE_LABELS,
    StageError,
    _prepare_out_dir,
    _read_manifest,
    _sha256,
    keys_read,
    read_config,
    run_report,
    write_manifest,
)
from .trace_model import (
    FILE_KEYS,
    PREPROCESS_COLUMNS,
    TRACE_FILENAMES,
    IntervalGrid,
    TraceParseError,
    load_columns,
    parse_trace_dir,
    save_columns,
)

DENSE_FILENAME = "dense_usage.csv"
REPAIR_LOG_FILENAME = "repair_log.csv"
REMOVED_EVENTS_FILENAME = "removed_container_events.csv"
COLUMNS_FILENAME = "trace_columns.bin"

# the names run_preprocess and run_analyze call from the modules only their
# stage runs, imported on first lookup (``__getattr__``)
PREPROCESS_NAMES = {"preprocess": (
    "filter_container_events", "supplement_server_usage", "write_dense_csv",
    "write_removed_events_csv", "write_repair_log_csv")}
ANALYSIS_NAMES = {
    "aggregate": ("AggDiagnostics", "aggregate_batch_usage",
                  "aggregate_container_usage", "build_machine_series",
                  "write_aggregate_csvs"),
    "anomaly": ("TOP_N", "build_feature_matrix", "diagnose", "iforest_fit",
                "population_stats", "score_machines", "write_anomaly_json",
                "write_score_distribution_csv", "write_scores_csv"),
    "classify": ("category_report", "kmeans_fit", "label_clusters",
                 "occupancy_matrix", "write_assignments_csv",
                 "write_counts_json", "write_type_usage_csv"),
    "similarity": ("SAMPLE_NUM", "build_resource_curves", "score_similarity",
                   "select_standard", "write_distances_csv", "write_flags_csv",
                   "write_histogram_json"),
}
_HOME = {name: module for stage in (PREPROCESS_NAMES, ANALYSIS_NAMES)
         for module, names in stage.items() for name in names}

ANALYZE_FILENAMES = (
    "container_usage_agg.csv", "batch_usage_agg.csv", "machine_series.csv",
    "dtw_distances.csv", "dtw_flags.csv", "dtw_histogram.json",
    "assignments.csv", "category_counts.json", "plot_type_usage.csv",
    "anomaly_scores.csv", "anomaly_report.json", "plot_score_distribution.csv",
)


def __getattr__(name: str):
    """A preprocess or analysis name, imported from its module and bound
    here, where a tracer or a test may wrap it (PEP 562)."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_HOME[name]}", __package__)
    globals()[name] = value = getattr(module, name)
    return value


def _bind(stage_names: dict[str, tuple[str, ...]]) -> None:
    """Binds each of ``stage_names`` not bound (or wrapped) yet: a runner
    calls them as globals, which ``__getattr__`` does not reach."""
    for name in (name for names in stage_names.values() for name in names):
        getattr(sys.modules[__name__], name)


def _grid(values: dict, stage: str) -> IntervalGrid:
    try:
        return IntervalGrid(values["grid_start"], values["grid_end"],
                            values["grid_step"])
    except ValueError as e:
        raise StageError(stage, f"bad grid: {e}") from e


def _digest_inputs(input_dir: str, stage: str) -> dict[str, str]:
    digests = {}
    for name in sorted(TRACE_FILENAMES.values()):
        path = os.path.join(input_dir, name)
        if not os.path.exists(path):
            raise StageError(stage, f"missing input file {path}")
        try:
            digests[name] = _sha256(path)
        except OSError as e:
            raise StageError(stage, f"cannot read input file {path}: {e}") from e
    return digests


# ---------------------------------------------------------------------------
# stage: synth

def run_synth(config: dict[str, str]) -> str:
    """Run the synth stage under ``config``; returns the trace directory."""
    from . import synth   # numpy-heavy, and needed by this stage alone
    stage = "synth"
    values = read_config(config, stage)
    synth_config = synth.SynthConfig(
        machine_count=values["synth_machines"],
        grid=_grid(values, stage),
        quotas=tuple(values["synth_quotas"]),
        seed=values["synth_seed"],
        noise_level=values["synth_noise"],
        anomaly_plants=values["synth_plants"],
        gap_plants=values["synth_gaps"],
    )
    out_dir = values["output_dir"]
    # generating runs every quota, plant and gap check, so a trace that
    # cannot be made leaves an earlier one and its manifest untouched; the
    # calls go through the module, where perfbench's tracer times them
    try:
        bundle, truth = synth.generate_trace(synth_config)
    except ValueError as e:
        raise StageError(stage, str(e)) from e
    _prepare_out_dir(out_dir, stage)
    synth.write_synthetic_trace(bundle, truth, out_dir)
    outputs = sorted(TRACE_FILENAMES.values()) + ["ground_truth.json"]
    write_manifest(out_dir, stage, keys_read(config, stage), inputs={},
                   outputs=outputs,
                   row_counts={
                       "machines": bundle.machine_count,
                       "server_events": len(bundle.events),
                       "server_usage": len(bundle.server_usage),
                       "container_events": len(bundle.container_events),
                       "container_usage": len(bundle.container_usage),
                       "batch_tasks": len(bundle.batch_tasks),
                       "batch_instances": len(bundle.batch_instances),
                       "planted_anomalies": len(truth.anomalies),
                       "planted_gaps": len(truth.gaps),
                   })
    return out_dir


# ---------------------------------------------------------------------------
# stage: preprocess

def _skipped_counts(skipped) -> dict[str, int]:
    """``rows_skipped_<file key>`` of every file, from rows skipped per key."""
    return {f"rows_skipped_{key}": skipped.get(key, 0) for key in FILE_KEYS}


def run_preprocess(config: dict[str, str]) -> str:
    """Run the preprocess stage under ``config``; returns its output
    directory."""
    stage = "preprocess"
    _bind(PREPROCESS_NAMES)
    values = read_config(config, stage)
    grid = _grid(values, stage)
    out_dir, input_dir = values["output_dir"], values["input_dir"]
    diagnostics: list = []
    try:
        bundle = parse_trace_dir(input_dir, diagnostics=diagnostics,
                                 keep=PREPROCESS_COLUMNS)
    except TraceParseError as e:
        raise StageError(stage, str(e)) from e
    skipped = Counter(diag.file for diag in diagnostics)
    _prepare_out_dir(out_dir, stage)
    try:
        dense, repairs = supplement_server_usage(bundle, grid)
        clean, removed = filter_container_events(bundle.container_events)
    except ValueError as e:
        raise StageError(stage, str(e)) from e
    write_dense_csv(dense, os.path.join(out_dir, DENSE_FILENAME))
    write_repair_log_csv(repairs, os.path.join(out_dir, REPAIR_LOG_FILENAME))
    write_removed_events_csv(removed,
                             os.path.join(out_dir, REMOVED_EVENTS_FILENAME))
    columns_path = os.path.join(out_dir, COLUMNS_FILENAME)
    save_columns(dataclasses.replace(bundle, container_events=clean), skipped,
                 dense.values, grid, columns_path)
    methods, method_counts = np.unique(repairs.method, return_counts=True)
    write_manifest(out_dir, stage, keys_read(config, stage),
                   inputs=_digest_inputs(input_dir, stage),
                   outputs=[DENSE_FILENAME, REPAIR_LOG_FILENAME,
                            REMOVED_EVENTS_FILENAME],
                   row_counts={
                       "machines": bundle.machine_count,
                       "server_usage": len(bundle.server_usage),
                       "out_of_grid_server_usage_records": dense.out_of_grid,
                       "repair_annotations": len(repairs),
                       "container_events": len(bundle.container_events),
                       "container_events_removed": len(removed),
                       **{f"repairs_{name}": count for name, count
                          in zip(methods.tolist(), method_counts.tolist())},
                       **_skipped_counts(skipped),
                       "rows_parsed_in_python": bundle.python_rows,
                       "parsed_column_bytes": bundle.nbytes,
                       "trace_columns_bytes": os.path.getsize(columns_path),
                   },
                   trace_columns=COLUMNS_FILENAME)
    return out_dir


# ---------------------------------------------------------------------------
# stage: analyze

def _hand_off(out_dir: str, grid: IntervalGrid, stage: str):
    """What preprocess saved in ``out_dir`` for analyze, as (bundle, rows
    skipped per file key, dense usage values, sha256 of their file); refused
    unless manifest-preprocess.json records that digest under
    ``trace_columns`` and the file records ``grid``, the grid of this run.
    Nothing of the manifest's ``config`` is read."""
    manifest = _read_manifest(out_dir, "preprocess", stage)
    path = os.path.join(out_dir, COLUMNS_FILENAME)
    digest = _sha256(path) if os.path.isfile(path) else None
    if digest is None or manifest.get("trace_columns") != {COLUMNS_FILENAME: digest}:
        raise StageError(stage, f"no {COLUMNS_FILENAME} in {out_dir} that manifest-"
                                "preprocess.json vouches for; run preprocess first")
    try:
        bundle, skipped, dense, saved = load_columns(path)
    except (ValueError, EOFError) as e:   # another layout, or cut short
        raise StageError(stage, f"{COLUMNS_FILENAME} in {out_dir} does not load "
                                f"({e}); rerun preprocess") from e
    stale = [f"grid_{field}" for field in ("start", "end", "step")
             if getattr(saved, field) != getattr(grid, field)]
    if stale:
        raise StageError(stage, f"{COLUMNS_FILENAME} in {out_dir} disagrees with "
                                f"this run on {', '.join(stale)}; rerun preprocess")
    return bundle, skipped, dense, digest


def run_analyze(config: dict[str, str]) -> str:
    """Run the analyze stage under ``config``; returns its output
    directory."""
    stage = "analyze"
    _bind(ANALYSIS_NAMES)
    # every value is read, and fails here, before any input is opened; the
    # ranges that need data (k against the distinct rows, the sample and the
    # standards against the machines) wait for the trace
    values = read_config(config, stage)
    grid = _grid(values, stage)

    out_dir = values["output_dir"]
    bundle, skipped, dense, digest = _hand_off(out_dir, grid, stage)
    _prepare_out_dir(out_dir, stage)
    try:
        diag = AggDiagnostics()
        containers = aggregate_container_usage(bundle, grid, diag)
        batch = aggregate_batch_usage(bundle, grid, diag)
        table = build_machine_series(bundle, grid, dense, containers, batch)
        write_aggregate_csvs(table, containers.seen, batch.seen, grid, out_dir)

        # classification; row m - 1 is machine m from here to the writers
        model = label_clusters(kmeans_fit(
            occupancy_matrix(table), k=len(TYPE_LABELS),
            seed=values["classify_seed"]))
        cat_report = category_report(model, table)
        categories = cat_report.categories
        write_assignments_csv(model, categories, os.path.join(out_dir, "assignments.csv"))
        write_counts_json(model, cat_report,
                          os.path.join(out_dir, "category_counts.json"))
        write_type_usage_csv(cat_report, table,
                             os.path.join(out_dir, "plot_type_usage.csv"))

        # similarity
        curves = build_resource_curves(table)
        sample, standards = select_standard(
            curves, sample_num=SAMPLE_NUM, seed=values["dtw_seed"],
            standard_machines=values["dtw_standards"] or None)
        # the reported pairs: every pair inside the sample, then every
        # machine x standard pair (the DP computes each of them once)
        dtw_pairs = len(sample) * (len(sample) - 1) // 2 + len(curves) * len(standards)
        dtw_report = score_similarity(
            curves, curves[[m - 1 for m in standards]], standards, sample,
            normalized=values["dtw_normalized"])
        write_distances_csv(dtw_report, os.path.join(out_dir, "dtw_distances.csv"))
        write_flags_csv(dtw_report, os.path.join(out_dir, "dtw_flags.csv"))
        write_histogram_json(dtw_report, os.path.join(out_dir, "dtw_histogram.json"))

        # anomaly
        feat_matrix = build_feature_matrix(table, values["anomaly_mode"])
        forest = iforest_fit(feat_matrix, seed=values["anomaly_seed"])
        anomaly_report = score_machines(forest, feat_matrix, bundle.machine_count)
        causes = diagnose(categories, bundle.events, table, population_stats(table), grid)
        write_scores_csv(anomaly_report, categories, causes,
                         os.path.join(out_dir, "anomaly_scores.csv"))
        write_anomaly_json(anomaly_report, categories, causes,
                           os.path.join(out_dir, "anomaly_report.json"))
        write_score_distribution_csv(
            anomaly_report, os.path.join(out_dir, "plot_score_distribution.csv"))
    except ValueError as e:
        raise StageError(stage, str(e)) from e

    write_manifest(out_dir, stage, keys_read(config, stage),
                   inputs={COLUMNS_FILENAME: digest},
                   outputs=list(ANALYZE_FILENAMES),
                   row_counts={
                       "machines": bundle.machine_count,
                       "intervals": grid.interval_count,
                       "curves": len(curves),
                       "standards": len(standards),
                       "dtw_pairs": dtw_pairs,
                       "dtw_cells": dtw_pairs * curves.shape[1] ** 2,
                       "clusters": model.k,
                       "flagged": len(dtw_report.flagged),
                       "scored": len(anomaly_report.scores),
                       "tree_nodes": len(forest.dim),
                       "negative_scores": anomaly_report.negative_count,
                       "top_ranked": min(TOP_N, len(anomaly_report.ranking)),
                       **diag.counts(),
                       **_skipped_counts(skipped),
                   })
    return out_dir


STAGE_RUNNERS = {
    "synth": run_synth,
    "preprocess": run_preprocess,
    "analyze": run_analyze,
    "report": run_report,
}
