"""Stage orchestration: flat key=value configs, per-stage run manifests, and
the synth / preprocess / analyze / report pipeline behind the CLI.

Every stage reads its inputs from disk, writes its artifacts into the output
directory, and drops a manifest-<stage>.json recording the config snapshot,
input and output digests, row counts, and the tool version; no timestamps,
so reruns of the same config are byte-identical. Stages never touch another
stage's artifacts, but before its first write a stage deletes its own
manifest and those of the stages that read its artifacts, and it writes its
manifest last, so a run that fails part-way leaves no manifest vouching for
what it overwrote. ``preprocess`` also saves the columns it parsed, and
``analyze`` loads them in place of parsing the trace again only when
manifest-preprocess.json shows they came from the same input files, parsed
the same way, and their file still has the digest recorded there. All
randomness comes from seeds named in the config; a missing seed is an error,
never a fallback to wall-clock entropy.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import os
from collections import Counter, namedtuple

import numpy as np

from . import __version__, synth
from .aggregate import (
    AggDiagnostics,
    aggregate_batch_usage,
    aggregate_container_usage,
    build_machine_series,
    write_aggregate_csvs,
)
from .anomaly import (
    FeatureMode,
    build_feature_matrix,
    diagnose,
    iforest_fit,
    population_stats,
    score_machines,
    softerror_times,
    write_anomaly_json,
    write_score_distribution_csv,
    write_scores_csv,
    zscore_normalize,
)
from .classify import (
    LabelThresholds,
    category_report,
    kmeans_fit,
    label_clusters,
    occupancy_matrix,
    write_assignments_csv,
    write_counts_json,
    write_type_usage_csv,
)
from .preprocess import (
    filter_container_events,
    supplement_server_usage,
    write_dense_csv,
    write_removed_events_csv,
    write_repair_log_csv,
)
from .similarity import (
    DEFAULT_RANGE_EDGES,
    build_resource_curves,
    score_similarity,
    select_standard,
    write_distances_csv,
    write_flags_csv,
    write_histogram_json,
)
from .synth import (
    AnomalyPlant,
    GapPlant,
    PlantKind,
    SynthConfig,
    write_synthetic_trace,
)
from .trace_model import (
    DEFAULT_FILENAMES,
    FILE_KEYS,
    IntervalGrid,
    TraceParseError,
    load_columns,
    parse_trace_dir,
    save_columns,
)

REPORT_SCHEMA_VERSION = 1

DENSE_FILENAME = "dense_usage.csv"
REPAIR_LOG_FILENAME = "repair_log.csv"
REMOVED_EVENTS_FILENAME = "removed_container_events.csv"
COLUMNS_FILENAME = "trace_columns.bin"
REPORT_FILENAME = "report.json"

ANALYZE_FILENAMES = (
    "container_usage_agg.csv", "batch_usage_agg.csv", "machine_series.csv",
    "dtw_distances.csv", "dtw_flags.csv", "dtw_histogram.json",
    "assignments.csv", "category_counts.json", "plot_type_usage.csv",
    "anomaly_scores.csv", "anomaly_report.json", "plot_score_distribution.csv",
)


class StageError(Exception):
    """Pipeline failure attributed to one stage."""

    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage
        self.message = message

    def __str__(self) -> str:
        return f"[{self.stage}] {self.message}"


# ---------------------------------------------------------------------------
# config handling: one table row per key, and one reader

def _parse_plants(raw: str, stage: str) -> tuple[AnomalyPlant, ...]:
    """Parse 'Kind:machine[:key=val,...]' items separated by ';'."""
    plants = []
    kinds = {kind.value: kind for kind in PlantKind}
    for item in filter(None, (part.strip() for part in raw.split(";"))):
        pieces = item.split(":")
        if len(pieces) < 2:
            raise StageError(stage, f"plant must be Kind:machine, got {item!r}")
        kind_name, machine = pieces[0], pieces[1]
        if kind_name not in kinds:
            raise StageError(stage, f"unknown plant kind {kind_name!r} "
                                    f"(expected one of {sorted(kinds)})")
        params = []
        try:
            for pair in pieces[2].split(",") if len(pieces) > 2 else ():
                if "=" not in pair:
                    raise StageError(stage, f"bad plant param {pair!r}")
                name, value = pair.split("=", 1)
                params.append((name.strip(), float(value)))
            plants.append(AnomalyPlant(machine=int(machine),
                                       kind=kinds[kind_name],
                                       params=tuple(params)))
        except ValueError as e:
            raise StageError(stage, f"bad plant {item!r}: {e}") from e
    return tuple(plants)


def _parse_gaps(raw: str, stage: str) -> tuple[GapPlant, ...]:
    """Parse 'machine:metric:lo-hi' items (inclusive slot range) separated
    by ';'."""
    gaps = []
    for item in filter(None, (part.strip() for part in raw.split(";"))):
        pieces = item.split(":")
        if len(pieces) != 3:
            raise StageError(stage, f"gap must be machine:metric:lo-hi, got {item!r}")
        machine, metric, span = pieces
        try:
            if "-" in span:
                lo, hi = span.split("-", 1)
                slots = tuple(range(int(lo), int(hi) + 1))
            else:
                slots = (int(span),)
            gaps.append(GapPlant(machine=int(machine), metric=metric, slots=slots))
        except ValueError as e:
            raise StageError(stage, f"bad gap {item!r}: {e}") from e
    return tuple(gaps)


def _bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(raw)


def _list_of(number):
    return lambda raw: [number(part) for part in raw.split(",") if part.strip() != ""]


# kind: (parse, what the value must be when parse raises ValueError)
_KINDS = {
    "int": (int, "an integer"),
    "float": (float, "a number"),
    "float or empty": (lambda raw: float(raw) if raw.strip() else None, "a number"),
    "bool": (_bool, "true/false"),
    "int list": (_list_of(int), "a comma-separated list of integers"),
    "float list": (_list_of(float), "a comma-separated list of numbers"),
    "text": (str, "text"),
}


def _at_least(low: int) -> tuple:
    return (lambda value: value >= low), f">= {low}"


_FRACTION = ((lambda value: 0 <= value <= 1), "in [0, 1]")
_SORTED = ((lambda edges: edges == sorted(edges)), "sorted")


# One config key. ``kind`` is a name in _KINDS, the Enum of the allowed
# texts, or a ``parse(raw, stage)`` that raises its own StageError; every
# number it yields must be finite. ``default`` None means required. ``rule``
# is a (test, text) pair the parsed value must pass; a value that fails it
# is refused as "must be <text>". ``help`` serves the flag and the README.
# (A namedtuple, not a dataclass: it is built at every CLI start.)
ConfigKey = namedtuple("ConfigKey", "kind default stages help rule flag",
                       defaults=(None, None))


_EVERY = ("synth", "preprocess", "analyze", "report")
_GRID = ("synth", "preprocess", "analyze")
_PARSE = ("preprocess", "analyze")
_SYNTH = ("synth",)
_ANALYZE = ("analyze",)

CONFIG_KEYS = {
    "input_dir": ConfigKey("text", None, _PARSE, "trace directory",
                           flag="--input-dir"),
    "output_dir": ConfigKey("text", None, _EVERY, "where the stage writes "
                            "(the trace, for synth)", flag="--out-dir"),
    "grid_start": ConfigKey("int", "39600", _GRID, "first interval boundary (s)"),
    "grid_end": ConfigKey("int", "82500", _GRID, "last interval boundary (s)"),
    "grid_step": ConfigKey("int", "300", _GRID, "interval length (s)"),
    "has_header": ConfigKey("bool", "false", _PARSE, "CSVs carry a header row"),
    "schema_profile": ConfigKey("text", "default", _PARSE,
                                "column-order profile for the six CSVs"),
    "max_skip_ratio": ConfigKey("float", "0.01", _PARSE, "tolerated share of "
                                "malformed rows per file", _FRACTION),
    "duration_weighted": ConfigKey("bool", "false", _ANALYZE,
                                   "weight batch usage by in-interval runtime"),
    "dtw_sample_num": ConfigKey("int", "8", _ANALYZE, "curves sampled for the "
                                "standard-value median", flag="--sample-num"),
    "dtw_standard_count": ConfigKey("int", "4", _ANALYZE,
                                    "standards drawn from the sample"),
    "dtw_standards": ConfigKey("int list", "", _ANALYZE, "pinned standard "
                               "machine ids, e.g. 16,19,28,36", flag="--standards"),
    "dtw_threshold": ConfigKey("float", "3.0", _ANALYZE, "mean-distance "
                               "flagging threshold", flag="--threshold"),
    "dtw_normalized": ConfigKey("bool", "false", _ANALYZE,
                                "use sqrt(cost)/path-length distances"),
    "dtw_range_edges": ConfigKey("float list", "0,1,2,3,5", _ANALYZE,
                                 "histogram bucket edges", _SORTED),
    "dtw_suitability_gap": ConfigKey("float or empty", "1.0", _ANALYZE,
                                     "sup-norm gap for the standard "
                                     "suitability warning; empty for none"),
    "dtw_seed": ConfigKey("int", None, _ANALYZE, "sampling seed (analyze --seed)",
                          _at_least(0)),
    "classify_k": ConfigKey("int", "8", _ANALYZE, "k-means cluster count",
                            _at_least(1), flag="--k"),
    "classify_max_iter": ConfigKey("int", "100", _ANALYZE, "Lloyd iteration cap",
                                   _at_least(1), flag="--max-iter"),
    "classify_restarts": ConfigKey("int", "10", _ANALYZE, "k-means++ restarts, "
                                   "best inertia wins", _at_least(1)),
    "classify_always": ConfigKey("float", "0.90", _ANALYZE, "centroid occupancy "
                                 "that counts as throughout", _FRACTION),
    "classify_none": ConfigKey("float", "0.05", _ANALYZE, "centroid occupancy "
                               "that counts as absent", _FRACTION),
    "classify_gap_fraction": ConfigKey("float", "0.25", _ANALYZE, "batch gap, as "
                                       "a share of the grid, that is still "
                                       "Type7", _FRACTION),
    "classify_seed": ConfigKey("int", None, _ANALYZE,
                               "k-means seed (analyze --seed)", _at_least(0)),
    "anomaly_trees": ConfigKey("int", "100", _ANALYZE, "isolation forest size",
                               _at_least(1), flag="--trees"),
    "anomaly_subsample": ConfigKey("int", "256", _ANALYZE, "rows per tree",
                                   _at_least(2), flag="--subsample"),
    "anomaly_mode": ConfigKey(FeatureMode, "per_machine_mean", _ANALYZE,
                              "per_machine_mean or per_interval features",
                              flag="--mode"),
    "anomaly_top_n": ConfigKey("int", "25", _ANALYZE, "ranking length in the "
                               "report", _at_least(0), flag="--top-n"),
    "anomaly_normalize": ConfigKey("bool", "false", _ANALYZE,
                                   "z-score features first"),
    "anomaly_heavier_factor": ConfigKey("float", "1.5", _ANALYZE, "container-"
                                        "count factor for the heavy-online cause"),
    "anomaly_seed": ConfigKey("int", None, _ANALYZE, "forest seed (analyze --seed)",
                              _at_least(0)),
    "synth_machines": ConfigKey("int", None, _SYNTH, "machine count",
                                flag="--machines"),
    "synth_quotas": ConfigKey("int list", None, _SYNTH, "per-type machine counts, "
                              "8 comma-separated integers", flag="--quotas"),
    "synth_seed": ConfigKey("int", None, _SYNTH, "generator seed", _at_least(0),
                            flag="--seed"),
    "synth_noise": ConfigKey("float", "0.0", _SYNTH, "usage noise sigma",
                             _at_least(0), flag="--noise"),
    "synth_plants": ConfigKey(_parse_plants, "", _SYNTH, "anomaly plants "
                              "Kind:machine[:key=val,...], ;-separated",
                              flag="--plants"),
    "synth_gaps": ConfigKey(_parse_gaps, "", _SYNTH, "sensor gaps "
                            "machine:metric:lo-hi, ;-separated", flag="--gaps"),
}


def parse_config_file(path: str) -> dict[str, str]:
    config: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise StageError(
                        "config", f"{path}:{lineno}: expected key=value, got {line!r}")
                key, value = line.split("=", 1)
                key = key.strip()
                if key not in CONFIG_KEYS:
                    raise StageError("config", f"{path}:{lineno}: unknown key {key!r}")
                config[key] = value.strip()
    except OSError as e:
        raise StageError("config", f"cannot read config file: {e}") from e
    return config


def apply_overrides(config: dict[str, str], overrides: list[str]) -> dict[str, str]:
    merged = dict(config)
    for item in overrides:
        if "=" not in item:
            raise StageError("config", f"override must be key=value, got {item!r}")
        key, value = item.split("=", 1)
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise StageError("config", f"unknown override key {key!r}")
        merged[key] = value.strip()
    return merged


def _refusal(stage: str, key: str, what: str, raw: str) -> StageError:
    return StageError(stage, f"config key {key!r} must be {what}, got {raw!r}")


def _read_key(config: dict[str, str], key: str, stage: str):
    """The value of ``key`` in ``config``, or its default, parsed by its
    kind and checked against its range."""
    row = CONFIG_KEYS[key]
    kind, raw = row.kind, config.get(key, row.default)
    if raw is None:
        hint = " (seeds must be explicit)" if key.endswith("_seed") else ""
        raise StageError(stage, f"missing required config key {key!r}{hint}")
    if kind in _KINDS:
        parse, noun = _KINDS[kind]
        try:
            value = parse(raw)
        except ValueError:
            raise _refusal(stage, key, noun, raw) from None
    elif isinstance(kind, type):   # the Enum of the allowed texts
        try:
            value = kind(raw)
        except ValueError:
            raise StageError(stage, f"{key} must be one of "
                                    f"{[m.value for m in kind]}, got {raw!r}") from None
    else:
        value = kind(raw, stage)
    if row.rule is not None and not row.rule[0](value):
        raise _refusal(stage, key, row.rule[1], raw)
    numbers = value if isinstance(value, list) else [value]
    if not all(math.isfinite(x) for x in numbers if isinstance(x, float)):
        raise _refusal(stage, key, "finite", raw)
    return value


def read_config(config: dict[str, str], stage: str) -> dict:
    """Every key ``stage`` reads, parsed and range-checked, so that a bad
    value fails before the stage opens any input."""
    return {key: _read_key(config, key, stage)
            for key, row in CONFIG_KEYS.items() if stage in row.stages}


def _grid(values: dict, stage: str) -> IntervalGrid:
    try:
        return IntervalGrid(values["grid_start"], values["grid_end"],
                            values["grid_step"])
    except ValueError as e:
        raise StageError(stage, f"bad grid: {e}") from e


# ---------------------------------------------------------------------------
# manifests

def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir: str, stage: str, config: dict[str, str],
                   inputs: dict[str, str], outputs: list[str],
                   row_counts: dict[str, int], trace_columns: str | None = None,
                   ) -> None:
    """Write manifest-<stage>.json last, digesting every artifact in
    ``outputs`` and, under its own key, the parsed-columns file
    ``trace_columns`` when the stage wrote one."""
    manifest = {
        "stage": stage,
        "tool_version": __version__,
        "config": dict(sorted(config.items())),
        "inputs": inputs,
        "outputs": {name: _sha256(os.path.join(out_dir, name))
                    for name in sorted(outputs)},
        "row_counts": row_counts,
    }
    if trace_columns is not None:
        manifest["trace_columns"] = {
            trace_columns: _sha256(os.path.join(out_dir, trace_columns))}
    path = os.path.join(out_dir, f"manifest-{stage}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _prepare_out_dir(out_dir: str, stage: str) -> None:
    """Create ``out_dir`` and delete the manifests that would still vouch for
    artifacts this stage is about to overwrite: its own, and report's when
    report reads them."""
    os.makedirs(out_dir, exist_ok=True)
    readers = ("report",) if stage in ("preprocess", "analyze") else ()
    for name in (stage, *readers):
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, f"manifest-{name}.json"))


def _digest_inputs(input_dir: str, stage: str) -> dict[str, str]:
    digests = {}
    for name in sorted(DEFAULT_FILENAMES.values()):
        path = os.path.join(input_dir, name)
        if not os.path.exists(path):
            raise StageError(stage, f"missing input file {path}")
        digests[name] = _sha256(path)
    return digests


# ---------------------------------------------------------------------------
# stage: synth

def run_synth(config: dict[str, str]) -> str:
    """generate a synthetic trace with planted ground truth"""
    stage = "synth"
    values = read_config(config, stage)
    synth_config = SynthConfig(
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
    # call goes through the module, where perfbench's tracer times it
    try:
        bundle, truth = synth.generate_trace(synth_config)
    except ValueError as e:
        raise StageError(stage, str(e)) from e
    _prepare_out_dir(out_dir, stage)
    write_synthetic_trace(bundle, truth, out_dir)
    outputs = sorted(DEFAULT_FILENAMES.values()) + ["ground_truth.json"]
    write_manifest(out_dir, stage, config, inputs={}, outputs=outputs,
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

def _parse_bundle(input_dir: str, values: dict, stage: str):
    """Parse the input trace as the config ``values`` say; returns (bundle,
    diagnostics of skipped rows)."""
    diagnostics: list = []
    try:
        bundle = parse_trace_dir(input_dir,
                                 schema_profile=values["schema_profile"],
                                 has_header=values["has_header"],
                                 max_skip_ratio=values["max_skip_ratio"],
                                 diagnostics=diagnostics)
    except TraceParseError as e:
        raise StageError(stage, str(e)) from e
    return bundle, diagnostics


def _skipped_counts(skipped) -> dict[str, int]:
    """``rows_skipped_<file key>`` of every file, from rows skipped per key."""
    return {f"rows_skipped_{key}": skipped.get(key, 0) for key in FILE_KEYS}


def run_preprocess(config: dict[str, str]) -> str:
    """repair gaps and filter duplicate container events"""
    stage = "preprocess"
    values = read_config(config, stage)
    grid = _grid(values, stage)
    out_dir, input_dir = values["output_dir"], values["input_dir"]
    bundle, diagnostics = _parse_bundle(input_dir, values, stage)
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
    save_columns(bundle, diagnostics, os.path.join(out_dir, COLUMNS_FILENAME))
    methods, method_counts = np.unique(repairs.method, return_counts=True)
    write_manifest(out_dir, stage, config,
                   inputs=_digest_inputs(input_dir, stage),
                   outputs=[DENSE_FILENAME, REPAIR_LOG_FILENAME,
                            REMOVED_EVENTS_FILENAME],
                   row_counts={
                       "machines": bundle.machine_count,
                       "server_usage": len(bundle.server_usage),
                       "dense_machines": len(dense.machines),
                       "repair_annotations": len(repairs),
                       "container_events": len(bundle.container_events),
                       "container_events_removed": len(removed),
                       **{f"repairs_{name}": count for name, count
                          in zip(methods.tolist(), method_counts.tolist())},
                       **_skipped_counts(Counter(diag.file for diag in diagnostics)),
                   },
                   trace_columns=COLUMNS_FILENAME)
    return out_dir


# ---------------------------------------------------------------------------
# stage: analyze

def _preprocessed_columns(out_dir: str, inputs: dict[str, str],
                          config: dict[str, str], stage: str):
    """The trace a preprocess run in ``out_dir`` parsed, as (bundle, rows
    skipped per file key), when its manifest shows that it parsed these
    ``inputs`` as ``config`` says to and the columns file is the one it
    wrote; None otherwise, and the caller parses."""
    try:
        with open(os.path.join(out_dir, "manifest-preprocess.json"),
                  encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError):   # none, or cut short by a killed run
        return None
    if _parse_disagreements(manifest, inputs, config, stage):
        return None
    path = os.path.join(out_dir, COLUMNS_FILENAME)
    recorded = manifest.get("trace_columns", {}).get(COLUMNS_FILENAME)
    if not os.path.exists(path) or _sha256(path) != recorded:
        return None
    try:
        return load_columns(path, _read_key(config, "max_skip_ratio", stage))
    except TraceParseError as e:
        raise StageError(stage, str(e)) from e


def run_analyze(config: dict[str, str]) -> str:
    """aggregate, DTW-score, classify, and rank anomalies"""
    stage = "analyze"
    # every value is read, and fails here, before any input is opened; so
    # are the ranges that need no data (k against the distinct rows and the
    # standards against the machines wait for the trace)
    values = read_config(config, stage)
    grid = _grid(values, stage)
    pinned = values["dtw_standards"] or None
    sample_num = values["dtw_sample_num"]
    if pinned is None:   # the sample sizes matter only to a drawn sample
        for key, ok, rule in [
                ("dtw_sample_num", sample_num >= 2, ">= 2"),
                ("dtw_standard_count",
                 1 <= values["dtw_standard_count"] <= sample_num,
                 f"in [1, dtw_sample_num={sample_num}]")]:
            if not ok:
                raise _refusal(stage, key, rule,
                               config.get(key, CONFIG_KEYS[key].default))

    out_dir, input_dir = values["output_dir"], values["input_dir"]
    inputs = _digest_inputs(input_dir, stage)
    loaded = _preprocessed_columns(out_dir, inputs, config, stage)
    if loaded is None:
        bundle, diagnostics = _parse_bundle(input_dir, values, stage)
        skipped = Counter(diag.file for diag in diagnostics)
    else:
        bundle, skipped = loaded
    _prepare_out_dir(out_dir, stage)
    try:
        clean, _removed = filter_container_events(bundle.container_events)
        bundle = dataclasses.replace(bundle, container_events=clean)
        # the same repair preprocess writes to dense_usage.csv, redone from
        # the parsed trace rather than read back
        dense, _repairs = supplement_server_usage(bundle, grid)

        diag = AggDiagnostics()
        containers = aggregate_container_usage(bundle, grid, diag)
        batch = aggregate_batch_usage(
            bundle, grid, diag, duration_weighted=values["duration_weighted"])
        table = build_machine_series(bundle, grid, dense, containers, batch)
        write_aggregate_csvs(table, containers.machines, batch.machines, grid,
                             out_dir)

        # similarity; machine m is row m - 1 of the table and its curves
        curves = build_resource_curves(table)
        standard_value, standards = select_standard(
            curves, sample_num=sample_num, seed=values["dtw_seed"],
            standard_count=values["dtw_standard_count"],
            standard_machines=pinned)
        dtw_report = score_similarity(
            curves, curves[[m - 1 for m in standards]], standards,
            standard_value=standard_value, threshold=values["dtw_threshold"],
            range_edges=(tuple(values["dtw_range_edges"])
                         or DEFAULT_RANGE_EDGES),
            normalized=values["dtw_normalized"],
            suitability_gap=values["dtw_suitability_gap"])
        write_distances_csv(dtw_report, os.path.join(out_dir, "dtw_distances.csv"))
        write_flags_csv(dtw_report, os.path.join(out_dir, "dtw_flags.csv"))
        write_histogram_json(dtw_report, os.path.join(out_dir, "dtw_histogram.json"))

        # classification
        machines, matrix = occupancy_matrix(table)
        model = kmeans_fit(machines, matrix, k=values["classify_k"],
                           seed=values["classify_seed"],
                           max_iter=values["classify_max_iter"],
                           n_init=values["classify_restarts"])
        model = label_clusters(model, LabelThresholds(
            always=values["classify_always"], none=values["classify_none"],
            gap_fraction=values["classify_gap_fraction"]))
        cat_report = category_report(model, table)
        write_assignments_csv(model, os.path.join(out_dir, "assignments.csv"))
        write_counts_json(model, cat_report,
                          os.path.join(out_dir, "category_counts.json"))
        write_type_usage_csv(cat_report, table,
                             os.path.join(out_dir, "plot_type_usage.csv"))

        # anomaly
        mode = values["anomaly_mode"]
        feat_machines, feat_matrix = build_feature_matrix(table, mode)
        if values["anomaly_normalize"]:
            feat_matrix = zscore_normalize(feat_matrix)
        forest = iforest_fit(feat_matrix, tree_count=values["anomaly_trees"],
                             subsample=values["anomaly_subsample"],
                             seed=values["anomaly_seed"])
        anomaly_report = score_machines(forest, feat_machines, feat_matrix, mode)
        labels = {m: model.labels[model.assignments[m]] for m in model.machines}
        anomaly_report.labels = labels
        stats = population_stats(table)
        softerrors = softerror_times(bundle.events)
        anomaly_report.causes = {
            m: diagnose(labels.get(m, ""), softerrors.get(m, []),
                        table.batch_count[m - 1], table.container_count[m - 1],
                        stats, grid,
                        heavier_factor=values["anomaly_heavier_factor"])
            for m in anomaly_report.machines
        }
        write_scores_csv(anomaly_report, os.path.join(out_dir, "anomaly_scores.csv"))
        write_anomaly_json(anomaly_report, values["anomaly_top_n"],
                           os.path.join(out_dir, "anomaly_report.json"))
        write_score_distribution_csv(
            anomaly_report, os.path.join(out_dir, "plot_score_distribution.csv"))
    except ValueError as e:
        raise StageError(stage, str(e)) from e

    write_manifest(out_dir, stage, config, inputs=inputs,
                   outputs=list(ANALYZE_FILENAMES),
                   row_counts={
                       "machines": len(table.machines),
                       "intervals": grid.interval_count,
                       "curves": len(curves),
                       "standards": len(standards),
                       "clusters": model.k,
                       "flagged": len(dtw_report.flagged),
                       "scored": len(anomaly_report.machines),
                       "negative_scores": anomaly_report.negative_count,
                       "top_ranked": min(values["anomaly_top_n"],
                                         len(anomaly_report.ranking)),
                       **diag.counts(),
                       **_skipped_counts(skipped),
                       "trace_columns_reused": int(loaded is not None),
                   })
    return out_dir


# ---------------------------------------------------------------------------
# stage: report

def _read_json(out_dir: str, name: str, stage: str, writer: str = "analyze") -> dict:
    """The JSON file ``name`` that stage ``writer`` wrote into ``out_dir``."""
    path = os.path.join(out_dir, name)
    if not os.path.exists(path):
        raise StageError(stage, f"{writer} stage missing: no {name} in {out_dir}")
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as e:   # cut short by a killed run, or not JSON
            raise StageError(stage, f"{name} in {out_dir} is not valid JSON "
                                    f"({e}); rerun {writer}") from e


PLOT_DATA = {
    "type_usage": "plot_type_usage.csv",
    "score_distribution": "plot_score_distribution.csv",
    "machine_series": "machine_series.csv",
    "dtw_distances": "dtw_distances.csv",
}


def _check_digests(out_dir: str, names, manifest: dict, manifest_name: str,
                   stage: str) -> None:
    """Refuse an artifact whose sha256 is not the one its stage manifest
    records, e.g. one a later, failed run of that stage overwrote."""
    recorded = manifest.get("outputs", {})
    for name in names:
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            raise StageError(stage, f"no {name} in {out_dir}, which "
                                    f"{manifest_name} lists")
        if recorded.get(name) != _sha256(path):
            raise StageError(stage, f"{name} in {out_dir} does not match its "
                                    f"digest in {manifest_name}; rerun the "
                                    "stage that writes it")


def _parse_disagreements(manifest: dict, inputs: dict[str, str],
                         config: dict[str, str], stage: str) -> list[str]:
    """What keeps a preprocess manifest from vouching that its run parsed
    ``inputs`` as ``config`` says to: an empty list when nothing does."""
    recorded = manifest.get("config", {})
    checks = [("input digests", manifest.get("inputs") == inputs)]
    checks += [(key, _read_key(recorded, key, stage) == _read_key(config, key, stage))
               for key in ("schema_profile", "has_header")]
    return [what for what, agrees in checks if not agrees]


def _preprocess_summary(out_dir: str, analyze_manifest: dict, stage: str) -> dict | None:
    """Repair counts from manifest-preprocess.json, used only when that run
    parsed the same inputs on the same grid as the analyze run."""
    name = "manifest-preprocess.json"
    path = os.path.join(out_dir, name)
    if not os.path.exists(path):
        return None
    manifest = _read_json(out_dir, name, stage, writer="preprocess")
    ours, theirs = manifest.get("config", {}), analyze_manifest["config"]
    stale = _parse_disagreements(manifest, analyze_manifest["inputs"], theirs,
                                 stage)
    stale += [key for key in ("grid_start", "grid_end", "grid_step")
              if _read_key(ours, key, stage) != _read_key(theirs, key, stage)]
    if stale:
        raise StageError(stage, f"{name} in {out_dir} disagrees with "
                                f"manifest-analyze.json on {', '.join(stale)}; "
                                "rerun preprocess")
    _check_digests(out_dir, manifest.get("outputs", {}), manifest, name, stage)
    rows = manifest["row_counts"]
    return {
        "machines": rows.get("machines", 0),
        "repair_annotations": rows.get("repair_annotations", 0),
        "repairs": {
            key.removeprefix("repairs_"): value
            for key, value in rows.items() if key.startswith("repairs_")
        },
        "container_events_removed": rows.get("container_events_removed", 0),
    }


def build_report(out_dir: str) -> dict:
    stage = "report"
    analyze_manifest = _read_json(out_dir, "manifest-analyze.json", stage)
    _check_digests(out_dir, ("dtw_histogram.json", "category_counts.json",
                             "anomaly_report.json", *PLOT_DATA.values()),
                   analyze_manifest, "manifest-analyze.json", stage)
    histogram = _read_json(out_dir, "dtw_histogram.json", stage)
    categories = _read_json(out_dir, "category_counts.json", stage)
    anomalies = _read_json(out_dir, "anomaly_report.json", stage)
    preprocess_summary = _preprocess_summary(out_dir, analyze_manifest, stage)

    grid_config = analyze_manifest["config"]
    machine_count = histogram["machine_count"]
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "tool_version": __version__,
        "grid": {
            "start": _read_key(grid_config, "grid_start", stage),
            "end": _read_key(grid_config, "grid_end", stage),
            "step": _read_key(grid_config, "grid_step", stage),
            "interval_count": analyze_manifest["row_counts"]["intervals"],
        },
        "preprocess": preprocess_summary,
        "similarity": {
            "standard_value": histogram["standard_value"],
            "standard_machines": histogram["standard_machines"],
            "threshold": histogram["threshold"],
            "normalized": histogram["normalized"],
            "bins": histogram["bins"],
            "flagged": histogram.get("flagged", []),
            "flagged_count": histogram["flagged_count"],
            "flagged_fraction": (histogram["flagged_count"] / machine_count
                                 if machine_count else 0.0),
            "unsuitable_standards": histogram["unsuitable_standards"],
        },
        "classification": {
            "k": categories["k"],
            "counts": categories["counts"],
            "members": categories["members"],
            "usage_means": categories["usage_means"],
        },
        "anomalies": anomalies,
        "plot_data": dict(PLOT_DATA),
    }


def run_report(config: dict[str, str]) -> str:
    """bundle analysis artifacts into one JSON summary"""
    stage = "report"
    out_dir = read_config(config, stage)["output_dir"]
    report = build_report(out_dir)
    _prepare_out_dir(out_dir, stage)
    path = os.path.join(out_dir, REPORT_FILENAME)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_manifest(out_dir, stage, config, inputs={}, outputs=[REPORT_FILENAME],
                   row_counts={"top_ranked": len(report["anomalies"]["top"])})
    return out_dir


STAGE_RUNNERS = {
    "synth": run_synth,
    "preprocess": run_preprocess,
    "analyze": run_analyze,
    "report": run_report,
}
