"""Stage orchestration: flat key=value configs, per-stage run manifests, and
the synth / preprocess / analyze / report pipeline behind the CLI.

Every stage reads its inputs from disk, writes its artifacts into the output
directory, and drops a manifest-<stage>.json recording the config snapshot,
input and output digests, row counts, and the tool version; no timestamps,
so reruns of the same config are byte-identical. Stages never touch another
stage's artifacts, but before its first write a stage deletes its own
manifest and those of the stages that read its artifacts, and it writes its
manifest last, so a run that fails part-way leaves no manifest vouching for
what it overwrote. All randomness comes from seeds named in the config; a
missing seed is an error, never a fallback to wall-clock entropy.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os

from . import __version__
from .aggregate import (
    AggDiagnostics,
    aggregate_batch_usage,
    aggregate_container_usage,
    build_machine_series,
    write_batch_agg_csv,
    write_container_agg_csv,
    write_machine_series_csv,
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
    parse_trace_dir,
)

REPORT_SCHEMA_VERSION = 1

DENSE_FILENAME = "dense_usage.csv"
REPAIR_LOG_FILENAME = "repair_log.csv"
REMOVED_EVENTS_FILENAME = "removed_container_events.csv"
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
# config handling

_DEFAULTS = {
    "grid_start": "39600",
    "grid_end": "82500",
    "grid_step": "300",
    "has_header": "false",
    "schema_profile": "default",
    "max_skip_ratio": "0.01",
    "duration_weighted": "false",
    "dtw_sample_num": "8",
    "dtw_standard_count": "4",
    "dtw_standards": "",
    "dtw_threshold": "3.0",
    "dtw_normalized": "false",
    "dtw_range_edges": "0,1,2,3,5",
    "dtw_suitability_gap": "1.0",
    "classify_k": "8",
    "classify_max_iter": "100",
    "classify_restarts": "10",
    "classify_always": "0.90",
    "classify_none": "0.05",
    "classify_gap_fraction": "0.25",
    "anomaly_trees": "100",
    "anomaly_subsample": "256",
    "anomaly_mode": "per_machine_mean",
    "anomaly_top_n": "25",
    "anomaly_normalize": "false",
    "anomaly_heavier_factor": "1.5",
    "synth_noise": "0.0",
    "synth_plants": "",
    "synth_gaps": "",
}

_SEED_KEYS = ("dtw_seed", "classify_seed", "anomaly_seed", "synth_seed")

KNOWN_KEYS = frozenset(_DEFAULTS) | frozenset(_SEED_KEYS) | {
    "input_dir", "output_dir",
    "synth_machines", "synth_quotas",
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
                if key not in KNOWN_KEYS:
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
        if key not in KNOWN_KEYS:
            raise StageError("config", f"unknown override key {key!r}")
        merged[key] = value.strip()
    return merged


def _get(config: dict[str, str], key: str, stage: str) -> str:
    if key in config:
        return config[key]
    if key in _DEFAULTS:
        return _DEFAULTS[key]
    hint = " (seeds must be explicit)" if key in _SEED_KEYS else ""
    raise StageError(stage, f"missing required config key {key!r}{hint}")


def _get_int(config, key, stage) -> int:
    raw = _get(config, key, stage)
    try:
        return int(raw)
    except ValueError:
        raise StageError(stage, f"config key {key!r} must be an integer, "
                                f"got {raw!r}") from None


def _get_float(config, key, stage) -> float:
    raw = _get(config, key, stage)
    try:
        return float(raw)
    except ValueError:
        raise StageError(stage, f"config key {key!r} must be a number, "
                                f"got {raw!r}") from None


def _get_bool(config, key, stage) -> bool:
    raw = _get(config, key, stage).lower()
    if raw in ("true", "1", "yes"):
        return True
    if raw in ("false", "0", "no"):
        return False
    raise StageError(stage, f"config key {key!r} must be true/false, got {raw!r}")


def _get_list(config, key, stage, kind=int) -> list:
    raw = _get(config, key, stage)
    try:
        return [kind(part) for part in raw.split(",") if part.strip() != ""]
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise StageError(stage, f"config key {key!r} must be a comma-separated "
                                f"list of {noun}, got {raw!r}") from None


def _grid(config, stage) -> IntervalGrid:
    try:
        return IntervalGrid(_get_int(config, "grid_start", stage),
                            _get_int(config, "grid_end", stage),
                            _get_int(config, "grid_step", stage))
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
                   row_counts: dict[str, int]) -> None:
    manifest = {
        "stage": stage,
        "tool_version": __version__,
        "config": dict(sorted(config.items())),
        "inputs": inputs,
        "outputs": {name: _sha256(os.path.join(out_dir, name))
                    for name in sorted(outputs)},
        "row_counts": row_counts,
    }
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


def run_synth(config: dict[str, str]) -> str:
    stage = "synth"
    out_dir = _get(config, "output_dir", stage)
    grid = _grid(config, stage)
    quotas = tuple(_get_list(config, "synth_quotas", stage))
    synth_config = SynthConfig(
        machine_count=_get_int(config, "synth_machines", stage),
        grid=grid,
        quotas=quotas,
        seed=_get_int(config, "synth_seed", stage),
        noise_level=_get_float(config, "synth_noise", stage),
        anomaly_plants=_parse_plants(_get(config, "synth_plants", stage), stage),
        gap_plants=_parse_gaps(_get(config, "synth_gaps", stage), stage),
    )
    _prepare_out_dir(out_dir, stage)
    try:
        bundle, truth = write_synthetic_trace(synth_config, out_dir)
    except ValueError as e:
        raise StageError(stage, str(e)) from e
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

def _load_bundle(config: dict[str, str], stage: str):
    """Parse the input trace; returns (bundle, input_dir, skipped), where
    skipped maps ``rows_skipped_<file key>`` to the rows that file lost."""
    input_dir = _get(config, "input_dir", stage)
    diagnostics: list = []
    try:
        bundle = parse_trace_dir(
            input_dir,
            schema_profile=_get(config, "schema_profile", stage),
            has_header=_get_bool(config, "has_header", stage),
            max_skip_ratio=_get_float(config, "max_skip_ratio", stage),
            diagnostics=diagnostics,
        )
    except TraceParseError as e:
        raise StageError(stage, str(e)) from e
    skipped = {f"rows_skipped_{key}": 0 for key in FILE_KEYS}
    for diag in diagnostics:
        skipped[f"rows_skipped_{diag.file}"] += 1
    return bundle, input_dir, skipped


def run_preprocess(config: dict[str, str]) -> str:
    stage = "preprocess"
    out_dir = _get(config, "output_dir", stage)
    grid = _grid(config, stage)
    bundle, input_dir, skipped = _load_bundle(config, stage)
    _prepare_out_dir(out_dir, stage)
    try:
        dense, annotations = supplement_server_usage(bundle, grid)
        clean, removed = filter_container_events(bundle.container_events)
    except ValueError as e:
        raise StageError(stage, str(e)) from e
    write_dense_csv(dense, os.path.join(out_dir, DENSE_FILENAME))
    write_repair_log_csv(annotations, os.path.join(out_dir, REPAIR_LOG_FILENAME))
    with open(os.path.join(out_dir, REMOVED_EVENTS_FILENAME), "w",
              encoding="utf-8", newline="") as fh:
        fh.write("instance,machine,mem_req\n")
        for instance, machine, mem_req in zip(removed.instance.tolist(),
                                              removed.machine.tolist(),
                                              removed.mem_req.tolist()):
            fh.write(f"{instance},{machine},{mem_req!r}\n")
    method_counts: dict[str, int] = {}
    for note in annotations:
        method_counts[note.method.value] = method_counts.get(note.method.value, 0) + 1
    write_manifest(out_dir, stage, config,
                   inputs=_digest_inputs(input_dir, stage),
                   outputs=[DENSE_FILENAME, REPAIR_LOG_FILENAME,
                            REMOVED_EVENTS_FILENAME],
                   row_counts={
                       "machines": bundle.machine_count,
                       "server_usage": len(bundle.server_usage),
                       "dense_machines": len(dense.machines),
                       "repair_annotations": len(annotations),
                       "container_events": len(bundle.container_events),
                       "container_events_removed": len(removed),
                       **{f"repairs_{name}": count
                          for name, count in sorted(method_counts.items())},
                       **skipped,
                   })
    return out_dir


# ---------------------------------------------------------------------------
# stage: analyze

def _feature_mode(config, stage) -> FeatureMode:
    raw = _get(config, "anomaly_mode", stage)
    for mode in FeatureMode:
        if mode.value == raw:
            return mode
    raise StageError(stage, f"anomaly_mode must be one of "
                            f"{[m.value for m in FeatureMode]}, got {raw!r}")


def run_analyze(config: dict[str, str]) -> str:
    stage = "analyze"
    out_dir = _get(config, "output_dir", stage)
    grid = _grid(config, stage)
    # every value is read, and fails here, before any input is opened
    duration_weighted = _get_bool(config, "duration_weighted", stage)
    select_args = {
        "sample_num": _get_int(config, "dtw_sample_num", stage),
        "seed": _get_int(config, "dtw_seed", stage),
        "standard_count": _get_int(config, "dtw_standard_count", stage),
        "standard_machines": _get_list(config, "dtw_standards", stage) or None,
    }
    score_args = {
        "threshold": _get_float(config, "dtw_threshold", stage),
        "range_edges": (tuple(_get_list(config, "dtw_range_edges", stage, float))
                        or DEFAULT_RANGE_EDGES),
        "normalized": _get_bool(config, "dtw_normalized", stage),
        "suitability_gap": (_get_float(config, "dtw_suitability_gap", stage)
                            if _get(config, "dtw_suitability_gap", stage).strip()
                            else None),
    }
    kmeans_args = {
        "k": _get_int(config, "classify_k", stage),
        "seed": _get_int(config, "classify_seed", stage),
        "max_iter": _get_int(config, "classify_max_iter", stage),
        "n_init": _get_int(config, "classify_restarts", stage),
    }
    thresholds = LabelThresholds(
        always=_get_float(config, "classify_always", stage),
        none=_get_float(config, "classify_none", stage),
        gap_fraction=_get_float(config, "classify_gap_fraction", stage))
    mode = _feature_mode(config, stage)
    normalize = _get_bool(config, "anomaly_normalize", stage)
    forest_args = {
        "tree_count": _get_int(config, "anomaly_trees", stage),
        "subsample": _get_int(config, "anomaly_subsample", stage),
        "seed": _get_int(config, "anomaly_seed", stage),
    }
    heavier = _get_float(config, "anomaly_heavier_factor", stage)
    top_n = _get_int(config, "anomaly_top_n", stage)
    # so are the ranges that need no data; the ones that do (k against the
    # distinct rows, standards against the machines) wait for the trace
    edges = score_args["range_edges"]
    ranges = [
        ("dtw_range_edges", list(edges) == sorted(edges), "sorted"),
        ("classify_k", kmeans_args["k"] >= 1, ">= 1"),
        ("classify_restarts", kmeans_args["n_init"] >= 1, ">= 1"),
        ("anomaly_trees", forest_args["tree_count"] >= 1, ">= 1"),
        ("anomaly_subsample", forest_args["subsample"] >= 2, ">= 2"),
        ("anomaly_top_n", top_n >= 0, ">= 0"),
    ]
    if select_args["standard_machines"] is None:
        sample_num = select_args["sample_num"]
        ranges += [
            ("dtw_sample_num", sample_num >= 2, ">= 2"),
            ("dtw_standard_count",
             1 <= select_args["standard_count"] <= sample_num,
             f"in [1, dtw_sample_num={sample_num}]"),
        ]
    for key, ok, rule in ranges:
        if not ok:
            raise StageError(stage, f"config key {key!r} must be {rule}, "
                                    f"got {_get(config, key, stage)!r}")

    bundle, input_dir, skipped = _load_bundle(config, stage)
    _prepare_out_dir(out_dir, stage)
    inputs = _digest_inputs(input_dir, stage)
    try:
        clean, _removed = filter_container_events(bundle.container_events)
        bundle = dataclasses.replace(bundle, container_events=clean)
        # the same repair preprocess writes to dense_usage.csv, redone from
        # the parsed trace rather than read back
        dense, _notes = supplement_server_usage(bundle, grid)

        diag = AggDiagnostics()
        containers = aggregate_container_usage(bundle, grid, diag)
        batch = aggregate_batch_usage(bundle, grid, diag,
                                      duration_weighted=duration_weighted)
        table = build_machine_series(bundle, grid, dense, containers, batch)
        write_container_agg_csv(containers, grid,
                                os.path.join(out_dir, "container_usage_agg.csv"))
        write_batch_agg_csv(batch, grid,
                            os.path.join(out_dir, "batch_usage_agg.csv"))
        write_machine_series_csv(table, grid,
                                 os.path.join(out_dir, "machine_series.csv"))

        # similarity; machine m is row m - 1 of the table and its curves
        curves = build_resource_curves(table)
        standard_value, standards = select_standard(curves, **select_args)
        dtw_report = score_similarity(
            curves, curves[[m - 1 for m in standards]], standards,
            standard_value=standard_value, **score_args)
        write_distances_csv(dtw_report, os.path.join(out_dir, "dtw_distances.csv"))
        write_flags_csv(dtw_report, os.path.join(out_dir, "dtw_flags.csv"))
        write_histogram_json(dtw_report, os.path.join(out_dir, "dtw_histogram.json"))

        # classification
        machines, matrix = occupancy_matrix(table)
        model = kmeans_fit(machines, matrix, **kmeans_args)
        model = label_clusters(model, thresholds)
        cat_report = category_report(model, table)
        write_assignments_csv(model, os.path.join(out_dir, "assignments.csv"))
        write_counts_json(model, cat_report,
                          os.path.join(out_dir, "category_counts.json"))
        write_type_usage_csv(cat_report, table,
                             os.path.join(out_dir, "plot_type_usage.csv"))

        # anomaly
        feat_machines, feat_matrix = build_feature_matrix(table, mode)
        if normalize:
            feat_matrix = zscore_normalize(feat_matrix)
        forest = iforest_fit(feat_matrix, **forest_args)
        anomaly_report = score_machines(forest, feat_machines, feat_matrix, mode)
        labels = {m: model.labels[model.assignments[m]] for m in model.machines}
        anomaly_report.labels = labels
        stats = population_stats(table)
        softerrors = softerror_times(bundle.events)
        anomaly_report.causes = {
            m: diagnose(labels.get(m, ""), softerrors.get(m, []),
                        table.batch_count[m - 1], table.container_count[m - 1],
                        stats, grid, heavier_factor=heavier)
            for m in anomaly_report.machines
        }
        write_scores_csv(anomaly_report, os.path.join(out_dir, "anomaly_scores.csv"))
        write_anomaly_json(anomaly_report, top_n,
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
                       "top_ranked": min(top_n, len(anomaly_report.ranking)),
                       **diag.counts(),
                       **skipped,
                   })
    return out_dir


# ---------------------------------------------------------------------------
# stage: report

def _read_json(out_dir: str, name: str, stage: str) -> dict:
    path = os.path.join(out_dir, name)
    if not os.path.exists(path):
        raise StageError(stage, f"analyze stage missing: no {name} in {out_dir}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


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


def _preprocess_summary(out_dir: str, analyze_manifest: dict, stage: str) -> dict | None:
    """Repair counts from manifest-preprocess.json, used only when that run
    parsed the same inputs on the same grid as the analyze run."""
    name = "manifest-preprocess.json"
    path = os.path.join(out_dir, name)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    ours, theirs = manifest.get("config", {}), analyze_manifest["config"]
    checks = [("input digests", manifest.get("inputs") == analyze_manifest["inputs"]),
              ("schema_profile", _get(ours, "schema_profile", stage)
               == _get(theirs, "schema_profile", stage)),
              ("has_header", _get_bool(ours, "has_header", stage)
               == _get_bool(theirs, "has_header", stage))]
    checks += [(key, _get_int(ours, key, stage) == _get_int(theirs, key, stage))
               for key in ("grid_start", "grid_end", "grid_step")]
    stale = [what for what, agrees in checks if not agrees]
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
            "start": int(grid_config.get("grid_start", _DEFAULTS["grid_start"])),
            "end": int(grid_config.get("grid_end", _DEFAULTS["grid_end"])),
            "step": int(grid_config.get("grid_step", _DEFAULTS["grid_step"])),
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
    stage = "report"
    out_dir = _get(config, "output_dir", stage)
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
