"""What every stage shares, and the report stage: ``StageError``, the config
table and its reader, the workload ``TYPE_LABELS``, ``write_json``, the run
manifests, and ``run_report``.

This module imports no numpy and no other module of the package, so the CLI
can parse its flags and run ``report`` without them; ``pipeline`` holds the
synth, preprocess and analyze runners and is imported only for those. The
one exception is ``synth`` (numpy), which ``_parse_plants`` and
``_parse_gaps`` import when the synth stage reads its plants and gaps.

Every stage drops a manifest-<stage>.json recording the given config keys
it reads, input and output digests, row counts, and the tool version; no
timestamps, so reruns of the same config are byte-identical. ``report``
refuses a manifest that is not shaped as ``write_manifest`` writes it, and
an artifact whose digest is not the one its manifest records.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
from collections import namedtuple
from enum import Enum

from . import __version__

REPORT_SCHEMA_VERSION = 1
REPORT_FILENAME = "report.json"

# the help of each stage's subcommand, in the order the CLI lists them
STAGE_HELP = {
    "synth": "generate a synthetic trace with planted ground truth",
    "preprocess": "repair gaps and filter duplicate container events",
    "analyze": "aggregate, classify, DTW-score, and rank anomalies",
    "report": "bundle analysis artifacts into one JSON summary",
}


class StageError(Exception):
    """Pipeline failure attributed to one stage."""

    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage
        self.message = message

    def __str__(self) -> str:
        return f"[{self.stage}] {self.message}"


class FeatureMode(Enum):
    """The rows the isolation forest scores: one per machine, or one per
    (machine, interval)."""

    PER_MACHINE_MEAN = "per_machine_mean"
    PER_INTERVAL = "per_interval"


# the paper's eight workload-distribution categories; here, not in classify,
# so that synth plants them without loading the analysis modules
TYPE_LABELS = ("Type1", "Type2", "Type3", "Type4",
               "Type5", "Type6", "Type7", "Type8")


# ---------------------------------------------------------------------------
# config handling: one table row per key, and one reader

def _parse_plants(raw: str, stage: str) -> tuple:
    """Parse 'Kind:machine' items separated by ';' into
    ``synth.AnomalyPlant``s."""
    from .synth import AnomalyPlant, PlantKind   # only synth reads plants
    plants = []
    kinds = {kind.value: kind for kind in PlantKind}
    for item in filter(None, (part.strip() for part in raw.split(";"))):
        pieces = item.split(":")
        if len(pieces) < 2:
            raise StageError(stage, f"plant must be Kind:machine, got {item!r}")
        if len(pieces) > 2:
            raise StageError(stage, f"bad plant {item!r}: a plant takes no "
                                    "parameters, only Kind:machine")
        kind_name, machine = pieces
        if kind_name not in kinds:
            raise StageError(stage, f"unknown plant kind {kind_name!r} "
                                    f"(expected one of {sorted(kinds)})")
        try:
            plants.append(AnomalyPlant(machine=int(machine), kind=kinds[kind_name]))
        except ValueError as e:
            raise StageError(stage, f"bad plant {item!r}: {e}") from e
    return tuple(plants)


def _parse_gaps(raw: str, stage: str) -> tuple:
    """Parse 'machine:metric:lo-hi' items (inclusive slot range) separated
    by ';' into ``synth.GapPlant``s."""
    from .synth import GapPlant   # only synth reads gaps
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
                if not slots:
                    raise ValueError("the slot range runs backwards")
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


def _int_list(raw: str) -> list[int]:
    """Blank text is the empty list; an empty item (``3,,1``) is refused."""
    return [int(part) for part in raw.split(",")] if raw.strip() else []


# kind: (parse, what the value must be when parse raises ValueError)
_KINDS = {
    "int": (int, "an integer"),
    "float": (float, "a number"),
    "bool": (_bool, "true/false"),
    "int list": (_int_list, "a comma-separated list of integers"),
    "text": (str, "text"),
}


def _at_least(low: int) -> tuple:
    return (lambda value: value >= low), f">= {low}"


_FRACTION = ((lambda value: 0 <= value <= 1), "in [0, 1]")
# one pinned standard has no pair to take a median over
_STANDARDS = ((lambda ids: not ids or (2 <= len(set(ids)) == len(ids)
                                       and min(ids) >= 1)),
              "empty, or two or more distinct ids >= 1")


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
_PREPROCESS = ("preprocess",)
_SYNTH = ("synth",)
_ANALYZE = ("analyze",)

CONFIG_KEYS = {
    "input_dir": ConfigKey("text", None, _PREPROCESS, "trace directory",
                           flag="--input-dir"),
    "output_dir": ConfigKey("text", None, _EVERY, "where the stage writes "
                            "(the trace, for synth)", flag="--out-dir"),
    "grid_start": ConfigKey("int", "39600", _GRID, "first interval boundary (s)"),
    "grid_end": ConfigKey("int", "82500", _GRID, "last interval boundary (s)"),
    "grid_step": ConfigKey("int", "300", _GRID, "interval length (s)"),
    "max_skip_ratio": ConfigKey("float", "0.01", _PREPROCESS, "tolerated share of "
                                "malformed rows per file", _FRACTION),
    "dtw_standards": ConfigKey("int list", "", _ANALYZE, "pinned standard "
                               "machine ids, e.g. 16,19,28,36", _STANDARDS,
                               flag="--standards"),
    "dtw_threshold": ConfigKey("float", "3.0", _ANALYZE, "mean-distance "
                               "flagging threshold", flag="--threshold"),
    "dtw_normalized": ConfigKey("bool", "false", _ANALYZE,
                                "use sqrt(cost)/path-length distances"),
    "dtw_seed": ConfigKey("int", None, _ANALYZE, "sampling seed (analyze --seed)",
                          _at_least(0)),
    "classify_seed": ConfigKey("int", None, _ANALYZE,
                               "k-means seed (analyze --seed)", _at_least(0)),
    "anomaly_mode": ConfigKey(FeatureMode, "per_machine_mean", _ANALYZE,
                              "per_machine_mean or per_interval features",
                              flag="--mode"),
    "anomaly_seed": ConfigKey("int", None, _ANALYZE, "forest seed (analyze --seed)",
                              _at_least(0)),
    "synth_machines": ConfigKey("int", None, _SYNTH, "machine count",
                                _at_least(1), flag="--machines"),
    "synth_quotas": ConfigKey("int list", None, _SYNTH, "per-type machine counts, "
                              "8 comma-separated integers", flag="--quotas"),
    "synth_seed": ConfigKey("int", None, _SYNTH, "generator seed", _at_least(0),
                            flag="--seed"),
    "synth_noise": ConfigKey("float", "0.0", _SYNTH, "usage noise sigma",
                             _at_least(0), flag="--noise"),
    "synth_plants": ConfigKey(_parse_plants, "", _SYNTH, "anomaly plants "
                              "Kind:machine, ;-separated", flag="--plants"),
    "synth_gaps": ConfigKey(_parse_gaps, "", _SYNTH, "sensor gaps "
                            "machine:metric:lo-hi, ;-separated", flag="--gaps"),
}


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
    if isinstance(value, float) and not math.isfinite(value):
        raise _refusal(stage, key, "finite", raw)
    return value


def read_config(config: dict[str, str], stage: str) -> dict:
    """Every key ``stage`` reads, parsed and range-checked, so that a bad
    value, or a key that no stage reads, fails before the stage opens any
    input."""
    for key in config:
        if key not in CONFIG_KEYS:
            raise StageError(stage, f"unknown config key {key!r}")
    return {key: _read_key(config, key, stage)
            for key, row in CONFIG_KEYS.items() if stage in row.stages}


def keys_read(config: dict[str, str], stage: str) -> dict[str, str]:
    """The given keys of ``config`` that ``stage`` reads, as its manifest
    records them; a key of another stage is ignored, and left out."""
    return {key: value for key, value in config.items()
            if stage in CONFIG_KEYS[key].stages}


# ---------------------------------------------------------------------------
# JSON artifacts and manifests

def write_json(path: str, data) -> None:
    """Write ``data`` as every JSON artifact is written: sorted keys, a
    two-space indent and a final newline. The text is built before the file
    is opened, so data that does not serialize leaves no file."""
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        # 64 KiB reads: a larger buffer sets the peak RSS of a stage that
        # digests its trace
        for chunk in iter(lambda: fh.read(1 << 16), b""):
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
    write_json(os.path.join(out_dir, f"manifest-{stage}.json"), manifest)


def _misshapen(manifest) -> str | None:
    """How ``manifest`` differs from the shape ``write_manifest`` gives it,
    e.g. "has no 'config' object"; None when it does not."""
    if not isinstance(manifest, dict):
        return "is not a JSON object"
    for key in ("config", "inputs", "outputs", "row_counts"):
        if not isinstance(manifest.get(key), dict):
            return f"has no {key!r} object"
    return None


def _prepare_out_dir(out_dir: str, stage: str) -> None:
    """Create ``out_dir`` and delete the manifests that would still vouch for
    artifacts this stage is about to overwrite: its own, and report's when
    report reads them."""
    os.makedirs(out_dir, exist_ok=True)
    readers = ("report",) if stage in ("preprocess", "analyze") else ()
    for name in (stage, *readers):
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, f"manifest-{name}.json"))


# ---------------------------------------------------------------------------
# stage: report

def _read_json(out_dir: str, name: str, stage: str, writer: str = "analyze"):
    """The JSON file ``name`` that stage ``writer`` wrote into ``out_dir``."""
    path = os.path.join(out_dir, name)
    if not os.path.exists(path):
        raise StageError(stage, f"{writer} stage missing: no {name} in {out_dir}; "
                                f"run {writer} first")
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as e:   # cut short by a killed run, or not JSON
            raise StageError(stage, f"{name} in {out_dir} is not valid JSON "
                                    f"({e}); rerun {writer}") from e


def _read_manifest(out_dir: str, writer: str, stage: str) -> dict:
    """manifest-<writer>.json in ``out_dir``, refused unless it has the
    shape ``write_manifest`` gives it."""
    name = f"manifest-{writer}.json"
    manifest = _read_json(out_dir, name, stage, writer)
    problem = _misshapen(manifest)
    if problem is not None:
        raise StageError(stage, f"{name} in {out_dir} {problem}; rerun {writer}")
    return manifest


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
    recorded = manifest["outputs"]
    for name in names:
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            raise StageError(stage, f"no {name} in {out_dir}, which "
                                    f"{manifest_name} lists")
        if recorded.get(name) != _sha256(path):
            raise StageError(stage, f"{name} in {out_dir} does not match its "
                                    f"digest in {manifest_name}; rerun the "
                                    "stage that writes it")


def _preprocess_summary(out_dir: str, analyze_manifest: dict, stage: str) -> dict:
    """Repair counts from manifest-preprocess.json, used only when that run
    wrote the parsed columns the analyze run read: what it records under
    ``trace_columns`` is analyze's ``inputs``."""
    name = "manifest-preprocess.json"
    manifest = _read_manifest(out_dir, "preprocess", stage)
    if manifest.get("trace_columns") != analyze_manifest["inputs"]:
        raise StageError(stage, f"{name} in {out_dir} vouches for other parsed "
                                "columns than manifest-analyze.json read; "
                                "rerun analyze")
    _check_digests(out_dir, manifest["outputs"], manifest, name, stage)
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
    analyze_manifest = _read_manifest(out_dir, "analyze", stage)
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
    """Run the report stage under ``config``; returns its output directory."""
    stage = "report"
    out_dir = read_config(config, stage)["output_dir"]
    report = build_report(out_dir)
    _prepare_out_dir(out_dir, stage)
    write_json(os.path.join(out_dir, REPORT_FILENAME), report)
    write_manifest(out_dir, stage, keys_read(config, stage), inputs={},
                   outputs=[REPORT_FILENAME],
                   row_counts={"top_ranked": len(report["anomalies"]["top"])})
    return out_dir
