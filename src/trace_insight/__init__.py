"""Analysis toolkit for co-located datacenter traces: parsing, gap repair,
per-interval usage attribution, DTW similarity, workload-distribution
classification, and isolation-forest anomaly ranking.

The names below are re-exported lazily: ``import trace_insight`` loads no
submodule (and no numpy), and the first use of a name imports the module
that defines it."""

from importlib import import_module

__version__ = "0.1.0"

# re-exported name -> the submodule that defines it
EXPORTS = {
    **dict.fromkeys(("IntervalGrid", "TraceBundle", "TraceParseError",
                     "parse_trace_dir", "write_trace_dir"), "trace_model"),
    **dict.fromkeys(("AmbiguousDuplicateError", "filter_container_events",
                     "interpolate_gap", "supplement_server_usage"), "preprocess"),
    **dict.fromkeys(("SeriesTable", "aggregate_batch_usage",
                     "aggregate_container_usage", "build_machine_series",
                     "overlap_runtime"), "aggregate"),
    **dict.fromkeys(("dtw_distance", "score_similarity", "select_standard"),
                    "similarity"),
    **dict.fromkeys(("category_report", "kmeans_fit", "label_clusters",
                     "occupancy_matrix"), "classify"),
    **dict.fromkeys(("build_feature_matrix", "diagnose", "iforest_fit",
                     "rank_anomalies", "score_machines"), "anomaly"),
    **dict.fromkeys(("SynthConfig", "generate_trace", "plant_gap"), "synth"),
}


def __getattr__(name: str):
    # Any other name raises AttributeError, so that ``from trace_insight
    # import pipeline`` falls back to importing the submodule.
    if name not in EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
