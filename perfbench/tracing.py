"""Spans and counts around the calls the pipeline makes into each layer.

The traced run patches the names that ``trace_insight.pipeline`` imports
(and the names ``trace_insight.synth`` calls during set-up) with
wrappers that record a span per call: name, start, end, parent span and run
id. A layer's busy time is the self time of its spans, i.e. their duration
minus the time covered by spans nested inside them. Counts are computed from
the arguments and return values of the wrapped calls, never from inside the
program. A name that the program no longer has is reported as absent.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

# (per-layer metric, module, names in that module whose calls it times)
LAYER_CALLS = (
    ("trace_model.parse_s", "pipeline", ("parse_trace_dir",)),
    ("preprocess.repair_s", "pipeline", ("supplement_server_usage",)),
    ("preprocess.dedup_s", "pipeline", ("filter_container_events",)),
    ("preprocess.dense_write_s", "pipeline", ("write_dense_csv",)),
    ("preprocess.dense_read_s", "pipeline", ("read_dense_csv",)),
    ("aggregate.container_s", "pipeline", ("aggregate_container_usage",)),
    ("aggregate.batch_s", "pipeline", ("aggregate_batch_usage",)),
    ("aggregate.series_s", "pipeline", ("build_machine_series",)),
    ("aggregate.write_s", "pipeline", ("write_container_agg_csv",
                                       "write_batch_agg_csv",
                                       "write_machine_series_csv")),
    ("similarity.select_s", "pipeline", ("build_resource_curves",
                                         "select_standard")),
    ("similarity.score_s", "pipeline", ("score_similarity",)),
    ("similarity.write_s", "pipeline", ("write_distances_csv",
                                        "write_flags_csv",
                                        "write_histogram_json")),
    ("classify.kmeans_s", "pipeline", ("occupancy_matrix", "kmeans_fit")),
    ("classify.label_s", "pipeline", ("label_clusters", "category_report")),
    ("classify.write_s", "pipeline", ("write_assignments_csv",
                                      "write_counts_json",
                                      "write_type_usage_csv")),
    ("anomaly.features_s", "pipeline", ("build_feature_matrix",
                                        "zscore_normalize",
                                        "population_stats")),
    ("anomaly.fit_s", "pipeline", ("iforest_fit",)),
    ("anomaly.score_s", "pipeline", ("score_machines",)),
    ("anomaly.diagnose_s", "pipeline", ("diagnose",)),
    ("anomaly.write_s", "pipeline", ("write_scores_csv",
                                     "write_anomaly_json",
                                     "write_score_distribution_csv")),
    ("pipeline.manifest_s", "pipeline", ("write_manifest", "_digest_inputs")),
    ("pipeline.report_s", "pipeline", ("build_report",)),
    # Self time of the stage runners: glue code between the wrapped calls.
    ("pipeline.glue_s", "pipeline", ("run_synth", "run_preprocess",
                                     "run_analyze", "run_report")),
    ("synth.generate_s", "synth", ("generate_trace",)),
    ("synth.write_s", "synth", ("write_trace_dir", "write_ground_truth")),
)

# Spans that count tracer work; they shrink their parent's self time and are
# reported nowhere else.
HOOK_SPAN = "trace.count"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: str


def _count_lines(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


def _tree_nodes(node) -> int:
    total = 0
    stack = [node]
    while stack:
        node = stack.pop()
        total += 1
        left = getattr(node, "left", None)
        if left is not None:
            stack.extend((left, node.right))
    return total


class Tracer:
    """Records spans and deterministic counts for one or more runs."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: set[str] = set()
        self.counts: dict[str, dict[str, float]] = {}
        self.run = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def add(self, name: str, value: float) -> None:
        run = self.counts.setdefault(self.run, {})
        run[name] = run.get(name, 0) + value

    def _wrap(self, module, attr: str):
        original = getattr(module, attr, None)
        if original is None:
            self.absent.add(f"{module.__name__}.{attr}")
            return
        hook = getattr(self, f"_count_{attr}", None)
        span_name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        def wrapper(*args, **kwargs):
            with self.span(span_name):
                result = original(*args, **kwargs)
            if hook is not None:
                with self.span(HOOK_SPAN):
                    try:
                        hook(result, *args, **kwargs)
                    except (AttributeError, KeyError, TypeError, IndexError) as e:
                        self.absent.add(f"count {attr}: {e!r}")
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def install(self, modules: dict) -> None:
        for _metric, module_name, names in LAYER_CALLS:
            for attr in names:
                self._wrap(modules[module_name], attr)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- per-call counts, from arguments and return values ------------------

    def _count_parse_trace_dir(self, bundle, path, *args, **kwargs):
        records = (len(bundle.events) + len(bundle.server_usage)
                   + len(bundle.container_events) + len(bundle.container_usage)
                   + len(bundle.batch_tasks) + len(bundle.batch_instances))
        lines = sum(_count_lines(os.path.join(path, name))
                    for name in os.listdir(path) if name.endswith(".csv"))
        self.add("trace_model.parse_calls", 1)
        self.add("trace_model.rows", records)
        self.add("trace_model.rows_skipped", lines - records)

    def _count_supplement_server_usage(self, result, *args, **kwargs):
        dense, annotations = result
        self.add("preprocess.repairs", len(annotations))
        self.add("preprocess.dense_cells", dense.values.size)

    def _count_filter_container_events(self, result, *args, **kwargs):
        _clean, removed = result
        self.add("preprocess.events_removed", len(removed))

    def _count_aggregate_container_usage(self, aggs, bundle, *args, **kwargs):
        self.add("aggregate.instances", len(bundle.container_events))
        self.add("aggregate.cells", len(aggs))

    def _count_aggregate_batch_usage(self, aggs, bundle, *args, **kwargs):
        self.add("aggregate.instances", len(bundle.batch_instances))
        self.add("aggregate.cells", len(aggs))

    def _count_written(self, _result, *args):
        # the three aggregate writers take the output path last
        self.add("aggregate.bytes_written", os.path.getsize(args[-1]))

    _count_write_container_agg_csv = _count_written
    _count_write_batch_agg_csv = _count_written
    _count_write_machine_series_csv = _count_written

    def _count_select_standard(self, result, curves, sample_num, *args,
                               standard_machines=None, **kwargs):
        # select_standard scores every pair inside its sample; the cells are
        # computed from the curve lengths, not counted inside the DP.
        size = len(standard_machines) if standard_machines else sample_num
        pairs = size * (size - 1) // 2
        self.add("similarity.dtw_pairs", pairs)
        self.add("similarity.dtw_cells", pairs * len(curves[0]) ** 2)

    def _count_score_similarity(self, report, curves, standards, *args, **kwargs):
        self.add("similarity.dtw_pairs", len(curves) * len(standards))
        self.add("similarity.dtw_cells",
                 sum(len(c) for c in curves) * sum(len(s) for s in standards))

    def _count_kmeans_fit(self, model, _machines, matrix, *args, **kwargs):
        self.add("classify.matrix_cells", matrix.size)
        self.add("classify.lloyd_iters", len(model.inertia_history))

    def _count_iforest_fit(self, model, matrix, *args, **kwargs):
        self.add("anomaly.rows", len(matrix))
        self.add("anomaly.tree_nodes", sum(_tree_nodes(t) for t in model.trees))
        self.add("anomaly.row_tree_visits", len(matrix) * len(model.trees))

    # -- aggregation ---------------------------------------------------------

    def self_times(self, run: str) -> dict[str, float]:
        """Self time per span name, summed over the spans of one run."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.run == run and span.parent is not None:
                child_time[span.parent] += span.end - span.start
        totals: dict[str, float] = {}
        for i, span in enumerate(self.spans):
            if span.run == run and span.name != HOOK_SPAN:
                own = span.end - span.start - child_time[i]
                totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def layer_times(self, run: str) -> dict[str, float]:
        """Busy time per per-layer metric for one run."""
        by_span = self.self_times(run)
        return {
            metric: sum(by_span.get(f"{module}.{attr}", 0.0) for attr in names)
            for metric, module, names in LAYER_CALLS
        }

    def span_records(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "run": s.run} for s in self.spans]
