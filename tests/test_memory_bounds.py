"""Transient memory of the largest layers of preprocess and analyze, read
with tracemalloc.

tracemalloc counts numpy's buffers byte for byte, so these bounds are
deterministic where the peak RSS of a process follows heap layout. Each
bound is stated in arrays of the size that grows with the trace: the cells
of the columns preprocess keeps from the parse, (machine, timestamp,
metric) usage cubes in the repair, and in analyze DTW pairs, container
usage records or batch instances.
"""

import tracemalloc

import numpy as np
import pytest

import oracles
from trace_insight import aggregate, similarity
from trace_insight.aggregate import aggregate_batch_usage, aggregate_container_usage
from trace_insight.preprocess import METRICS, supplement_server_usage
from trace_insight.similarity import score_similarity
from trace_insight.synth import SynthConfig, generate_trace
from trace_insight.trace_model import (
    PREPROCESS_COLUMNS,
    IntervalGrid,
    parse_trace_dir,
    write_trace_dir,
)


def traced_peak(call, *args, **kwargs):
    """The call's result and its peak allocation above what was allocated
    when it started, in bytes."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        result = call(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - start


def table_bytes(table: aggregate.UsageTable) -> int:
    return sum(array.nbytes for array in vars(table).values() if array is not None)


@pytest.mark.parametrize("normalized", [False, True])
def test_similarity_peak_does_not_grow_with_the_machines(normalized):
    # 4 standards of 64 points: the smaller run fills one sweep exactly and
    # the larger one eight (64 and 512 machines)
    chunk = similarity.PAIR_POINTS // (4 * 64)
    rng = np.random.default_rng(1)
    above_output = []
    for machines in (chunk, 8 * chunk):
        curves = rng.random((machines, 64, 3))
        report, peak = traced_peak(score_similarity, curves, curves[:4], [1, 2, 3, 4],
                                   [1, 2, 3, 4], normalized=normalized)
        above_output.append(peak - report.distances.nbytes
                            - report.mean_distance.nbytes)
    # a few KB of Python objects; one sweep over all pairs grows by 11 MB
    assert abs(above_output[1] - above_output[0]) < 8 * 1024


@pytest.fixture(scope="module")
def trace():
    """128 machines of the demo layout on the default 143-interval grid:
    44,759 container usage records and 13,465 batch instances."""
    grid = IntervalGrid(39600, 39600 + 143 * 300, 300)
    bundle, _ = generate_trace(SynthConfig(
        machine_count=128, grid=grid, quotas=(72, 8, 8, 8, 8, 8, 8, 8), seed=7,
        noise_level=0.03))
    return bundle, grid


def test_container_aggregation_holds_a_few_record_arrays(trace):
    bundle, grid = trace
    table, peak = traced_peak(aggregate_container_usage, bundle, grid)
    record_array = 8 * len(bundle.container_usage.timestamp)
    # a np.unique of the (instance, interval) keys held about 19 at once
    assert peak - table_bytes(table) < 8 * record_array


def test_batch_aggregation_holds_a_few_instance_arrays(trace):
    bundle, grid = trace
    instances = len(bundle.batch_instances.start)
    assert instances > 8 * aggregate.BLOCK_INSTANCES
    table, peak = traced_peak(aggregate_batch_usage, bundle, grid)
    # expanding every instance's pairs at once held about 26
    assert peak - table_bytes(table) < 4 * 8 * instances


def test_the_preprocess_parse_holds_about_its_kept_columns(trace, tmp_path):
    bundle, _ = trace
    write_trace_dir(bundle, str(tmp_path))
    kept_cells = sum(len(getattr(bundle, attr)) * len(PREPROCESS_COLUMNS[key])
                     for attr, key in oracles.BUNDLE_FILES.items())
    parsed, peak = traced_peak(parse_trace_dir, str(tmp_path), keep=PREPROCESS_COLUMNS)
    # 8 bytes a kept cell, plus the last file's blocks of one column while
    # it is concatenated; every column parsed, and each concatenated
    # alongside its blocks, held 27 bytes a kept cell
    assert parsed.nbytes < 9 * kept_cells
    assert peak < 12 * kept_cells


def test_the_repair_holds_about_one_usage_cube_besides_its_output(trace):
    bundle, grid = trace
    (dense, _), peak = traced_peak(supplement_server_usage, bundle, grid)
    cube = dense.values.nbytes
    assert dense.values.shape == (bundle.machine_count, grid.timestamp_count,
                                  len(METRICS))
    # stacking the per-metric sums, then dividing them into a zeroed copy,
    # held about 4 cubes besides the output
    assert peak - cube < 2 * cube
