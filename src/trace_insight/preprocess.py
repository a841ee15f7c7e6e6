"""Trace repair: fill missing server-usage samples, drop bad container-event duplicates.

Missing samples are detected on the grid (a machine's sample for slot t_x is
missing when no row has a timestamp in [t_x, t_x + step)). Interior gaps are
filled linearly between the surrounding observations, boundary gaps are held
at the nearest observed value, and machines with no rows at all are filled
with zeros. The repair works on whole (machine, slot) arrays, and every
synthesized value gets a row in one columnar repair log, so repairs stay
auditable. Machine m is row m - 1 of the dense table; ids are made only
where the repair log and the dense CSV print them.

The repair reads only the server-usage columns and the machine count of a
bundle, so preprocess parses the trace keeping only the columns it reads or
saves (``trace_model.PREPROCESS_COLUMNS``). Its one (machine, timestamp,
metric) array is the dense output itself: each metric's rows are summed into
it, and it is divided in place by each cell's row count.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cells import csv_lines, float_cells, int_cells, line_blocks, text_cells
from .trace_model import IntervalGrid, Table, TraceBundle, csv_file

METRICS = ("cpu", "mem", "disk", "load1", "load5", "load15")
# the metrics written as percent text lead METRICS
_FRACTION_METRICS = METRICS[:3]


class RepairMethod(Enum):
    INTERPOLATED = "Interpolated"
    ZERO_FILLED = "ZeroFilled"
    BOUNDARY_HELD = "BoundaryHeld"


@dataclass
class DenseUsage:
    """Per-timestamp usage with no holes: values[m - 1, x, k] is machine
    m, grid timestamp x, metric METRICS[k]. The repair gives all six
    metrics; analyze holds only the first three, cpu, mem and disk."""

    timestamps: np.ndarray   # (T,) int64
    values: np.ndarray       # (M, T, 6 or 3) float64
    out_of_grid: int = 0     # server-usage rows the repair dropped off the grid


def interpolate_gap(left_value, right_value, span_count, missing_index):
    """Value for the missing sample at ``missing_index`` (1-based) on the
    straight line through a gap's two observed endpoints, where
    ``span_count`` counts the samples across the span, endpoints included.

    The step between consecutive samples is (right - left)/(span_count - 1),
    so index i gets left + i steps. Takes scalars or broadcastable arrays.
    """
    span_count, missing_index = np.broadcast_arrays(span_count, missing_index)
    short = span_count < 3
    if short.any():
        raise ValueError(f"span_count {span_count[short][0]} leaves nothing to fill")
    outside = (missing_index < 1) | (missing_index > span_count - 2)
    if outside.any():
        raise ValueError(f"missing_index {missing_index[outside][0]} outside "
                         f"[1, {span_count[outside][0] - 2}]")
    rake_ratio = (right_value - left_value) / (span_count - 1)
    return left_value + rake_ratio * missing_index


def supplement_server_usage(bundle: TraceBundle, grid: IntervalGrid,
                            ) -> tuple[DenseUsage, Table]:
    """Densify server usage over every (machine, grid timestamp) pair.

    Rows sharing a slot are averaged; observed values pass through unchanged,
    and rows off the grid are dropped and counted as ``out_of_grid``.
    Returns the dense table and the repair log: one row (machine, metric,
    timestamp, method, value) per synthesized value, per machine and metric
    the boundary holds in slot order, then the interpolated slots in slot
    order.
    """
    t_count = grid.timestamp_count
    m_count = bundle.machine_count
    usage = bundle.server_usage
    slot = (usage.timestamp - grid.start) // grid.step
    in_grid = (usage.timestamp >= grid.start) & (slot < t_count)
    keep = in_grid & (usage.machine >= 1) & (usage.machine <= m_count)
    # rows summed per cell from 0.0 in record order into one float64 array,
    # float64 even with no rows (where bincount alone gives int64), then
    # divided in place by the cell's row count: an unobserved cell is
    # 0.0 / 1, so machines with no rows stay zero
    cell = ((usage.machine - 1) * t_count + slot)[keep]
    size = m_count * t_count
    values = np.empty((size, len(METRICS)))
    for k, metric in enumerate(METRICS):
        values[:, k] = np.bincount(cell, getattr(usage, metric)[keep], minlength=size)
    values = values.reshape(m_count, t_count, len(METRICS))
    hits = np.bincount(cell, minlength=size).reshape(m_count, t_count)
    values /= np.maximum(hits, 1)[..., None]

    # every metric shares one observed mask; each hole's nearest observed
    # slot before it (-1: none) and after it (t_count: none)
    observed = hits > 0
    grid_slots = np.arange(t_count)
    before = np.maximum.accumulate(np.where(observed, grid_slots, -1), axis=1)
    after = np.minimum.accumulate(np.where(observed, grid_slots, t_count)[:, ::-1],
                                  axis=1)[:, ::-1]
    rows, cols = np.nonzero(~observed)
    left, right = before[rows, cols], after[rows, cols]
    interior = (left >= 0) & (right < t_count)
    held = (left >= 0) != (right < t_count)

    source = np.where(left >= 0, left, right)[held]
    values[rows[held], cols[held]] = values[rows[held], source]
    row, col, lo, hi = rows[interior], cols[interior], left[interior], right[interior]
    values[row, col] = interpolate_gap(values[row, lo], values[row, hi],
                                       (hi - lo + 1)[:, None], (col - lo)[:, None])

    # one log entry per (hole, metric), numbered hole * k + metric, sorted by
    # machine, metric, then holds before interpolations, each in slot order
    k = len(METRICS)
    order = np.lexsort((np.repeat(cols, k), np.repeat(interior, k),
                        np.tile(np.arange(k), len(rows)), np.repeat(rows, k)))
    hole, metric = np.divmod(order, k)
    method = np.select([interior, held], [RepairMethod.INTERPOLATED.value,
                                          RepairMethod.BOUNDARY_HELD.value],
                       RepairMethod.ZERO_FILLED.value)
    timestamps = grid.timestamps()
    repairs = Table("repair_log", {
        "machine": rows[hole] + 1,
        "metric": np.array(METRICS)[metric],
        "timestamp": timestamps[cols[hole]],
        "method": method[hole],
        "value": values[rows[hole], cols[hole], metric],
    })
    return DenseUsage(timestamps, values, int(np.count_nonzero(~in_grid))), repairs


class AmbiguousDuplicateError(ValueError):
    """Duplicate container events that the memory-request rule cannot resolve."""


_DUPLICATE_MEM_CUTOFF = 0.9


def filter_container_events(events: Table) -> tuple[Table, Table]:
    """Split container events into (clean, removed), each in input order.

    Instances appearing more than once keep the record whose memory request is
    plausible; duplicate records asking for more than 0.9 of machine memory
    are removed. Anything else ambiguous (all duplicates below the cutoff, or
    none below it) raises for the first such instance to appear, because no
    documented rule covers it.
    """
    _, first, group, sizes = np.unique(events.instance, return_index=True,
                                       return_inverse=True, return_counts=True)
    high = events.mem_req > _DUPLICATE_MEM_CUTOFF
    survivors = np.bincount(group[~high], minlength=len(sizes))
    ambiguous = np.flatnonzero((sizes > 1) & (survivors != 1))
    if len(ambiguous):
        g = ambiguous[np.argmin(first[ambiguous])]
        raise AmbiguousDuplicateError(
            f"instance {events.instance[first[g]]} has {sizes[g]} records of which "
            f"{survivors[g]} have mem_req <= {_DUPLICATE_MEM_CUTOFF}; "
            "cannot pick a survivor")
    removed = (sizes[group] > 1) & high
    return events.take(~removed), events.take(removed)


# ---------------------------------------------------------------------------
# artifact I/O

DENSE_HEADER = ("machine", "timestamp", "cpu", "mem", "disk", "load1", "load5", "load15")
REPAIR_LOG_HEADER = ("machine", "metric", "timestamp", "method", "value")
REMOVED_EVENTS_HEADER = ("instance", "machine", "mem_req")


def write_dense_csv(dense: DenseUsage, path: str) -> None:
    """One line per (machine, timestamp): fractions as percent text, loads as
    their ``repr``, a block of ``cells.BLOCK_LINES`` rows at a time."""
    m_count, t_count = dense.values.shape[:2]
    machines = np.repeat(np.arange(1, m_count + 1), t_count)
    timestamps = np.tile(dense.timestamps, m_count)
    values = dense.values.reshape(-1, len(METRICS))
    fractions = len(_FRACTION_METRICS)
    with csv_file(path, DENSE_HEADER) as fh:
        for block in line_blocks(len(values)):
            fh.write(csv_lines(
                int_cells(machines[block]), int_cells(timestamps[block]),
                *float_cells(values[block, :fractions], percent=True).swapaxes(0, 1),
                *float_cells(values[block, fractions:]).swapaxes(0, 1)))


def write_repair_log_csv(repairs: Table, path: str) -> None:
    """The repair log of ``supplement_server_usage``, one line per row in its
    order: fractions as percent text, loads as their ``repr``."""
    fraction = np.isin(repairs.metric, _FRACTION_METRICS)
    percent = float_cells(repairs.value[fraction], percent=True)
    plain = float_cells(repairs.value[~fraction])
    values = np.zeros((len(fraction), max(percent.shape[1], plain.shape[1])), np.uint8)
    values[fraction, :percent.shape[1]] = percent
    values[~fraction, :plain.shape[1]] = plain
    with csv_file(path, REPAIR_LOG_HEADER) as fh:
        fh.write(csv_lines(int_cells(repairs.machine), text_cells(repairs.metric),
                           int_cells(repairs.timestamp), text_cells(repairs.method),
                           values))


def write_removed_events_csv(removed: Table, path: str) -> None:
    """The container events ``filter_container_events`` removed."""
    with csv_file(path, REMOVED_EVENTS_HEADER) as fh:
        fh.write(csv_lines(int_cells(removed.instance), int_cells(removed.machine),
                           float_cells(removed.mem_req)))
