"""Trace repair: fill missing server-usage samples, drop bad container-event duplicates.

Missing samples are detected on the grid (a machine's sample for slot t_x is
missing when no row has a timestamp in [t_x, t_x + step)). Interior gaps are
filled linearly between the surrounding observations, boundary gaps are held
at the nearest observed value, and machines with no rows at all are filled
with zeros. Every synthesized value carries an annotation so repairs stay
auditable.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .trace_model import (
    BLOCK_ROWS,
    IntervalGrid,
    Table,
    TraceBundle,
    csv_lines,
    fraction_to_percent_text,
    float_text,
)

METRICS = ("cpu", "mem", "disk", "load1", "load5", "load15")
_FRACTION_METRICS = frozenset(("cpu", "mem", "disk"))


class RepairMethod(Enum):
    INTERPOLATED = "Interpolated"
    ZERO_FILLED = "ZeroFilled"
    BOUNDARY_HELD = "BoundaryHeld"


@dataclass(frozen=True, slots=True)
class GapSpec:
    """An interior gap: two observed endpoint values and the count of samples
    across the full span (endpoints included), so span_count - 2 samples are
    missing in between."""

    left_value: float
    right_value: float
    span_count: int
    missing_index: int   # 1-based position inside the gap


@dataclass(frozen=True, slots=True)
class RepairAnnotation:
    machine: int
    metric: str
    timestamp: int
    method: RepairMethod
    value: float


@dataclass
class DenseUsage:
    """Per-timestamp usage with no holes: values[i, x, k] is machine
    machines[i], grid timestamp x, metric METRICS[k]."""

    machines: np.ndarray     # (M,) int64, ids 1..M
    timestamps: np.ndarray   # (T,) int64
    values: np.ndarray       # (M, T, 6) float64

    def series(self, machine: int, metric: str) -> np.ndarray:
        row = int(np.searchsorted(self.machines, machine))
        if row >= len(self.machines) or self.machines[row] != machine:
            raise KeyError(f"machine {machine} not in dense table")
        return self.values[row, :, METRICS.index(metric)]


def interpolate_gap(gap: GapSpec) -> float:
    """Value for the missing sample at ``missing_index`` on the straight line
    through the gap's two observed endpoints.

    The step between consecutive samples is (right - left)/(span_count - 1),
    so index i gets left + i steps.
    """
    if gap.span_count < 3:
        raise ValueError(f"span_count {gap.span_count} leaves nothing to fill")
    if not 1 <= gap.missing_index <= gap.span_count - 2:
        raise ValueError(
            f"missing_index {gap.missing_index} outside [1, {gap.span_count - 2}]")
    rake_ratio = (gap.right_value - gap.left_value) / (gap.span_count - 1)
    return gap.left_value + rake_ratio * gap.missing_index


def supplement_server_usage(bundle: TraceBundle, grid: IntervalGrid,
                            ) -> tuple[DenseUsage, list[RepairAnnotation]]:
    """Densify server usage over every (machine, grid timestamp) pair.

    Rows sharing a slot are averaged. Returns the dense table and one
    annotation per synthesized value; observed values pass through unchanged.
    """
    t_count = grid.timestamp_count
    m_count = bundle.machine_count
    usage = bundle.server_usage
    slot = (usage.timestamp - grid.start) // grid.step
    keep = ((usage.timestamp >= grid.start) & (slot < t_count)
            & (usage.machine >= 1) & (usage.machine <= m_count))
    # rows summed per cell from 0.0 in record order
    cell = ((usage.machine - 1) * t_count + slot)[keep]
    size = m_count * t_count
    sums = np.stack([np.bincount(cell, getattr(usage, metric)[keep], minlength=size)
                     for metric in METRICS], axis=-1).reshape(m_count, t_count,
                                                                len(METRICS))
    hits = np.bincount(cell, minlength=size).reshape(m_count, t_count)

    timestamps = grid.timestamps()
    values = np.zeros_like(sums)
    annotations: list[RepairAnnotation] = []
    for row in range(m_count):
        machine = row + 1
        observed = np.flatnonzero(hits[row])
        if observed.size == 0:
            for metric_idx, metric in enumerate(METRICS):
                for slot in range(t_count):
                    annotations.append(RepairAnnotation(
                        machine, metric, int(timestamps[slot]),
                        RepairMethod.ZERO_FILLED, 0.0))
            continue
        occupied = hits[row, observed].astype(float)
        for metric_idx, metric in enumerate(METRICS):
            series = values[row, :, metric_idx]
            series[observed] = sums[row, observed, metric_idx] / occupied
            first, last = int(observed[0]), int(observed[-1])
            for slot in range(first):
                series[slot] = series[first]
                annotations.append(RepairAnnotation(
                    machine, metric, int(timestamps[slot]),
                    RepairMethod.BOUNDARY_HELD, float(series[first])))
            for slot in range(last + 1, t_count):
                series[slot] = series[last]
                annotations.append(RepairAnnotation(
                    machine, metric, int(timestamps[slot]),
                    RepairMethod.BOUNDARY_HELD, float(series[last])))
            for left, right in zip(observed[:-1], observed[1:]):
                if right - left <= 1:
                    continue
                span = int(right - left) + 1
                for offset in range(1, span - 1):
                    gap = GapSpec(float(series[left]), float(series[right]),
                                  span, offset)
                    filled = interpolate_gap(gap)
                    slot = int(left) + offset
                    series[slot] = filled
                    annotations.append(RepairAnnotation(
                        machine, metric, int(timestamps[slot]),
                        RepairMethod.INTERPOLATED, filled))

    machines = np.arange(1, m_count + 1, dtype=np.int64)
    return DenseUsage(machines, timestamps, values), annotations


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
    their ``repr``. Lines are built a block of rows at a time, which bounds
    the Python objects alive at once."""
    t_count = len(dense.timestamps)
    machines = np.repeat(dense.machines, t_count)
    timestamps = np.tile(dense.timestamps, len(dense.machines))
    values = dense.values.reshape(-1, len(METRICS))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(DENSE_HEADER) + "\n")
        for lo in range(0, len(values), BLOCK_ROWS):
            block = slice(lo, lo + BLOCK_ROWS)
            fh.write(csv_lines(
                map(str, machines[block].tolist()),
                map(str, timestamps[block].tolist()),
                *(map(fraction_to_percent_text if metric in _FRACTION_METRICS
                      else repr, column.tolist())
                  for metric, column in zip(METRICS, values[block].T))))


def write_repair_log_csv(annotations: list[RepairAnnotation], path: str) -> None:
    rows = ((str(ann.machine), ann.metric, str(ann.timestamp), ann.method.value,
             fraction_to_percent_text(ann.value) if ann.metric in _FRACTION_METRICS
             else float_text(ann.value))
            for ann in annotations)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(REPAIR_LOG_HEADER) + "\n")
        fh.write(csv_lines(*zip(*rows)))


def write_removed_events_csv(removed: Table, path: str) -> None:
    """The container events ``filter_container_events`` removed."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(REMOVED_EVENTS_HEADER) + "\n")
        fh.write(csv_lines(map(str, removed.instance.tolist()),
                           map(str, removed.machine.tolist()),
                           map(repr, removed.mem_req.tolist())))
