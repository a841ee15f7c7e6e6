"""Per-(machine, interval) usage attribution for containers and batch instances.

Both aggregators work on whole arrays and return a ``UsageTable``: one
column per grid interval and one row per machine, machine m in row m - 1,
with a mask of the machines their records name. ``build_machine_series``
takes their rows as they are, with the repaired server usage, into one
``SeriesTable`` of (machine, interval) arrays for machines 1..M, which the
DTW, k-means and isolation-forest analyses read directly. Machine ids are
made only where the CSV writer prints them.

Container usage is charged from its measured fraction of the request. Records
are bucketed to the interval holding their timestamp; several records for one
container in one interval are averaged, and a cell totals its containers in
the order they first appear in its records.

Batch usage is charged per overlap between the instance's [start, end] span
and each closed grid interval, by expanding every (instance, interval) pair
and accumulating the pairs in instance order. An instance charges the
overlapped share of its runtime, so one fully inside an interval charges its
whole average usage there. A zero-runtime instance is inside every interval
it touches, and it charges its whole average once, to the last of them.

Counts (how many containers / batch instances a machine hosts in an interval)
use life-cycle intersection with the closed interval, so an instance touching
an interval boundary is a member there even though it charges nothing.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from .preprocess import DenseUsage
from .trace_model import IntervalGrid, TraceBundle, csv_file, csv_lines


@dataclass
class UsageTable:
    """Totals per (machine, interval): row m - 1 of every array, an (M,
    interval_count) one, is machine m, and ``seen`` (M,) marks the machines
    the table's records name. ``len()`` counts the cells of seen machines."""

    seen: np.ndarray
    count: np.ndarray
    cpu: np.ndarray        # fraction of machine CPU
    mem: np.ndarray        # fraction of machine memory
    cpu_cores: np.ndarray | None = None   # batch only: cpu before / cores

    def __len__(self) -> int:
        return int(np.count_nonzero(self.seen)) * self.count.shape[1]


@dataclass
class SeriesTable:
    """Per-interval resource signals of machines 1..M: row m - 1 of every
    signal, an (M, interval_count) float64 array, belongs to machine m."""

    server_cpu: np.ndarray
    server_mem: np.ndarray
    server_disk: np.ndarray
    container_count: np.ndarray
    container_cpu: np.ndarray
    container_mem: np.ndarray
    batch_count: np.ndarray
    batch_cpu_cores: np.ndarray
    batch_cpu: np.ndarray
    batch_mem: np.ndarray


@dataclass
class AggDiagnostics:
    unknown_instance_records: int = 0
    out_of_grid_usage_records: int = 0
    zero_timestamp_instances: int = 0
    unplaced_instances: int = 0
    invalid_span_instances: int = 0
    # machines with no core count of their own that borrowed the largest one
    borrowed_core_machines: set[int] = field(default_factory=set)

    def counts(self) -> dict[str, int]:
        counts = dataclasses.asdict(self)
        counts["borrowed_core_machines"] = len(self.borrowed_core_machines)
        return counts


def machine_cpu_counts(bundle: TraceBundle) -> np.ndarray:
    """(M,) core count of each machine from its events, 0 for a machine
    without one (soft errors carry 0, so take the max)."""
    events = bundle.events
    cores = np.zeros(bundle.machine_count, dtype=np.int64)
    np.maximum.at(cores, events.machine - 1, events.cpu_count)
    return cores


def _cores_for(seen: np.ndarray, counts: np.ndarray,
               diag: AggDiagnostics) -> np.ndarray:
    """Core count per machine row; a seen machine without one borrows the
    largest count of the others and is recorded in ``diag``."""
    borrowed = np.flatnonzero(seen & (counts == 0)) + 1
    if len(borrowed) and not counts.any():
        raise ValueError(f"cannot determine core count for machine {borrowed[0]}; "
                         "no machine events with cpu_count > 0")
    diag.borrowed_core_machines.update(borrowed.tolist())
    return np.where(counts > 0, counts, counts.max(initial=1))


def overlap_runtime(start, end, lo, hi):
    """Seconds of [start, end] inside the closed interval [lo, hi], 0 when
    they do not intersect; elementwise on arrays."""
    return np.maximum(0, np.minimum(end, hi) - np.maximum(start, lo))


def _first_interval_touching(ts: np.ndarray, grid: IntervalGrid) -> np.ndarray:
    """Smallest interval index whose closed interval intersects [ts, inf)."""
    return np.where(ts <= grid.start, 0, -(-(ts - grid.start) // grid.step) - 1)


def _last_interval_touching(ts: np.ndarray, grid: IntervalGrid) -> np.ndarray:
    """Largest interval index whose closed interval intersects (-inf, ts]."""
    return np.minimum(grid.interval_count - 1, (ts - grid.start) // grid.step)


def _cell_sums(cell: np.ndarray, weights: np.ndarray | None, rows: int,
               n: int) -> np.ndarray:
    """(rows, n) totals of ``weights`` by flat cell index, each cell summed
    from 0.0 in input order; counts of ``cell`` when ``weights`` is None."""
    return np.bincount(cell, weights, minlength=rows * n).reshape(rows, n)


def aggregate_container_usage(bundle: TraceBundle, grid: IntervalGrid,
                              diagnostics: AggDiagnostics | None = None,
                              ) -> UsageTable:
    """Container-level totals per (machine, interval).

    Expects container events to be filtered (one per instance), and raises
    for an instance with several. Usage records are bucketed to the interval
    containing their timestamp; several records for one container in one
    interval are averaged. Records naming unknown instances are skipped.
    """
    diag = diagnostics if diagnostics is not None else AggDiagnostics()
    n, rows = grid.interval_count, bundle.machine_count
    events = bundle.container_events
    ev_row = events.machine - 1
    seen = np.bincount(ev_row, minlength=rows) > 0
    cores = _cores_for(seen, machine_cpu_counts(bundle), diag)

    # a container counts from the first interval reaching its creation on
    first = _first_interval_touching(events.timestamp, grid)
    created = _cell_sums(ev_row * (n + 1) + np.minimum(first, n), None, rows, n + 1)
    count = created[:, :n].cumsum(axis=1)

    # each usage record's event, found in the events sorted by instance
    by_instance = np.argsort(events.instance, kind="stable")
    instances = events.instance[by_instance]
    repeated = instances[1:][instances[1:] == instances[:-1]]
    if len(repeated):
        raise ValueError(f"instance {repeated[0]} has several container events; "
                         "filter them first")
    usage = bundle.container_usage
    at = np.searchsorted(instances, usage.instance)
    known = at < len(instances)
    known[known] = instances[at[known]] == usage.instance[known]
    ts = usage.timestamp
    in_grid = (ts >= grid.start) & (ts < grid.end)
    diag.unknown_instance_records += int(np.count_nonzero(~known))
    diag.out_of_grid_usage_records += int(np.count_nonzero(known & ~in_grid))
    keep = known & in_grid
    rec_ev = by_instance[at[keep]]
    cpu_of_req = usage.cpu_of_req[keep]
    mem_of_req = usage.mem_of_req[keep]

    # average each (instance, interval) over its records, summed in order
    pair, first_rec, pair_of_rec = np.unique(
        rec_ev * n + (ts[keep] - grid.start) // grid.step,
        return_index=True, return_inverse=True)
    hits = np.bincount(pair_of_rec)
    pair_ev, pair_x = pair // n, pair % n
    cpu_req = events.cpu_req[pair_ev]
    mem_req = events.mem_req[pair_ev]
    pair_row = ev_row[pair_ev]
    cpu = np.bincount(pair_of_rec, cpu_of_req) / hits * cpu_req / cores[pair_row]
    mem = np.bincount(pair_of_rec, mem_of_req) / hits * mem_req

    # total each cell over its instances in the order they first show up
    order = np.argsort(first_rec)
    cell = (pair_row * n + pair_x)[order]
    return UsageTable(seen, count,
                      _cell_sums(cell, cpu[order], rows, n),
                      _cell_sums(cell, mem[order], rows, n))


def aggregate_batch_usage(bundle: TraceBundle, grid: IntervalGrid,
                          diagnostics: AggDiagnostics | None = None,
                          ) -> UsageTable:
    """Batch-level totals per (machine, interval).

    Instances with a zero timestamp never ran inside the recorded window and
    are excluded (counted in diagnostics).
    """
    diag = diagnostics if diagnostics is not None else AggDiagnostics()
    n, rows = grid.interval_count, bundle.machine_count
    insts = bundle.batch_instances
    start, end, machine = insts.start, insts.end, insts.machine
    seen = np.bincount(machine[machine >= 1] - 1, minlength=rows) > 0
    cores = _cores_for(seen, machine_cpu_counts(bundle), diag)

    zero_ts = (start == 0) | (end == 0)
    unplaced = ~zero_ts & (machine < 1)
    invalid = ~zero_ts & ~unplaced & (end < start)
    diag.zero_timestamp_instances += int(np.count_nonzero(zero_ts))
    diag.unplaced_instances += int(np.count_nonzero(unplaced))
    diag.invalid_span_instances += int(np.count_nonzero(invalid))
    ok = ~(zero_ts | unplaced | invalid)
    start, end = start[ok], end[ok]
    row = machine[ok] - 1
    avg_cpu = insts.avg_cpu[ok]
    avg_mem = insts.avg_mem[ok]

    # every (instance, interval) pair it touches, instance-major
    first = _first_interval_touching(start, grid)
    last = _last_interval_touching(end, grid)
    span = np.maximum(last - first + 1, 0)
    inst = np.repeat(np.arange(len(start)), span)
    x = first[inst] + np.arange(len(inst)) - np.repeat(np.cumsum(span) - span, span)
    lo = grid.start + x * grid.step
    overlap = overlap_runtime(start[inst], end[inst], lo, lo + grid.step)
    runtime = (end - start)[inst]
    share = np.where(runtime > 0, overlap / np.maximum(runtime, 1),
                     x == last[inst])

    cell = row[inst] * n + x
    cpu_cores = _cell_sums(cell, avg_cpu[inst] * share, rows, n)
    return UsageTable(seen, _cell_sums(cell, None, rows, n),
                      cpu_cores / cores[:, None],
                      _cell_sums(cell, avg_mem[inst] * share, rows, n),
                      cpu_cores)


def build_machine_series(bundle: TraceBundle, grid: IntervalGrid, dense: DenseUsage,
                         containers: UsageTable, batch: UsageTable) -> SeriesTable:
    """The series table of machines 1..machine_count; every input must hold
    those machines as its rows. Server usage per interval is the mean of the
    interval's two endpoint samples in the dense table, so all samples
    contribute."""
    m_count, n = bundle.machine_count, grid.interval_count
    for name, shape, want in (
            ("dense usage", dense.values.shape[:2], (m_count, n + 1)),
            ("container usage", containers.count.shape, (m_count, n)),
            ("batch usage", batch.count.shape, (m_count, n))):
        if shape != want:
            raise ValueError(f"{name} table has shape {shape}, but machines "
                             f"1..{m_count} on {n} intervals need {want}")
    vals = dense.values
    return SeriesTable(
        *((vals[:, :-1, k] + vals[:, 1:, k]) / 2.0 for k in range(3)),
        containers.count.astype(np.float64), containers.cpu, containers.mem,
        batch.count.astype(np.float64), batch.cpu_cores, batch.cpu, batch.mem)


# ---------------------------------------------------------------------------
# artifact I/O

SERIES_HEADER = ("machine", "interval_index", "interval_start",
                 "server_cpu", "server_mem", "server_disk",
                 "container_count", "container_cpu", "container_mem",
                 "batch_count", "batch_cpu", "batch_mem", "residual_cpu", "residual_mem")
CONTAINER_AGG_HEADER = SERIES_HEADER[:3] + ("container_count", "total_cpu", "total_mem")
BATCH_AGG_HEADER = SERIES_HEADER[:3] + ("batch_count", "total_cpu_cores", "total_cpu",
                                        "total_mem")

# Lines formatted at once; bounds the Python strings alive while writing.
BLOCK_LINES = 96


def write_aggregate_csvs(table: SeriesTable, container_seen: np.ndarray,
                         batch_seen: np.ndarray, grid: IntervalGrid,
                         out_dir: str) -> None:
    """Write ``machine_series.csv`` to ``out_dir``, and from the same cell
    texts the lines of the machines ``container_seen`` and ``batch_seen``
    mark to ``container_usage_agg.csv`` and ``batch_usage_agg.csv``."""
    m_count, n = len(table.server_cpu), grid.interval_count
    outputs = (  # (file, header, series columns written under it, machines)
        ("machine_series.csv", SERIES_HEADER, SERIES_HEADER,
         np.ones(m_count, dtype=bool)),
        ("container_usage_agg.csv", CONTAINER_AGG_HEADER, SERIES_HEADER[:3] + (
            "container_count", "container_cpu", "container_mem"), container_seen),
        ("batch_usage_agg.csv", BATCH_AGG_HEADER, SERIES_HEADER[:3] + (
            "batch_count", "batch_cpu_cores", "batch_cpu", "batch_mem"), batch_seen))
    flat = {name: signal.ravel() for name, signal in vars(table).items()}
    lines = m_count * n
    with contextlib.ExitStack() as stack:
        files = [(stack.enter_context(csv_file(os.path.join(out_dir, name), header)),
                  columns, seen) for name, header, columns, seen in outputs]
        for lo in range(0, lines, BLOCK_LINES):
            row, x = np.divmod(np.arange(lo, min(lo + BLOCK_LINES, lines)), n)
            b = {name: signal[lo:lo + BLOCK_LINES] for name, signal in flat.items()}
            b.update(machine=row + 1, interval_index=x,
                     interval_start=grid.start + grid.step * x,
                     container_count=b["container_count"].astype(np.int64),
                     batch_count=b["batch_count"].astype(np.int64),
                     residual_cpu=b["server_cpu"] - b["container_cpu"] - b["batch_cpu"],
                     residual_mem=b["server_mem"] - b["container_mem"] - b["batch_mem"])
            cells = {name: list(map(repr, values.tolist())) for name, values in b.items()}
            for fh, columns, seen in files:
                kept = seen[row].tolist()
                fh.write(csv_lines(*(compress(cells[c], kept) for c in columns)))
