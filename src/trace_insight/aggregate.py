"""Per-(machine, interval) usage attribution for containers and batch instances.

Both aggregators work on whole arrays and return a ``UsageTable``: one row
per machine they saw, one column per grid interval. ``build_machine_series``
merges them with the repaired server usage into one ``SeriesTable`` of
(machine, interval) arrays for machines 1..M, which the DTW, k-means and
isolation-forest analyses read directly.

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
    """Totals per (machine, interval) for the machines in ``machines``
    (sorted); every other array is (len(machines), interval_count).
    ``len()`` is the number of cells."""

    machines: np.ndarray
    count: np.ndarray
    cpu: np.ndarray        # fraction of machine CPU
    mem: np.ndarray        # fraction of machine memory
    cpu_cores: np.ndarray | None = None   # batch only: cpu before / cores

    def __len__(self) -> int:
        return self.count.size


@dataclass
class SeriesTable:
    """Per-interval resource signals of machines 1..M. ``machines`` holds the
    ids in order, so row m - 1 of every signal, an (M, interval_count)
    float64 array, belongs to machine m."""

    machines: np.ndarray
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


def machine_cpu_counts(bundle: TraceBundle) -> dict[int, int]:
    """Core count per machine from its events (soft errors carry 0, so take
    the max)."""
    events = bundle.events
    has_cores = events.cpu_count > 0
    machines, row = np.unique(events.machine[has_cores], return_inverse=True)
    cores = np.zeros(len(machines), dtype=np.int64)
    np.maximum.at(cores, row, events.cpu_count[has_cores])
    return dict(zip(machines.tolist(), cores.tolist()))


def _cores_for(machines: np.ndarray, counts: dict[int, int],
               diag: AggDiagnostics) -> np.ndarray:
    """Core count per machine; a machine without one borrows the largest
    count of the others and is recorded in ``diag``."""
    fallback = max(counts.values(), default=0)
    cores = []
    for m in machines.tolist():
        if m not in counts:
            diag.borrowed_core_machines.add(m)
        c = counts.get(m, fallback)
        if c <= 0:
            raise ValueError(f"cannot determine core count for machine {m}; "
                             "no machine events with cpu_count > 0")
        cores.append(c)
    return np.array(cores, dtype=np.int64)


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

    Expects container events to be filtered (one per instance). Usage records
    are bucketed to the interval containing their timestamp; several records
    for one container in one interval are averaged. Records naming unknown
    instances are skipped.
    """
    diag = diagnostics if diagnostics is not None else AggDiagnostics()
    n = grid.interval_count
    events = bundle.container_events
    machines, ev_row = np.unique(events.machine, return_inverse=True)
    rows = len(machines)
    cores = _cores_for(machines, machine_cpu_counts(bundle), diag)

    # a container counts from the first interval reaching its creation on
    first = _first_interval_touching(events.timestamp, grid)
    created = _cell_sums(ev_row * (n + 1) + np.minimum(first, n), None, rows, n + 1)
    count = created[:, :n].cumsum(axis=1)

    event_of = dict(zip(events.instance.tolist(), range(len(events))))
    usage = bundle.container_usage
    rec_ev = np.fromiter((event_of.get(i, -1) for i in usage.instance.tolist()),
                         np.int64, len(usage))
    ts = usage.timestamp
    known = rec_ev >= 0
    in_grid = (ts >= grid.start) & (ts < grid.end)
    diag.unknown_instance_records += int(np.count_nonzero(~known))
    diag.out_of_grid_usage_records += int(np.count_nonzero(known & ~in_grid))
    keep = known & in_grid
    rec_ev = rec_ev[keep]
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
    return UsageTable(machines, count,
                      _cell_sums(cell, cpu[order], rows, n),
                      _cell_sums(cell, mem[order], rows, n))


def aggregate_batch_usage(bundle: TraceBundle, grid: IntervalGrid,
                          diagnostics: AggDiagnostics | None = None,
                          duration_weighted: bool = False) -> UsageTable:
    """Batch-level totals per (machine, interval).

    Instances with a zero timestamp never ran inside the recorded window and
    are excluded (counted in diagnostics). ``duration_weighted`` switches to
    charging avg usage by the overlapped share of the interval instead of the
    default share-of-runtime scheme; it exists for sensitivity checks only.
    """
    diag = diagnostics if diagnostics is not None else AggDiagnostics()
    n = grid.interval_count
    insts = bundle.batch_instances
    start, end, machine = insts.start, insts.end, insts.machine
    machines = np.unique(machine[machine >= 1])
    rows = len(machines)
    cores = _cores_for(machines, machine_cpu_counts(bundle), diag)

    zero_ts = (start == 0) | (end == 0)
    unplaced = ~zero_ts & (machine < 1)
    invalid = ~zero_ts & ~unplaced & (end < start)
    diag.zero_timestamp_instances += int(np.count_nonzero(zero_ts))
    diag.unplaced_instances += int(np.count_nonzero(unplaced))
    diag.invalid_span_instances += int(np.count_nonzero(invalid))
    ok = ~(zero_ts | unplaced | invalid)
    start, end = start[ok], end[ok]
    row = np.searchsorted(machines, machine[ok])
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
    if duration_weighted:
        share = overlap / grid.step
    else:
        runtime = (end - start)[inst]
        share = np.where(runtime > 0, overlap / np.maximum(runtime, 1),
                         x == last[inst])

    cell = row[inst] * n + x
    cpu_cores = _cell_sums(cell, avg_cpu[inst] * share, rows, n)
    return UsageTable(machines, _cell_sums(cell, None, rows, n),
                      cpu_cores / cores[:, None],
                      _cell_sums(cell, avg_mem[inst] * share, rows, n),
                      cpu_cores)


def build_machine_series(bundle: TraceBundle, grid: IntervalGrid, dense: DenseUsage,
                         containers: UsageTable, batch: UsageTable) -> SeriesTable:
    """The series table of machines 1..machine_count, zeros where a machine
    is absent from the container or batch table. Server usage per interval
    is the mean of the interval's two endpoint samples in the dense table,
    so all samples contribute; the dense table must hold machines
    1..machine_count."""
    n = grid.interval_count
    m_count = bundle.machine_count
    machines = np.arange(1, m_count + 1)
    if not np.array_equal(dense.machines, machines):
        raise ValueError(f"dense usage table must hold machines 1..{m_count} "
                         "in order")

    def place(table: UsageTable, name: str) -> np.ndarray:
        out = np.zeros((m_count, n))
        out[table.machines - 1] = getattr(table, name)
        return out

    vals = dense.values
    return SeriesTable(
        machines,
        *((vals[:, :-1, k] + vals[:, 1:, k]) / 2.0 for k in range(3)),
        *(place(containers, name) for name in ("count", "cpu", "mem")),
        *(place(batch, name) for name in ("count", "cpu_cores", "cpu", "mem")))


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


def write_aggregate_csvs(table: SeriesTable, container_machines: np.ndarray,
                         batch_machines: np.ndarray, grid: IntervalGrid,
                         out_dir: str) -> None:
    """Write ``machine_series.csv`` to ``out_dir``, and from the same cell
    texts the lines of ``container_machines`` and ``batch_machines`` to
    ``container_usage_agg.csv`` and ``batch_usage_agg.csv``."""
    t, n = table, grid.interval_count
    outputs = (  # (file, header, series columns written under it, machines)
        ("machine_series.csv", SERIES_HEADER, SERIES_HEADER, t.machines),
        ("container_usage_agg.csv", CONTAINER_AGG_HEADER, SERIES_HEADER[:3] + (
            "container_count", "container_cpu", "container_mem"), container_machines),
        ("batch_usage_agg.csv", BATCH_AGG_HEADER, SERIES_HEADER[:3] + (
            "batch_count", "batch_cpu_cores", "batch_cpu", "batch_mem"), batch_machines))
    flat = {f.name: getattr(t, f.name).ravel() for f in dataclasses.fields(t)[1:]}
    lines = len(t.machines) * n
    with contextlib.ExitStack() as stack:
        files = []
        for name, header, columns, machines in outputs:
            fh = stack.enter_context(csv_file(os.path.join(out_dir, name), header))
            files.append((fh, columns, np.isin(t.machines, machines)))
        for lo in range(0, lines, BLOCK_LINES):
            row, x = np.divmod(np.arange(lo, min(lo + BLOCK_LINES, lines)), n)
            b = {name: signal[lo:lo + BLOCK_LINES] for name, signal in flat.items()}
            b.update(machine=t.machines[row], interval_index=x,
                     interval_start=grid.start + grid.step * x,
                     container_count=b["container_count"].astype(np.int64),
                     batch_count=b["batch_count"].astype(np.int64),
                     residual_cpu=b["server_cpu"] - b["container_cpu"] - b["batch_cpu"],
                     residual_mem=b["server_mem"] - b["container_mem"] - b["batch_mem"])
            cells = {name: list(map(repr, values.tolist())) for name, values in b.items()}
            for fh, columns, keep in files:
                kept = keep[row].tolist()
                fh.write(csv_lines(*(compress(cells[c], kept) for c in columns)))
