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
the order they first appear in its records. The records are taken a block of
machines at a time, as many machines as hold BLOCK_RECORDS records (at least
one), and one stable sort of a block's (instance, interval) keys groups them.
A cell's records all belong to its machine, so the blocks give every bit of
one pass over all records. Only two arrays span all records at a time:
their instances' sorted positions and machine rows, then the machine rows
and the records listed by machine row, which give each block its records.

Batch usage is charged per overlap between the instance's [start, end] span
and each closed grid interval, by expanding the (instance, interval) pairs of
BLOCK_INSTANCES instances at a time and accumulating the pairs in instance
order; each cell's running total carries from block to block, so the blocks
add in the order one pass over all pairs would. An instance charges the
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
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .cells import csv_lines, float_cells, int_cells, line_blocks
from .trace_model import IntervalGrid, TraceBundle, csv_file


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


def median(values) -> float:
    """``np.median`` of a non-empty 1-D float array, bit for bit, without
    the ``numpy.ma`` import its NaN check costs: the same partition, whose
    trailing -1 brings the largest value (or a NaN) to the end, then the
    mean of the one or two middle values; a NaN in gives that NaN out."""
    values = np.asarray(values, float)
    half = len(values) // 2
    odd = len(values) % 2
    part = np.partition(values, ([half] if odd else [half - 1, half]) + [-1])
    if np.isnan(part[-1]):
        return float(part[-1])
    return float(np.mean(part[half - 1 + odd:half + 1]))


# aggregate_batch_usage expands this many instances into their (instance,
# interval) pairs at a time, and aggregate_container_usage groups the usage
# records of as many machines as hold this many records at a time, which
# bounds the arrays alive at once
BLOCK_INSTANCES = 1 << 10
BLOCK_RECORDS = 1 << 14


def _first_interval_touching(ts: np.ndarray, grid: IntervalGrid) -> np.ndarray:
    """Smallest interval index whose closed interval intersects [ts, inf)."""
    return np.where(ts <= grid.start, 0, -(-(ts - grid.start) // grid.step) - 1)


def _last_interval_touching(ts: np.ndarray, grid: IntervalGrid) -> np.ndarray:
    """Largest interval index whose closed interval intersects (-inf, ts]."""
    return np.minimum(grid.interval_count - 1, (ts - grid.start) // grid.step)


def _sums(index: np.ndarray, weights: np.ndarray | None,
          *shape: int) -> np.ndarray:
    """Totals of ``weights`` by flat index into ``shape``, each summed from
    0.0 in input order and float64 even with no records (where bincount
    gives int64); counts of ``index`` when ``weights`` is None."""
    sums = np.bincount(index, weights, minlength=math.prod(shape))
    if weights is not None:
        sums = sums.astype(np.float64, copy=False)
    return sums.reshape(shape)


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
    created = _sums(ev_row * (n + 1) + np.minimum(first, n), None, rows, n + 1)
    count = created[:, :n].cumsum(axis=1)

    # each usage record's event, found in the events sorted by instance
    by_instance = np.argsort(events.instance, kind="stable")
    instances = events.instance[by_instance]
    repeated = instances[1:][instances[1:] == instances[:-1]]
    if len(repeated):
        raise ValueError(f"instance {repeated[0]} has several container events; "
                         "filter them first")
    # a record names an unknown instance where its sorted position is past
    # the end or holds another one (instance ids are never negative)
    usage = bundle.container_usage
    at = np.searchsorted(instances, usage.instance)
    known = np.append(instances, -1)[at] == usage.instance
    ts = usage.timestamp
    keep = (ts >= grid.start) & (ts < grid.end)
    diag.unknown_instance_records += int(np.count_nonzero(~known))
    diag.out_of_grid_usage_records += int(np.count_nonzero(known & ~keep))
    keep &= known
    del known
    # each record's machine row, ``rows`` for a record dropped
    rec_row = np.append(ev_row[by_instance], rows)[at]
    del at
    rec_row[~keep] = rows
    del keep
    # before[m] counts the kept records of rows below m, and by_row lists
    # the records by row, each row's in record order
    per_row = np.bincount(rec_row, minlength=rows + 1)
    before = per_row.cumsum() - per_row
    by_row = np.argsort(rec_row, kind="stable")
    del rec_row

    # machine rows [lo, hi) at a time, holding up to BLOCK_RECORDS records
    # or one machine's
    total_cpu, total_mem = np.zeros((rows, n)), np.zeros((rows, n))
    lo = 0
    while lo < rows:
        hi = max(lo + 1, int(np.searchsorted(before, before[lo] + BLOCK_RECORDS,
                                             side="right")) - 1)
        rec = by_row[before[lo]:before[hi]]
        ev = by_instance[np.searchsorted(instances, usage.instance[rec])]
        # the (instance, interval) pair of each record, sorted stably, so a
        # pair's records stay in record order and the first of them leads it
        pair = ev * n + (ts[rec] - grid.start) // grid.step
        del ev
        by_pair = np.argsort(pair, kind="stable")
        pair = pair[by_pair]
        rec = rec[by_pair]
        del by_pair
        lead = np.ones(len(pair), dtype=bool)
        np.not_equal(pair[1:], pair[:-1], out=lead[1:])
        pair = pair[lead]
        pair_of_rec = np.cumsum(lead) - 1
        # cells total their pairs in the order the pairs first show up
        order = np.argsort(rec[lead])

        # average each pair over its records, summed in record order
        cpu = _sums(pair_of_rec, usage.cpu_of_req[rec], len(pair))
        mem = _sums(pair_of_rec, usage.mem_of_req[rec], len(pair))
        hits = _sums(pair_of_rec, None, len(pair))
        del pair_of_rec, rec
        pair_ev, cell = np.divmod(pair, n)
        del pair
        cpu /= hits
        mem /= hits
        del hits
        cpu *= events.cpu_req[pair_ev]
        cpu /= cores[ev_row[pair_ev]]
        mem *= events.mem_req[pair_ev]
        cell += (ev_row[pair_ev] - lo) * n
        cell = cell[order]
        total_cpu[lo:hi] = _sums(cell, cpu[order], hi - lo, n)
        total_mem[lo:hi] = _sums(cell, mem[order], hi - lo, n)
        lo = hi
    return UsageTable(seen, count, total_cpu, total_mem)


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

    # the (instance, interval) pairs of a block of kept instances,
    # instance-major; np.add.at carries each cell's total across blocks,
    # adding in the order one bincount over all pairs would
    count = np.zeros(rows * n, dtype=np.int64)
    cpu_cores, mem = np.zeros(rows * n), np.zeros(rows * n)
    for lo in range(0, len(ok), BLOCK_INSTANCES):
        take = lo + np.flatnonzero(ok[lo:lo + BLOCK_INSTANCES])
        first = _first_interval_touching(start[take], grid)
        last = _last_interval_touching(end[take], grid)
        span = np.maximum(last - first + 1, 0)
        at = np.repeat(np.arange(len(take)), span)
        x = first[at] + np.arange(len(at)) - np.repeat(np.cumsum(span) - span, span)
        inst = take[at]
        begin = grid.start + x * grid.step
        overlap = overlap_runtime(start[inst], end[inst], begin, begin + grid.step)
        runtime = end[inst] - start[inst]
        share = np.where(runtime > 0, overlap / np.maximum(runtime, 1),
                         x == last[at])
        cell = (machine[inst] - 1) * n + x
        np.add.at(count, cell, 1)
        np.add.at(cpu_cores, cell, insts.avg_cpu[inst] * share)
        np.add.at(mem, cell, insts.avg_mem[inst] * share)
    cpu_cores = cpu_cores.reshape(rows, n)
    return UsageTable(seen, count.reshape(rows, n), cpu_cores / cores[:, None],
                      mem.reshape(rows, n), cpu_cores)


def build_machine_series(bundle: TraceBundle, grid: IntervalGrid, dense: np.ndarray,
                         containers: UsageTable, batch: UsageTable) -> SeriesTable:
    """The series table of machines 1..machine_count; every input must hold
    those machines as its rows. ``dense`` is the repaired usage, (M, grid
    timestamps, 3) cpu/mem/disk samples. Server usage per interval is the
    mean of the interval's two endpoint samples, so all samples contribute."""
    m_count, n = bundle.machine_count, grid.interval_count
    for name, shape, want in (
            ("dense usage", dense.shape[:2], (m_count, n + 1)),
            ("container usage", containers.count.shape, (m_count, n)),
            ("batch usage", batch.count.shape, (m_count, n))):
        if shape != want:
            raise ValueError(f"{name} table has shape {shape}, but machines "
                             f"1..{m_count} on {n} intervals need {want}")
    return SeriesTable(
        *((dense[:, :-1, k] + dense[:, 1:, k]) / 2.0 for k in range(3)),
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

# the series columns written as integers
_INT_COLUMNS = ("machine", "interval_index", "interval_start",
                "container_count", "batch_count")


def write_aggregate_csvs(table: SeriesTable, container_seen: np.ndarray,
                         batch_seen: np.ndarray, grid: IntervalGrid,
                         out_dir: str) -> None:
    """Write ``machine_series.csv`` to ``out_dir``, and from the same cell
    grids the lines of the machines ``container_seen`` and ``batch_seen``
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
    floats = [name for name in (*SERIES_HEADER, "batch_cpu_cores")
              if name not in _INT_COLUMNS]
    lines = m_count * n
    with contextlib.ExitStack() as stack:
        files = [(stack.enter_context(csv_file(os.path.join(out_dir, name), header)),
                  columns, seen) for name, header, columns, seen in outputs]
        for block in line_blocks(lines):
            row, x = np.divmod(np.arange(block.start, block.stop), n)
            b = {name: signal[block] for name, signal in flat.items()}
            b.update(machine=row + 1, interval_index=x,
                     interval_start=grid.start + grid.step * x,
                     container_count=b["container_count"].astype(np.int64),
                     batch_count=b["batch_count"].astype(np.int64),
                     residual_cpu=b["server_cpu"] - b["container_cpu"] - b["batch_cpu"],
                     residual_mem=b["server_mem"] - b["container_mem"] - b["batch_mem"])
            ints = int_cells(np.stack([b[name] for name in _INT_COLUMNS], axis=1))
            reals = float_cells(np.stack([b[name] for name in floats], axis=1))
            for fh, columns, seen in files:
                kept = seen[row]
                cells = {**dict(zip(_INT_COLUMNS, ints[kept].swapaxes(0, 1))),
                         **dict(zip(floats, reals[kept].swapaxes(0, 1)))}
                fh.write(csv_lines(*(cells[c] for c in columns)))
