"""Independent reference implementations the fast code is checked against.

Everything here is written the slow, obvious way on purpose (full path
enumeration, pair counting, brute-force neighbours, recursive trees, one CSV
row at a time) so the package has something honest to disagree with. Only
the last two sections use trace_insight: the row fixtures build its
``Table`` and ``TraceBundle`` from row tuples, and the row-by-row synthetic
trace reuses the generator's constants and patterns.
"""

import csv
import math
import os
from collections import Counter
from decimal import Decimal
from functools import lru_cache

import numpy as np

from trace_insight.classify import TYPE_LABELS
from trace_insight.synth import (
    BASE_USAGE,
    MACHINE_CORES,
    GapRecord,
    GroundTruth,
    PlantKind,
    batch_runs,
    has_containers,
)
from trace_insight.trace_model import (
    ContainerEventType,
    InstanceStatus,
    MachineEventType,
    Table,
    TaskStatus,
    TraceBundle,
)


# ---------------------------------------------------------------------------
# warping-path enumeration


@lru_cache(maxsize=None)
def warping_paths(n: int, l: int) -> tuple:
    """Every monotone alignment of an n-point and an l-point series, as
    (rows, cols) index array pairs. Steps are down, right, or diagonal."""
    paths = []

    def walk(i, j, trail):
        if i == n - 1 and j == l - 1:
            paths.append(trail)
            return
        if i + 1 < n and j + 1 < l:
            walk(i + 1, j + 1, trail + ((i + 1, j + 1),))
        if i + 1 < n:
            walk(i + 1, j, trail + ((i + 1, j),))
        if j + 1 < l:
            walk(i, j + 1, trail + ((i, j + 1),))

    walk(0, 0, ((0, 0),))
    return tuple(
        (np.array([c[0] for c in trail]), np.array([c[1] for c in trail]))
        for trail in paths
    )


@lru_cache(maxsize=None)
def padded_path_indices(n: int, l: int) -> np.ndarray:
    """(paths, n+l-1) flattened cell indices for an (n, l) cost matrix.

    Short paths are padded with the sentinel index n*l; callers append one
    zero cell to the raveled cost matrix so padding adds nothing.
    """
    paths = warping_paths(n, l)
    width = n + l - 1
    out = np.full((len(paths), width), n * l, dtype=np.intp)
    for p, (rows, cols) in enumerate(paths):
        out[p, : len(rows)] = rows * l + cols
    return out


def _points(curve) -> np.ndarray:
    arr = np.asarray(curve, float)
    if arr.ndim == 1:
        arr = arr[:, None]
    return arr


def brute_force_dtw(q, s) -> float:
    """Minimum accumulated squared-distance cost over all enumerated paths."""
    qp, sp = _points(q), _points(s)
    cost = ((qp[:, None, :] - sp[None, :, :]) ** 2).sum(axis=2)
    return float(min(
        cost[rows, cols].sum() for rows, cols in warping_paths(len(qp), len(sp))
    ))


def dtw_recurrence(q, s) -> tuple[float, int]:
    """``dtw_over_costs`` on point costs summed left to right in Python.

    That sum is exact only where every square and partial sum is (dyadic
    points, say); elsewhere a (x0² + x1²) + x2² can round apart from another
    order's sum.
    """
    qp, sp = _points(q), _points(s)
    return dtw_over_costs([
        [sum((float(a) - float(b)) ** 2 for a, b in zip(x, y)) for y in sp]
        for x in qp])


def dtw_over_costs(cost) -> tuple[float, int]:
    """Sakoe & Chiba recurrence filled cell by cell over a given (n, l)
    point-cost matrix, then an explicit traceback.

    From the last cell the traceback steps to the diagonal predecessor if it
    is <= both others, else up if up <= left, else left; along the first row
    or column it has one way back. Returns (cost, path length in cells).
    """
    cost = np.asarray(cost, float).tolist()
    n, l = len(cost), len(cost[0])
    acc = [[0.0] * l for _ in range(n)]
    for i in range(n):
        for j in range(l):
            if i == 0 and j == 0:
                prev = 0.0
            elif i == 0:
                prev = acc[i][j - 1]
            elif j == 0:
                prev = acc[i - 1][j]
            else:
                prev = min(acc[i - 1][j - 1], acc[i - 1][j], acc[i][j - 1])
            acc[i][j] = cost[i][j] + prev
    i, j, length = n - 1, l - 1, 1
    while i > 0 or j > 0:
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            diag, up, left = acc[i - 1][j - 1], acc[i - 1][j], acc[i][j - 1]
            if diag <= up and diag <= left:
                i, j = i - 1, j - 1
            elif up <= left:
                i -= 1
            else:
                j -= 1
        length += 1
    return acc[-1][-1], length


# ---------------------------------------------------------------------------
# interval overlap


def clipped_overlap(start: int, end: int, lo: int, hi: int) -> int:
    """Length of [start, end] ∩ [lo, hi], zero when disjoint."""
    return max(0, min(end, hi) - max(start, lo))


# ---------------------------------------------------------------------------
# usage attribution


def _grid_intervals(grid_start: int, grid_end: int, step: int) -> list:
    return [(lo, lo + step) for lo in range(grid_start, grid_end, step)]


def attribute_containers(events, usage, cores, grid_start, grid_end, step):
    """Container counts and usage per (machine, interval), one record at a time.

    ``events`` holds (instance, machine, timestamp, cpu_req, mem_req), at most
    one per instance; ``usage`` holds (timestamp, instance, cpu_of_req,
    mem_of_req); ``cores`` maps machine -> core count. A container counts in
    every closed interval that reaches its creation time or later. A record
    lands in the interval [lo, lo + step) holding its timestamp; records of
    one container in one interval are averaged, and a cell adds up its
    containers in the order they first appear in its records. Returns
    {machine: (counts, cpu, mem)} for every machine with a container, plus
    (unknown-instance records, out-of-grid records).
    """
    intervals = _grid_intervals(grid_start, grid_end, step)
    n = len(intervals)
    by_instance = {ev[0]: ev for ev in events}
    table = {}
    for _instance, machine, created, _cpu_req, _mem_req in events:
        counts = table.setdefault(machine, ([0] * n, [0.0] * n, [0.0] * n))[0]
        for x, (_lo, hi) in enumerate(intervals):
            if hi >= created:
                counts[x] += 1

    buckets = {}   # (machine, x) -> {instance: [cpu sum, mem sum, hits]}
    unknown = out_of_grid = 0
    for ts, instance, cpu_of_req, mem_of_req in usage:
        if instance not in by_instance:
            unknown += 1
            continue
        slot = [x for x, (lo, hi) in enumerate(intervals) if lo <= ts < hi]
        if not slot:
            out_of_grid += 1
            continue
        machine = by_instance[instance][1]
        acc = buckets.setdefault((machine, slot[0]), {}).setdefault(
            instance, [0.0, 0.0, 0])
        acc[0] += cpu_of_req
        acc[1] += mem_of_req
        acc[2] += 1

    for (machine, x), per_instance in buckets.items():
        _counts, cpu, mem = table[machine]
        for instance, (cpu_sum, mem_sum, hits) in per_instance.items():
            _inst, _m, _ts, cpu_req, mem_req = by_instance[instance]
            cpu[x] += (cpu_sum / hits) * cpu_req / cores[machine]
            mem[x] += (mem_sum / hits) * mem_req
    return table, (unknown, out_of_grid)


def attribute_batch(instances, cores, grid_start, grid_end, step):
    """Batch counts and usage per (machine, interval), one instance at a time.

    ``instances`` holds (start, end, machine, avg_cpu, avg_mem). Instances
    with a zero timestamp, no machine (< 1) or end < start are skipped. An
    instance counts in every closed interval its [start, end] span touches
    and charges its average times the overlapped share of its runtime; a
    zero-runtime span charges its whole average to the last interval it
    touches. Returns {machine: (counts, cpu_cores, cpu, mem)} for every
    machine with a placed instance, plus (zero-timestamp, unplaced,
    invalid-span) skip counts.
    """
    intervals = _grid_intervals(grid_start, grid_end, step)
    n = len(intervals)
    table = {m: ([0] * n, [0.0] * n, [0.0] * n)
             for _s, _e, m, _c, _mem in instances if m >= 1}
    zero_ts = unplaced = invalid = 0
    for start, end, machine, avg_cpu, avg_mem in instances:
        if start == 0 or end == 0:
            zero_ts += 1
            continue
        if machine < 1:
            unplaced += 1
            continue
        if end < start:
            invalid += 1
            continue
        counts, cpu_cores, mem = table[machine]
        touched = [x for x, (lo, hi) in enumerate(intervals)
                   if start <= hi and end >= lo]
        for x in touched:
            counts[x] += 1
            lo, hi = intervals[x]
            overlap = clipped_overlap(start, end, lo, hi)
            if end == start:
                share = 1.0 if x == touched[-1] else 0.0
            else:
                share = overlap / (end - start)
            cpu_cores[x] += avg_cpu * share
            mem[x] += avg_mem * share
    return ({m: (counts, cpu_cores, [c / cores[m] for c in cpu_cores], mem)
             for m, (counts, cpu_cores, mem) in table.items()},
            (zero_ts, unplaced, invalid))


# ---------------------------------------------------------------------------
# partition agreement


def adjusted_rand_index(a, b) -> float:
    """Chance-corrected pair-counting agreement between two labelings."""
    a = list(a)
    b = list(b)
    if len(a) != len(b):
        raise ValueError("labelings differ in length")

    def pairs(x):
        return x * (x - 1) // 2

    joint = Counter(zip(a, b))
    rows = Counter(a)
    cols = Counter(b)
    sum_joint = sum(pairs(v) for v in joint.values())
    sum_rows = sum(pairs(v) for v in rows.values())
    sum_cols = sum(pairs(v) for v in cols.values())
    total = pairs(len(a))
    if total == 0:
        return 1.0
    expected = sum_rows * sum_cols / total
    max_index = (sum_rows + sum_cols) / 2
    if max_index == expected:
        return 1.0
    return (sum_joint - expected) / (max_index - expected)


# ---------------------------------------------------------------------------
# clustering and outliers


def best_two_partition_inertia(matrix) -> float:
    """Exhaustive optimum 2-cluster squared-error cost (small n only)."""
    m = np.asarray(matrix, float)
    n = len(m)
    if n > 16:
        raise ValueError("exhaustive split limited to 16 points")
    best = np.inf
    for mask in range(2 ** (n - 1)):
        # point 0 stays on the False side; halves the enumeration
        side = np.zeros(n, dtype=bool)
        for i in range(1, n):
            side[i] = bool((mask >> (i - 1)) & 1)
        cost = 0.0
        for group in (m[side], m[~side]):
            if len(group):
                cost += ((group - group.mean(axis=0)) ** 2).sum()
        if cost < best:
            best = cost
    return float(best)


def nearest_neighbor_distances(matrix) -> np.ndarray:
    """Per-row Euclidean distance to the closest other row."""
    m = np.asarray(matrix, float)
    d2 = ((m[:, None, :] - m[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    return np.sqrt(d2.min(axis=1))


# ---------------------------------------------------------------------------
# isolation forest


def _c(n: int) -> float:
    if n <= 1:
        return 0.0
    if n == 2:
        return 1.0
    return 2.0 * (math.log(n - 1) + 0.5772156649) - 2.0 * (n - 1) / n


def _isolation_tree(points, depth, limit, rng):
    """Nested tuples: ("leaf", size) or ("split", dim, value, left, right),
    grown recursively, left subtree first."""
    n = len(points)
    if n <= 1 or depth >= limit:
        return ("leaf", n)
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    splittable = np.flatnonzero(hi > lo)
    if len(splittable) == 0:
        return ("leaf", n)
    dim = int(splittable[rng.integers(len(splittable))])
    value = float(rng.uniform(lo[dim], hi[dim]))
    mask = points[:, dim] < value
    if not mask.any() or mask.all():
        return ("leaf", n)
    return ("split", dim, value,
            _isolation_tree(points[mask], depth + 1, limit, rng),
            _isolation_tree(points[~mask], depth + 1, limit, rng))


def _walk(tree, row) -> float:
    depth = 0
    while tree[0] == "split":
        _, dim, value, left, right = tree
        tree = left if row[dim] < value else right
        depth += 1
    return depth + _c(tree[1])


def isolation_trees(train, tree_count=100, subsample=256, seed=0) -> list:
    """Per tree a (seed, tree) RNG, a subsample without replacement and a
    recursive grow."""
    train = np.asarray(train, float)
    psi = min(subsample, len(train))
    limit = math.ceil(math.log2(psi))
    trees = []
    for t in range(tree_count):
        rng = np.random.default_rng((seed, t))
        picks = rng.choice(len(train), size=psi, replace=False)
        trees.append(_isolation_tree(train[picks], 0, limit, rng))
    return trees


def isolation_tree_arrays(tree) -> tuple:
    """``(dim, value, left, right, path)`` of a nested-tuple tree, its nodes
    numbered in pre-order with the left subtree first: a leaf has dim -1,
    value 0.0, both links on itself and path depth + c(size); a split has
    path 0.0."""
    dim, value, left, right, path = [], [], [], [], []

    def visit(node, depth):
        index = len(dim)
        dim.append(-1)
        value.append(0.0)
        left.append(index)
        right.append(index)
        path.append(0.0)
        if node[0] == "leaf":
            path[index] = depth + _c(node[1])
        else:
            dim[index], value[index] = node[1], node[2]
            left[index] = visit(node[3], depth + 1)
            right[index] = visit(node[4], depth + 1)
        return index

    visit(tree, 0)
    return (np.array(dim, dtype=np.intp), np.array(value),
            np.array(left, dtype=np.intp), np.array(right, dtype=np.intp),
            np.array(path))


def isolation_forest_scores(train, rows, tree_count=100, subsample=256,
                            seed=0) -> np.ndarray:
    """0.5 - 2^(-E(h)/c(psi)) per row of ``rows`` for the forest of
    ``isolation_trees``: one walk per row and tree, summed left to right."""
    psi = min(subsample, len(train))
    trees = isolation_trees(train, tree_count, subsample, seed)
    scores = []
    for row in np.asarray(rows, float):
        mean_path = sum(_walk(tree, row) for tree in trees) / tree_count
        scores.append(0.5 - 2.0 ** (-mean_path / _c(psi)))
    return np.array(scores)


# ---------------------------------------------------------------------------
# cause tags, one machine at a time


def diagnose_reference(label, softerrors, batch_count, container_count,
                       container_median, batch_median, grid_start, grid_end,
                       step, heavier_factor=1.5):
    """Cause tags of one machine, in rule order. ``softerrors`` are its
    soft-error timestamps, ``batch_count`` and ``container_count`` its
    per-interval counts, and the medians those of the per-machine mean
    counts over all machines."""
    batch_count, container_count = list(batch_count), list(container_count)
    tags = []
    if len(softerrors) >= 3:
        tags.append("FrequentSoftError")

    # batch stops for good after its last active interval, unless it never
    # ran or still runs in the last one
    active = [x for x, count in enumerate(batch_count) if count > 0]
    if active and active[-1] != len(batch_count) - 1:
        stop = active[-1] + 1
        for ts in softerrors:
            if grid_start <= ts < grid_end and abs((ts - grid_start) // step - stop) <= 1:
                tags.append("SoftErrorWorkloadStop")
                break

    if label == "Type2" and not softerrors:
        tags.append("NoWorkloadsScheduling")
    if label == "Type3":
        tags.append("NoOnlineServices")
    if label == "Type4":
        tags.append("NoBatchJobs")

    if label == "Type1":
        container_mean = sum(container_count) / len(container_count)
        batch_mean = sum(batch_count) / len(batch_count)
        if container_mean >= heavier_factor * container_median:
            tags.append("HeavierOnlineServices")
        if container_mean <= 1.0 and batch_mean >= batch_median:
            tags.append("UnbalancedLighterOnline")
    return tags


# ---------------------------------------------------------------------------
# trace parsing, one row at a time

# Each file's fields in their default column order, with the converter a
# cell goes through.
PARSE_FIELDS = {
    "server_event": (("timestamp", "nonneg_int"), ("machine", "machine"),
                     ("event_type", "enum"), ("event_detail", "text"),
                     ("cpu_count", "nonneg_int"), ("norm_memory", "unit"),
                     ("norm_disk", "unit")),
    "server_usage": (("timestamp", "nonneg_int"), ("machine", "machine"),
                     ("cpu_pct", "percent"), ("mem_pct", "percent"),
                     ("disk_pct", "percent"), ("load1", "nonneg_float"),
                     ("load5", "nonneg_float"), ("load15", "nonneg_float")),
    "container_event": (("timestamp", "nonneg_int"), ("event_type", "enum"),
                        ("instance", "nonneg_int"), ("machine", "machine"),
                        ("cpu_req", "float"), ("mem_req", "float"),
                        ("disk_req", "nonneg_float"), ("cpu_set", "cpu_set")),
    "container_usage": (("timestamp", "nonneg_int"), ("instance", "nonneg_int"),
                        ("cpu_pct_of_req", "percent"), ("mem_pct_of_req", "percent"),
                        ("disk_pct_of_req", "percent"), ("disk_pct", "percent"),
                        ("load1", "nonneg_float"), ("load5", "nonneg_float"),
                        ("load15", "nonneg_float"), ("avg_cpi", "nonneg_float"),
                        ("avg_mpki", "nonneg_float"), ("max_cpi", "nonneg_float"),
                        ("max_mpki", "nonneg_float")),
    "batch_task": (("create_time", "nonneg_int"), ("end_time", "nonneg_int"),
                   ("job", "nonneg_int"), ("task", "nonneg_int"),
                   ("instance_count", "int"), ("status", "enum"),
                   ("cpu_req", "nonneg_float"), ("mem_req", "nonneg_float")),
    "batch_instance": (("start", "nonneg_int"), ("end", "nonneg_int"),
                       ("job", "nonneg_int"), ("task", "nonneg_int"),
                       ("machine", "optional_machine"), ("status", "enum"),
                       ("seq_no", "nonneg_int"), ("total_seq_no", "nonneg_int"),
                       ("max_cpu", "nonneg_float"), ("avg_cpu", "nonneg_float"),
                       ("max_mem", "unit"), ("avg_mem", "unit")),
}

# (class name, member values) of each file's enum field; a parsed enum is
# the member's position
PARSE_ENUMS = {
    "server_event": ("MachineEventType", ("add", "softerror", "harderror")),
    "container_event": ("ContainerEventType", ("Create",)),
    "batch_task": ("TaskStatus", ("Terminated", "Waiting", "Running", "Failed")),
    "batch_instance": ("InstanceStatus", ("Ready", "Waiting", "Running",
                                          "Terminated", "Failed", "Cancelled",
                                          "Interrupted")),
}


def _percent(text):
    try:
        value = float(Decimal(text.strip()).scaleb(-2))
    except (ArithmeticError, ValueError) as exc:
        raise ValueError(f"bad percent value {text!r}") from exc
    if not math.isfinite(value):
        raise ValueError(f"non-finite percent value {text!r}")
    return value


def _int(text, name):
    try:
        return int(text)
    except ValueError as exc:
        raise ValueError(f"bad integer for {name}: {text!r}") from exc


def _nonneg_int(text, name):
    value = _int(text, name)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def _machine(text):
    value = _int(text, "machine")
    if value < 1:
        raise ValueError(f"machine id must be >= 1, got {value}")
    return value


def _float(text, name):
    try:
        value = float(text)
    except ValueError as exc:
        raise ValueError(f"bad number for {name}: {text!r}") from exc
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {text!r}")
    return value


def _nonneg_float(text, name):
    value = _float(text, name)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def _unit(text, name):
    value = _float(text, name)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0,1], got {value}")
    return value


def _percent_fraction(text, name):
    value = _percent(text)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0,100] percent, got {text!r}")
    return value


def _enum(file_key, text):
    class_name, values = PARSE_ENUMS[file_key]
    lowered = text.strip().lower()
    for code, value in enumerate(values):
        if value.lower() == lowered:
            return code
    raise ValueError(f"unknown {class_name} value {text!r}")


def _cpu_set_text(text):
    text = text.strip()
    if not text:
        return ""
    return "|".join(str(int(part)) for part in text.replace(" ", "|").split("|")
                    if part)


def _build_row(file_key, f):
    """One row's values in default field order, each file's fields and
    rules checked one at a time in a fixed order; raises ValueError for the
    first one that fails."""
    if file_key == "server_event":
        return (_nonneg_int(f["timestamp"], "timestamp"), _machine(f["machine"]),
                _enum(file_key, f["event_type"]), f["event_detail"].strip(),
                _nonneg_int(f["cpu_count"], "cpu_count"),
                _unit(f["norm_memory"], "norm_memory"), _unit(f["norm_disk"], "norm_disk"))
    if file_key == "server_usage":
        return (_nonneg_int(f["timestamp"], "timestamp"), _machine(f["machine"]),
                *(_percent_fraction(f[n], n) for n in ("cpu_pct", "mem_pct", "disk_pct")),
                *(_nonneg_float(f[n], n) for n in ("load1", "load5", "load15")))
    if file_key == "container_event":
        cpu_req = _float(f["cpu_req"], "cpu_req")
        if cpu_req <= 0:
            raise ValueError(f"cpu_req must be > 0, got {cpu_req}")
        mem_req = _float(f["mem_req"], "mem_req")
        if mem_req <= 0:
            raise ValueError(f"mem_req must be > 0, got {mem_req}")
        return (_nonneg_int(f["timestamp"], "timestamp"), _enum(file_key, f["event_type"]),
                _nonneg_int(f["instance"], "instance"), _machine(f["machine"]),
                cpu_req, mem_req, _nonneg_float(f["disk_req"], "disk_req"),
                _cpu_set_text(f["cpu_set"]))
    if file_key == "container_usage":
        return (_nonneg_int(f["timestamp"], "timestamp"),
                _nonneg_int(f["instance"], "instance"),
                *(_percent_fraction(f[n], n) for n in (
                    "cpu_pct_of_req", "mem_pct_of_req", "disk_pct_of_req", "disk_pct")),
                *(_nonneg_float(f[n], n) for n in (
                    "load1", "load5", "load15", "avg_cpi", "avg_mpki", "max_cpi",
                    "max_mpki")))
    if file_key == "batch_task":
        instance_count = _int(f["instance_count"], "instance_count")
        if instance_count < 1:
            raise ValueError(f"instance_count must be >= 1, got {instance_count}")
        return (_nonneg_int(f["create_time"], "create_time"),
                _nonneg_int(f["end_time"], "end_time"), _nonneg_int(f["job"], "job"),
                _nonneg_int(f["task"], "task"), instance_count,
                _enum(file_key, f["status"]), _nonneg_float(f["cpu_req"], "cpu_req"),
                _nonneg_float(f["mem_req"], "mem_req"))
    start = _nonneg_int(f["start"], "start")
    end = _nonneg_int(f["end"], "end")
    status = _enum(file_key, f["status"])
    if status == PARSE_ENUMS[file_key][1].index("Terminated") and (
            start == 0 or end < start):
        raise ValueError(
            f"Terminated instance needs start > 0 and end >= start, got [{start},{end}]")
    max_cpu = _nonneg_float(f["max_cpu"], "max_cpu")
    avg_cpu = _nonneg_float(f["avg_cpu"], "avg_cpu")
    if avg_cpu > max_cpu + 1e-9:
        raise ValueError(f"avg_cpu {avg_cpu} exceeds max_cpu {max_cpu}")
    machine_text = f["machine"].strip()
    return (start, end, _nonneg_int(f["job"], "job"), _nonneg_int(f["task"], "task"),
            _nonneg_int(machine_text, "machine") if machine_text else 0, status,
            _nonneg_int(f["seq_no"], "seq_no"),
            _nonneg_int(f["total_seq_no"], "total_seq_no"), max_cpu, avg_cpu,
            _unit(f["max_mem"], "max_mem"), _unit(f["avg_mem"], "avg_mem"))


def parse_rows(path, file_key):
    """(rows, diagnostics) of one trace CSV, one row at a time: each accepted
    row is a tuple in default field order (percent cells as fractions,
    enums as member positions, text stripped, cpu sets as ``1|2|3``), and
    each rejected row a (line, reason) pair."""
    columns = tuple(name for name, _ in PARSE_FIELDS[file_key])
    rows, diagnostics = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        for line_no, row in enumerate(csv.reader(fh), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(columns):
                diagnostics.append(
                    (line_no, f"expected {len(columns)} columns, got {len(row)}"))
                continue
            try:
                rows.append(_build_row(file_key, dict(zip(columns, row))))
            except ValueError as exc:
                diagnostics.append((line_no, str(exc)))
    return rows, diagnostics


# ---------------------------------------------------------------------------
# trace writing, one cell at a time

TRACE_FILES = {"server_event": "server_event.csv", "server_usage": "server_usage.csv",
               "container_event": "container_event.csv",
               "container_usage": "container_usage.csv",
               "batch_task": "batch_task.csv", "batch_instance": "batch_instance.csv"}


def _cell_text(file_key, kind, value):
    """One trace cell: percent fractions as exact Decimal percent text,
    other numbers as their shortest repr, enums as their member's value and
    an unplaced machine (0) as a blank cell."""
    if kind == "percent":
        return format(Decimal(repr(float(value))).scaleb(2), "f")
    if kind in _FLOAT_KINDS:
        return repr(float(value))
    if kind == "enum":
        return PARSE_ENUMS[file_key][1][int(value)]
    if kind in ("text", "cpu_set"):
        return str(value)
    if kind == "optional_machine" and value == 0:
        return ""
    return str(int(value))


def write_trace_reference(bundle, path):
    """The six trace CSVs of ``bundle`` under ``path``: one ``csv.writer``
    row per table row of per-cell texts (``_cell_text``)."""
    os.makedirs(path, exist_ok=True)
    for attr, file_key in BUNDLE_FILES.items():
        table = getattr(bundle, attr)
        fields = PARSE_FIELDS[file_key]
        columns = [table.columns[name.replace("_pct", "")].tolist() for name, _ in fields]
        with open(os.path.join(path, TRACE_FILES[file_key]), "w", newline="",
                  encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            for row in zip(*columns):
                writer.writerow([_cell_text(file_key, kind, value)
                                 for (_, kind), value in zip(fields, row)])


def read_dense_csv(path):
    """(machines, timestamps, values) of a dense usage CSV, cell by cell:
    values[i][x] holds machine i's six metrics at timestamp x."""
    per_machine = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            metrics = [_percent(cell) for cell in row[2:5]] + [float(c) for c in row[5:]]
            per_machine.setdefault(int(row[0]), {})[int(row[1])] = metrics
    machines = sorted(per_machine)
    timestamps = sorted({ts for rows in per_machine.values() for ts in rows})
    values = [[per_machine[m][ts] for ts in timestamps] for m in machines]
    return machines, timestamps, values


# ---------------------------------------------------------------------------
# aggregate tables, one CSV row at a time


def write_aggregate_tables(out_dir, machines, interval_starts, signals,
                           container_machines, batch_machines):
    """machine_series.csv, container_usage_agg.csv and batch_usage_agg.csv,
    one ``csv.writer`` row per (machine, interval) from Python floats.
    ``signals`` maps each series signal name to rows of per-interval values,
    row i belonging to machines[i]; counts are written as ints."""
    paths = [os.path.join(out_dir, name) for name in (
        "machine_series.csv", "container_usage_agg.csv", "batch_usage_agg.csv")]
    with open(paths[0], "w", newline="", encoding="utf-8") as fs, \
            open(paths[1], "w", newline="", encoding="utf-8") as fc, \
            open(paths[2], "w", newline="", encoding="utf-8") as fb:
        series, containers, batch = (csv.writer(fh, lineterminator="\n")
                                     for fh in (fs, fc, fb))
        key = ["machine", "interval_index", "interval_start"]
        series.writerow(key + [
            "server_cpu", "server_mem", "server_disk",
            "container_count", "container_cpu", "container_mem",
            "batch_count", "batch_cpu", "batch_mem", "residual_cpu", "residual_mem"])
        containers.writerow(key + ["container_count", "total_cpu", "total_mem"])
        batch.writerow(key + ["batch_count", "total_cpu_cores", "total_cpu",
                              "total_mem"])
        for i, machine in enumerate(machines):
            for x, start in enumerate(interval_starts):
                v = {name: float(rows[i][x]) for name, rows in signals.items()}
                row = [int(machine), x, int(start)]
                c = [int(v["container_count"]), v["container_cpu"], v["container_mem"]]
                b = [int(v["batch_count"]), v["batch_cpu"], v["batch_mem"]]
                series.writerow(row + [v["server_cpu"], v["server_mem"],
                                       v["server_disk"]] + c + b + [
                    v["server_cpu"] - v["container_cpu"] - v["batch_cpu"],
                    v["server_mem"] - v["container_mem"] - v["batch_mem"]])
                if machine in container_machines:
                    containers.writerow(row + c)
                if machine in batch_machines:
                    batch.writerow(row + [b[0], v["batch_cpu_cores"]] + b[1:])


# ---------------------------------------------------------------------------
# server-usage gap repair, one machine, metric and slot at a time

USAGE_METRICS = ("cpu", "mem", "disk", "load1", "load5", "load15")


def supplement_reference(bundle, grid):
    """(values, repairs) of the server-usage repair: values[i, x, k] is
    machine i + 1 at grid slot x, metric USAGE_METRICS[k]; repairs holds one
    (machine, metric, timestamp, method, value) tuple per synthesized value,
    per machine and metric the boundary holds in slot order, then the
    interpolated slots in slot order. Rows sharing a slot are averaged,
    summed from 0.0 in record order; rows off the grid or naming no machine
    in 1..machine_count are ignored."""
    t_count, m_count = grid.timestamp_count, bundle.machine_count
    usage = bundle.server_usage
    sums = np.zeros((m_count, t_count, len(USAGE_METRICS)))
    hits = np.zeros((m_count, t_count), dtype=np.int64)
    columns = [getattr(usage, metric).tolist() for metric in USAGE_METRICS]
    for r, (ts, machine) in enumerate(zip(usage.timestamp.tolist(),
                                          usage.machine.tolist())):
        slot = (ts - grid.start) // grid.step
        if ts < grid.start or slot >= t_count or not 1 <= machine <= m_count:
            continue
        hits[machine - 1, slot] += 1
        for k, column in enumerate(columns):
            sums[machine - 1, slot, k] += column[r]

    timestamps = [grid.start + grid.step * x for x in range(t_count)]
    values = np.zeros_like(sums)
    repairs = []
    for row in range(m_count):
        machine = row + 1
        observed = [x for x in range(t_count) if hits[row, x]]
        for k, metric in enumerate(USAGE_METRICS):
            if not observed:
                repairs += [(machine, metric, ts, "ZeroFilled", 0.0)
                            for ts in timestamps]
                continue
            series = values[row, :, k]
            for x in observed:
                series[x] = float(sums[row, x, k]) / int(hits[row, x])
            first, last = observed[0], observed[-1]
            for x in list(range(first)) + list(range(last + 1, t_count)):
                series[x] = series[first if x < first else last]
                repairs.append((machine, metric, timestamps[x], "BoundaryHeld",
                                float(series[x])))
            for left, right in zip(observed[:-1], observed[1:]):
                lo, hi = float(series[left]), float(series[right])
                for offset in range(1, right - left):
                    filled = lo + (hi - lo) / (right - left) * offset
                    series[left + offset] = filled
                    repairs.append((machine, metric, timestamps[left + offset],
                                    "Interpolated", filled))
    return values, repairs


def repair_log_text(repairs):
    """repair_log.csv for ``supplement_reference`` repairs: fractions (cpu,
    mem, disk) as exact percent text, loads as their ``repr``."""
    lines = ["machine,metric,timestamp,method,value"]
    for machine, metric, ts, method, value in repairs:
        cell = (format(Decimal(repr(value)).scaleb(2), "f")
                if metric in ("cpu", "mem", "disk") else repr(value))
        lines.append(f"{machine},{metric},{ts},{method},{cell}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# trace tables from row tuples (test fixtures)

# each TraceBundle attribute and the file its table holds
BUNDLE_FILES = {"events": "server_event", "server_usage": "server_usage",
                "container_events": "container_event",
                "container_usage": "container_usage", "batch_tasks": "batch_task",
                "batch_instances": "batch_instance"}

_FLOAT_KINDS = {"percent", "unit", "float", "nonneg_float"}


def _fixture_column(kind, values):
    if kind == "enum":
        return np.array([list(type(m)).index(m) for m in values], dtype=np.int8)
    if kind in ("text", "cpu_set"):
        return np.array(values, dtype=str)
    return np.array(values, dtype=np.float64 if kind in _FLOAT_KINDS else np.int64)


def table_from_rows(file_key, rows):
    """A ``Table`` of row tuples in default field order: enum fields take
    Enum members, text fields strings and percent fields fractions."""
    fields = PARSE_FIELDS[file_key]
    columns = list(zip(*rows)) or [()] * len(fields)
    return Table(file_key, {name.replace("_pct", ""): _fixture_column(kind, values)
                            for (name, kind), values in zip(fields, columns)})


def bundle_from_rows(machine_count=0, **rows):
    """A ``TraceBundle`` of row tuples per attribute (see
    ``table_from_rows``); an attribute left out gets an empty table, and an
    unknown one is a TypeError."""
    tables = {attr: table_from_rows(key, rows.pop(attr, ()))
              for attr, key in BUNDLE_FILES.items()}
    return TraceBundle(**tables, **rows, machine_count=machine_count)


# ---------------------------------------------------------------------------
# the synthetic trace, one row tuple at a time


def expected_occupancy_bits(label, interval_count):
    """The 2N bit vector a clean machine of type ``label`` must binarize to:
    its batch runs in the first N bits, all of the last N where it hosts
    containers."""
    bits = np.zeros(2 * interval_count, dtype=np.uint8)
    for a, b in batch_runs(label, interval_count):
        bits[a:b + 1] = 1
    if has_containers(label):
        bits[interval_count:] = 1
    return bits


def _noisy_rows(rng, base, noise, rows):
    values = np.tile(np.asarray(base, dtype=np.float64), (rows, 1))
    if noise > 0:
        values += noise * rng.standard_normal(values.shape)
    return np.clip(values, 0.0, 1.0).tolist()


def _log_uniform_duration(rng, step):
    return max(1, int(round(math.exp(rng.uniform(math.log(30.0),
                                                  math.log(4.0 * step))))))


def _synth_machine_rows(rows, ids, machine, label, plants, grid, noise, rng):
    """Append the machine's rows to ``rows`` (per bundle attribute, in each
    file's column order), numbering containers and jobs from ``ids``. A
    HeavyOnline plant runs 18 containers on a memory base 0.25 higher, and a
    LighterOnlineSkew plant runs each batch run as 71 instances: the effects
    are written out here, not read from ``synth``."""
    n = grid.interval_count
    kinds = {p.kind for p in plants}
    rows["events"].append((0, machine, MachineEventType.ADD, "", MACHINE_CORES,
                           1.0, 1.0))
    if PlantKind.FREQUENT_SOFT_ERROR in kinds:
        span = grid.end - grid.start
        for i in range(4):
            rows["events"].append((grid.start + round((i + 1) * span / 5), machine,
                                   MachineEventType.SOFT_ERROR,
                                   "agent check failed", 0, 0.0, 0.0))
    if PlantKind.SOFT_ERROR_WORKLOAD_STOP in kinds:
        rows["events"].append((grid.start + n // 2 * grid.step + 37, machine,
                               MachineEventType.SOFT_ERROR, "disk full", 0, 0.0, 0.0))

    base_cpu, base_mem, base_disk = BASE_USAGE[label]
    if PlantKind.HEAVY_ONLINE in kinds:
        base_mem = min(1.0, base_mem + 0.25)
    idle = PlantKind.IDLE in kinds
    base = (0.0, 0.0, 0.0) if idle else (base_cpu, base_mem, base_disk)
    usage = _noisy_rows(rng, base, 0.0 if idle else noise, grid.timestamp_count)
    for x, cells in enumerate(usage):
        rows["server_usage"].append(
            (grid.start + x * grid.step, machine, *cells, 0.0, 0.0, 0.0))

    if has_containers(label) and not idle:
        if PlantKind.HEAVY_ONLINE in kinds:
            count = 18
        elif PlantKind.LIGHTER_ONLINE_SKEW in kinds:
            count = 1
        else:
            count = 2 + int(rng.integers(3))
        for _ in range(count):
            ids["container"] += 1
            instance = ids["container"]
            cpu_req = float(rng.choice((2.0, 4.0, 8.0)))
            mem_req = float(rng.uniform(0.01, 0.05))
            disk_req = float(rng.uniform(0.005, 0.02))
            rows["container_events"].append((0, ContainerEventType.CREATE, instance,
                                             machine, cpu_req, mem_req, disk_req, ""))
            usage = _noisy_rows(rng, (0.3, 0.6, 0.1, base_disk), noise, n)
            for x, cells in enumerate(usage):
                rows["container_usage"].append(
                    (grid.start + x * grid.step, instance, *cells,
                     0.0, 0.0, 0.0, 1.5, 1.2, 2.0, 1.8))

    streams = 71 if PlantKind.LIGHTER_ONLINE_SKEW in kinds else 0
    for a, b in [] if idle else batch_runs(label, n):
        span_start = grid.start + a * grid.step + 1
        span_end = grid.start + (b + 1) * grid.step - 1
        ids["job"] += 1
        job = ids["job"]
        if streams:
            spans = [(span_start, span_end)] * streams
        else:
            spans = []
            s = span_start
            while s <= span_end:
                e = min(s + _log_uniform_duration(rng, grid.step), span_end)
                spans.append((s, e))
                s = e + 1
        rows["batch_tasks"].append((span_start, span_end, job, 1, len(spans),
                                    TaskStatus.TERMINATED, 1.0, 0.01))
        for i, (s, e) in enumerate(spans):
            avg_cpu = float(rng.uniform(0.2, 1.2))
            avg_mem = float(rng.uniform(0.005, 0.02))
            max_cpu = avg_cpu * float(rng.uniform(1.0, 1.3))
            max_mem = float(min(avg_mem * rng.uniform(1.0, 1.3), 1.0))
            rows["batch_instances"].append((
                s, e, job, 1, machine, InstanceStatus.TERMINATED, i + 1, len(spans),
                max_cpu, avg_cpu, max_mem, avg_mem))


def synth_rows_reference(config):
    """(bundle, truth) of a valid ``SynthConfig``, built one row tuple at a
    time: machines take types in quota order, each machine draws from its own
    spawned stream, containers and jobs are numbered from counters, the gaps
    are cut from the server-usage row tuples here, each recording its
    metric's values in the rows it cut, and every table goes through
    ``table_from_rows``."""
    types = {}
    for label, quota in zip(TYPE_LABELS, config.quotas):
        for _ in range(quota):
            types[len(types) + 1] = label
    plants_of = {}
    for plant in config.anomaly_plants:
        plants_of.setdefault(plant.machine, []).append(plant)
    truth = GroundTruth(types=dict(types))
    for machine in sorted(plants_of):
        truth.anomalies[machine] = sorted(p.kind.value for p in plants_of[machine])

    rows = {attr: [] for attr in BUNDLE_FILES}
    ids = {"container": 0, "job": 0}
    children = np.random.SeedSequence(config.seed).spawn(config.machine_count)
    for machine in range(1, config.machine_count + 1):
        rng = np.random.default_rng(children[machine - 1])
        _synth_machine_rows(rows, ids, machine, types[machine],
                            plants_of.get(machine, []), config.grid,
                            config.noise_level, rng)
    grid = config.grid
    cut = set()
    for gap in config.gap_plants:
        stamps = {grid.start + s * grid.step for s in gap.slots}
        column = 2 + ("cpu", "mem", "disk").index(gap.metric)   # after ts, machine
        gone = [row for row in rows["server_usage"]
                if row[1] == gap.machine and row[0] in stamps]
        if gone:
            truth.gaps.append(GapRecord(gap.machine, gap.metric,
                                        [row[0] for row in gone],
                                        [row[column] for row in gone]))
        cut |= {row[:2] for row in gone}
    rows["server_usage"] = [row for row in rows["server_usage"] if row[:2] not in cut]
    return bundle_from_rows(machine_count=config.machine_count, **rows), truth
