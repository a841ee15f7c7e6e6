"""Isolation-forest scoring over per-machine resource features, with
rule-based cause tags for the machines that stand out.

Features are five columns of the series table (cpu, mem, disk, batch count,
container count). They are not rescaled: a split value is drawn uniformly
in the feature's [min, max], so a positive affine scaling of one feature
moves the split with the data and leaves every tree the same. The forest
follows the classic construction: t trees, each on a seeded subsample of up
to psi rows, random split dimension and split value per node, growth
stopped at ceil(log2 psi). All trees grow in lockstep, one depth-first
node of each per step, with array operations over the rows of all those
nodes; each tree still draws from its own RNG, one node at a time and in
the order of a recursive build, so the trees are that build's node for
node. The forest is one node table, numbered in the order the growth takes
its nodes, and scoring moves every row one tree level per step through its
one link array.
Scores are reported as 0.5 - 2^(-E(h)/c(psi)), so anomalous machines land
below zero and everything lives in [-0.5, 0.5).

As in the series table, machine m is row m - 1 of the feature matrix, of
a report's lists and of the cause tags ``diagnose`` returns (a per-interval
matrix holds its rows as block m - 1); ids are made only for the ranking
and where a writer prints them.

A Type1 machine is tagged HeavierOnlineServices when its mean container
count is at least HEAVIER_FACTOR (1.5) times the population median.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import compress

import numpy as np

from .aggregate import SeriesTable, median
from .cells import csv_lines, float_cells, int_cells, text_cells
from .stage import FeatureMode, write_json
from .trace_model import IntervalGrid, MachineEventType, Table, csv_file, enum_code

EULER_GAMMA = 0.5772156649
HEAVIER_FACTOR = 1.5
# machines that analyze lists in anomaly_report.json, best ranked first
TOP_N = 25

_FEATURE_SIGNALS = ("server_cpu", "server_mem", "server_disk",
                    "batch_count", "container_count")


class CauseTag(Enum):
    FREQUENT_SOFT_ERROR = "FrequentSoftError"
    SOFT_ERROR_WORKLOAD_STOP = "SoftErrorWorkloadStop"
    NO_WORKLOADS_SCHEDULING = "NoWorkloadsScheduling"
    NO_ONLINE_SERVICES = "NoOnlineServices"
    NO_BATCH_JOBS = "NoBatchJobs"
    HEAVIER_ONLINE_SERVICES = "HeavierOnlineServices"
    UNBALANCED_LIGHTER_ONLINE = "UnbalancedLighterOnline"


@dataclass
class IsolationForestModel:
    """The forest as one node table, its nodes numbered in the order the
    lockstep growth takes them, so node t is tree t's root.

    ``dim`` is a split's dimension, or -1 at a leaf; a row at node i goes to
    ``links[2*i + 1]`` (left) when its value in ``dim[i]`` is below
    ``value[i]``, and to ``links[2*i]`` (right) otherwise. A leaf links to
    itself both ways, so a row that reaches it stays there, and has value
    0.0. ``path`` is a leaf's depth + c(size), and 0.0 at a split.
    """

    tree_count: int
    subsample_size: int
    depth_limit: int
    dim: np.ndarray
    value: np.ndarray
    links: np.ndarray
    path: np.ndarray


@dataclass
class AnomalyReport:
    scores: list[float]          # machine m at index m - 1, as below
    ranking: list[int]           # machine ids, ascending score, ties by id
    negative_count: int
    labels: list[str]            # "" until the caller fills them in
    causes: list[list[str]]      # [] until the caller fills them in


def average_path_length(n: int) -> float:
    """Expected unsuccessful-search path length in a BST of n points; the
    harmonic number is estimated as ln(m) + Euler's constant."""
    if n <= 1:
        return 0.0
    if n == 2:
        return 1.0
    return 2.0 * (math.log(n - 1) + EULER_GAMMA) - 2.0 * (n - 1) / n


def build_feature_matrix(table: SeriesTable,
                         mode: FeatureMode = FeatureMode.PER_MACHINE_MEAN,
                         ) -> np.ndarray:
    """Feature rows in the table's row order.

    PER_MACHINE_MEAN: one row per machine (interval means). PER_INTERVAL:
    one row per (machine, interval), each machine's rows one contiguous
    block in interval order.
    """
    # (machines, intervals, features), C-ordered: a mean over the interval
    # axis adds one interval at a time, in interval order
    cube = np.stack([getattr(table, name) for name in _FEATURE_SIGNALS], axis=-1)
    if mode is FeatureMode.PER_MACHINE_MEAN:
        return cube.mean(axis=1)
    return cube.reshape(-1, len(_FEATURE_SIGNALS))


def iforest_fit(matrix: np.ndarray, tree_count: int = 100,
                subsample: int = 256, seed: int = 0) -> IsolationForestModel:
    """Forest of seeded random isolation trees.

    Each tree draws its own subsample of min(subsample, n) rows without
    replacement; per-tree RNGs derive from (seed, tree index) so the forest
    is reproducible and trees are independent. Every cell must be finite.

    All trees grow in lockstep: step s takes the s-th depth-first node of
    every tree still growing. A node of more than one row above the depth
    limit draws ``integers(k)`` over its k splittable columns and then
    ``uniform(lo, hi)`` in the chosen one from its tree's RNG, and stays a
    leaf when that draw separates nothing. A split pushes its right child
    before its left, so each tree takes its nodes, and its draws, in the
    order of a recursive build that grows the left subtree first.

    Each node is numbered as it is taken, in tree order within a step, so
    node t is tree t's root, and writes its number into the link slot its
    parent pushed it with: ``2*parent`` for a right child, ``2*parent + 1``
    for a left one. Until then a node links to itself both ways, which a
    leaf keeps.
    """
    matrix = np.asarray(matrix, float)
    if matrix.ndim != 2 or len(matrix) < 2 or not matrix.shape[1]:
        raise ValueError("need a matrix with at least 2 rows and 1 column")
    if tree_count < 1:
        raise ValueError(f"tree_count must be >= 1, got {tree_count}")
    if subsample < 2:
        raise ValueError(f"subsample must be >= 2, got {subsample}")
    bad = np.argwhere(~np.isfinite(matrix))
    if len(bad):
        row, col = bad[0].tolist()
        raise ValueError(f"feature row {row}, column {col} is not finite: "
                         f"{float(matrix[row, col])}")
    psi = min(subsample, len(matrix))
    limit = math.ceil(math.log2(psi))
    leaf_path = np.array([average_path_length(n) for n in range(psi + 1)])
    columns = range(matrix.shape[1])
    rngs = [np.random.default_rng((seed, t)) for t in range(tree_count)]
    # tree t's sample rows fill order[t * psi:(t + 1) * psi]; a node owns a
    # run of them, and a split moves its left rows before its right rows
    order = np.concatenate([rng.choice(len(matrix), size=psi, replace=False)
                            for rng in rngs])
    # each tree's stack of (start, stop, depth, slot) nodes still to take; a
    # node writes its number into links[slot] when taken, a root's slot is -1
    stack = np.empty((4, tree_count, limit + 1), dtype=np.intp)
    trees = np.arange(tree_count)
    stack[:2, :, 0] = trees * psi, (trees + 1) * psi
    stack[2:, :, 0] = [[0], [-1]]
    height = np.ones(tree_count, dtype=np.intp)
    # node fields are written as nodes are taken, so only the pages of the
    # nodes grown are touched
    bound = tree_count * (2 * psi - 1)
    dim = np.empty(bound, dtype=np.intp)
    value = np.empty(bound)
    links = np.empty(2 * bound, dtype=np.intp)
    path = np.empty(bound)
    taken = 0
    while (live := np.flatnonzero(height)).size:
        height[live] -= 1
        start, stop, depth, slot = stack[:, live, height[live]]
        first, taken = taken, taken + len(live)
        node = np.arange(first, taken)
        child = slot >= 0
        links[slot[child]] = node[child]
        size = stop - start
        dim[first:taken] = -1
        value[first:taken] = 0.0
        links[2 * first:2 * taken] = np.repeat(node, 2)
        path[first:taken] = depth + leaf_path[size]
        grow = np.flatnonzero((size > 1) & (depth < limit))
        counts = size[grow]
        offsets = np.cumsum(counts) - counts
        runs = np.repeat(start[grow] - offsets, counts)
        runs += np.arange(len(runs))
        rows = order[runs]
        # a column at a time, so only one column of the rows is held
        lows = np.empty((matrix.shape[1], len(grow)))
        highs = np.empty_like(lows)
        for f, column in enumerate(matrix.T):
            cells = column[rows]
            np.minimum.reduceat(cells, offsets, out=lows[f])
            np.maximum.reduceat(cells, offsets, out=highs[f])
        del cells
        # a node that draws nothing splits at -inf, so no row goes left
        dims, values = [], []
        for t, lo, hi, spread in zip(live[grow].tolist(), lows.T.tolist(),
                                     highs.T.tolist(), (highs > lows).T.tolist()):
            splittable = list(compress(columns, spread))
            if splittable:
                f = splittable[rngs[t].integers(len(splittable))]
                dims.append(f)
                values.append(rngs[t].uniform(lo[f], hi[f]))
            else:
                dims.append(0)
                values.append(-math.inf)
        dims = np.array(dims, dtype=np.intp)
        values = np.array(values)
        left = matrix[rows, np.repeat(dims, counts)] < np.repeat(values, counts)
        n_left = np.add.reduceat(left, offsets, dtype=np.intp)
        split = np.flatnonzero((n_left > 0) & (n_left < counts))
        if not len(split):
            continue
        at = grow[split]
        parent = node[at]
        dim[parent] = dims[split]
        value[parent] = values[split]
        path[parent] = 0.0
        # a stable sort on (node, goes right) keeps each run where it is
        key = np.repeat(np.arange(0, 2 * len(grow), 2), counts)
        key += ~left
        order[runs] = rows[np.argsort(key, kind="stable")]
        t = live[at]
        top = height[t]
        mid = start[at] + n_left[split]
        stack[:, t, top] = mid, stop[at], depth[at] + 1, 2 * parent
        stack[:, t, top + 1] = start[at], mid, depth[at] + 1, 2 * parent + 1
        height[t] += 2
    # copies, so the unused rest of each bound is given back
    return IsolationForestModel(
        tree_count=tree_count, subsample_size=psi, depth_limit=limit,
        dim=dim[:taken].copy(), value=value[:taken].copy(),
        links=links[:2 * taken].copy(), path=path[:taken].copy())


def iforest_scores(model: IsolationForestModel, matrix: np.ndarray) -> np.ndarray:
    """Shifted anomaly score per row: 0.5 - 2^(-E(h)/c(psi)), in [-0.5, 0.5).

    One tree at a time, every row takes one level per step (a value equal to
    the split value, or NaN, goes right); path lengths add up in tree order
    from 0.0. Tree t's walk starts at node t. Cells are read from one
    column-major copy of the matrix, and a row at node i moves to
    ``links[2*i + 1]`` when it goes left and to ``links[2*i]`` otherwise.
    """
    matrix = np.asarray(matrix, float)
    norm = average_path_length(model.subsample_size)
    if norm <= 0:
        raise ValueError("subsample too small to normalize path lengths")
    n = len(matrix)
    cells = matrix.T.ravel()   # cell (row, dim) at dim * n + row
    rows = np.arange(n)
    total = np.zeros(n)
    # a leaf reads column 0, but both its links stay put
    offset = np.maximum(model.dim, 0) * n
    links, value = model.links, model.value
    for root in range(model.tree_count):
        node = np.full(n, root, dtype=np.intp)
        for _ in range(model.depth_limit):
            node = links[2 * node + (cells[offset[node] + rows] < value[node])]
        total += model.path[node]
    mean_path = total / model.tree_count
    # Python's float power, row by row: numpy's vector power may round the
    # last bit differently
    return np.array([0.5 - 2.0 ** (-h / norm) for h in mean_path.tolist()])


def score_machines(model: IsolationForestModel, matrix: np.ndarray,
                   machine_count: int) -> AnomalyReport:
    """Report on ``machine_count`` machines, each one equal block of rows in
    ``matrix``; a machine scores the minimum of its block (with a row per
    interval, its most anomalous interval)."""
    raw = iforest_scores(model, matrix)
    if machine_count < 1 or len(raw) % machine_count:
        raise ValueError(f"{len(raw)} feature rows do not split evenly "
                         f"among {machine_count} machines")
    worst = raw.reshape(machine_count, -1).min(axis=1)
    return AnomalyReport(
        scores=worst.tolist(),
        # a stable sort keeps tied rows, and so tied ids, in ascending order
        ranking=(np.argsort(worst, kind="stable") + 1).tolist(),
        negative_count=int(np.count_nonzero(worst < 0)),
        labels=[""] * machine_count,
        causes=[[] for _ in range(machine_count)],
    )


@dataclass(frozen=True, slots=True)
class PopulationStats:
    """Medians of the per-machine mean counts, shared by all diagnoses."""

    container_count_median: float
    batch_count_median: float


def population_stats(table: SeriesTable) -> PopulationStats:
    # (2, machines, intervals): each machine's mean runs along its own row
    counts = np.stack([table.container_count, table.batch_count])
    container_means, batch_means = counts.mean(axis=-1)
    return PopulationStats(
        container_count_median=median(container_means),
        batch_count_median=median(batch_means),
    )


def diagnose(labels: list[str], events: Table, table: SeriesTable,
             stats: PopulationStats, grid: IntervalGrid) -> list[list[str]]:
    """Cause tags of every machine row, each row's in the fixed rule order
    of ``CauseTag``.

    ``labels`` holds each row's category and ``events`` the server events,
    whose soft errors count for the machine they name. Each rule is an (M,)
    mask over the machine's own soft errors and its rows of the table plus
    the population medians, so a row's tags do not depend on the other rows.
    Several tags can apply at once.
    """
    labels = np.asarray(labels)
    m_count, n = table.batch_count.shape
    soft = events.event_type == enum_code(MachineEventType.SOFT_ERROR)
    soft_row, soft_ts = events.machine[soft] - 1, events.timestamp[soft]
    soft_count = np.bincount(soft_row, minlength=m_count)

    # batch stops for good at the interval after its last active one, unless
    # it never ran or still runs at the end; a soft error within one interval
    # of the stop is linked to it
    active = table.batch_count > 0
    stop = n - np.argmax(active[:, ::-1], axis=1)
    stopped = active.any(axis=1) & (stop < n)
    x = (soft_ts - grid.start) // grid.step
    linked = (stopped[soft_row] & (soft_ts >= grid.start) & (soft_ts < grid.end)
              & (np.abs(x - stop[soft_row]) <= 1))
    workload_stop = np.bincount(soft_row[linked], minlength=m_count) > 0

    type1 = labels == "Type1"
    container_mean = table.container_count.mean(axis=1)
    batch_mean = table.batch_count.mean(axis=1)
    rules = np.stack([
        soft_count >= 3,
        workload_stop,
        (labels == "Type2") & (soft_count == 0),
        labels == "Type3",
        labels == "Type4",
        type1 & (container_mean >= HEAVIER_FACTOR * stats.container_count_median),
        type1 & (container_mean <= 1.0) & (batch_mean >= stats.batch_count_median),
    ], axis=1)
    tags = [tag.value for tag in CauseTag]
    return [list(compress(tags, row)) for row in rules.tolist()]


# ---------------------------------------------------------------------------
# artifact I/O


def write_scores_csv(report: AnomalyReport, path: str) -> None:
    # the ranking is a permutation of the ids, so its inverse gives the ranks
    ranks = np.argsort(report.ranking) + 1
    with csv_file(path, ("machine", "score", "rank", "label", "tags")) as fh:
        fh.write(csv_lines(int_cells(np.arange(1, len(ranks) + 1)),
                           float_cells(report.scores), int_cells(ranks),
                           text_cells(report.labels),
                           text_cells(list(map("|".join, report.causes)))))


def write_anomaly_json(report: AnomalyReport, top_n: int, path: str) -> None:
    """The first ``top_n`` machines of the ranking, with their scores,
    categories and causes."""
    if top_n < 0:
        raise ValueError(f"top_n must be >= 0, got {top_n}")
    write_json(path, {
        "negative_count": report.negative_count,
        "machine_count": len(report.scores),
        "top": [{"rank": rank, "machine": machine,
                 "score": report.scores[machine - 1],
                 "category": report.labels[machine - 1],
                 "causes": report.causes[machine - 1]}
                for rank, machine in enumerate(report.ranking[:top_n], 1)],
    })


def write_score_distribution_csv(report: AnomalyReport, path: str) -> None:
    """Scores in ranking order, for plotting the score curve."""
    ranking = np.asarray(report.ranking, np.int64)
    with csv_file(path, ("rank", "machine", "score")) as fh:
        fh.write(csv_lines(int_cells(np.arange(1, len(ranking) + 1)), int_cells(ranking),
                           float_cells(np.asarray(report.scores)[ranking - 1])))
