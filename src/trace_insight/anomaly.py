"""Isolation-forest scoring over per-machine resource features, with
rule-based cause tags for the machines that stand out.

Features are five columns of the series table (cpu, mem, disk, batch count,
container count). They are not rescaled: a split value is drawn uniformly
in the feature's [min, max], so a positive affine scaling of one feature
moves the split with the data and leaves every tree the same. The forest
follows the classic construction: t trees, each on a seeded subsample of up
to psi rows, random split dimension and split value per node, growth
stopped at ceil(log2 psi). All trees grow in lockstep, one split
candidate of each per step, with array operations over the rows of all
those candidates. Each tree still draws from its own RNG, in the order of a
recursive build, so the trees are that build's node for node. The draws
of all trees are made at once from their raw PCG64 words with numpy's own
algorithms: Lemire's multiply-shift on a 32-bit half for ``integers(k)``,
``lo + (hi - lo) * ((w >> 11) * 2**-53)`` on a word for ``uniform(lo, hi)``
(``_SplitDraws``; ``test_split_draws_are_the_generator_calls`` holds them
equal to the Generator's). The forest is one node table, the roots first
and both children of a split numbered at the split, and scoring moves every
row one tree level per step through its one link array.
Scores are reported as 0.5 - 2^(-E(h)/c(psi)), so anomalous machines land
below zero and everything lives in [-0.5, 0.5).

As in the series table, machine m is row m - 1 of the feature matrix, of a
report's scores, of the (M,) categories from classify and of the cause tags
``diagnose`` returns (a per-interval matrix holds its rows as block m - 1);
ids are made only for the ranking and where a writer prints them.

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
# Machines whose (machine, interval, feature) cube one interval mean stacks
# at once: bounds the cube, and keeps up to 128 machines to one block.
MEAN_MACHINES = 128


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
    """The forest as one node table: node t is tree t's root, and the
    lockstep growth numbers both children of a split when it splits.

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
    signals = [getattr(table, name) for name in _FEATURE_SIGNALS]
    if mode is FeatureMode.PER_INTERVAL:
        return np.stack(signals, axis=-1).reshape(-1, len(signals))
    # (machines, intervals, features) cubes of MEAN_MACHINES machines,
    # C-ordered: a mean over the interval axis adds one interval at a time,
    # in interval order, in a block of any size
    means = np.empty((len(signals[0]), len(signals)))
    for lo in range(0, len(means), MEAN_MACHINES):
        cube = np.stack([signal[lo:lo + MEAN_MACHINES] for signal in signals], axis=-1)
        means[lo:lo + MEAN_MACHINES] = cube.mean(axis=1)
    return means


class _SplitDraws:
    """``integers(k)`` and ``uniform(lo, hi)`` of many PCG64 Generators at
    once, one draw per generator named, with numpy 2.4's own algorithms on
    each one's raw words (see ``iforest_fit``). A generator's words come in
    blocks of ``BLOCK`` from ``random_raw``, in stream order, after the
    cached 32-bit half its ``state`` holds at the start.
    """

    BLOCK = 64

    def __init__(self, rngs):
        self._bits = [rng.bit_generator for rng in rngs]
        states = [bits.state for bits in self._bits]
        self._cached = np.array([s["has_uint32"] for s in states], dtype=bool)
        self._half = np.array([s["uinteger"] for s in states], dtype=np.uint64)
        self._block = np.empty((len(rngs), self.BLOCK), dtype=np.uint64)
        self._next = np.full(len(rngs), self.BLOCK)

    def _words(self, gens):
        """The next raw word of each of the distinct generators ``gens``."""
        spent = gens[self._next[gens] == self.BLOCK]
        for g in spent.tolist():
            self._block[g] = self._bits[g].random_raw(self.BLOCK)
        self._next[spent] = 0
        words = self._block[gens, self._next[gens]]
        self._next[gens] += 1
        return words

    def integers(self, gens, k):
        """``integers(k)`` of each generator in ``gens``, for k >= 1."""
        k = np.asarray(k, dtype=np.uint64)
        out = np.zeros(len(gens), dtype=np.intp)
        # Lemire: redraw while the product's low half is below this; k = 1
        # draws nothing
        threshold = (np.uint64(2**32) - k) % k
        pending = np.flatnonzero(k > 1)
        while pending.size:
            # the cached half if set, else the low half of a new word, whose
            # high half is cached
            g = gens[pending]
            cached = self._cached[g]
            halves = self._half[g]
            fresh = g[~cached]
            words = self._words(fresh)
            halves[~cached] = words & np.uint64(0xFFFFFFFF)
            self._half[fresh] = words >> np.uint64(32)
            self._cached[g] = ~cached
            product = halves * k[pending]
            out[pending] = product >> np.uint64(32)
            pending = pending[product & np.uint64(0xFFFFFFFF) < threshold[pending]]
        return out

    def uniform(self, gens, lo, hi):
        """``uniform(lo, hi)`` of each generator in ``gens``."""
        unit = (self._words(gens) >> np.uint64(11)) * 2.0**-53
        return lo + (hi - lo) * unit


def iforest_fit(matrix: np.ndarray, tree_count: int = 100,
                subsample: int = 256, seed: int = 0) -> IsolationForestModel:
    """Forest of seeded random isolation trees.

    Each tree draws its own subsample of min(subsample, n) rows without
    replacement; per-tree RNGs derive from (seed, tree index) so the forest
    is reproducible and trees are independent. Every cell must be finite.

    All trees grow in lockstep: each step takes one split candidate, a node
    of more than one row above the depth limit, from every tree that still
    has one. The candidate draws ``integers(k)`` over its k splittable
    columns and then ``uniform(lo, hi)`` in the chosen one from its tree's
    RNG, and stays a leaf when that draw separates nothing. A split pushes
    its right child before its left, so each tree takes its candidates, and
    its draws, in the order of a recursive build that grows the left
    subtree first; a child that cannot grow (one row, or at the depth
    limit) draws nothing and is finished at its parent's split.

    No Generator method is called per node: ``_SplitDraws`` makes the draws
    of all candidates of a step at once from each tree's raw PCG64 words,
    ``integers(k)`` by Lemire's multiply-shift on a 32-bit half and
    ``uniform(lo, hi)`` as ``lo + (hi - lo) * ((w >> 11) * 2**-53)`` on a
    word, as numpy's Generator does; ``test_split_draws_are_the_generator_calls``
    guards that they stay numpy's numbers.

    Roots are nodes 0 to t - 1, so node t is tree t's root. A split numbers
    both its children at once, after the nodes numbered before, right then
    left, and links them at ``2*parent`` (right) and ``2*parent + 1``
    (left). A node links to itself both ways until it splits, which a leaf
    keeps.
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
    rngs = [np.random.default_rng((seed, t)) for t in range(tree_count)]
    # tree t's sample rows fill order[t * psi:(t + 1) * psi]; a node owns a
    # run of them, and a split moves its left rows before its right rows
    order = np.concatenate([rng.choice(len(matrix), size=psi, replace=False)
                            for rng in rngs])
    draws = _SplitDraws(rngs)
    # node fields are written as nodes are numbered, so only the pages of
    # the nodes grown are touched
    bound = tree_count * (2 * psi - 1)
    dim = np.empty(bound, dtype=np.intp)
    value = np.empty(bound)
    links = np.empty(2 * bound, dtype=np.intp)
    path = np.empty(bound)

    def number(first, start, stop, depth):
        """Number nodes from ``first`` on as leaves, and return their numbers."""
        end = first + len(start)
        node = np.arange(first, end)
        dim[first:end] = -1
        value[first:end] = 0.0
        links[2 * first:2 * end] = node.repeat(2)
        path[first:end] = depth + leaf_path[stop - start]
        return node

    # each tree's stack of (start, stop, depth, node) candidates still to take
    stack = np.empty((4, tree_count, limit + 1), dtype=np.intp)
    trees = np.arange(tree_count)
    roots = trees * psi, (trees + 1) * psi, np.zeros_like(trees)
    stack[:, :, 0] = *roots, number(0, *roots)
    height = np.ones(tree_count, dtype=np.intp)
    taken = tree_count
    while (live := np.flatnonzero(height)).size:
        height[live] -= 1
        start, stop, depth, node = stack[:, live, height[live]]
        size = stop - start
        offsets = np.cumsum(size) - size
        runs = np.repeat(start - offsets, size)
        runs += np.arange(len(runs))
        rows = order[runs]
        # a column at a time, so only one column of the rows is held
        lows = np.empty((matrix.shape[1], len(live)))
        highs = np.empty_like(lows)
        for f, column in enumerate(matrix.T):
            cells = column[rows]
            np.minimum.reduceat(cells, offsets, out=lows[f])
            np.maximum.reduceat(cells, offsets, out=highs[f])
        del cells
        # a candidate that draws nothing splits at -inf, so no row goes left
        spread = highs > lows
        ranks = np.cumsum(spread, axis=0)
        drawn = np.flatnonzero(ranks[-1])
        dims = np.zeros(len(live), dtype=np.intp)
        values = np.full(len(live), -math.inf)
        picks = draws.integers(live[drawn], ranks[-1, drawn])
        # the picks-th splittable column (from 0) comes after exactly the
        # columns that have at most picks splittable columns up to their own
        dims[drawn] = (ranks[:, drawn] <= picks).sum(axis=0)
        values[drawn] = draws.uniform(live[drawn], lows[dims[drawn], drawn],
                                      highs[dims[drawn], drawn])
        left = matrix[rows, np.repeat(dims, size)] < np.repeat(values, size)
        n_left = np.add.reduceat(left, offsets, dtype=np.intp)
        split = np.flatnonzero((n_left > 0) & (n_left < size))
        if not len(split):
            continue
        parent = node[split]
        dim[parent] = dims[split]
        value[parent] = values[split]
        path[parent] = 0.0
        # a stable sort on (node, goes right) keeps each run where it is
        key = np.repeat(np.arange(0, 2 * len(live), 2), size)
        key += ~left
        order[runs] = rows[np.argsort(key, kind="stable")]
        # children as (right, left) pairs, numbered in that order
        mid = start[split] + n_left[split]
        child_start = mid.repeat(2)
        child_start[1::2] = start[split]
        child_stop = stop[split].repeat(2)
        child_stop[1::2] = mid
        child_depth = (depth[split] + 1).repeat(2)
        child = number(taken, child_start, child_stop, child_depth)
        taken += len(child)
        links[2 * parent] = child[0::2]
        links[2 * parent + 1] = child[1::2]
        # push the children that can grow, the right one below the left one
        pushed = (child_stop - child_start > 1) & (child_depth < limit)
        t = live[split]
        slots = height[t].repeat(2)
        slots[1::2] += pushed[0::2]
        height[t] = slots[1::2] + pushed[1::2]
        t = t.repeat(2)[pushed]
        stack[:, t, slots[pushed]] = (child_start[pushed], child_stop[pushed],
                                      child_depth[pushed], child[pushed])
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


def diagnose(categories: np.ndarray, events: Table, table: SeriesTable,
             stats: PopulationStats, grid: IntervalGrid) -> list[list[str]]:
    """Cause tags of every machine row, each row's in the fixed rule order
    of ``CauseTag``.

    ``categories`` holds each row's label and ``events`` the server events,
    whose soft errors count for the machine they name. Each rule is an (M,)
    mask over the machine's own soft errors and its rows of the table plus
    the population medians, so a row's tags do not depend on the other rows.
    Several tags can apply at once.
    """
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

    type1 = categories == "Type1"
    container_mean = table.container_count.mean(axis=1)
    batch_mean = table.batch_count.mean(axis=1)
    rules = np.stack([
        soft_count >= 3,
        workload_stop,
        (categories == "Type2") & (soft_count == 0),
        categories == "Type3",
        categories == "Type4",
        type1 & (container_mean >= HEAVIER_FACTOR * stats.container_count_median),
        type1 & (container_mean <= 1.0) & (batch_mean >= stats.batch_count_median),
    ], axis=1)
    tags = [tag.value for tag in CauseTag]
    return [list(compress(tags, row)) for row in rules.tolist()]


# ---------------------------------------------------------------------------
# artifact I/O


def write_scores_csv(report: AnomalyReport, categories: np.ndarray,
                     causes: list[list[str]], path: str) -> None:
    # the ranking is a permutation of the ids, so its inverse gives the ranks
    ranks = np.argsort(report.ranking) + 1
    with csv_file(path, ("machine", "score", "rank", "label", "tags")) as fh:
        fh.write(csv_lines(int_cells(np.arange(1, len(ranks) + 1)),
                           float_cells(report.scores), int_cells(ranks),
                           text_cells(categories),
                           text_cells(list(map("|".join, causes)))))


def write_anomaly_json(report: AnomalyReport, categories: np.ndarray,
                       causes: list[list[str]], path: str) -> None:
    """The first TOP_N machines of the ranking, with their scores, and their
    rows of ``categories`` and ``causes``."""
    write_json(path, {
        "negative_count": report.negative_count,
        "machine_count": len(report.scores),
        "top": [{"rank": rank, "machine": machine,
                 "score": report.scores[machine - 1],
                 "category": categories[machine - 1],
                 "causes": causes[machine - 1]}
                for rank, machine in enumerate(report.ranking[:TOP_N], 1)],
    })


def write_score_distribution_csv(report: AnomalyReport, path: str) -> None:
    """Scores in ranking order, for plotting the score curve."""
    ranking = np.asarray(report.ranking, np.int64)
    with csv_file(path, ("rank", "machine", "score")) as fh:
        fh.write(csv_lines(int_cells(np.arange(1, len(ranking) + 1)), int_cells(ranking),
                           float_cells(np.asarray(report.scores)[ranking - 1])))
