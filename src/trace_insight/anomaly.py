"""Isolation-forest scoring over per-machine resource features, with
rule-based cause tags for the machines that stand out.

Features are five columns of the series table (cpu, mem, disk, batch count,
container count). The forest follows the classic construction: t trees, each
on a seeded subsample of up to psi rows, random split dimension and split
value per node, growth stopped at ceil(log2 psi). Each tree is stored as
flat node arrays, and scoring moves every row one tree level per step.
Scores are reported as 0.5 - 2^(-E(h)/c(psi)), so anomalous machines land
below zero and everything lives in [-0.5, 0.5).

As in the series table, machine m is row m - 1 of the feature matrix and
of a report's lists (a per-interval matrix holds its rows as block m - 1);
ids are made only for the ranking and where a writer prints them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .aggregate import SeriesTable
from .stage import FeatureMode, write_json
from .trace_model import (IntervalGrid, MachineEventType, Table, csv_file,
                          csv_lines, enum_code, float_text)

EULER_GAMMA = 0.5772156649

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


@dataclass(frozen=True, slots=True)
class IsolationTree:
    """One isolation tree as parallel node arrays in depth-first pre-order.

    Node 0 is the root. ``dim`` is a split's dimension, or -1 at a leaf; a
    row goes ``left`` when its value in ``dim`` is below ``value`` and
    ``right`` otherwise. A leaf's ``left`` and ``right`` point at the leaf
    itself, so a row that reaches it stays there. ``path`` is the leaf's
    depth + c(size), and 0.0 at a split.
    """

    dim: np.ndarray
    value: np.ndarray
    left: np.ndarray
    right: np.ndarray
    path: np.ndarray


@dataclass
class IsolationForestModel:
    tree_count: int
    subsample_size: int
    depth_limit: int
    trees: list[IsolationTree]


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


def zscore_normalize(matrix: np.ndarray) -> np.ndarray:
    """Optional per-dimension standardization (constant dimensions pass
    through unchanged); iForest splits are scale-sensitive across features."""
    mean = matrix.mean(axis=0)
    std = matrix.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return (matrix - mean) / std


def _draw_split(points: np.ndarray, rng: np.random.Generator):
    """(dim, value, mask of the rows going left) for a random split of
    ``points``, or None when the draw separates nothing."""
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    splittable = np.flatnonzero(hi > lo)
    if len(splittable) == 0:
        return None
    dim = int(splittable[rng.integers(len(splittable))])
    value = float(rng.uniform(lo[dim], hi[dim]))
    mask = points[:, dim] < value
    if not mask.any() or mask.all():
        return None
    return dim, value, mask


def _grow(sample: np.ndarray, limit: int,
          rng: np.random.Generator) -> IsolationTree:
    """Grow one tree depth-first, the left subtree before the right, so the
    split draws come in the order of a recursive build."""
    nodes: list[list] = []   # [dim, value, left, right, path] per node
    stack = [(sample, 0, -1, 0)]   # (points, depth, parent, 2 left/3 right)
    while stack:
        points, depth, parent, link = stack.pop()
        node = len(nodes)
        if parent >= 0:
            nodes[parent][link] = node
        split = (_draw_split(points, rng)
                 if len(points) > 1 and depth < limit else None)
        if split is None:
            nodes.append([-1, 0.0, node, node,
                          depth + average_path_length(len(points))])
            continue
        dim, value, mask = split
        nodes.append([dim, value, node, node, 0.0])
        stack.append((points[~mask], depth + 1, node, 3))
        stack.append((points[mask], depth + 1, node, 2))
    dim, value, left, right, path = zip(*nodes)
    return IsolationTree(dim=np.array(dim, dtype=np.intp), value=np.array(value),
                         left=np.array(left, dtype=np.intp),
                         right=np.array(right, dtype=np.intp),
                         path=np.array(path))


def iforest_fit(matrix: np.ndarray, tree_count: int = 100,
                subsample: int = 256, seed: int = 0) -> IsolationForestModel:
    """Forest of seeded random isolation trees.

    Each tree draws its own subsample of min(subsample, n) rows without
    replacement; per-tree RNGs derive from (seed, tree index) so the forest
    is reproducible and trees are independent.
    """
    matrix = np.asarray(matrix, float)
    if matrix.ndim != 2 or len(matrix) < 2:
        raise ValueError("need a matrix with at least 2 rows")
    if tree_count < 1:
        raise ValueError(f"tree_count must be >= 1, got {tree_count}")
    if subsample < 2:
        raise ValueError(f"subsample must be >= 2, got {subsample}")
    psi = min(subsample, len(matrix))
    limit = math.ceil(math.log2(psi))
    trees = []
    for t in range(tree_count):
        rng = np.random.default_rng((seed, t))
        picks = rng.choice(len(matrix), size=psi, replace=False)
        trees.append(_grow(matrix[picks], limit, rng))
    return IsolationForestModel(tree_count=tree_count, subsample_size=psi,
                                depth_limit=limit, trees=trees)


def iforest_scores(model: IsolationForestModel, matrix: np.ndarray) -> np.ndarray:
    """Shifted anomaly score per row: 0.5 - 2^(-E(h)/c(psi)), in [-0.5, 0.5).

    One tree at a time, every row takes one level per step (a value equal to
    the split value goes right); path lengths add up in tree order from 0.0.
    """
    matrix = np.asarray(matrix, float)
    norm = average_path_length(model.subsample_size)
    if norm <= 0:
        raise ValueError("subsample too small to normalize path lengths")
    rows = np.arange(len(matrix))
    total = np.zeros(len(matrix))
    for tree in model.trees:
        node = np.zeros(len(matrix), dtype=np.intp)
        for _ in range(model.depth_limit):
            # a leaf's dim of -1 reads some column, but both links stay put
            node = np.where(matrix[rows, tree.dim[node]] < tree.value[node],
                            tree.left[node], tree.right[node])
        total += tree.path[node]
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


def rank_anomalies(report: AnomalyReport, top_n: int) -> list[int]:
    if top_n < 0:
        raise ValueError(f"top_n must be >= 0, got {top_n}")
    return report.ranking[:top_n]


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
        container_count_median=float(np.median(container_means)),
        batch_count_median=float(np.median(batch_means)),
    )


def _batch_stop_index(batch_count: np.ndarray) -> int | None:
    """Interval index where batch activity stops for good, or None when the
    machine never ran batch or still runs it at the end."""
    active = np.flatnonzero(np.asarray(batch_count) > 0)
    if len(active) == 0 or active[-1] == len(batch_count) - 1:
        return None
    return int(active[-1]) + 1


def softerror_times(events: Table) -> dict[int, list[int]]:
    """Soft-error timestamps per machine, in event order."""
    soft = events.event_type == enum_code(MachineEventType.SOFT_ERROR)
    times: dict[int, list[int]] = {}
    for machine, ts in zip(events.machine[soft].tolist(),
                           events.timestamp[soft].tolist()):
        times.setdefault(machine, []).append(ts)
    return times


def diagnose(label: str, softerrors: list[int], batch_count: np.ndarray,
             container_count: np.ndarray, stats: PopulationStats,
             grid: IntervalGrid, heavier_factor: float = 1.5) -> list[str]:
    """Cause tags for one machine, in a fixed rule order.

    ``softerrors`` are the machine's soft-error timestamps, and
    ``batch_count`` and ``container_count`` its rows of the series table.
    Rules depend only on the machine's own soft errors and counts plus the
    population medians, so the result is independent of evaluation order.
    Several tags can apply at once.
    """
    tags: list[str] = []

    if len(softerrors) >= 3:
        tags.append(CauseTag.FREQUENT_SOFT_ERROR.value)

    stop = _batch_stop_index(batch_count)
    if stop is not None and softerrors:
        for ts in softerrors:
            x = grid.interval_index(ts)
            if x is not None and abs(x - stop) <= 1:
                tags.append(CauseTag.SOFT_ERROR_WORKLOAD_STOP.value)
                break

    if label == "Type2" and not softerrors:
        tags.append(CauseTag.NO_WORKLOADS_SCHEDULING.value)
    if label == "Type3":
        tags.append(CauseTag.NO_ONLINE_SERVICES.value)
    if label == "Type4":
        tags.append(CauseTag.NO_BATCH_JOBS.value)

    if label == "Type1":
        container_mean = float(np.mean(container_count))
        batch_mean = float(np.mean(batch_count))
        if container_mean >= heavier_factor * stats.container_count_median:
            tags.append(CauseTag.HEAVIER_ONLINE_SERVICES.value)
        if container_mean <= 1.0 and batch_mean >= stats.batch_count_median:
            tags.append(CauseTag.UNBALANCED_LIGHTER_ONLINE.value)
    return tags


# ---------------------------------------------------------------------------
# artifact I/O


def write_scores_csv(report: AnomalyReport, path: str) -> None:
    # the ranking is a permutation of the ids, so its inverse gives the ranks
    ranks = np.argsort(report.ranking) + 1
    with csv_file(path, ("machine", "score", "rank", "label", "tags")) as fh:
        fh.write(csv_lines(map(str, range(1, len(ranks) + 1)),
                           map(float_text, report.scores),
                           map(str, ranks.tolist()), report.labels,
                           map("|".join, report.causes)))


def top_anomalies_dict(report: AnomalyReport, top_n: int) -> dict:
    return {
        "negative_count": report.negative_count,
        "machine_count": len(report.scores),
        "top": [{"rank": rank, "machine": machine,
                 "score": report.scores[machine - 1],
                 "category": report.labels[machine - 1],
                 "causes": report.causes[machine - 1]}
                for rank, machine in enumerate(rank_anomalies(report, top_n), 1)],
    }


def write_anomaly_json(report: AnomalyReport, top_n: int, path: str) -> None:
    write_json(path, top_anomalies_dict(report, top_n))


def write_score_distribution_csv(report: AnomalyReport, path: str) -> None:
    """Scores in ranking order, for plotting the score curve."""
    with csv_file(path, ("rank", "machine", "score")) as fh:
        fh.write(csv_lines(map(str, range(1, len(report.ranking) + 1)),
                           map(str, report.ranking),
                           (float_text(report.scores[m - 1]) for m in report.ranking)))
