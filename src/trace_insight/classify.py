"""Workload-distribution categories from binarized occupancy vectors.

Each machine becomes a 2N-bit row of one occupancy matrix, taken from the
count columns of the series table: the first N bits say whether any batch
instance touched interval x, the next N whether any container lived there.
As in the series table, row m - 1 is machine m, in the matrix, the model's
assignments and the report's (M,) ``categories``, which the rest of analyze
reads; ids are made only where a writer prints them.
Lloyd k-means (k-means++ seeded) groups the vectors, and each centroid is
labeled by rules over its batch/container occupancy pattern:

  Type1  containers and batch throughout
  Type2  nothing scheduled
  Type3  batch only
  Type4  containers only
  Type5  no containers, batch stops early
  Type6  co-located, batch absent late
  Type7  co-located, one short batch gap
  Type8  co-located, batch absent early

A centroid's mean occupancy at or above ALWAYS_OCCUPANCY (0.90) counts as
"throughout" and at or below NONE_OCCUPANCY (0.05) as "absent"; a single
interior batch gap shorter than GAP_FRACTION (0.25) of the grid is still
Type7. Centroids matching no rule are labeled Unknown and reported, not
hidden.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .aggregate import SeriesTable
from .cells import csv_lines, float_cells, int_cells, line_blocks, text_cells
from .stage import TYPE_LABELS, write_json
from .trace_model import csv_file

UNKNOWN_LABEL = "Unknown"

# the cutoffs that map fuzzy centroid occupancy onto the verbal patterns
ALWAYS_OCCUPANCY = 0.90
NONE_OCCUPANCY = 0.05
GAP_FRACTION = 0.25


@dataclass
class CategoryModel:
    k: int
    centroids: np.ndarray            # (k, 2N)
    assignments: np.ndarray          # (M,) cluster of each matrix row
    inertia: float
    inertia_history: list[float]
    labels: dict[int, str] = field(default_factory=dict)
    label_notes: dict[int, str] = field(default_factory=dict)


def occupancy_matrix(table: SeriesTable) -> np.ndarray:
    """The (M, 2N) 0/1 occupancy rows, batch bits first, one per table row."""
    bits = np.concatenate((table.batch_count > 0, table.container_count > 0),
                          axis=1)
    return bits.astype(float)


def _plus_plus_init(matrix: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(matrix)
    centroids = np.empty((k, matrix.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = matrix[first]
    closest = ((matrix - centroids[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = closest.sum()
        if total <= 0:
            # remaining points all coincide with a chosen centroid; fall back
            # to a uniform draw over points not yet at distance zero twice
            candidates = np.flatnonzero(closest == closest.max())
            pick = int(candidates[rng.integers(len(candidates))])
        else:
            r = rng.random() * total
            pick = int(np.searchsorted(np.cumsum(closest), r, side="right"))
            pick = min(pick, n - 1)
        centroids[c] = matrix[pick]
        closest = np.minimum(closest, ((matrix - centroids[c]) ** 2).sum(axis=1))
    return centroids


def _assign(matrix: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # a centroid at a time: no (M, k, 2N) difference cube, the same sums
    d2 = np.empty((len(matrix), len(centroids)))
    for c, centroid in enumerate(centroids):
        d2[:, c] = ((matrix - centroid) ** 2).sum(axis=1)
    assign = d2.argmin(axis=1)
    return assign, d2[np.arange(len(matrix)), assign]


def _lloyd_run(matrix: np.ndarray, k: int, rng: np.random.Generator,
               max_iter: int) -> tuple[np.ndarray, np.ndarray, float, list[float]]:
    centroids = _plus_plus_init(matrix, k, rng)
    assign, d2 = _assign(matrix, centroids)
    history: list[float] = [float(d2.sum())]
    for _ in range(max_iter):
        for c in range(k):
            members = matrix[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
        # re-seed empties before measuring convergence
        empty = [c for c in range(k) if not (assign == c).any()]
        if empty:
            dist_own = ((matrix - centroids[assign]) ** 2).sum(axis=1)
            rank = np.argsort(-dist_own, kind="stable")
            for c, pick in zip(empty, rank):
                centroids[c] = matrix[int(pick)]
        new_assign, d2 = _assign(matrix, centroids)
        history.append(float(d2.sum()))
        if (new_assign == assign).all():
            assign = new_assign
            break
        assign = new_assign
    return centroids, assign, float(d2.sum()), history


def kmeans_fit(matrix: np.ndarray, k: int, seed: int,
               max_iter: int = 100, n_init: int = 10) -> CategoryModel:
    """Best of ``n_init`` seeded k-means++ starts, each polished with Lloyd
    iterations; the run with the lowest inertia wins (first wins ties).

    Clusters that empty out are re-seeded to the point currently farthest
    from its own centroid.
    """
    matrix = np.asarray(matrix, float)

    # return_index keeps np.unique on its sort path, which, unlike its
    # hash path, does not import numpy.ma; the rows it finds are the same
    distinct = len(np.unique(matrix, axis=0, return_index=True)[0])
    if k > distinct:
        raise ValueError(f"the {k} workload categories need {k} distinct "
                         f"occupancy patterns, and the trace has {distinct}")
    if k < 1 or n_init < 1:
        raise ValueError(f"k and n_init must be >= 1, got {k} and {n_init}")

    best = None
    for child in np.random.SeedSequence(seed).spawn(n_init):
        run = _lloyd_run(matrix, k, np.random.default_rng(child), max_iter)
        if best is None or run[2] < best[2]:
            best = run
    centroids, assign, inertia, history = best

    return CategoryModel(
        k=k,
        centroids=centroids,
        assignments=assign,
        inertia=inertia,
        inertia_history=history,
    )


def _zero_runs(bits: np.ndarray) -> list[tuple[int, int]]:
    """Maximal runs of zeros as [start, stop) index pairs."""
    runs = []
    start = None
    for i, b in enumerate(bits):
        if not b and start is None:
            start = i
        elif b and start is not None:
            runs.append((start, i))
            start = None
    if start is not None:
        runs.append((start, len(bits)))
    return runs


def _label_centroid(centroid: np.ndarray) -> tuple[str, str]:
    n = len(centroid) // 2
    batch = centroid[:n]
    cont = centroid[n:]
    b_mean = float(batch.mean())
    c_mean = float(cont.mean())
    half = n // 2
    b_late = float(batch[half:].mean())
    note = f"batch={b_mean:.3f} container={c_mean:.3f}"

    if c_mean <= NONE_OCCUPANCY:
        if b_mean <= NONE_OCCUPANCY:
            return "Type2", note
        if b_late <= NONE_OCCUPANCY:
            return "Type5", note
        return "Type3", note
    if b_mean <= NONE_OCCUPANCY:
        return "Type4", note

    runs = _zero_runs(batch >= 0.5)
    if not runs:
        if b_mean >= ALWAYS_OCCUPANCY and c_mean >= ALWAYS_OCCUPANCY:
            return "Type1", note
        return UNKNOWN_LABEL, note + " (batch present everywhere but not solid)"
    if len(runs) == 1:
        start, stop = runs[0]
        if start == 0 and stop == n:
            return UNKNOWN_LABEL, note + " (batch occupancy nowhere decisive)"
        if stop == n:
            return "Type6", note
        if start == 0:
            return "Type8", note
        if stop - start < GAP_FRACTION * n:
            return "Type7", note
        return UNKNOWN_LABEL, note + f" (interior batch gap of {stop - start})"
    return UNKNOWN_LABEL, note + f" ({len(runs)} batch gaps)"


def label_clusters(model: CategoryModel) -> CategoryModel:
    """Attach a type label to every centroid; pure in the centroids, so
    relabeling an already labeled model changes nothing."""
    labels = {}
    notes = {}
    for c in range(model.k):
        labels[c], notes[c] = _label_centroid(model.centroids[c])
    return replace(model, labels=labels, label_notes=notes)


@dataclass
class CategoryReport:
    categories: np.ndarray                       # (M,) label of each row
    counts: dict[str, int]                       # label -> machine count
    members: dict[str, list[int]]                # label -> machine ids
    usage_means: dict[str, tuple[float, float, float]]  # label -> cpu/mem/disk


def _usage_rows(table: SeriesTable, rows: np.ndarray):
    """The server cpu, mem and disk rows that the (M,) mask ``rows`` picks."""
    return table.server_cpu[rows], table.server_mem[rows], table.server_disk[rows]


def category_report(model: CategoryModel, table: SeriesTable) -> CategoryReport:
    """Each row's label; per label, its members in ascending machine order
    and their mean server cpu, mem and disk over all their intervals."""
    if not model.labels:
        raise ValueError("model is unlabeled; run label_clusters first")
    categories = np.array([model.labels[c] for c in range(model.k)])[model.assignments]
    report = CategoryReport(categories, counts={}, members={}, usage_means={})
    for label in (*TYPE_LABELS, UNKNOWN_LABEL):
        rows = categories == label
        if rows.any():
            report.members[label] = (np.flatnonzero(rows) + 1).tolist()
            report.counts[label] = len(report.members[label])
            report.usage_means[label] = tuple(
                float(np.mean(usage)) for usage in _usage_rows(table, rows))
    return report


# ---------------------------------------------------------------------------
# artifact I/O


def write_assignments_csv(model: CategoryModel, categories: np.ndarray,
                          path: str) -> None:
    clusters = model.assignments
    with csv_file(path, ("machine", "cluster", "label")) as fh:
        fh.write(csv_lines(int_cells(np.arange(1, len(clusters) + 1)), int_cells(clusters),
                           text_cells(categories)))


def write_counts_json(model: CategoryModel, report: CategoryReport,
                      path: str) -> None:
    write_json(path, {
        "k": model.k,
        "inertia": model.inertia,
        "counts": report.counts,
        "members": report.members,
        "usage_means": {label: {"cpu": u[0], "mem": u[1], "disk": u[2]}
                        for label, u in report.usage_means.items()},
        "cluster_labels": {str(c): label for c, label in model.labels.items()},
        "label_notes": {str(c): note for c, note in model.label_notes.items()},
    })


def write_type_usage_csv(report: CategoryReport, table: SeriesTable,
                         path: str) -> None:
    """Per-type mean cpu/mem/disk per interval, for external plotting. The
    lines of all types are formatted together, ``cells.BLOCK_LINES`` at a
    time."""
    labels = sorted(report.members)
    means = np.array([[np.mean(usage, axis=0) for usage in
                       _usage_rows(table, report.categories == label)]
                      for label in labels]).transpose(1, 0, 2)
    intervals = means.shape[2]
    means = means.reshape(3, -1)
    names = np.repeat(labels, intervals)
    index = np.tile(np.arange(intervals), len(labels))
    with csv_file(path, ("label", "interval_index", "cpu", "mem", "disk")) as fh:
        for block in line_blocks(len(names)):
            fh.write(csv_lines(text_cells(names[block]), int_cells(index[block]),
                               *float_cells(means[:, block])))
