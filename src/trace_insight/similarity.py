"""DTW scoring of machine resource curves against sampled standard curves.

A resource curve is the per-interval (cpu, mem, disk) track of one machine;
the curves of machines 1..M come as one (M, N, 3) array whose row m - 1 is
machine m, read from the server columns of the series table. Row m - 1 of
a report's distances is machine m too, and the writers number the rows.
Distance between two curves is the cumulative dynamic-time-warping cost with
squared Euclidean point cost, reported raw (no path-length normalization);
the config key dtw_normalized chooses the normalized form sqrt(cost)/K. A
set of standard curves is drawn from a seeded sample, the median pairwise
distance within the sample is the baseline value, and machines whose mean
distance to the standards exceeds THRESHOLD (3.0) get flagged. Mean
distances are counted in the bins of RANGE_EDGES, [0, 1), [1, 2), [2, 3),
[3, 5) and [5, inf), and a standard whose sorted distance profile lies
further than SUITABILITY_GAP (1.0, in sup norm) from every other standard's
is reported as unsuitable.

Every DTW cost comes from one batched DP: an anti-diagonal sweep over many
pairs at once, whatever the curve length. The machine x standard pairs and
the sample's pairs form one flat list, and each pair in it is computed once:
a sample pair that holds a standard is the machine x standard pair of its
other member (raw DTW cost is the same bits either way round), so only the
sample pairs without a standard are added after the grid. The list splits
evenly into sweeps of about PAIR_POINTS points (pairs x curve length), so a
sweep's work arrays stay a few MB however many machines there are; every
pair's DP is its own, so the sweeps give the bits of one sweep over all
pairs. The sweep holds the curves as per-dimension planes with the pairs on
the contiguous last axis, gathered straight into that layout, and sums each
point's squared differences in the order einsum would (even dimensions,
then odd, then the two sums). Each cell's optimal path length is carried
forward in place of a traceback, but only when the caller reads it: the
normalized form does, the raw scores do not.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .aggregate import SeriesTable, median
from .cells import csv_lines, float_cells, int_cells
from .stage import write_json
from .trace_model import csv_file

RANGE_EDGES = (0.0, 1.0, 2.0, 3.0, 5.0)
SUITABILITY_GAP = 1.0
# a machine whose mean distance to the standards exceeds this is flagged
THRESHOLD = 3.0
# analyze draws the standard value from the pairs of 8 sampled curves, and 4
# of those curves as the standards
SAMPLE_NUM = 8
STANDARD_COUNT = 4
# score_similarity sweeps as many machines at once as keep about this many
# points (pairs x curve length) in a sweep's work arrays
PAIR_POINTS = 1 << 14


@dataclass
class DtwReport:
    standard_value: float
    standard_machines: list[int]
    distances: np.ndarray        # (machines, standards)
    mean_distance: np.ndarray    # (machines,)
    histogram: list[int]         # one bin per RANGE_EDGES, last is unbounded
    flagged: list[int]
    normalized: bool = False
    unsuitable_standards: list[int] = field(default_factory=list)


def build_resource_curves(table: SeriesTable) -> np.ndarray:
    """(M, N, 3) cpu/mem/disk curves, in the table's machine order."""
    return np.stack((table.server_cpu, table.server_mem, table.server_disk),
                    axis=-1)


def _dtw_batch(q: np.ndarray, s: np.ndarray, pairs: tuple[np.ndarray, np.ndarray],
               path_lengths: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """DTW cost and optimal path length of each listed pair of curves.

    ``q`` is an (a, n, d) and ``s`` a (b, l, d) stack of curves, non-empty
    and of one dimensionality, and ``pairs`` two index lists of one length:
    pair p is curve ``pairs[0][p]`` of q against curve ``pairs[1][p]`` of s,
    and both results hold one value per pair, in list order. This is the
    package's only DTW recurrence. The curves are held as per-dimension
    planes, q as (d, n, pairs) and s reversed as (d, l, pairs), with the
    pairs last and contiguous, so each step below is a handful of elementwise
    calls over whole diagonals.

    The sweep over the anti-diagonals i + j = k keeps the last three, indexed
    by row i at offset 1 with inf padding, so the first row and column need
    no special case. A diagonal's point costs are the squared differences
    summed in the order ``np.einsum("...k,...k->...")`` uses over a
    contiguous axis of d <= 7: the even dimensions in sequence, then the odd
    ones, then the two sums, so (x0² + x2²) + x1² for cpu/mem/disk. A cell
    adds its cost to min(diagonal, up, left), written in place into the
    rolling rows. With ``path_lengths`` it also extends the path of the
    predecessor a traceback would take: diagonal if it is <= both others,
    else up if up <= left, else left; the lengths are int16 while a path of
    n + l - 1 cells fits. Without it the second result is None; the
    distances are the same bits either way.
    """
    n, l, d = q.shape[-2], s.shape[-2], q.shape[-1]
    if not n or not l or s.shape[-1] != d:
        raise ValueError(f"curves must be non-empty and agree on dimensionality, "
                         f"got points of shapes {q.shape[-2:]} and {s.shape[-2:]}")
    width = min(n, l)                            # cells on the longest diagonal

    def planes(curves: np.ndarray, index: np.ndarray) -> np.ndarray:
        # each curve a pair reads is laid out as planes once, then gathered
        # into pair order along the contiguous last axis; a run of
        # consecutive curves is sliced, which spares the heap a copy
        used, local = np.unique(index, return_inverse=True)
        if len(used) and used[-1] - used[0] == len(used) - 1:
            used = slice(used[0], used[-1] + 1)
        return np.ascontiguousarray(curves[used].transpose(2, 1, 0)).take(
            local, axis=2)

    rows = planes(q, pairs[0])
    cols = planes(s[:, ::-1], pairs[1])          # cols[:, r] is point l-1-r
    count = rows.shape[-1]
    squares = np.empty((d, width, count))

    def diagonal_cost(k: int, lo: int, hi: int) -> np.ndarray:
        sq = squares[:, :hi + 1 - lo]
        np.subtract(rows[:, lo:hi + 1], cols[:, l - 1 - k + lo:l - k + hi],
                    out=sq)
        np.multiply(sq, sq, out=sq)
        # the even planes add up in sq[0], the odd ones in sq[1]
        for i in (*range(2, d, 2), *range(3, d, 2)):
            np.add(sq[i % 2], sq[i], out=sq[i % 2])
        if d > 1:
            np.add(sq[0], sq[1], out=sq[0])
        return sq[0]

    acc = np.full((3, n + 1, count), np.inf)    # diagonal k lives at k % 3
    acc[0, 1] = diagonal_cost(0, 0, 0)[0]
    if path_lengths:
        length_type = np.int16 if n + l - 1 < 2 ** 15 else np.int32
        steps = np.zeros((3, n + 1, count), dtype=length_type)
        steps[0, 1] = 1
        wins = np.empty((2, width, count), dtype=bool)
        spare = np.empty((width, count), dtype=length_type)
    for k in range(1, n + l - 1):
        lo, hi = max(0, k - l + 1), min(n - 1, k)
        here, prev, back = k % 3, (k - 1) % 3, (k - 2) % 3
        diag, up, left = (acc[back, lo:hi + 1], acc[prev, lo:hi + 1],
                          acc[prev, lo + 1:hi + 2])
        best = acc[here, lo + 1:hi + 2]
        np.minimum(diag, up, out=best)
        np.minimum(best, left, out=best)
        if path_lengths:
            m = hi + 1 - lo
            up_wins, diag_wins, via_diag = wins[0, :m], wins[1, :m], spare[:m]
            np.less_equal(up, left, out=up_wins)
            np.less_equal(diag, best, out=diag_wins)
            # left + up_wins * (up - left), then the same against diag: a
            # masked copy branches on every cell and runs several times slower
            length, via_left = (steps[here, lo + 1:hi + 2],
                                steps[prev, lo + 1:hi + 2])
            np.subtract(steps[prev, lo:hi + 1], via_left, out=length)
            np.multiply(length, up_wins, out=length)
            np.add(length, via_left, out=length)
            np.subtract(steps[back, lo:hi + 1], length, out=via_diag)
            np.multiply(via_diag, diag_wins, out=via_diag)
            np.add(length, via_diag, out=length)
            length += 1
        np.add(best, diagonal_cost(k, lo, hi), out=best)
    last = (n + l - 2) % 3
    return acc[last, n].copy(), steps[last, n].copy() if path_lengths else None


def select_standard(curves: np.ndarray, sample_num: int, seed: int,
                    standard_machines: list[int] | None = None,
                    ) -> tuple[list[int], list[int]]:
    """The sampled machines and, of those, the machines whose curves are the
    standards.

    ``curves`` is the (machines, points, dims) array of
    ``build_resource_curves``, machine m at row m - 1. Samples
    ``sample_num`` machines without replacement (seeded); STANDARD_COUNT of
    the sampled machines are then drawn as the standards. Passing
    ``standard_machines`` pins the sample to those machine ids instead (all
    of them become standards; none may repeat). ``score_similarity`` takes
    the median DTW cost of the pairs inside the sample as the baseline.
    """
    count = len(curves)
    if not count:
        raise ValueError("no curves to sample from")
    if standard_machines is not None:
        missing = [m for m in standard_machines if not 1 <= m <= count]
        if missing:
            raise ValueError(f"standard machines not present: {missing}")
        repeated = sorted(m for m, n in Counter(standard_machines).items() if n > 1)
        if repeated:
            raise ValueError(f"standard machines repeated: {repeated}")
        return list(standard_machines), list(standard_machines)
    if sample_num < STANDARD_COUNT:   # the standards come from the sample
        raise ValueError(f"sample_num must be >= {STANDARD_COUNT}, got {sample_num}")
    if sample_num > count:
        raise ValueError(
            f"sample_num {sample_num} exceeds curve count {count}")
    rng = np.random.default_rng(seed)
    sample = np.sort(rng.choice(count, size=sample_num, replace=False))
    chosen = sample[np.sort(rng.choice(sample_num, size=STANDARD_COUNT,
                                       replace=False))]
    return (sample + 1).tolist(), (chosen + 1).tolist()


def score_similarity(curves: np.ndarray, standard_curves: np.ndarray,
                     standard_machines: list[int], sample: list[int],
                     normalized: bool = False) -> DtwReport:
    """Distance of every machine to every standard curve, and the baseline.

    ``curves`` is the (machines, points, dims) array of
    ``build_resource_curves``, machine m at row m - 1, and
    ``standard_curves`` the rows of ``standard_machines``. The standard
    value is the median raw DTW cost over the pairs inside ``sample``, the
    sampled machine ids of ``select_standard``.

    Flags machines whose mean distance exceeds THRESHOLD, and buckets mean
    distances into the bins of RANGE_EDGES. With ``normalized`` the
    sqrt/path-length form is used everywhere. A standard whose sorted
    distance profile sits further than SUITABILITY_GAP (in sup norm) from
    every other standard's profile is listed as unsuitable.
    """
    if len(standard_curves) == 0:
        raise ValueError("need at least one standard curve")
    if not len(curves):
        raise ValueError("no curves to score")
    if len(sample) < 2:
        raise ValueError("need at least 2 sampled curves for a pairwise median")
    machines, width = len(curves), len(standard_curves)
    grid = machines * width
    # one flat list of pairs: machine m against standard j at m * width + j,
    # then the sample pairs that hold no standard; a sample pair that holds
    # one reads its cost from the grid, swapped if the standard comes first
    column = {m: j for j, m in enumerate(standard_machines)}
    own: list[tuple[int, int]] = []
    at: list[int] = []               # each sample pair's place in the list
    for i, a in enumerate(sample):
        for b in sample[i + 1:]:
            if b in column:
                at.append((a - 1) * width + column[b])
            elif a in column:
                at.append((b - 1) * width + column[a])
            else:
                at.append(grid + len(own))
                own.append((a - 1, b - 1))
    sample_at = np.array(at)
    own_rows, own_cols = np.array(own, dtype=np.intp).reshape(-1, 2).T
    # the second curve of every pair: a standard, or an own pair's second
    opposite = np.concatenate((standard_curves, curves[own_cols]))
    # the pairs split evenly between as many sweeps as their points fill
    # PAIR_POINTS, rounded, so that no sweep is a small remainder
    total = grid + len(own)
    sweeps = min(total, max(1, round(total * curves.shape[1] / PAIR_POINTS)))
    bounds = [i * total // sweeps for i in range(sweeps + 1)]
    distances = np.empty((machines, width))
    flat = distances.reshape(-1)
    sample_cost = np.empty(len(sample_at))
    for lo, hi in zip(bounds, bounds[1:]):
        on_grid = np.arange(lo, min(hi, grid))
        beyond = np.arange(max(lo, grid), max(hi, grid)) - grid
        cost, steps = _dtw_batch(
            curves, opposite, (np.concatenate((on_grid // width, own_rows[beyond])),
                               np.concatenate((on_grid % width, width + beyond))),
            path_lengths=normalized)
        here = (lo <= sample_at) & (sample_at < hi)
        sample_cost[here] = cost[sample_at[here] - lo]
        flat[lo:lo + len(on_grid)] = (np.sqrt(cost) / steps if normalized
                                      else cost)[:len(on_grid)]
    mean_distance = distances.mean(axis=1)

    # slot 0 is below the first edge and is not a bin
    slots = np.searchsorted(RANGE_EDGES, mean_distance, side="right")
    histogram = np.bincount(slots, minlength=len(RANGE_EDGES) + 1)[1:].tolist()
    flagged = (np.flatnonzero(mean_distance > THRESHOLD) + 1).tolist()

    unsuitable: list[int] = []
    if len(standard_curves) >= 2:
        profiles = np.sort(distances, axis=0)
        for j in range(len(standard_curves)):
            gaps = [
                float(np.max(np.abs(profiles[:, j] - profiles[:, o])))
                for o in range(len(standard_curves)) if o != j
            ]
            if min(gaps) > SUITABILITY_GAP:
                unsuitable.append(standard_machines[j])

    return DtwReport(
        standard_value=median(sample_cost),
        standard_machines=list(standard_machines),
        distances=distances,
        mean_distance=mean_distance,
        histogram=histogram,
        flagged=flagged,
        normalized=normalized,
        unsuitable_standards=unsuitable,
    )


# ---------------------------------------------------------------------------
# artifact I/O

DISTANCES_HEADER_PREFIX = ("machine",)


def write_distances_csv(report: DtwReport, path: str) -> None:
    header = list(DISTANCES_HEADER_PREFIX)
    header += [f"dtw_std_{m}" for m in report.standard_machines]
    header.append("dtw_mean")
    with csv_file(path, header) as fh:
        fh.write(csv_lines(int_cells(np.arange(1, len(report.distances) + 1)),
                           *float_cells(report.distances.T),
                           float_cells(report.mean_distance)))


def write_flags_csv(report: DtwReport, path: str) -> None:
    machines = np.arange(1, len(report.mean_distance) + 1)
    with csv_file(path, ("machine", "dtw_mean", "flagged")) as fh:
        fh.write(csv_lines(int_cells(machines), float_cells(report.mean_distance),
                           int_cells(np.isin(machines, report.flagged))))


def write_histogram_json(report: DtwReport, path: str) -> None:
    bins = [{"lo": lo, "hi": hi, "count": count} for lo, hi, count
            in zip(RANGE_EDGES, (*RANGE_EDGES[1:], None), report.histogram)]
    write_json(path, {
        "standard_value": report.standard_value,
        "standard_machines": report.standard_machines,
        "threshold": THRESHOLD,
        "normalized": report.normalized,
        "bins": bins,
        "flagged": list(report.flagged),
        "flagged_count": len(report.flagged),
        "machine_count": len(report.mean_distance),
        "unsuitable_standards": report.unsuitable_standards,
    })
