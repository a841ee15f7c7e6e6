import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from trace_insight.aggregate import SeriesTable
from trace_insight.similarity import (
    RANGE_EDGES,
    _dtw_batch,
    build_resource_curves,
    dtw_distance,
    histogram_dict,
    normalized_distance,
    score_similarity,
    select_standard,
    write_distances_csv,
    write_flags_csv,
    write_histogram_json,
)

point = st.tuples(st.floats(0, 1.5), st.floats(0, 1.5), st.floats(0, 1.5))
curve_points = st.lists(point, min_size=1, max_size=8).map(
    lambda pts: np.array(pts, float))


def flat_curve(cpu, mem=0.0, disk=0.0, length=4):
    return np.tile([cpu, mem, disk], (length, 1))


def einsum_dtw(q, s):
    """The oracle recurrence over point costs summed the way einsum sums a
    contiguous axis, which is the kernel's order; full-precision points give
    other bits under any other order."""
    diff = np.asarray(q, float)[:, None, :] - np.asarray(s, float)[None, :, :]
    return oracles.dtw_over_costs(np.einsum("...k,...k->...", diff, diff))


# ---------------------------------------------------------------------------
# the distance itself


def test_dtw_known_scalar_answers():
    assert dtw_distance([1, 2, 3], [2, 3, 4]).distance == 2.0
    assert dtw_distance([0, 0], [1, 1]).distance == 2.0
    assert dtw_distance([5], [5]).distance == 0.0


def test_dtw_self_distance_is_exactly_zero():
    rng = np.random.default_rng(0)
    for _ in range(20):
        pts = rng.random((rng.integers(1, 10), 3))
        assert dtw_distance(pts, pts).distance == 0.0


def test_dtw_rejects_mixed_dimensionality_and_empty_input():
    with pytest.raises(ValueError, match="dimension"):
        dtw_distance(np.zeros((3, 2)), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        dtw_distance(np.zeros((0, 3)), np.zeros((3, 3)))


def test_report_rows_are_the_machines_in_curve_order():
    curves = sample_curves(count=5)
    report = score_similarity(curves, curves[[3, 1]], [4, 2])
    assert report.distances.shape == (5, 2)
    assert report.mean_distance.shape == (5,)
    assert report.standard_machines == [4, 2]
    assert report.distances[3, 0] == report.distances[1, 1] == 0.0
    for m in range(1, 6):   # machine m is row m - 1
        for j, standard in enumerate(report.standard_machines):
            want, _ = einsum_dtw(curves[m - 1], curves[standard - 1])
            assert report.distances[m - 1, j] == want, (m, standard)


@given(curve_points, curve_points)
def test_dtw_path_length_is_bounded(q, s):
    result = dtw_distance(q, s)
    assert max(len(q), len(s)) <= result.path_length <= len(q) + len(s) - 1


@given(curve_points, curve_points)
def test_dtw_is_symmetric(q, s):
    assert dtw_distance(q, s).distance == dtw_distance(s, q).distance


@given(curve_points, curve_points, st.floats(0.1, 3.0))
def test_dtw_scales_quadratically(q, s, c):
    base = dtw_distance(q, s).distance
    scaled = dtw_distance(c * q, c * s).distance
    assert scaled == pytest.approx(c * c * base, rel=1e-9, abs=1e-12)


@settings(max_examples=60)
@given(curve_points, curve_points)
def test_dtw_agrees_with_path_enumeration(q, s):
    got = dtw_distance(q, s).distance
    want = oracles.brute_force_dtw(q, s)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


DTW_SHAPES = [(1, 1), (1, 7), (16, 16), (16, 17), (30, 23), (40, 35)]


def dyadic_points(rng, shape, top=8):
    # multiples of 1/8 keep every sum exact; a small top makes ties common
    return rng.integers(0, top + 1, shape) / 8


def test_kernel_matches_the_recurrence_on_every_shape():
    rng = np.random.default_rng(3)
    for n, l in DTW_SHAPES:
        for d, top in ((1, 2), (1, 8), (3, 1), (3, 8)):
            q = dyadic_points(rng, (6, n, d), top)
            s = dyadic_points(rng, (6, l, d), top)
            for a, b in ((q, s), (s, q)):
                distance, path_length = _dtw_batch(a, b)
                for p in range(len(a)):
                    want = oracles.dtw_recurrence(a[p], b[p])
                    single = dtw_distance(a[p], b[p])
                    assert (distance[p], path_length[p]) == want, (n, l, d, p)
                    assert (single.distance, single.path_length) == want


def test_path_length_steps_up_when_up_and_left_tie():
    # on this pair's optimal path up and left tie and the diagonal is
    # dearer: stepping up gives 5 cells, stepping left would give 6
    q = np.array([0, 1, 0, 0, 2]) / 8
    s = np.array([0, 2, 0]) / 8
    assert oracles.dtw_recurrence(q, s) == (0.078125, 5)
    assert dtw_distance(q, s).path_length == 5
    assert _dtw_batch(q[None, :, None], s[None, :, None])[1].tolist() == [5]


def test_batched_long_curves_match_the_recurrence():
    rng = np.random.default_rng(11)
    q = dyadic_points(rng, (5, 1, 40, 3), top=2)
    s = dyadic_points(rng, (1, 3, 35, 3), top=2)
    distance, path_length = _dtw_batch(q, s)   # pair axes broadcast to (5, 3)
    assert distance.shape == path_length.shape == (5, 3)
    for i in range(5):
        for j in range(3):
            want = oracles.dtw_recurrence(q[i, 0], s[0, j])
            assert (distance[i, j], path_length[i, j]) == want, (i, j)


@st.composite
def float_curve_pairs(draw):
    # full-precision floats, so no sum is exact and every rounding shows
    d = draw(st.integers(1, 7))
    n = draw(st.integers(1, 12))
    l = draw(st.integers(1, 12).filter(lambda l: l != n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pairs = draw(st.integers(1, 4))
    return (rng.random((pairs, n, d)) * 3 - 1,
            rng.random((pairs, l, d)) * 3 - 1)


@settings(max_examples=60)
@given(float_curve_pairs())
def test_skipping_path_lengths_leaves_distances_bit_identical(curves):
    q, s = curves
    distance, path_length = _dtw_batch(q, s, path_lengths=True)
    bare, none = _dtw_batch(q, s, path_lengths=False)
    assert none is None
    assert bare.tobytes() == distance.tobytes()
    for p in range(len(q)):
        assert (distance[p], path_length[p]) == einsum_dtw(q[p], s[p])


def test_plane_point_cost_matches_einsum_up_to_seven_dimensions():
    # the kernel sums squared planes in the order einsum sums a contiguous
    # axis; every pinned artifact digest rests on the two agreeing
    rng = np.random.default_rng(5)
    for d in range(1, 8):
        q = rng.random((4096, 1, d)) * 4 - 2
        s = rng.random((4096, 1, d)) * 4 - 2
        diff = q - s
        want = np.einsum("...k,...k->...", diff, diff)[:, 0]
        assert _dtw_batch(q, s, path_lengths=False)[0].tobytes() == \
            want.tobytes(), d


def test_normalized_distance_formula():
    result = dtw_distance([0, 0, 0], [2, 2, 2])
    assert result.distance == 12.0
    assert normalized_distance(result) == pytest.approx(
        np.sqrt(12.0) / result.path_length)


def test_three_dimensional_cost_keeps_its_summation_order():
    # (0.1^2 + 0.5^2) + 0.2^2 rounds one ulp above the left-to-right sum;
    # every pinned artifact digest was produced with the first order
    point = [0.1, 0.2, 0.5]
    assert (0.1 ** 2 + 0.2 ** 2) + 0.5 ** 2 == 0.3
    assert dtw_distance([point], [[0.0, 0.0, 0.0]]).distance == 0.30000000000000004
    machines = np.array([[point, point]] * 2)
    report = score_similarity(machines, np.zeros((1, 2, 3)), [9])
    assert report.distances.tolist() == [[0.6000000000000001]] * 2


# ---------------------------------------------------------------------------
# standard selection# ---------------------------------------------------------------------------
# standard selection


def sample_curves(count=10, seed=2):
    """Random 6-point curves of machines 1..count, machine m at row m - 1."""
    return np.random.default_rng(seed).random((count, 6, 3))


def test_select_standard_is_deterministic_per_seed():
    curves = sample_curves()
    first = select_standard(curves, sample_num=6, seed=9)
    second = select_standard(curves, sample_num=6, seed=9)
    assert first == second
    other = select_standard(curves, sample_num=6, seed=10)
    assert other[1] != first[1]


def test_select_standard_draws_machines_from_the_seed_alone():
    curves = sample_curves()
    value, standards = select_standard(curves, sample_num=6, seed=9)
    rng = np.random.default_rng(9)
    sample = np.sort(rng.choice(10, size=6, replace=False))
    chosen = sample[np.sort(rng.choice(6, size=4, replace=False))]
    assert standards == (chosen + 1).tolist()
    # other curves of as many machines give the same standards
    assert select_standard(sample_curves(seed=3), sample_num=6, seed=9)[1] == standards
    pairwise = [oracles.brute_force_dtw(curves[a], curves[b])
                for a, b in itertools.combinations(sample, 2)]
    assert value == pytest.approx(np.median(pairwise), rel=1e-12)


def test_select_standard_on_identical_curves_gives_zero():
    curves = np.array([flat_curve(0.4, 0.5, 0.6)] * 8)
    value, standards = select_standard(curves, sample_num=8, seed=1)
    assert value == 0.0
    assert len(standards) == 4


def test_select_standard_with_pinned_machines():
    curves = sample_curves()
    value, standards = select_standard(curves, sample_num=0, seed=0,
                                       standard_machines=[3, 5, 7, 9])
    assert standards == [3, 5, 7, 9]
    pairwise = [oracles.brute_force_dtw(curves[a - 1], curves[b - 1])
                for a, b in itertools.combinations(standards, 2)]
    assert value == pytest.approx(np.median(pairwise), rel=1e-12)


def test_select_standard_input_validation():
    curves = sample_curves(count=4)
    with pytest.raises(ValueError, match="sample_num"):
        select_standard(curves, sample_num=1, seed=0)
    with pytest.raises(ValueError, match="exceeds"):
        select_standard(curves, sample_num=9, seed=0)
    with pytest.raises(ValueError, match="standard_count"):
        select_standard(curves, sample_num=4, seed=0, standard_count=5)
    with pytest.raises(ValueError, match=r"not present: \[99, 0\]"):
        select_standard(curves, sample_num=4, seed=0,
                        standard_machines=[99, 2, 0])
    with pytest.raises(ValueError, match="no curves"):
        select_standard(np.empty((0, 6, 3)), sample_num=2, seed=0)
    # a repeated curve would count twice in the pairwise median
    with pytest.raises(ValueError, match=r"repeated: \[2\]"):
        select_standard(curves, sample_num=0, seed=0, standard_machines=[2, 2, 3])


# ---------------------------------------------------------------------------
# scoring and reporting


def test_score_similarity_bins_and_strict_threshold():
    machines = np.array([flat_curve(0.0, length=1)] * 5)
    standards = np.array([flat_curve(0.0, length=1), flat_curve(0.0, length=1),
                          flat_curve(3.0, length=1)])
    ids = [101, 102, 103]
    report = score_similarity(machines, standards, ids, standard_value=1.0)
    # each machine: distances (0, 0, 9), mean exactly 3
    assert report.mean_distance == pytest.approx([3.0] * 5)
    assert report.flagged == []               # 3 is not strictly above 3
    assert report.histogram == [0, 0, 0, 5, 0]
    assert report.unsuitable_standards == [103]

    lower = score_similarity(machines, standards, ids, threshold=2.9)
    assert lower.flagged == [1, 2, 3, 4, 5]


def test_score_similarity_identical_everything():
    machines = np.array([flat_curve(0.3, 0.4, 0.5)] * 3)
    report = score_similarity(machines, machines[:2], [1, 2])
    assert report.mean_distance == pytest.approx([0.0] * 3)
    assert report.histogram == [3, 0, 0, 0, 0]
    assert report.flagged == []
    assert report.unsuitable_standards == []


def test_score_similarity_normalized_uses_the_sqrt_form():
    machines = [flat_curve(0.0, length=3)]
    standards = [flat_curve(2.0, length=3)]
    plain = score_similarity(machines, standards, [9])
    normed = score_similarity(machines, standards, [9], normalized=True,
                              threshold=0.5)
    want = np.sqrt(plain.distances[0, 0]) / 3.0
    assert normed.distances[0, 0] == pytest.approx(want)
    assert normed.normalized is True


@st.composite
def machines_and_standards(draw):
    def curves(count):
        length = draw(st.integers(1, 8))
        return np.array([draw(st.lists(point, min_size=length, max_size=length))
                         for _ in range(count)], float)

    return curves(draw(st.integers(1, 4))), curves(draw(st.integers(1, 3)))


@settings(max_examples=50)
@given(machines_and_standards())
def test_batch_scores_equal_single_pair_scores(curves):
    machines, standards = curves
    ids = list(range(101, 101 + len(standards)))
    plain = score_similarity(machines, standards, ids)
    normed = score_similarity(machines, standards, ids, normalized=True)
    for i, curve in enumerate(machines):
        for j, std in enumerate(standards):
            distance, path_length = einsum_dtw(curve, std)
            assert plain.distances[i, j] == distance
            assert normed.distances[i, j] == np.sqrt(distance) / path_length


def test_batch_callers_reject_curves_of_different_lengths():
    ragged = [np.zeros((4, 3)), np.zeros((5, 3))]
    with pytest.raises(ValueError, match="differ in length"):
        score_similarity(ragged, ragged[:1], [1])
    with pytest.raises(ValueError, match="differ in length"):
        score_similarity(ragged[:1], ragged, [1, 2])
    with pytest.raises(ValueError, match="differ in length"):
        select_standard(ragged, sample_num=2, seed=0, standard_count=1)
    # a single pair may still differ in length
    assert dtw_distance(ragged[0], ragged[1]).distance == 0.0


def test_histogram_edges_are_configurable():
    # the edges are fixed at 0, 1, 2, 3, 5, and a mean on an edge counts in
    # the bin that edge opens: distances 1, 3 and 5 are exact
    machines = [flat_curve(0.0, length=1), flat_curve(1.0, length=1),
                flat_curve(1.0, 1.0, 1.0, length=1),
                flat_curve(2.0, 1.0, length=1)]
    report = score_similarity(machines, [flat_curve(0.0, length=1)], [9])
    assert report.mean_distance.tolist() == [0.0, 1.0, 3.0, 5.0]
    assert report.histogram == [1, 1, 0, 1, 1]
    assert [(b["lo"], b["hi"]) for b in histogram_dict(report)["bins"]] == [
        (0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 5.0), (5.0, None)]


def test_build_resource_curves_stacks_cpu_mem_disk():
    zeros = np.zeros((2, 2))
    table = SeriesTable(*([zeros] * 10))
    table.server_cpu = np.array([[0.1, 0.2], [0.7, 0.8]])
    table.server_mem = np.array([[0.3, 0.4], [0.9, 1.0]])
    table.server_disk = np.array([[0.5, 0.6], [1.1, 1.2]])
    curves = build_resource_curves(table)
    assert curves.tolist() == [[[0.1, 0.3, 0.5], [0.2, 0.4, 0.6]],
                               [[0.7, 0.9, 1.1], [0.8, 1.0, 1.2]]]
    # one machine-major block, not a view per signal
    assert curves.flags.c_contiguous



def test_artifact_writers(tmp_path):
    machines = np.array([flat_curve(0.1 * m, length=2) for m in range(1, 4)])
    report = score_similarity(machines, machines[:2], [1, 2], standard_value=0.5)

    dpath = tmp_path / "distances.csv"
    write_distances_csv(report, str(dpath))
    lines = dpath.read_text().splitlines()
    assert lines[0] == "machine,dtw_std_1,dtw_std_2,dtw_mean"
    assert len(lines) == 4

    fpath = tmp_path / "flags.csv"
    write_flags_csv(report, str(fpath))
    assert fpath.read_text().splitlines()[0] == "machine,dtw_mean,flagged"

    jpath = tmp_path / "hist.json"
    write_histogram_json(report, str(jpath))
    data = json.loads(jpath.read_text())
    assert data == histogram_dict(report)
    assert [b["lo"] for b in data["bins"]] == list(RANGE_EDGES)
    assert data["bins"][-1]["hi"] is None
    assert data["flagged"] == report.flagged
    assert sum(b["count"] for b in data["bins"]) == len(machines)
