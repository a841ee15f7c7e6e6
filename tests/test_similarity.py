import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from trace_insight import similarity
from trace_insight.aggregate import SeriesTable
from trace_insight.similarity import (
    PAIR_POINTS,
    RANGE_EDGES,
    THRESHOLD,
    _dtw_batch,
    build_resource_curves,
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


def as_curves(*curves):
    """(curves, points, dims) array of equal-length curves; scalar series are
    curves of 1-vectors."""
    points = np.array(curves, float)
    return points.reshape(*points.shape[:2], -1)


def elementwise(count):
    """The pairs (p, p) of two stacks of ``count`` curves."""
    return np.arange(count), np.arange(count)


def all_pairs(a, b):
    """Every pair of a stack of ``a`` curves and one of ``b``, row-major."""
    return divmod(np.arange(a * b), b)


def dtw_pair(q, s):
    """(distance, path length) of one pair of curves, a batch of one of the
    kernel."""
    distance, path_length = _dtw_batch(as_curves(q), as_curves(s), elementwise(1))
    return float(distance[0]), int(path_length[0])


def einsum_dtw(q, s):
    """The oracle recurrence over point costs summed the way einsum sums a
    contiguous axis, which is the kernel's order; full-precision points give
    other bits under any other order."""
    diff = np.asarray(q, float)[:, None, :] - np.asarray(s, float)[None, :, :]
    return oracles.dtw_over_costs(np.einsum("...k,...k->...", diff, diff))


# ---------------------------------------------------------------------------
# the distance itself


def test_dtw_known_scalar_answers():
    assert dtw_pair([1, 2, 3], [2, 3, 4]) == (2.0, 4)
    assert dtw_pair([0, 0], [1, 1]) == (2.0, 2)
    assert dtw_pair([5], [5]) == (0.0, 1)


def test_dtw_self_distance_is_exactly_zero():
    rng = np.random.default_rng(0)
    for _ in range(20):
        pts = rng.random((rng.integers(1, 10), 3))
        assert dtw_pair(pts, pts)[0] == 0.0


def test_dtw_rejects_mixed_dimensionality_and_empty_input():
    with pytest.raises(ValueError, match="dimension"):
        _dtw_batch(np.zeros((1, 3, 2)), np.zeros((1, 3, 3)), elementwise(1))
    with pytest.raises(ValueError, match="dimension"):
        _dtw_batch(np.zeros((1, 3, 3)), np.zeros((1, 3, 1)), elementwise(1))
    for q, s in ((0, 3), (3, 0)):
        with pytest.raises(ValueError, match="non-empty"):
            _dtw_batch(np.zeros((1, q, 3)), np.zeros((1, s, 3)), elementwise(1))


def test_report_rows_are_the_machines_in_curve_order():
    curves = sample_curves(count=5)
    report = score_similarity(curves, curves[[3, 1]], [4, 2], [1, 2])
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
    _, path_length = dtw_pair(q, s)
    assert max(len(q), len(s)) <= path_length <= len(q) + len(s) - 1


@given(curve_points, curve_points)
def test_dtw_is_symmetric(q, s):
    # the distance only: the tie rule prefers up, which is left once the
    # pair is swapped, so the path lengths may differ
    assert dtw_pair(q, s)[0] == dtw_pair(s, q)[0]


@given(curve_points, curve_points, st.floats(0.1, 3.0))
def test_dtw_scales_quadratically(q, s, c):
    base, _ = dtw_pair(q, s)
    scaled, _ = dtw_pair(c * q, c * s)
    assert scaled == pytest.approx(c * c * base, rel=1e-9, abs=1e-12)


@settings(max_examples=60)
@given(curve_points, curve_points)
def test_dtw_agrees_with_path_enumeration(q, s):
    got, _ = dtw_pair(q, s)
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
                distance, path_length = _dtw_batch(a, b, elementwise(len(a)))
                for p in range(len(a)):
                    want = oracles.dtw_recurrence(a[p], b[p])
                    assert (distance[p], path_length[p]) == want, (n, l, d, p)
                    assert dtw_pair(a[p], b[p]) == want


def test_path_length_steps_up_when_up_and_left_tie():
    # on this pair's optimal path up and left tie and the diagonal is
    # dearer: stepping up gives 5 cells, stepping left would give 6
    q = np.array([0, 1, 0, 0, 2]) / 8
    s = np.array([0, 2, 0]) / 8
    assert oracles.dtw_recurrence(q, s) == (0.078125, 5)
    assert dtw_pair(q, s) == (0.078125, 5)


def test_batched_long_curves_match_the_recurrence():
    rng = np.random.default_rng(11)
    q = dyadic_points(rng, (5, 40, 3), top=2)
    s = dyadic_points(rng, (3, 35, 3), top=2)
    distance, path_length = _dtw_batch(q, s, all_pairs(5, 3))
    assert distance.shape == path_length.shape == (15,)
    for i in range(5):
        for j in range(3):
            want = oracles.dtw_recurrence(q[i], s[j])
            assert (distance[3 * i + j], path_length[3 * i + j]) == want, (i, j)


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
    distance, path_length = _dtw_batch(q, s, elementwise(len(q)), path_lengths=True)
    bare, none = _dtw_batch(q, s, elementwise(len(q)), path_lengths=False)
    assert none is None
    assert bare.tobytes() == distance.tobytes()
    for p in range(len(q)):
        assert (distance[p], path_length[p]) == einsum_dtw(q[p], s[p])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_raw_cost_is_bit_symmetric(d):
    # score_similarity reads a sample pair whose first member is a standard
    # from the swapped machine x standard pair: the transposed DP takes the
    # minimum of the same three values and adds the same squared differences
    rng = np.random.default_rng(d)
    for n, l in ((7, 12), (12, 7), (1, 9), (30, 23)):
        for q, s in ((rng.random((40, n, d)) * 3 - 1, rng.random((40, l, d)) * 3 - 1),
                     (rng.integers(0, 3, (40, n, d)) * 1.0,
                      rng.integers(0, 3, (40, l, d)) * 1.0)):
            forward, _ = _dtw_batch(q, s, elementwise(40), path_lengths=False)
            backward, _ = _dtw_batch(s, q, elementwise(40), path_lengths=True)
            assert forward.tobytes() == backward.tobytes(), (n, l)


def test_path_lengths_are_int16_while_the_longest_path_fits():
    # a 1-point curve against an l-point one has a path of l cells
    for l, kind in ((2 ** 15 - 1, np.int16), (2 ** 15, np.int32)):
        _, path_length = _dtw_batch(np.zeros((1, 1, 1)), np.zeros((1, l, 1)),
                                    elementwise(1))
        assert path_length.dtype == kind
        assert path_length.tolist() == [l]


def test_plane_point_cost_matches_einsum_up_to_seven_dimensions():
    # the kernel sums squared planes in the order einsum sums a contiguous
    # axis; every pinned artifact digest rests on the two agreeing
    rng = np.random.default_rng(5)
    for d in range(1, 8):
        q = rng.random((4096, 1, d)) * 4 - 2
        s = rng.random((4096, 1, d)) * 4 - 2
        diff = q - s
        want = np.einsum("...k,...k->...", diff, diff)[:, 0]
        assert _dtw_batch(q, s, elementwise(4096), path_lengths=False)[0].tobytes() == \
            want.tobytes(), d


def test_normalized_distance_formula():
    assert dtw_pair([0, 0, 0], [2, 2, 2]) == (12.0, 3)
    report = score_similarity(as_curves([0, 0, 0], [0, 0, 0]), as_curves([2, 2, 2]),
                              [9], [1, 2], normalized=True)
    assert report.distances.tolist() == [[np.sqrt(12.0) / 3]] * 2


def test_three_dimensional_cost_keeps_its_summation_order():
    # (0.1^2 + 0.5^2) + 0.2^2 rounds one ulp above the left-to-right sum;
    # every pinned artifact digest was produced with the first order
    point = [0.1, 0.2, 0.5]
    assert (0.1 ** 2 + 0.2 ** 2) + 0.5 ** 2 == 0.3
    assert dtw_pair([point], [[0.0, 0.0, 0.0]]) == (0.30000000000000004, 1)
    machines = np.array([[point, point]] * 2)
    report = score_similarity(machines, np.zeros((1, 2, 3)), [9], [1, 2])
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
    sample, standards = select_standard(curves, sample_num=6, seed=9)
    rng = np.random.default_rng(9)
    drawn = np.sort(rng.choice(10, size=6, replace=False))
    chosen = drawn[np.sort(rng.choice(6, size=4, replace=False))]
    assert sample == (drawn + 1).tolist()
    assert standards == (chosen + 1).tolist()
    # other curves of as many machines give the same sample and standards
    assert select_standard(sample_curves(seed=3), sample_num=6, seed=9) == \
        (sample, standards)


def test_select_standard_with_pinned_machines():
    # the pinned machines are the whole sample, in the order given
    curves = sample_curves()
    assert select_standard(curves, sample_num=0, seed=0,
                           standard_machines=[9, 3, 5]) == ([9, 3, 5], [9, 3, 5])


def test_select_standard_on_identical_curves_gives_zero():
    curves = np.array([flat_curve(0.4, 0.5, 0.6)] * 8)
    sample, standards = select_standard(curves, sample_num=8, seed=1)
    assert len(sample) == 8 and len(standards) == 4
    report = score_similarity(curves, curves[[m - 1 for m in standards]],
                              standards, sample)
    assert report.standard_value == 0.0


def scored_against_the_oracle(curves, pin, seed, normalized, monkeypatch):
    """The report of analyze's call sequence on ``curves``, and the path
    lengths of every machine x standard pair that its sweeps computed."""
    sweeps = []

    def recorded(q, s, pairs, path_lengths=True):
        sweeps.append(_dtw_batch(q, s, pairs, path_lengths))
        return sweeps[-1]

    monkeypatch.setattr(similarity, "_dtw_batch", recorded)
    sample, standards = select_standard(curves, sample_num=8, seed=seed,
                                        standard_machines=pin)
    report = score_similarity(curves, curves[[m - 1 for m in standards]],
                              standards, sample, normalized=normalized)
    steps = None
    if normalized:
        grid = report.distances.size
        steps = np.concatenate([s for _, s in sweeps])[:grid].reshape(
            report.distances.shape)
    return sample, report, steps


@pytest.mark.parametrize("normalized", [False, True])
@pytest.mark.parametrize("pin", [None, [9, 2, 5]])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scores_and_standard_value_match_the_recurrence(
        monkeypatch, seed, pin, normalized):
    # dyadic, tie-heavy points: the oracle's left-to-right point sums are
    # exact, so its costs are the kernel's bits, and ties test the path rule
    curves = dyadic_points(np.random.default_rng(seed), (12, 9, 3), top=2)
    sample, report, steps = scored_against_the_oracle(
        curves, pin, seed, normalized, monkeypatch)
    if pin:
        assert sample == report.standard_machines == pin
    else:
        assert len(sample) == 8
        assert set(report.standard_machines) < set(sample)
    pairwise = [oracles.dtw_recurrence(curves[a - 1], curves[b - 1])[0]
                for a, b in itertools.combinations(sample, 2)]
    assert len(pairwise) == len(sample) * (len(sample) - 1) // 2
    assert report.standard_value == float(np.median(pairwise))
    for m in range(1, 13):
        for j, standard in enumerate(report.standard_machines):
            cost, length = oracles.dtw_recurrence(curves[m - 1], curves[standard - 1])
            want = np.sqrt(cost) / length if normalized else cost
            assert report.distances[m - 1, j] == want, (m, standard)
            if normalized:
                assert steps[m - 1, j] == length, (m, standard)


@pytest.mark.parametrize("pin", [None, [9, 2, 5]])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_full_precision_standard_value_is_the_bits_of_each_pair(
        monkeypatch, seed, pin):
    # every rounding shows here: a sample pair read from the swapped
    # machine x standard entry has the bits of the pair computed as drawn
    curves = np.random.default_rng(seed).random((12, 9, 3)) * 3 - 1
    sample, report, _ = scored_against_the_oracle(
        curves, pin, seed, False, monkeypatch)
    pairwise = [einsum_dtw(curves[a - 1], curves[b - 1])[0]
                for a, b in itertools.combinations(sample, 2)]
    assert report.standard_value == float(np.median(pairwise))
    for m in range(1, 13):
        for j, standard in enumerate(report.standard_machines):
            want, _ = einsum_dtw(curves[m - 1], curves[standard - 1])
            assert report.distances[m - 1, j] == want, (m, standard)


def test_select_standard_input_validation():
    curves = sample_curves(count=4)
    # the four standards are drawn from the sample
    with pytest.raises(ValueError, match="sample_num must be >= 4, got 3"):
        select_standard(curves, sample_num=3, seed=0)
    with pytest.raises(ValueError, match="exceeds"):
        select_standard(curves, sample_num=9, seed=0)
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
    report = score_similarity(machines, standards, ids, [1, 2])
    # each machine: distances (0, 0, 9), mean exactly 3
    assert THRESHOLD == 3.0
    assert report.mean_distance == pytest.approx([3.0] * 5)
    assert report.flagged == []               # 3 is not strictly above 3
    assert report.histogram == [0, 0, 0, 5, 0]
    assert report.unsuitable_standards == [103]

    # 0.1 off in each dimension: distances (0.03, 0.03, 9.63), mean 3.23
    above = score_similarity(machines - 0.1, standards, ids, [1, 2])
    assert above.flagged == [1, 2, 3, 4, 5]


def test_score_similarity_identical_everything():
    machines = np.array([flat_curve(0.3, 0.4, 0.5)] * 3)
    report = score_similarity(machines, machines[:2], [1, 2], [1, 2, 3])
    assert report.standard_value == 0.0
    assert report.mean_distance == pytest.approx([0.0] * 3)
    assert report.histogram == [3, 0, 0, 0, 0]
    assert report.flagged == []
    assert report.unsuitable_standards == []


def test_score_similarity_normalized_uses_the_sqrt_form():
    machines = np.array([flat_curve(0.0, length=3)] * 2)
    standards = flat_curve(2.0, length=3)[None]
    plain = score_similarity(machines, standards, [9], [1, 2])
    normed = score_similarity(machines, standards, [9], [1, 2], normalized=True)
    want = np.sqrt(plain.distances[0, 0]) / 3.0
    assert normed.distances[0, 0] == pytest.approx(want)
    assert normed.normalized is True


@st.composite
def machines_and_standards(draw):
    # the standards are curves of machines, so of their length, and two
    # machines make the smallest sample
    length = draw(st.integers(1, 8))

    def curves(count):
        return np.array([draw(st.lists(point, min_size=length, max_size=length))
                         for _ in range(count)], float)

    return curves(draw(st.integers(2, 5))), curves(draw(st.integers(1, 3)))


@settings(max_examples=50)
@given(machines_and_standards())
def test_batch_scores_equal_single_pair_scores(curves):
    machines, standards = curves
    ids = list(range(101, 101 + len(standards)))
    plain = score_similarity(machines, standards, ids, [1, 2])
    normed = score_similarity(machines, standards, ids, [1, 2], normalized=True)
    assert plain.standard_value == normed.standard_value == \
        einsum_dtw(machines[0], machines[1])[0]
    for i, curve in enumerate(machines):
        for j, std in enumerate(standards):
            distance, path_length = einsum_dtw(curve, std)
            assert plain.distances[i, j] == distance
            assert normed.distances[i, j] == np.sqrt(distance) / path_length


# 6 machines against 3 standards of 5 points, then the 3 pairs of the
# sample (4, 5, 6), which holds no standard: 21 pairs, 105 points in all
@pytest.mark.parametrize("normalized", [False, True])
@pytest.mark.parametrize("pair_points, chunks", [
    (35, [7, 7, 7]),          # the last sweep holds grid and sample pairs
    (70, [10, 11]),           # 1.5 sweeps' worth rounds to 2, unequal
    (1, [1] * 21),            # less than one pair's points: one per sweep
    (105, [21]),              # all pairs fill one sweep exactly
    (PAIR_POINTS, [21]),      # fewer pairs than one sweep holds
])
def test_chunked_scoring_gives_the_bits_of_one_whole_sweep(
        monkeypatch, normalized, pair_points, chunks):
    rng = np.random.default_rng(3)
    machines, standards = rng.random((6, 5, 3)), rng.random((3, 5, 3))
    whole, whole_steps = (x.reshape(6, 3) for x in
                          _dtw_batch(machines, standards, all_pairs(6, 3)))
    sample_pairs, _ = _dtw_batch(machines, machines, ([3, 3, 4], [4, 5, 5]),
                                 path_lengths=False)
    sweeps = []

    def recorded(q, s, pairs, path_lengths=True):
        sweeps.append(_dtw_batch(q, s, pairs, path_lengths))
        return sweeps[-1]

    monkeypatch.setattr(similarity, "PAIR_POINTS", pair_points)
    monkeypatch.setattr(similarity, "_dtw_batch", recorded)
    report = score_similarity(machines, standards, [101, 102, 103], [4, 5, 6],
                              normalized=normalized)
    assert [len(cost) for cost, _ in sweeps] == chunks
    cost = np.concatenate([c for c, _ in sweeps])
    assert cost[:18].tobytes() == whole.tobytes()
    assert cost[18:].tobytes() == sample_pairs.tobytes()
    assert report.standard_value == np.median(sample_pairs)
    if normalized:
        steps = np.concatenate([length for _, length in sweeps])
        assert steps[:18].tobytes() == whole_steps.tobytes()
        whole = np.sqrt(whole) / whole_steps
    else:
        assert [length for _, length in sweeps] == [None] * len(chunks)
    assert report.distances.tobytes() == whole.tobytes()
    assert report.mean_distance.tobytes() == whole.mean(axis=1).tobytes()


def test_sample_pairs_with_a_standard_take_no_pair_of_their_own(monkeypatch):
    # 4 of the 8 sampled machines are standards: 6 of the 28 sample pairs
    # hold none, and the other 22 are read from the machine x standard costs
    rng = np.random.default_rng(4)
    curves = rng.random((10, 5, 3))
    counted = []

    def recorded(q, s, pairs, path_lengths=True):
        counted.append(len(pairs[0]))
        return _dtw_batch(q, s, pairs, path_lengths)

    monkeypatch.setattr(similarity, "_dtw_batch", recorded)
    sample, standards = [1, 2, 4, 5, 6, 8, 9, 10], [2, 5, 8, 10]
    score_similarity(curves, curves[[m - 1 for m in standards]], standards, sample)
    assert counted == [10 * 4 + 6]
    counted.clear()
    # pinned standards are the whole sample: no pair beyond the grid
    score_similarity(curves, curves[[8, 1, 4]], [9, 2, 5], [9, 2, 5])
    assert counted == [10 * 3]


def test_score_similarity_needs_curves_to_score():
    with pytest.raises(ValueError, match="no curves to score"):
        score_similarity(np.empty((0, 5, 3)), np.ones((2, 5, 3)), [1, 2], [1, 2])
    # one sampled machine has no pairwise median
    with pytest.raises(ValueError, match="at least 2 sampled curves"):
        score_similarity(np.ones((2, 5, 3)), np.ones((2, 5, 3)), [1, 2], [1])


def test_histogram_edges_are_configurable(tmp_path):
    # the edges are fixed at 0, 1, 2, 3, 5, and a mean on an edge counts in
    # the bin that edge opens: distances 1, 3 and 5 are exact
    machines = np.array([flat_curve(0.0, length=1), flat_curve(1.0, length=1),
                         flat_curve(1.0, 1.0, 1.0, length=1),
                         flat_curve(2.0, 1.0, length=1)])
    report = score_similarity(machines, flat_curve(0.0, length=1)[None], [9],
                              [1, 2])
    assert report.mean_distance.tolist() == [0.0, 1.0, 3.0, 5.0]
    assert report.histogram == [1, 1, 0, 1, 1]
    path = tmp_path / "hist.json"
    write_histogram_json(report, str(path))
    bins = json.loads(path.read_text())["bins"]
    assert [(b["lo"], b["hi"], b["count"]) for b in bins] == [
        (0.0, 1.0, 1), (1.0, 2.0, 1), (2.0, 3.0, 0), (3.0, 5.0, 1), (5.0, None, 1)]


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
    machines = np.array([flat_curve(m, length=2) for m in range(1, 4)])
    # sample pair costs 2 * 1, 2 * 4 and 2 * 1
    report = score_similarity(machines, machines[:2], [1, 2], [1, 2, 3])
    assert report.standard_value == 2.0

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
    assert [b["lo"] for b in data["bins"]] == list(RANGE_EDGES)
    assert [b["hi"] for b in data["bins"]] == [*RANGE_EDGES[1:], None]
    assert [b["count"] for b in data["bins"]] == report.histogram
    assert sum(b["count"] for b in data["bins"]) == len(machines)
    assert report.flagged == [3]   # mean distances 1, 1 and 5
    del data["bins"]
    assert data == {"standard_value": 2.0, "standard_machines": [1, 2],
                    "threshold": 3.0, "normalized": False, "flagged": [3],
                    "flagged_count": 1, "machine_count": 3,
                    "unsuitable_standards": report.unsuitable_standards}
