import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from trace_insight import anomaly
from trace_insight.aggregate import SeriesTable
from trace_insight.anomaly import (
    CauseTag,
    EULER_GAMMA,
    FeatureMode,
    _SplitDraws,
    average_path_length,
    build_feature_matrix,
    diagnose,
    iforest_fit,
    iforest_scores,
    population_stats,
    score_machines,
    write_anomaly_json,
    write_score_distribution_csv,
    write_scores_csv,
)
from trace_insight.trace_model import (
    IntervalGrid,
    MachineEventType,
)

GRID = IntervalGrid(1000, 1400, 100)


def table_for(cpus):
    """Series table of machines 1..len(cpus), machine m at a constant cpu of
    cpus[m - 1], 2 containers and 3 batch instances throughout."""
    shape = (len(cpus), GRID.interval_count)
    cpu = np.asarray(cpus, float)[:, None] * np.ones(shape)
    zeros = np.zeros(shape)
    return SeriesTable(
        server_cpu=cpu,
        server_mem=cpu * 2,
        server_disk=np.full(shape, 0.4),
        container_count=np.full(shape, 2.0),
        container_cpu=zeros,
        container_mem=zeros,
        batch_count=np.full(shape, 3.0),
        batch_cpu_cores=zeros,
        batch_cpu=zeros,
        batch_mem=zeros,
    )


def counts(batch=(3,) * 4, containers=(2,) * 4):
    """One machine's batch and container count rows."""
    return np.asarray(batch, float), np.asarray(containers, float)


def softerror(machine, ts):
    return (ts, machine, MachineEventType.SOFT_ERROR, "agent check failed",
            0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# path-length normalizer


def test_average_path_length_small_cases():
    assert average_path_length(0) == 0.0
    assert average_path_length(1) == 0.0
    assert average_path_length(2) == 1.0


def test_average_path_length_formula():
    n = 256
    want = 2.0 * (math.log(n - 1) + EULER_GAMMA) - 2.0 * (n - 1) / n
    assert average_path_length(n) == pytest.approx(want)
    # grows roughly like log n
    assert average_path_length(1024) > average_path_length(256)


# ---------------------------------------------------------------------------
# feature construction


def test_feature_matrix_per_machine_mean():
    matrix = build_feature_matrix(table_for([0.25, 0.4]))
    assert matrix.shape == (2, 5)
    assert matrix[0].tolist() == [0.25, 0.5, 0.4, 3.0, 2.0]
    assert matrix[1].tolist() == [0.4, 0.8, 0.4, 3.0, 2.0]


def test_feature_matrix_per_interval_keeps_rows_contiguous():
    n = GRID.interval_count
    matrix = build_feature_matrix(table_for([0.2, 0.3]), FeatureMode.PER_INTERVAL)
    assert matrix.shape == (2 * n, 5)
    # machine m's intervals are block m - 1, in interval order
    assert matrix[:n].tolist() == [[0.2, 0.4, 0.4, 3.0, 2.0]] * n
    assert matrix[n:].tolist() == [[0.3, 0.6, 0.4, 3.0, 2.0]] * n


def test_feature_means_add_the_intervals_in_order():
    # the interval axis of the C-ordered feature cube is not contiguous, so
    # a machine's mean adds one interval at a time rather than pairwise
    rng = np.random.default_rng(5)
    n = 143
    table = SeriesTable(*(
        rng.random((6, n)) for _ in dataclasses.fields(SeriesTable)))
    matrix = build_feature_matrix(table)
    signals = ("server_cpu", "server_mem", "server_disk",
               "batch_count", "container_count")
    assert matrix.tolist() == [
        [sum(getattr(table, name)[m - 1].tolist()) / n for name in signals]
        for m in range(1, 7)]
    stats = population_stats(table)
    assert stats.container_count_median == float(np.median(
        [np.mean(row) for row in table.container_count]))
    assert stats.batch_count_median == float(np.median(
        [np.mean(row) for row in table.batch_count]))


def test_feature_means_a_block_of_machines_at_a_time_are_the_cubes(monkeypatch):
    # numpy's reduction order may follow the shape, so the means of each
    # block, a ragged last block of one machine included, are held to those
    # of the whole (machines, intervals, features) cube bit for bit
    rng = np.random.default_rng(11)
    table = SeriesTable(*(rng.random((9, 143)) * 10.0 ** rng.integers(-3, 4)
                          for _ in dataclasses.fields(SeriesTable)))
    cube = np.stack([table.server_cpu, table.server_mem, table.server_disk,
                     table.batch_count, table.container_count], axis=-1)
    want = cube.mean(axis=1)
    for machines in (1, 4, 8, 9, anomaly.MEAN_MACHINES):
        monkeypatch.setattr(anomaly, "MEAN_MACHINES", machines)
        assert build_feature_matrix(table).tobytes() == want.tobytes(), machines


# ---------------------------------------------------------------------------
# forest behaviour


def blob_with_outlier(n=64, seed=1):
    rng = np.random.default_rng(seed)
    matrix = rng.normal(0.3, 0.02, size=(n, 5))
    matrix[-1] = 4.0
    return matrix


def test_feature_scaling_leaves_every_score_unchanged():
    # a split value is drawn uniformly in its feature's [min, max], so it
    # moves with a scaled feature; a power of two per feature scales
    # exactly in floating point, so the scores must match bit for bit
    matrix = blob_with_outlier()
    scaled = matrix * np.array([2.0 ** 10, 2.0 ** -7, 1.0, 2.0 ** 3, 2.0 ** -20])
    assert np.array_equal(iforest_scores(iforest_fit(matrix, seed=3), matrix),
                          iforest_scores(iforest_fit(scaled, seed=3), scaled))


def test_fit_validates_inputs():
    with pytest.raises(ValueError, match="2 rows"):
        iforest_fit(np.zeros((1, 3)))
    with pytest.raises(ValueError, match="1 column"):
        iforest_fit(np.zeros((4, 0)))
    with pytest.raises(ValueError, match="tree_count"):
        iforest_fit(np.zeros((4, 3)), tree_count=0)
    with pytest.raises(ValueError, match="subsample"):
        iforest_fit(np.zeros((4, 3)), subsample=1)


def test_subsample_clamps_to_the_data():
    matrix = blob_with_outlier(n=40)
    model = iforest_fit(matrix, subsample=256, seed=0)
    assert model.subsample_size == 40
    assert model.depth_limit == math.ceil(math.log2(40))


def test_forest_is_deterministic_in_the_seed():
    matrix = blob_with_outlier()
    a = iforest_scores(iforest_fit(matrix, seed=5), matrix)
    b = iforest_scores(iforest_fit(matrix, seed=5), matrix)
    assert np.array_equal(a, b)


def _forest_case(data):
    """A training matrix, forest settings and the rows to score: the training
    rows, fresh rows, and training rows moved onto split values."""
    rows = data.draw(st.integers(2, 300), label="rows")
    dims = data.draw(st.integers(1, 5), label="dims")
    tree_count = data.draw(st.integers(1, 30), label="tree_count")
    subsample = data.draw(st.integers(2, 300), label="subsample")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    levels = data.draw(st.sampled_from([0, 1, 2, 4]), label="integer levels")
    rng = np.random.default_rng(seed)

    def draw_rows(count):
        if levels:   # ties, duplicate rows and, at one level, constant columns
            return rng.integers(0, levels, size=(count, dims)).astype(float)
        return rng.normal(size=(count, dims))

    train = draw_rows(rows)
    return train, draw_rows(40), tree_count, subsample, seed


@settings(max_examples=60)
@given(st.data())
def test_flat_forest_matches_the_recursive_oracle(data):
    train, fresh, tree_count, subsample, seed = _forest_case(data)
    model = iforest_fit(train, tree_count=tree_count, subsample=subsample,
                        seed=seed)
    assert model.tree_count == tree_count
    splits = [(int(d), float(v)) for d, v in zip(model.dim, model.value)
              if d >= 0][:40]
    on_split = train[np.arange(len(splits)) % len(train)].copy()
    for i, (dim, value) in enumerate(splits):
        on_split[i, dim] = value
    rows = np.vstack([train, fresh, on_split])
    want = oracles.isolation_forest_scores(train, rows, tree_count=tree_count,
                                           subsample=subsample, seed=seed)
    assert iforest_scores(model, rows).tobytes() == want.tobytes()


def tree_arrays(model, root):
    """``(dim, value, left, right, path)`` of the tree at ``root`` in the
    model's node table, its nodes renumbered in pre-order with the left
    subtree first and its links read by the rule: left at ``2*i + 1``, right
    at ``2*i``."""
    nodes, stack = [], [root]
    while stack:
        node = stack.pop()
        assert len(nodes) < len(model.dim), f"tree {root}'s links cycle"
        nodes.append(node)
        left, right = model.links[2 * node + 1], model.links[2 * node]
        if left != node:
            stack += [right, left]
    nodes = np.array(nodes, dtype=np.intp)
    local = {int(node): i for i, node in enumerate(nodes)}
    renumber = np.vectorize(local.__getitem__, otypes=[np.intp])
    return (model.dim[nodes], model.value[nodes],
            renumber(model.links[2 * nodes + 1]), renumber(model.links[2 * nodes]),
            model.path[nodes])


def assert_trees_are_the_recursive_build(train, tree_count, subsample, seed):
    """Each tree's node arrays equal the recursive build's, flattened in
    pre-order, by dtype and byte for byte, and the node table holds those
    trees' nodes and nothing else."""
    model = iforest_fit(train, tree_count=tree_count, subsample=subsample,
                        seed=seed)
    want = oracles.isolation_trees(train, tree_count, subsample, seed)
    assert model.tree_count == len(want)
    nodes = 0
    for t, oracle in enumerate(want):
        got = tree_arrays(model, t)
        for name, a, b in zip(("dim", "value", "left", "right", "path"), got,
                              oracles.isolation_tree_arrays(oracle)):
            assert a.dtype == b.dtype, (t, name)
            assert a.tobytes() == b.tobytes(), (t, name)
        nodes += len(got[0])
    assert len(model.dim) == nodes
    assert len(model.links) == 2 * nodes


@settings(max_examples=60)
@given(st.data())
def test_lockstep_trees_are_the_recursive_build_node_for_node(data):
    train, _, tree_count, subsample, seed = _forest_case(data)
    assert_trees_are_the_recursive_build(train, tree_count, subsample, seed)


def ties_and_constant_columns(rng):
    matrix = rng.integers(0, 2, size=(60, 4)).astype(float)
    matrix[:, 2] = 7.0
    return matrix


def one_splittable_column(rng):
    # each split draws integers(1) over the one column, then its value
    matrix = np.full((50, 3), 0.5)
    matrix[:, 1] = rng.normal(size=50)
    return matrix


@pytest.mark.parametrize("make, subsample", [
    (ties_and_constant_columns, 32),
    (one_splittable_column, 16),
    (lambda rng: rng.normal(size=(20, 3)), 256),   # subsample above n
    (lambda rng: rng.normal(size=(40, 2)), 2),     # psi = 2, one level
    (lambda rng: np.ones((30, 3)), 8),             # nothing ever splits
])
def test_lockstep_trees_are_the_recursive_build_in_edge_cases(make, subsample):
    for seed in range(3):
        train = make(np.random.default_rng(seed))
        assert_trees_are_the_recursive_build(train, 12, subsample, seed)


def test_split_draws_are_the_generator_calls():
    # 1,000 generators, each first advanced by 0-2 integers(7) calls so that
    # its cached 32-bit half is set or clear; then 100 rounds of integers(k)
    # and uniform(lo, hi) on two thirds of them, k = 1..7 in turn, so every
    # generator draws each k and takes at least 66 words, past its first
    # 64-word block
    want = [np.random.default_rng(seed) for seed in range(1000)]
    got = [np.random.default_rng(seed) for seed in range(1000)]
    for seed, (a, b) in enumerate(zip(want, got)):
        for _ in range(seed % 3):
            a.integers(7)
            b.integers(7)
    assert {a.bit_generator.state["has_uint32"] for a in want} == {0, 1}
    draws = _SplitDraws(got)
    every = np.arange(len(got))
    lows = np.linspace(-3.0, 2.0, len(got))
    highs = lows + np.geomspace(1e-6, 1e6, len(got))
    for r in range(100):
        gens = every[(every + r) % 3 > 0]
        ks = (gens + r // 3) % 7 + 1
        lo, hi = lows[gens], highs[gens]
        expect = [(want[g].integers(k), want[g].uniform(l, h)) for g, k, l, h
                  in zip(gens.tolist(), ks.tolist(), lo.tolist(), hi.tolist())]
        assert draws.integers(gens, ks).tolist() == [i for i, _ in expect]
        assert (draws.uniform(gens, lo, hi).tobytes()
                == np.array([v for _, v in expect]).tobytes())


@pytest.mark.parametrize("k, redraws", [
    (1, False), (2, False), (3, True), (4, False), (5, True), (6, True),
    (7, True)])
def test_split_draws_redraw_where_the_generator_does(k, redraws):
    # a cached half of 0 makes a product whose low 32 bits are 0, which is
    # redrawn exactly when the threshold (2**32 - k) % k is not 0
    want, got = np.random.default_rng(11), np.random.default_rng(11)
    for rng in (want, got):
        rng.bit_generator.state = {**rng.bit_generator.state,
                                   "has_uint32": 1, "uinteger": 0}
    draws = _SplitDraws([got])
    one = np.array([0])
    before = want.bit_generator.state["state"]
    assert draws.integers(one, [k]).tolist() == [want.integers(k)]
    assert (want.bit_generator.state["state"] != before) == redraws
    for then in (7, 3):   # and the cached half is where numpy leaves it
        assert draws.uniform(one, -1.0, 3.0).tolist() == [want.uniform(-1.0, 3.0)]
        assert draws.integers(one, [then]).tolist() == [want.integers(then)]


class _DrawlessGenerator:
    """A Generator whose per-node draws raise; ``choice`` and the bit
    generator pass through."""

    # the default binds numpy's own default_rng before a test patches it
    def __init__(self, seed, _make=np.random.default_rng):
        rng = _make(seed)
        self.choice = rng.choice
        self.bit_generator = rng.bit_generator

    def integers(self, *args, **kwargs):
        raise AssertionError("Generator.integers called by the fit")

    def uniform(self, *args, **kwargs):
        raise AssertionError("Generator.uniform called by the fit")


def test_fit_calls_no_generator_method_per_node(monkeypatch):
    rng = np.random.default_rng(5)
    cases = [
        (rng.normal(size=(40, 3)), dict(tree_count=12, subsample=2, seed=3)),
        (blob_with_outlier(), dict(tree_count=1, seed=4)),
        (rng.normal(size=(300, 5)), dict(tree_count=20, seed=6)),
    ]
    want = [oracles.isolation_forest_scores(m, m, **kw) for m, kw in cases]
    monkeypatch.setattr(anomaly.np.random, "default_rng", _DrawlessGenerator)
    # every root is a leaf that draws nothing
    assert len(iforest_fit(np.ones((30, 3)), tree_count=7).dim) == 7
    for (matrix, kw), scores in zip(cases, want):
        got = iforest_scores(iforest_fit(matrix, **kw), matrix)
        assert got.tobytes() == scores.tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_fit_refuses_a_non_finite_feature(bad):
    matrix = blob_with_outlier()
    matrix[3, 1] = bad
    matrix[5, 0] = bad   # a later row is not the one named
    with pytest.raises(ValueError, match=rf"^feature row 3, column 1 is not "
                                         rf"finite: {bad}$"):
        iforest_fit(matrix)


@settings(max_examples=25)
@given(st.integers(0, 1000), st.integers(8, 24))
def test_scores_stay_in_the_half_open_band(seed, rows):
    rng = np.random.default_rng(seed)
    matrix = rng.random((rows, 3))
    scores = iforest_scores(iforest_fit(matrix, tree_count=25, seed=seed), matrix)
    assert np.all(scores >= -0.5)
    assert np.all(scores < 0.5)


def test_identical_rows_share_a_score():
    matrix = np.tile([0.2, 0.4, 0.1, 3.0, 2.0], (12, 1))
    matrix[5] = [0.9, 0.9, 0.9, 20.0, 9.0]
    scores = iforest_scores(iforest_fit(matrix, seed=2), matrix)
    clones = np.delete(scores, 5)
    assert np.all(clones == clones[0])
    assert scores[5] < clones[0]


def test_the_far_point_is_ranked_first():
    matrix = blob_with_outlier()
    model = iforest_fit(matrix, seed=3)
    report = score_machines(model, matrix, len(matrix))
    assert report.ranking[0] == len(matrix)   # the last row's machine
    # agrees with a plain nearest-neighbour view of the same data
    assert int(np.argmax(oracles.nearest_neighbor_distances(matrix))) == len(matrix) - 1


def test_farther_means_more_anomalous():
    rng = np.random.default_rng(7)
    matrix = np.vstack([
        rng.normal(0.0, 0.05, size=(40, 3)),
        [[3.0, 3.0, 3.0], [6.0, 6.0, 6.0]],
    ])
    scores = iforest_scores(iforest_fit(matrix, tree_count=200, seed=0), matrix)
    assert scores[-1] < scores[-2] < scores[:-2].min()


def test_ranking_breaks_ties_by_machine_id():
    # two interleaved groups of identical rows and one outlier; numpy's
    # default (unstable) sort mixes up the ids inside each group here
    matrix = np.tile([0.1, 0.2, 0.3], (12, 1))
    matrix[1::2] = [0.15, 0.2, 0.3]
    matrix[3] = [5.0, 5.0, 5.0]
    report = score_machines(iforest_fit(matrix, seed=1), matrix, 12)
    assert len(set(report.scores)) == 3
    assert report.ranking[0] == 4             # the outlier row
    assert report.ranking[1:] == [2, 6, 8, 10, 12, 1, 3, 5, 7, 9, 11]
    assert report.ranking == sorted(range(1, 13),
                                    key=lambda m: (report.scores[m - 1], m))


def test_per_interval_mode_takes_the_worst_interval():
    matrix = np.array([
        [0.2, 0.2, 0.2], [0.2, 0.2, 0.2],    # machine 1
        [0.2, 0.2, 0.2], [9.0, 9.0, 9.0],    # machine 2 has one wild interval
        [0.2, 0.2, 0.2], [0.2, 0.2, 0.2],    # machine 3
    ])
    owners = [1, 1, 2, 2, 3, 3]
    model = iforest_fit(matrix, seed=0)
    raw = iforest_scores(model, matrix)
    worst = [min(float(v) for owner, v in zip(owners, raw) if owner == m)
             for m in (1, 2, 3)]
    report = score_machines(model, matrix, 3)
    assert report.scores == worst
    assert report.scores[1] == min(raw[2], raw[3])
    assert report.ranking[0] == 2


def test_score_machines_rejects_rows_that_do_not_split_evenly():
    matrix = np.zeros((5, 3))
    matrix[1] = 1.0
    model = iforest_fit(matrix, seed=0)
    for machine_count in (2, 3, 4, 0, -1):
        with pytest.raises(ValueError, match="do not split evenly"):
            score_machines(model, matrix, machine_count)


def test_anomaly_json_lists_the_head_of_the_ranking(tmp_path, monkeypatch):
    matrix = blob_with_outlier(n=10)
    report = score_machines(iforest_fit(matrix, seed=0), matrix, 10)
    # the categories and causes are the caller's, not the report's
    assert [f.name for f in dataclasses.fields(report)] == [
        "scores", "ranking", "negative_count"]
    categories, causes = np.array([""] * 10), [[] for _ in range(10)]
    path = tmp_path / "anomalies.json"
    for top_n in (3, 0, 10, 11):
        monkeypatch.setattr(anomaly, "TOP_N", top_n)
        write_anomaly_json(report, categories, causes, str(path))
        top = json.loads(path.read_text())["top"]
        assert [e["machine"] for e in top] == report.ranking[:top_n]
        assert all(e["category"] == "" and e["causes"] == [] for e in top)
    assert report.negative_count == sum(
        1 for v in report.scores if v < 0)


# ---------------------------------------------------------------------------
# cause tags


def population_table():
    return table_for([0.2] * 7)


def tags_of(label, times, batch, containers, stats):
    """Machine 1's tags from ``diagnose`` on a one-machine trace whose soft
    errors fall at ``times``."""
    table = table_for([0.2])
    table.batch_count, table.container_count = batch[None], containers[None]
    events = oracles.table_from_rows("server_event",
                                     [softerror(1, ts) for ts in times])
    (tags,) = diagnose(np.array([label]), events, table, stats, GRID)
    return tags


def test_frequent_softerrors_need_three():
    stats = population_stats(population_table())
    times = [1010, 1120, 1230]
    tags = tags_of("Type6", times, *counts(), stats)
    assert CauseTag.FREQUENT_SOFT_ERROR.value in tags
    tags = tags_of("Type6", times[:2], *counts(), stats)
    assert CauseTag.FREQUENT_SOFT_ERROR.value not in tags


def test_softerror_near_the_batch_stop_is_linked():
    stats = population_stats(population_table())
    stopped = counts(batch=[2, 2, 0, 0])
    # activity ends after interval 1, so the stop lands at index 2
    for ts, expect in [(1150, True), (1250, True), (1350, True), (1050, False)]:
        tags = tags_of("Type6", [ts], *stopped, stats)
        assert (CauseTag.SOFT_ERROR_WORKLOAD_STOP.value in tags) is expect, ts


def test_batch_running_to_the_end_never_links_a_softerror():
    stats = population_stats(population_table())
    tags = tags_of("Type6", [1250], *counts(), stats)
    assert CauseTag.SOFT_ERROR_WORKLOAD_STOP.value not in tags


def test_label_driven_tags():
    stats = population_stats(population_table())
    idle = counts(batch=[0] * 4, containers=[0] * 4)
    assert tags_of("Type2", [], *idle, stats) == [
        CauseTag.NO_WORKLOADS_SCHEDULING.value]
    assert tags_of("Type2", [1100], *idle, stats) == []
    assert CauseTag.NO_ONLINE_SERVICES.value in tags_of(
        "Type3", [], *counts(), stats)
    assert CauseTag.NO_BATCH_JOBS.value in tags_of(
        "Type4", [], *counts(), stats)


def test_type1_workload_balance_tags():
    stats = population_stats(population_table())   # medians: containers 2, batch 3
    heavy = counts(containers=[9] * 4)
    assert CauseTag.HEAVIER_ONLINE_SERVICES.value in tags_of(
        "Type1", [], *heavy, stats)
    lighter = counts(containers=[1] * 4, batch=[5] * 4)
    assert CauseTag.UNBALANCED_LIGHTER_ONLINE.value in tags_of(
        "Type1", [], *lighter, stats)
    plain = counts()
    assert tags_of("Type1", [], *plain, stats) == []


def test_heavier_factor_is_configurable():
    # the factor is fixed at 1.5: exactly 1.5x the median of 2 is heavier,
    # the next float below it is not
    stats = population_stats(population_table())
    exactly = counts(containers=[3] * 4)
    assert CauseTag.HEAVIER_ONLINE_SERVICES.value in tags_of(
        "Type1", [], *exactly, stats)
    below = counts(containers=[np.nextafter(3, 0)] * 4)
    assert CauseTag.HEAVIER_ONLINE_SERVICES.value not in tags_of(
        "Type1", [], *below, stats)


def test_diagnose_ignores_other_machines_events():
    stats = population_stats(population_table())
    events = oracles.table_from_rows("server_event", [
        softerror(9, 1010), softerror(9, 1120), softerror(9, 1230),
        (1200, 1, MachineEventType.ADD, "", 64, 1.0, 1.0),
        softerror(1, 1300)])
    tags = diagnose(np.array(["Type6"] * 9), events, table_for([0.2] * 9), stats, GRID)
    # machine 9's three soft errors are its own; machine 1 has one
    assert tags == [[]] * 8 + [[CauseTag.FREQUENT_SOFT_ERROR.value]]


# stamps on and around the grid [1000, 1400], boundaries included
SOFT_STAMPS = st.one_of(st.integers(900, 1500),
                        st.sampled_from((999, 1000, 1099, 1100, 1200, 1399, 1400)))


@settings(max_examples=200)
@given(st.data())
def test_diagnose_matches_the_per_machine_rules(data):
    m_count = data.draw(st.integers(1, 6))
    rows = st.lists(st.lists(st.sampled_from((0, 0, 1, 2, 3)), min_size=4,
                             max_size=4), min_size=m_count, max_size=m_count)
    batch = np.array(data.draw(rows), float)
    containers = np.array(data.draw(rows), float)
    labels = data.draw(st.lists(st.sampled_from([f"Type{i}" for i in range(1, 9)]),
                                min_size=m_count, max_size=m_count))
    # (machine, timestamp, a soft error or else an add event)
    drawn = data.draw(st.lists(st.tuples(st.integers(1, m_count), SOFT_STAMPS,
                                         st.booleans()), max_size=12))
    table = table_for([0.2] * m_count)
    table.batch_count, table.container_count = batch, containers
    stats = population_stats(table)
    events = oracles.table_from_rows("server_event", [
        softerror(m, ts) if soft else (ts, m, MachineEventType.ADD, "", 64, 1.0, 1.0)
        for m, ts, soft in drawn])
    got = diagnose(np.array(labels), events, table, stats, GRID)

    times = {}
    for m, ts, soft in drawn:
        if soft:
            times.setdefault(m, []).append(ts)
    assert got == [oracles.diagnose_reference(
        labels[row], times.get(row + 1, []), batch[row].tolist(),
        containers[row].tolist(), stats.container_count_median,
        stats.batch_count_median, GRID.start, GRID.end, GRID.step,
        1.5) for row in range(m_count)]


# ---------------------------------------------------------------------------
# artifacts


def small_report():
    """(report, categories, causes) of 8 Type1 machines, machine 8 with two
    cause tags."""
    matrix = blob_with_outlier(n=8, seed=4)
    report = score_machines(iforest_fit(matrix, seed=0), matrix, 8)
    causes = [[] for _ in range(8)]
    causes[7] = ["HeavierOnlineServices", "FrequentSoftError"]
    return report, np.array(["Type1"] * 8), causes


def test_scores_csv_layout(tmp_path):
    path = tmp_path / "scores.csv"
    write_scores_csv(*small_report(), str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "machine,score,rank,label,tags"
    assert len(lines) == 9
    row = lines[8].split(",")
    assert row[0] == "8"
    assert row[4] == "HeavierOnlineServices|FrequentSoftError"


def test_anomaly_json_round_trip(tmp_path):
    report, categories, causes = small_report()
    path = tmp_path / "anomalies.json"
    write_anomaly_json(report, categories, causes, str(path))
    data = json.loads(path.read_text())
    # TOP_N (25) is more than the 8 machines: all of them are listed
    assert data == {
        "negative_count": report.negative_count,
        "machine_count": 8,
        "top": [{"rank": rank, "machine": m, "score": report.scores[m - 1],
                 "category": "Type1", "causes": causes[m - 1]}
                for rank, m in enumerate(report.ranking, 1)],
    }


def test_score_distribution_csv(tmp_path):
    report, _, _ = small_report()
    path = tmp_path / "dist.csv"
    write_score_distribution_csv(report, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "rank,machine,score"
    scores = [float(line.split(",")[2]) for line in lines[1:]]
    assert scores == sorted(scores)
