"""Acceptance gate.

One test per criterion, each ending in a single printed pass line (visible
with -s or -v). Criteria 1-8 run at desk scale with no external data.
Criteria 9-12 replay the published reference numbers and need the real
cluster trace: point TRACE_INSIGHT_REFERENCE_DIR at its directory to enable
them; they skip otherwise.
"""

import dataclasses
import itertools
import os
import time
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from trace_insight.aggregate import (
    aggregate_batch_usage,
    aggregate_container_usage,
    build_machine_series,
    overlap_runtime,
)
from trace_insight.anomaly import (
    FeatureMode,
    build_feature_matrix,
    iforest_fit,
    score_machines,
)
from trace_insight.classify import (
    category_report,
    kmeans_fit,
    label_clusters,
    occupancy_matrix,
)
from trace_insight.cli import main as cli_main
from trace_insight.preprocess import (
    METRICS,
    filter_container_events,
    supplement_server_usage,
)
from trace_insight.similarity import (
    _dtw_batch,
    build_resource_curves,
    score_similarity,
    select_standard,
)
from trace_insight.synth import (
    AnomalyPlant,
    PlantKind,
    SynthConfig,
    generate_trace,
)
from trace_insight.trace_model import (
    ContainerEventType,
    IntervalGrid,
    parse_trace_dir,
)

REFERENCE_DIR = os.environ.get("TRACE_INSIGHT_REFERENCE_DIR")
needs_reference = pytest.mark.skipif(
    not REFERENCE_DIR,
    reason="TRACE_INSIGHT_REFERENCE_DIR not set; reference-trace criteria skipped")


def ok(criterion: str, detail: str) -> None:
    print(f"criterion {criterion}: PASS ({detail})")


# ---------------------------------------------------------------------------
# 1. recurrence == brute force over all enumerated warping paths


def test_criterion_01_dtw_matches_exhaustive_path_enumeration():
    t0 = time.perf_counter()
    values = (0.0, 1.0, 2.0)
    series = {n: np.array(list(itertools.product(values, repeat=n)))
              for n in range(1, 6)}
    spot_rng = np.random.default_rng(1)
    checked = 0
    for n in range(1, 6):
        Q = series[n]
        for l in range(1, 6):
            S = series[l]
            # minimum over every enumerated warping path, all pairs at once
            cost = (Q[:, None, :, None] - S[None, :, None, :]) ** 2
            flat = cost.reshape(len(Q), len(S), n * l)
            padded = np.concatenate([flat, np.zeros((len(Q), len(S), 1))], axis=2)
            paths = oracles.padded_path_indices(n, l)
            best = None
            for p in range(paths.shape[0]):
                sums = padded[:, :, paths[p]].sum(axis=2)
                best = sums if best is None else np.minimum(best, sums)

            # the kernel the pipeline runs, every (Q, S) pair in one batch
            dp, _ = _dtw_batch(Q[..., None], S[..., None],
                               divmod(np.arange(len(Q) * len(S)), len(S)),
                               path_lengths=False)
            dp = dp.reshape(len(Q), len(S))
            assert np.array_equal(dp, best), (n, l)
            checked += len(Q) * len(S)

            # spot-check the vectorized sweep against the scalar oracle
            for _ in range(8):
                a = int(spot_rng.integers(len(Q)))
                b = int(spot_rng.integers(len(S)))
                assert best[a, b] == oracles.brute_force_dtw(Q[a], S[b])
    elapsed = time.perf_counter() - t0
    assert checked == 363 ** 2
    assert elapsed < 10.0
    ok("01", f"{checked} exhaustive pairs exact in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. metric identities on random multivariate curves


def test_criterion_02_dtw_identities_on_seeded_random_pairs():
    rng = np.random.default_rng(20260814)
    # each draw's four distances are kernel jobs; jobs of one shape share a
    # _dtw_batch call, and a pair's distance is the same bits in any batch
    batches: dict[tuple, list] = {}

    def submit(q, s):
        shape = (len(q), len(s), q.shape[1])
        batch = batches.setdefault(shape, [])
        batch.append((q, s))
        return shape, len(batch) - 1

    draws = []
    for _ in range(1000):
        dim = int(rng.integers(1, 4))
        q = rng.normal(size=(int(rng.integers(1, 16)), dim))
        s = rng.normal(size=(int(rng.integers(1, 16)), dim))
        c = float(rng.uniform(0.1, 3.0))
        draws.append((c, submit(q, q), submit(q, s), submit(s, q),
                      submit(c * q, c * s)))
    distances = {shape: _dtw_batch(*map(np.stack, zip(*batch)),
                                   (np.arange(len(batch)),) * 2,
                                   path_lengths=False)[0].tolist()
                 for shape, batch in batches.items()}
    for c, *jobs in draws:
        itself, forward, backward, scaled = (distances[shape][i] for shape, i in jobs)
        assert itself == 0.0
        assert backward == pytest.approx(forward, rel=1e-9)
        assert scaled == pytest.approx(c * c * forward, rel=1e-9)
    ok("02", "self-distance, symmetry, and c^2 scaling on 1000 pairs in "
             f"{len(batches)} kernel calls")


# ---------------------------------------------------------------------------
# 3. per-interval overlaps partition the clipped runtime


def test_criterion_03_overlap_conserves_clipped_runtime():
    rng = np.random.default_rng(31)
    for _ in range(10_000):
        step = int(rng.integers(1, 400))
        count = int(rng.integers(1, 30))
        start = int(rng.integers(0, 1000))
        grid = IntervalGrid(start, start + count * step, step)
        s = int(rng.integers(start - 2 * step, grid.end + 2 * step))
        e = s + int(rng.integers(0, 3 * step + 1))
        bounds = grid.timestamps()
        total = int(overlap_runtime(s, e, bounds[:-1], bounds[1:]).sum())
        assert total == oracles.clipped_overlap(s, e, grid.start, grid.end)
    ok("03", "10000 random (instance, grid) cases, exact integer equality")


# ---------------------------------------------------------------------------
# 4. gap repair on affine series


def _usage_row(machine, ts, value):
    return (ts, machine, value, value, value, value, value, value)


def test_criterion_04_interpolation_restores_affine_series():
    rng = np.random.default_rng(44)
    for _ in range(1000):
        count = int(rng.integers(5, 26))
        step = int(rng.choice((60, 100, 300)))
        start = int(rng.integers(0, 5)) * step
        grid = IntervalGrid(start, start + (count - 1) * step, step)
        a = float(rng.uniform(10.0, 20.0))
        b = float(rng.uniform(-1e-3, 1e-3))
        stamps = list(grid.timestamps())
        truth = [a + b * (ts - start) for ts in stamps]

        observed = np.ones(count, dtype=bool)
        interior = rng.permutation(np.arange(1, count - 1))
        observed[interior[:int(rng.integers(1, count - 2))]] = False
        prefix = int(rng.integers(0, 3))
        suffix = int(rng.integers(0, 3))
        observed[:prefix] = False
        observed[count - suffix:] = True if suffix == 0 else False
        if observed.sum() < 2:
            observed[np.argsort(~observed)[:2]] = True

        bundle = oracles.bundle_from_rows(
            server_usage=[_usage_row(1, stamps[x], truth[x])
                          for x in range(count) if observed[x]],
            machine_count=1)
        dense, _notes = supplement_server_usage(bundle, grid)
        got = dense.values[0, :, METRICS.index("cpu")]

        first = int(np.flatnonzero(observed)[0])
        last = int(np.flatnonzero(observed)[-1])
        for x in range(count):
            if observed[x]:
                assert got[x] == truth[x]          # untouched, bit for bit
            elif x < first:
                assert got[x] == truth[first]      # boundary hold
            elif x > last:
                assert got[x] == truth[last]
            else:
                assert got[x] == pytest.approx(truth[x], rel=1e-12)
    ok("04", "1000 affine series, interior repairs within 1e-12 relative")


# ---------------------------------------------------------------------------
# 5. duplicate container-event filtering


def test_criterion_05_duplicate_events_reduce_to_unique_records():
    rng = np.random.default_rng(55)

    def event(instance, machine, mem_req):
        return (0, ContainerEventType.CREATE, instance, machine, 4.0, mem_req,
                0.01, "")

    rows = []
    for instance in range(1, 14):   # 13 duplicated instances
        rows.append(event(instance, instance, float(rng.uniform(0.005, 0.05))))
        rows.append(event(instance, instance, float(rng.uniform(0.95, 1.10))))
    for instance in range(100, 187):
        rows.append(event(instance, instance, float(rng.uniform(0.005, 0.05))))
    order = rng.permutation(len(rows))
    rows = [rows[int(i)] for i in order]
    # disk_req numbers the input rows, so rows can be traced through the split
    rows = [(*row[:6], float(i), "") for i, row in enumerate(rows)]

    clean, removed = filter_container_events(
        oracles.table_from_rows("container_event", rows))
    assert len(removed) == 13
    assert (removed.mem_req > 0.9).all()
    instances = clean.instance.tolist()
    assert len(instances) == len(set(instances)) == 100
    # clean ∪ removed = input, nothing invented or dropped, order kept
    picked = clean.disk_req.astype(int).tolist()
    dropped = removed.disk_req.astype(int).tolist()
    assert picked == sorted(picked) and dropped == sorted(dropped)
    assert sorted(picked + dropped) == list(range(len(rows)))
    assert [rows[i][2:6] for i in picked] == list(zip(
        clean.instance.tolist(), clean.machine.tolist(), clean.cpu_req.tolist(),
        clean.mem_req.tolist()))
    ok("05", "13 duplicated instances filtered, partition preserved")


# ---------------------------------------------------------------------------
# 6. category recovery on planted traces


def _synthetic_occupancy(seed=7):
    grid = IntervalGrid(39600, 39600 + 24 * 300, 300)
    config = SynthConfig(machine_count=64, grid=grid, quotas=(8,) * 8, seed=seed)
    bundle, truth = generate_trace(config)
    dense, _ = supplement_server_usage(bundle, grid)
    table = build_machine_series(bundle, grid, dense.values,
                                 aggregate_container_usage(bundle, grid),
                                 aggregate_batch_usage(bundle, grid))
    return occupancy_matrix(table), truth


def test_criterion_06_classification_recovers_planted_types():
    # row m - 1 of the matrix and of the assignments is machine m
    matrix, truth = _synthetic_occupancy()
    expected = [truth.types[m] for m in range(1, len(matrix) + 1)]

    for seed in range(10):
        model = kmeans_fit(matrix, k=8, seed=seed, n_init=50)
        predicted = model.assignments.tolist()
        ari = oracles.adjusted_rand_index(expected, predicted)
        assert ari >= 0.99, (seed, ari)
        labeled = label_clusters(model)
        got = [labeled.labels[c] for c in labeled.assignments.tolist()]
        assert dict(enumerate(got, 1)) == truth.types, seed

    noisy_aris = []
    for seed in range(10):
        rng = np.random.default_rng((20260814, seed))
        flips = rng.random(matrix.shape) < 0.10
        noisy = np.where(flips, 1.0 - matrix, matrix)
        model = kmeans_fit(noisy, k=8, seed=seed, n_init=50)
        predicted = model.assignments.tolist()
        noisy_aris.append(oracles.adjusted_rand_index(expected, predicted))
    mean_ari = sum(noisy_aris) / len(noisy_aris)
    assert mean_ari >= 0.85, noisy_aris
    assert min(noisy_aris) >= 0.80, noisy_aris
    ok("06", f"zero-noise ARI 1.0 and exact labels over 10 seeds; "
             f"10% bit flips mean ARI {mean_ari:.3f}")


# ---------------------------------------------------------------------------
# 7. planted anomalies surface in the top ranks


def test_criterion_07_planted_anomalies_rank_in_top_five():
    grid = IntervalGrid(39600, 39600 + 24 * 300, 300)
    plants = (
        AnomalyPlant(machine=46, kind=PlantKind.IDLE),
        AnomalyPlant(machine=3, kind=PlantKind.HEAVY_ONLINE),
        AnomalyPlant(machine=7, kind=PlantKind.LIGHTER_ONLINE_SKEW),
    )
    config = SynthConfig(machine_count=64, grid=grid,
                         quotas=(45, 1, 8, 2, 2, 3, 2, 1), seed=41,
                         noise_level=0.02, anomaly_plants=plants)
    bundle, truth = generate_trace(config)
    assert set(truth.anomalies) == {3, 7, 46}
    dense, _ = supplement_server_usage(bundle, grid)
    table = build_machine_series(bundle, grid, dense.values,
                                 aggregate_container_usage(bundle, grid),
                                 aggregate_batch_usage(bundle, grid))
    matrix = build_feature_matrix(table, FeatureMode.PER_MACHINE_MEAN)

    hits = 0
    for seed in range(10):
        forest = iforest_fit(matrix, tree_count=100, subsample=256, seed=seed)
        report = score_machines(forest, matrix, bundle.machine_count)
        assert len(report.scores) == 64
        for score in report.scores:
            assert -0.5 <= score < 0.5
        hits += set(truth.anomalies) <= set(report.ranking[:5])
    assert hits >= 9, hits
    ok("07", f"3 plants in the top 5 in {hits}/10 seeds, scores in [-0.5, 0.5)")


# ---------------------------------------------------------------------------
# 8. end-to-end byte determinism


def test_criterion_08_reruns_are_byte_identical(tmp_path, monkeypatch):
    grid_end = 39600 + 24 * 300

    def run(root):
        root.mkdir()
        monkeypatch.chdir(root)
        stages = (
            ["synth", "--machines", "32", "--quotas", "10,2,4,2,2,4,4,4",
             "--plants", "Idle:11;HeavyOnline:1", "--gaps", "3:cpu:5-6",
             "--noise", "0.02", "--seed", "9", "--out-dir", "trace",
             f"grid_end={grid_end}"],
            ["preprocess", "--input-dir", "trace", "--out-dir", "out",
             f"grid_end={grid_end}"],
            ["analyze", "--out-dir", "out",
             "--seed", "9", f"grid_end={grid_end}"],
            ["report", "--out-dir", "out"],
        )
        for argv in stages:
            assert cli_main(argv) == 0, argv

    run(tmp_path / "one")
    run(tmp_path / "two")

    names = {}
    for side in ("one", "two"):
        base = tmp_path / side
        names[side] = sorted(p.relative_to(base)
                             for p in base.rglob("*") if p.is_file())
    assert names["one"] == names["two"]
    assert len(names["one"]) >= 25
    for rel in names["one"]:
        one = (tmp_path / "one" / rel).read_bytes()
        two = (tmp_path / "two" / rel).read_bytes()
        assert one == two, rel
    ok("08", f"two pipeline runs, {len(names['one'])} files byte-identical")


# ---------------------------------------------------------------------------
# 9-12. reference-trace reproduction (requires the real cluster trace)

REFERENCE_TYPE2 = {372, 478, 481, 550, 602, 924, 930, 983, 1075}
REFERENCE_TYPE5 = {401, 689}
REFERENCE_TYPE8 = {618}
REFERENCE_COUNTS = {"Type1": 956, "Type2": 9, "Type3": 170, "Type4": 11,
                    "Type5": 2, "Type6": 155, "Type7": 9, "Type8": 1}
REFERENCE_STANDARDS = [16, 19, 28, 36]
REFERENCE_TOP25 = {602, 930, 1075, 550, 372, 478, 983, 924, 676, 481,
                   679, 851, 673, 993, 618, 556, 689, 401, 275, 763,
                   149, 1039, 800, 1069, 949}


def load_reference(trace_dir):
    """What criteria 9-12 share: the series table and occupancy matrix of
    the trace in ``trace_dir`` on the default grid, and the seconds taken."""
    t0 = time.perf_counter()
    grid = IntervalGrid(39600, 82500, 300)
    bundle = parse_trace_dir(trace_dir)
    clean, _removed = filter_container_events(bundle.container_events)
    bundle = dataclasses.replace(bundle, container_events=clean)
    dense, _notes = supplement_server_usage(bundle, grid)
    table = build_machine_series(bundle, grid, dense.values,
                                 aggregate_container_usage(bundle, grid),
                                 aggregate_batch_usage(bundle, grid))
    return SimpleNamespace(grid=grid, table=table,
                           matrix=occupancy_matrix(table),
                           setup_seconds=time.perf_counter() - t0)


@pytest.fixture(scope="module")
def reference():
    if not REFERENCE_DIR:
        pytest.skip("TRACE_INSIGHT_REFERENCE_DIR not set")
    return load_reference(REFERENCE_DIR)


def reference_types(reference, seed):
    """Criteria 9 and 10: the category report of one k-means seed."""
    model = label_clusters(kmeans_fit(reference.matrix, k=8, seed=seed,
                                      n_init=50))
    return category_report(model, reference.table)


def reference_similarity(reference):
    """Criterion 11: the standard value of the published standards, and
    every machine's DTW scores against them."""
    curves = build_resource_curves(reference.table)
    sample, standards = select_standard(
        curves, sample_num=8, seed=0, standard_machines=REFERENCE_STANDARDS)
    report = score_similarity(curves, curves[[m - 1 for m in standards]],
                              standards, sample)
    return report.standard_value, report


def reference_ranking(reference, seed):
    """Criterion 12: the anomaly report of one forest seed."""
    matrix = build_feature_matrix(reference.table, FeatureMode.PER_MACHINE_MEAN)
    forest = iforest_fit(matrix, tree_count=100, subsample=256, seed=seed)
    return score_machines(forest, matrix, len(reference.table.server_cpu))


@needs_reference
def test_criterion_09_reference_type_sets(reference):
    report = reference_types(reference, seed=0)
    assert set(report.members.get("Type2", [])) == REFERENCE_TYPE2
    assert set(report.members.get("Type5", [])) == REFERENCE_TYPE5
    assert set(report.members.get("Type8", [])) == REFERENCE_TYPE8
    ok("09", "Type2/Type5/Type8 machine sets match exactly")


@needs_reference
def test_criterion_10_reference_type_counts(reference):
    for seed in range(5):
        report = reference_types(reference, seed)
        for label, want in REFERENCE_COUNTS.items():
            got = report.counts.get(label, 0)
            assert abs(got - want) <= 0.03 * want, (seed, label, got, want)
    ok("10", "per-type counts within 3% over 5 k-means seeds")


@needs_reference
def test_criterion_11_reference_dtw_histogram(reference):
    standard_value, report = reference_similarity(reference)
    assert standard_value == pytest.approx(1.72, abs=0.4)
    in_one_two = report.histogram[1]   # edges (0, 1, 2, 3, 5) -> bin [1, 2)
    assert abs(in_one_two - 478) <= 30, in_one_two
    fraction = len(report.flagged) / len(report.mean_distance)
    assert abs(fraction - 0.46) <= 0.05, fraction
    ok("11", f"histogram [1,2)={in_one_two}, flagged {fraction:.1%}, "
             f"standard value {standard_value:.2f}")


@needs_reference
def test_criterion_12_reference_anomaly_ranking(reference):
    for seed in range(5):
        report = reference_ranking(reference, seed)
        fraction = report.negative_count / len(report.scores)
        assert abs(fraction - 0.81) <= 0.20, (seed, fraction)
        overlap = len(set(report.ranking[:25]) & REFERENCE_TOP25)
        assert overlap >= 18, (seed, overlap)
    ok("12", "negative-score share and top-25 overlap hold over 5 seeds")


def test_reference_criteria_run_on_the_demo_trace(tmp_path):
    # criteria 9-12 skip without the real trace, so their set-up and calls
    # run here on the 64-machine demo trace on the default grid; only shapes
    # and types are checked, since the published numbers are the real trace's
    trace = tmp_path / "trace"
    assert cli_main([
        "synth", "--machines", "64", "--quotas", "36,4,4,4,4,4,4,4",
        "--plants", "Idle:37;HeavyOnline:1;LighterOnlineSkew:2;"
                    "FrequentSoftError:49;SoftErrorWorkloadStop:53",
        "--gaps", "3:cpu:10-14;4:mem:30-33", "--noise", "0.03",
        "--seed", "7", "--out-dir", str(trace)]) == 0
    reference = load_reference(str(trace))
    assert reference.table.server_cpu.shape == (64, 143)
    assert reference.matrix.shape == (64, 286)
    assert isinstance(reference.setup_seconds, float)

    types = reference_types(reference, seed=0)
    assert sum(types.counts.values()) == 64
    assert sorted(m for members in types.members.values() for m in members) \
        == list(range(1, 65))

    standard_value, dtw = reference_similarity(reference)
    assert isinstance(standard_value, float)
    # the median of the oracle recurrence over the pinned standards' pairs
    curves = build_resource_curves(reference.table)
    pairwise = [oracles.dtw_recurrence(curves[a - 1], curves[b - 1])[0]
                for a, b in itertools.combinations(REFERENCE_STANDARDS, 2)]
    assert standard_value == pytest.approx(np.median(pairwise), rel=1e-12)
    assert dtw.standard_machines == REFERENCE_STANDARDS
    assert dtw.distances.shape == (64, 4)
    assert len(dtw.histogram) == 5 and sum(dtw.histogram) == 64
    assert all(isinstance(m, int) for m in dtw.flagged)

    ranking = reference_ranking(reference, seed=0)
    assert len(ranking.scores) == 64
    assert sorted(ranking.ranking) == list(range(1, 65))
    assert isinstance(ranking.negative_count, int)


@needs_reference
def test_reference_pipeline_fits_the_time_budget(reference):
    assert reference.setup_seconds < 300
    ok("--", f"reference preprocessing+aggregation in "
             f"{reference.setup_seconds:.0f}s")
