import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from trace_insight import classify
from trace_insight.aggregate import SeriesTable
from trace_insight.classify import (
    CategoryModel,
    UNKNOWN_LABEL,
    category_report,
    kmeans_fit,
    label_clusters,
    occupancy_matrix,
    write_assignments_csv,
    write_counts_json,
    write_type_usage_csv,
)

N = 8


def table_for(batch_bits, container_bits, cpu=0.2):
    """Series table of machines 1..M from (M, N) batch and container
    occupancy bits; ``cpu`` is one value for all or one per machine."""
    batch = np.asarray(batch_bits, float)
    cont = np.asarray(container_bits, float)
    cpu = np.asarray(cpu, float).reshape(-1, 1) * np.ones(batch.shape)
    return SeriesTable(
        server_cpu=cpu,
        server_mem=cpu * 2,
        server_disk=np.full(batch.shape, 0.4),
        container_count=cont * 3,
        container_cpu=cont * 0.05,
        container_mem=cont * 0.1,
        batch_count=batch * 5,
        batch_cpu_cores=batch * 2.0,
        batch_cpu=batch * 0.03,
        batch_mem=batch * 0.02,
    )


def model_for(centroids):
    rows = np.asarray(centroids, float)
    return CategoryModel(k=len(rows), centroids=rows,
                         assignments=np.zeros(0, dtype=np.intp), inertia=0.0,
                         inertia_history=[])


def centroid(batch, cont):
    return np.concatenate([np.asarray(batch, float), np.asarray(cont, float)])


# ---------------------------------------------------------------------------
# occupancy bits


def test_binarize_puts_batch_bits_first():
    table = table_for([[0, 0, 0, 0], [1, 1, 0, 0]], [[0, 0, 0, 0], [1, 1, 1, 1]])
    matrix = occupancy_matrix(table)
    assert matrix.dtype == float
    assert matrix.tolist() == [[0] * 8, [1, 1, 0, 0, 1, 1, 1, 1]]


def test_occupancy_matrix_sorts_rows_by_machine():
    # any positive count is occupied, fractional ones included
    rng = np.random.default_rng(4)
    table = table_for(rng.integers(0, 2, (6, 5)), rng.integers(0, 2, (6, 5)))
    table.batch_count *= rng.choice([0.25, 1.0, 7.0], (6, 5))
    matrix = occupancy_matrix(table)
    assert matrix.shape == (6, 10)
    for m in range(1, 7):   # machine m is row m - 1
        want = np.concatenate([table.batch_count[m - 1] > 0,
                               table.container_count[m - 1] > 0])
        assert matrix[m - 1].tolist() == want.tolist(), m


# ---------------------------------------------------------------------------
# k-means


def two_blob_matrix(seed=0):
    rng = np.random.default_rng(seed)
    low = rng.normal(0.0, 0.02, size=(4, 3))
    high = rng.normal(1.0, 0.02, size=(4, 3))
    return np.vstack([low, high])


def test_kmeans_finds_the_optimal_two_way_split():
    matrix = two_blob_matrix()
    model = kmeans_fit(matrix, k=2, seed=0)
    want = oracles.best_two_partition_inertia(matrix)
    assert model.inertia == pytest.approx(want, rel=1e-9)
    assert model.assignments.shape == (8,)
    groups = set(model.assignments[:4].tolist())
    assert len(groups) == 1
    assert set(model.assignments[4:].tolist()) != groups


def test_kmeans_is_deterministic_in_the_seed():
    matrix = two_blob_matrix(seed=3)
    base = kmeans_fit(matrix, k=2, seed=42)
    again = kmeans_fit(matrix, k=2, seed=42)
    assert base.assignments.tolist() == again.assignments.tolist()
    assert base.inertia == again.inertia


def test_kmeans_k_equal_to_distinct_rows_is_exact():
    matrix = np.array([[0, 0], [0, 1], [1, 1]], float)
    model = kmeans_fit(matrix, k=3, seed=7)
    assert model.inertia == 0.0
    assert len(set(model.assignments.tolist())) == 3


def test_kmeans_rejects_bad_inputs():
    matrix = np.array([[0, 0], [0, 0], [1, 1]], float)
    with pytest.raises(ValueError, match="distinct"):
        kmeans_fit(matrix, k=3, seed=0)
    with pytest.raises(ValueError, match="n_init"):
        kmeans_fit(matrix, k=2, seed=0, n_init=0)


@pytest.mark.parametrize("rows, cols", [(64, 286), (384, 32), (16, 576), (1024, 286)])
def test_assign_sums_distances_as_the_difference_cube_does(rows, cols):
    # the (M, k, 2N) cube of squared differences is the oracle
    rng = np.random.default_rng(rows)
    for matrix in (rng.integers(0, 2, (rows, cols)).astype(float),
                   rng.random((rows, cols))):
        centroids = np.concatenate((rng.random((6, cols)), matrix[:2]))
        cube = ((matrix[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        want = cube.argmin(axis=1)
        assign, d2 = classify._assign(matrix, centroids)
        assert assign.tolist() == want.tolist()
        assert d2.tobytes() == cube[np.arange(rows), want].tobytes()


@settings(max_examples=40)
@given(st.integers(0, 10_000), st.data())
def test_kmeans_inertia_never_increases(seed, data):
    rows = data.draw(st.lists(
        st.lists(st.integers(0, 1), min_size=6, max_size=6),
        min_size=4, max_size=12))
    matrix = np.asarray(rows, float)
    distinct = len(np.unique(matrix, axis=0))
    k = data.draw(st.integers(1, distinct))
    model = kmeans_fit(matrix, k=k, seed=seed)
    history = model.inertia_history
    assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))
    assert model.inertia == history[-1]


# ---------------------------------------------------------------------------
# centroid labeling


def test_labels_cover_all_eight_patterns():
    ones = np.ones(N)
    zeros = np.zeros(N)
    half_on = np.r_[np.ones(N // 2), np.zeros(N // 2)]
    half_off = np.r_[np.zeros(N // 2), np.ones(N // 2)]
    notch = ones.copy()
    notch[3] = 0.0   # gap of 1 < 0.25 * 8

    model = model_for([
        centroid(ones, ones),        # Type1
        centroid(zeros, zeros),      # Type2
        centroid(ones, zeros),       # Type3
        centroid(zeros, ones),       # Type4
        centroid(half_on, zeros),    # Type5
        centroid(half_on, ones),     # Type6
        centroid(notch, ones),       # Type7
        centroid(half_off, ones),    # Type8
    ])
    labeled = label_clusters(model)
    assert [labeled.labels[c] for c in range(8)] == [
        "Type1", "Type2", "Type3", "Type4",
        "Type5", "Type6", "Type7", "Type8",
    ]


def test_late_batch_with_no_containers_falls_back_to_type3():
    late = np.r_[np.zeros(N // 2), np.ones(N // 2)]
    labeled = label_clusters(model_for([centroid(late, np.zeros(N))]))
    assert labeled.labels[0] == "Type3"


def test_undecidable_centroids_become_unknown():
    ones = np.ones(N)
    wide_gap = np.r_[1.0, np.zeros(6), 1.0]          # interior gap of 6
    two_gaps = np.array([1, 0, 1, 0, 1, 1, 1, 1], float)
    mushy = np.full(N, 0.6)                          # present but not solid
    model = model_for([
        centroid(wide_gap, ones),
        centroid(two_gaps, ones),
        centroid(mushy, ones),
    ])
    labeled = label_clusters(model)
    assert all(v == UNKNOWN_LABEL for v in labeled.labels.values())
    assert "gap" in labeled.label_notes[0]


def test_thresholds_change_the_verdict():
    # occupancy of 0.90 or more counts as throughout, of 0.05 or less as
    # absent, and an interior batch gap under a quarter of the grid is short
    ones = np.ones(N)
    cases = [
        (centroid(np.full(N, 0.90), np.full(N, 0.90)), "Type1"),
        (centroid(np.full(N, np.nextafter(0.90, 0)), np.full(N, 0.90)),
         UNKNOWN_LABEL),
        (centroid(ones, np.full(N, 0.05)), "Type3"),
        (centroid(ones, np.full(N, np.nextafter(0.05, 1))), UNKNOWN_LABEL),
        (centroid(np.r_[1, 1, 1, 0, 1, 1, 1, 1], ones), "Type7"),   # 1 < 2
        (centroid(np.r_[1, 1, 0, 0, 1, 1, 1, 1], ones), UNKNOWN_LABEL),
    ]
    labeled = label_clusters(model_for([c for c, _ in cases]))
    assert [labeled.labels[c] for c in range(len(cases))] == [
        want for _, want in cases]


def test_labeling_is_idempotent():
    model = model_for([centroid(np.ones(N), np.ones(N))])
    once = label_clusters(model)
    twice = label_clusters(once)
    assert once.labels == twice.labels
    assert once.label_notes == twice.label_notes


# ---------------------------------------------------------------------------
# reporting


def labeled_model_and_table():
    on, off = np.ones(N), np.zeros(N)
    table = table_for([on, on, off], [on, on, off], cpu=[0.30, 0.20, 0.01])
    model = label_clusters(kmeans_fit(occupancy_matrix(table), k=2, seed=5))
    return model, table


def test_category_report_counts_members_and_usage():
    model, table = labeled_model_and_table()
    report = category_report(model, table)
    assert report.categories.tolist() == ["Type1", "Type1", "Type2"]
    assert report.counts == {"Type1": 2, "Type2": 1}
    assert report.members == {"Type1": [1, 2], "Type2": [3]}
    cpu, mem, disk = report.usage_means["Type1"]
    assert cpu == pytest.approx(0.25)
    assert mem == pytest.approx(0.50)
    assert disk == pytest.approx(0.40)


def test_usage_means_equal_means_over_the_member_rows(tmp_path):
    # each label averages a block of its members' table rows; that block
    # gives the same bits as a mean over the list of those rows
    rng = np.random.default_rng(9)
    n = 40   # enough rows and intervals for the summation order to show
    on, off = np.ones(n), np.zeros(n)
    table = table_for([on] * 30 + [off] * 20, [on] * 30 + [off] * 20)
    names = ("server_cpu", "server_mem", "server_disk")
    for name in names:
        setattr(table, name, rng.random((50, n)))
    model = label_clusters(kmeans_fit(occupancy_matrix(table), k=2, seed=0))
    report = category_report(model, table)
    assert report.members == {"Type1": list(range(1, 31)),
                              "Type2": list(range(31, 51))}
    path = tmp_path / "usage.csv"
    write_type_usage_csv(report, table, str(path))
    lines = path.read_text().splitlines()[1:]
    for label, members in report.members.items():
        rows = [[getattr(table, name)[m - 1] for m in members] for name in names]
        assert report.usage_means[label] == tuple(float(np.mean(r)) for r in rows)
        per_interval = [np.mean(r, axis=0) for r in rows]
        want = [",".join([label, str(x)] + [repr(float(v[x]))
                                             for v in per_interval])
                for x in range(n)]
        assert [line for line in lines if line.startswith(label + ",")] == want


def test_category_report_requires_labels():
    table = table_for([np.ones(N), np.zeros(N)], [np.ones(N), np.zeros(N)])
    model = kmeans_fit(occupancy_matrix(table), k=2, seed=0)
    with pytest.raises(ValueError, match="unlabeled"):
        category_report(model, table)


def test_artifact_writers(tmp_path):
    model, table = labeled_model_and_table()
    report = category_report(model, table)

    apath = tmp_path / "assignments.csv"
    write_assignments_csv(model, report.categories, str(apath))
    lines = apath.read_text().splitlines()
    assert lines[0] == "machine,cluster,label"
    assert len(lines) == 4
    # row m - 1 of the assignments is printed as machine m
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3"]
    assert [line.split(",")[2] for line in lines[1:]] == ["Type1", "Type1", "Type2"]

    jpath = tmp_path / "counts.json"
    write_counts_json(model, report, str(jpath))
    data = json.loads(jpath.read_text())
    assert sorted(model.labels.values()) == ["Type1", "Type2"]
    assert data == {
        "k": 2,
        "inertia": model.inertia,
        "counts": {"Type1": 2, "Type2": 1},
        "members": {"Type1": [1, 2], "Type2": [3]},
        "usage_means": {label: dict(zip(("cpu", "mem", "disk"), means))
                        for label, means in report.usage_means.items()},
        "cluster_labels": {str(c): label for c, label in model.labels.items()},
        "label_notes": {str(c): note for c, note in model.label_notes.items()},
    }

    upath = tmp_path / "usage.csv"
    write_type_usage_csv(report, table, str(upath))
    ulines = upath.read_text().splitlines()
    assert ulines[0] == "label,interval_index,cpu,mem,disk"
    assert len(ulines) == 1 + 2 * N
