import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from trace_insight.preprocess import (
    METRICS,
    AmbiguousDuplicateError,
    DenseUsage,
    RepairMethod,
    filter_container_events,
    interpolate_gap,
    supplement_server_usage,
    write_dense_csv,
    write_removed_events_csv,
    write_repair_log_csv,
)
from trace_insight.trace_model import (
    ContainerEventType,
    IntervalGrid,
    Table,
)

GRID = IntervalGrid(1000, 1500, 100)   # 6 sample slots


def usage_row(ts, machine, cpu):
    return (ts, machine, cpu, cpu / 2, 0.4, 0.0, 0.0, 0.0)


def bundle_with(rows, machine_count=1):
    return oracles.bundle_from_rows(server_usage=rows, machine_count=machine_count)


def cpu_repairs(repairs):
    return repairs.take(repairs.metric == "cpu")


# ---------------------------------------------------------------------------
# gap interpolation


def test_interpolate_gap_walks_the_line():
    assert interpolate_gap(left_value=10.0, right_value=16.0, span_count=4,
                           missing_index=1) == 12.0
    assert interpolate_gap(10.0, 16.0, 4, 2) == 14.0
    # arrays: one gap per row, the row's samples broadcast across columns
    got = interpolate_gap(np.array([[10.0, 0.0], [1.0, 1.0]]),
                          np.array([[16.0, 3.0], [4.0, 1.0]]),
                          np.array([[4], [5]]), np.array([[2], [1]]))
    assert got.tolist() == [[14.0, 2.0], [1.75, 1.0]]


def test_interpolate_gap_validates_inputs():
    with pytest.raises(ValueError, match="span_count 2 leaves nothing to fill"):
        interpolate_gap(1.0, 2.0, 2, 1)
    with pytest.raises(ValueError, match=r"missing_index 0 outside \[1, 2\]"):
        interpolate_gap(1.0, 2.0, 4, 0)
    with pytest.raises(ValueError, match=r"missing_index 3 outside \[1, 2\]"):
        interpolate_gap(1.0, 2.0, 4, 3)
    with pytest.raises(ValueError, match=r"missing_index 4 outside \[1, 3\]"):
        interpolate_gap(np.zeros(3), np.ones(3), np.array([4, 5, 5]),
                        np.array([1, 4, 9]))


@given(
    st.floats(-100, 100),
    st.floats(-5, 5),
    st.integers(min_value=3, max_value=40),
    st.data(),
)
def test_interpolation_restores_affine_series(intercept, slope, span, data):
    missing = data.draw(st.integers(min_value=1, max_value=span - 2))
    truth = intercept + slope * missing
    left = intercept
    right = intercept + slope * (span - 1)
    got = interpolate_gap(left, right, span, missing)
    assert got == pytest.approx(truth, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# densification


def test_supplement_fills_interior_gap_linearly():
    rows = [usage_row(1000, 1, 0.10), usage_row(1100, 1, 0.20),
            usage_row(1400, 1, 0.50), usage_row(1500, 1, 0.60)]
    dense, repairs = supplement_server_usage(bundle_with(rows), GRID)
    cpu = dense.values[0, :, METRICS.index("cpu")]
    assert cpu == pytest.approx([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    filled = cpu_repairs(repairs)
    assert list(zip(filled.timestamp.tolist(), filled.method.tolist())) == [
        (1200, RepairMethod.INTERPOLATED.value),
        (1300, RepairMethod.INTERPOLATED.value)]


def test_supplement_holds_boundary_values():
    rows = [usage_row(1200, 1, 0.30), usage_row(1300, 1, 0.40)]
    dense, repairs = supplement_server_usage(bundle_with(rows), GRID)
    cpu = dense.values[0, :, METRICS.index("cpu")]
    assert cpu == pytest.approx([0.3, 0.3, 0.3, 0.4, 0.4, 0.4])
    held = cpu_repairs(repairs)
    methods = dict(zip(held.timestamp.tolist(), held.method.tolist()))
    assert methods == {
        1000: RepairMethod.BOUNDARY_HELD.value,
        1100: RepairMethod.BOUNDARY_HELD.value,
        1400: RepairMethod.BOUNDARY_HELD.value,
        1500: RepairMethod.BOUNDARY_HELD.value,
    }
    # observed samples carry no annotation and keep their exact values
    assert 1200 not in methods and 1300 not in methods


def test_supplement_zero_fills_machines_with_no_rows():
    rows = [usage_row(1000 + 100 * i, 1, 0.2) for i in range(6)]
    dense, repairs = supplement_server_usage(bundle_with(rows, machine_count=2), GRID)
    # machine 2 is row 1
    assert dense.values[1, :, METRICS.index("mem")] == pytest.approx([0.0] * 6)
    zero_filled = repairs.take(repairs.machine == 2)
    assert len(zero_filled) == 6 * len(METRICS)
    assert set(zero_filled.method.tolist()) == {RepairMethod.ZERO_FILLED.value}


def test_supplement_averages_rows_sharing_a_slot():
    rows = [usage_row(1000 + 100 * i, 1, 0.2) for i in range(6)]
    rows.append(usage_row(1050, 1, 0.4))   # lands in slot 0 next to 0.2
    dense, _ = supplement_server_usage(bundle_with(rows), GRID)
    assert dense.values[0, 0, METRICS.index("cpu")] == pytest.approx(0.3)


@given(st.data())
def test_supplement_never_touches_observed_samples(data):
    present = data.draw(st.lists(
        st.integers(min_value=0, max_value=5),
        min_size=1, max_size=6, unique=True))
    values = {slot: data.draw(st.floats(0, 1)) for slot in present}
    rows = [usage_row(1000 + 100 * s, 1, v) for s, v in values.items()]
    dense, repairs = supplement_server_usage(bundle_with(rows), GRID)
    cpu = dense.values[0, :, METRICS.index("cpu")]
    for slot, value in values.items():
        assert cpu[slot] == value
    annotated = set(cpu_repairs(repairs).timestamp.tolist())
    assert annotated == {1000 + 100 * s for s in range(6) if s not in present}


@st.composite
def gappy_traces(draw):
    """(rows, machine_count, grid): each machine observed at a random subset
    of slots, so holes lead, trail, sit inside or cover the whole machine,
    with up to three rows per slot, plus rows off the grid or naming a
    machine the trace does not have, all in a random record order."""
    machine_count = draw(st.integers(1, 5))
    grid = IntervalGrid(1000, 1000 + 100 * draw(st.integers(1, 9)), 100)
    sample = st.tuples(*[st.floats(-10, 10)] * len(METRICS))
    rows = []
    for machine in range(1, machine_count + 1):
        for slot in draw(st.sets(st.integers(0, grid.timestamp_count - 1))):
            for offset in draw(st.lists(st.integers(0, 99), min_size=1, max_size=3)):
                rows.append((1000 + 100 * slot + offset, machine, *draw(sample)))
    strays = st.one_of(
        st.tuples(st.integers(0, 999), st.integers(1, machine_count)),
        st.tuples(st.integers(grid.end + 100, grid.end + 500),
                  st.integers(1, machine_count)),
        st.tuples(st.integers(1000, grid.end + 99),
                  st.sampled_from([0, machine_count + 1, machine_count + 7])))
    rows += [(*stray, *draw(sample)) for stray in draw(st.lists(strays, max_size=4))]
    return draw(st.permutations(rows)), machine_count, grid


@settings(max_examples=200)
@given(gappy_traces())
@example(([usage_row(1220, 1, 0.25), usage_row(1290, 1, 0.5),   # two rows in slot 2
           usage_row(1400, 1, 0.125), usage_row(1000, 3, 0.75),
           usage_row(1500, 3, 0.0625), usage_row(1300, 4, 0.5),
           usage_row(900, 2, 0.5), usage_row(1600, 2, 0.5),     # off the grid
           usage_row(1100, 5, 0.5)],                            # no machine 5
          4, GRID))
def test_supplement_matches_the_cell_by_cell_reference(trace):
    rows, machine_count, grid = trace
    bundle = bundle_with(rows, machine_count)
    dense, repairs = supplement_server_usage(bundle, grid)
    values, expected = oracles.supplement_reference(bundle, grid)
    # tobytes() alone cannot tell int64 zeros from float64 ones
    assert dense.values.dtype == repairs.value.dtype == values.dtype == np.float64
    assert dense.values.tobytes() == values.tobytes()
    assert len(repairs) == len(expected)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "repair_log.csv")
        write_repair_log_csv(repairs, path)
        with open(path, encoding="utf-8", newline="") as fh:
            assert fh.read() == oracles.repair_log_text(expected)


def test_a_trace_without_usage_rows_writes_float_loads(tmp_path):
    # both machines are zero-filled: loads print as 0.0 in both files, as
    # in a trace with usage rows, and fractions as the percent text 0
    dense, repairs = supplement_server_usage(bundle_with([], machine_count=2), GRID)
    assert dense.values.dtype == repairs.value.dtype == np.float64
    write_dense_csv(dense, str(tmp_path / "dense.csv"))
    write_repair_log_csv(repairs, str(tmp_path / "repairs.csv"))
    dense_lines = (tmp_path / "dense.csv").read_text().splitlines()[1:]
    assert dense_lines == [f"{m},{ts},0,0,0,0.0,0.0,0.0" for m in (1, 2)
                           for ts in GRID.timestamps().tolist()]
    repair_lines = (tmp_path / "repairs.csv").read_text().splitlines()[1:]
    assert len(repair_lines) == 2 * len(METRICS) * GRID.timestamp_count
    for line in repair_lines:
        _machine, metric, _ts, method, value = line.split(",")
        assert method == "ZeroFilled"
        assert value == ("0" if metric in ("cpu", "mem", "disk") else "0.0"), line


# ---------------------------------------------------------------------------
# duplicate container events


def events(*pairs):
    """Container events for (instance, mem_req) pairs; disk_req numbers
    them in input order."""
    return oracles.table_from_rows("container_event", [
        (0, ContainerEventType.CREATE, instance, 1, 4.0, mem_req, float(i), "")
        for i, (instance, mem_req) in enumerate(pairs)])


def test_filter_keeps_unique_events_untouched():
    clean, removed = filter_container_events(events((1, 0.05), (2, 0.95)))
    assert clean.instance.tolist() == [1, 2]
    assert clean.mem_req.tolist() == [0.05, 0.95]
    assert len(removed) == 0


def test_filter_drops_the_oversized_twin():
    clean, removed = filter_container_events(
        events((1, 0.05), (2, 0.03), (2, 1.00001)))
    assert clean.instance.tolist() == [1, 2]
    assert clean.mem_req[1] == 0.03
    assert removed.mem_req.tolist() == [1.00001]


def test_filter_preserves_input_order_and_multiset():
    clean, removed = filter_container_events(events(
        (3, 0.9000001), (3, 0.02), (1, 0.05), (2, 1.00001), (2, 0.04)))
    assert clean.disk_req.tolist() == [1.0, 2.0, 4.0]
    assert removed.disk_req.tolist() == [0.0, 3.0]
    assert clean.instance.tolist() == [3, 1, 2]


def test_filter_rejects_unresolvable_duplicates():
    with pytest.raises(AmbiguousDuplicateError):
        filter_container_events(events((1, 0.02), (1, 0.03)))
    with pytest.raises(AmbiguousDuplicateError):
        filter_container_events(events((1, 0.95), (1, 1.00001)))
    # the first ambiguous instance to appear is the one named
    with pytest.raises(AmbiguousDuplicateError, match="instance 9 has 2 records "
                                                      "of which 2 have"):
        filter_container_events(events((1, 0.02), (9, 0.02), (5, 0.95), (9, 0.03),
                                       (5, 0.96), (5, 0.97)))


def test_removed_events_csv_lists_each_removed_event(tmp_path):
    _clean, removed = filter_container_events(
        events((3, 0.9000001), (3, 0.02), (1, 0.05), (2, 1.00001), (2, 0.04)))
    path = tmp_path / "removed.csv"
    write_removed_events_csv(removed, str(path))
    assert path.read_text() == ("instance,machine,mem_req\n"
                                "3,1,0.9000001\n2,1,1.00001\n")
    write_removed_events_csv(removed.take(np.zeros(len(removed), bool)), str(path))
    assert path.read_text() == "instance,machine,mem_req\n"


# ---------------------------------------------------------------------------
# dense CSV round trip


def test_dense_csv_round_trip_is_exact(tmp_path, monkeypatch):
    # blocks of 5 lines split machines apart and leave a short last block
    monkeypatch.setattr("trace_insight.cells.BLOCK_LINES", 5)
    rng = np.random.default_rng(5)
    values = rng.random((2, GRID.timestamp_count, len(METRICS)))
    dense = DenseUsage(timestamps=GRID.timestamps(), values=values)
    path = tmp_path / "dense.csv"
    write_dense_csv(dense, str(path))
    machines, timestamps, back = oracles.read_dense_csv(str(path))
    assert machines == [1, 2]   # row m - 1 is machine m
    assert timestamps == dense.timestamps.tolist()
    assert np.array(back).tobytes() == dense.values.tobytes()


def test_dense_csv_uses_percent_cells_for_usage_fractions(tmp_path):
    dense = DenseUsage(
        timestamps=np.array([1000], dtype=np.int64),
        values=np.array([[[0.25, 0.5, 0.125, 1.5, 1.25, 1.0]]]),
    )
    path = tmp_path / "dense.csv"
    write_dense_csv(dense, str(path))
    header, row = path.read_text().splitlines()
    assert header.split(",") == ["machine", "timestamp"] + list(METRICS)
    cells = row.split(",")
    assert cells[2:5] == ["25", "50", "12.5"]   # fractions published as percents
    assert cells[5:] == ["1.5", "1.25", "1.0"]  # loads stay plain


def test_repair_log_percent_convention(tmp_path):
    repairs = Table("repair_log", {
        "machine": np.array([1, 1]),
        "metric": np.array(["cpu", "load1"]),
        "timestamp": np.array([1000, 1000]),
        "method": np.array([RepairMethod.INTERPOLATED.value,
                            RepairMethod.ZERO_FILLED.value]),
        "value": np.array([0.125, 0.0]),
    })
    path = tmp_path / "repairs.csv"
    write_repair_log_csv(repairs, str(path))
    lines = path.read_text().splitlines()
    assert lines[1].split(",") == ["1", "cpu", "1000", "Interpolated", "12.5"]
    assert lines[2].split(",") == ["1", "load1", "1000", "ZeroFilled", "0.0"]
    write_repair_log_csv(repairs.take(np.zeros(2, bool)), str(path))
    assert path.read_text() == "machine,metric,timestamp,method,value\n"
