import os

import numpy as np
import pytest
from hypothesis import given, strategies as st

from trace_insight.trace_model import (
    BatchInstanceRecord,
    BatchTaskRecord,
    ContainerEvent,
    ContainerEventType,
    ContainerUsageRecord,
    InstanceStatus,
    IntervalGrid,
    MachineEvent,
    MachineEventType,
    ServerUsageRecord,
    TaskStatus,
    TraceBundle,
    TraceParseError,
    float_text,
    fraction_to_percent_text,
    parse_trace_dir,
    parse_trace_file,
    percent_text_to_fraction,
    validate_bundle,
    write_trace_dir,
)


def small_bundle() -> TraceBundle:
    return TraceBundle(
        events=[
            MachineEvent(0, 1, MachineEventType.ADD, None, 64, 1.0, 1.0),
            MachineEvent(0, 2, MachineEventType.ADD, None, 64, 1.0, 1.0),
            MachineEvent(40000, 2, MachineEventType.SOFT_ERROR,
                         "disk full", 0, 0.0, 0.0),
        ],
        server_usage=[
            ServerUsageRecord(39600, 1, 0.25, 0.55, 0.5, 1.2, 1.1, 1.0),
            ServerUsageRecord(39900, 1, 0.26, 0.54, 0.5, 1.2, 1.1, 1.0),
        ],
        container_events=[
            ContainerEvent(0, ContainerEventType.CREATE, 7, 1,
                           8.0, 0.0424093, 0.01, (1, 2, 3)),
        ],
        container_usage=[
            ContainerUsageRecord(39600, 7, 0.3, 0.6, 0.1, 0.5,
                                 0.0, 0.0, 0.0, 1.5, 1.2, 2.0, 1.8),
        ],
        batch_tasks=[
            BatchTaskRecord(39601, 39700, 11, 1, 2, TaskStatus.TERMINATED,
                            1.0, 0.01),
        ],
        batch_instances=[
            BatchInstanceRecord(39601, 39650, 11, 1, 1,
                                InstanceStatus.TERMINATED, 1, 2,
                                0.9, 0.7, 0.012, 0.011),
            BatchInstanceRecord(39651, 39700, 11, 1, 0,
                                InstanceStatus.TERMINATED, 2, 2,
                                0.8, 0.6, 0.012, 0.011),
        ],
        machine_count=2,
    )


# ---------------------------------------------------------------------------
# percent cells


def test_percent_text_parses_to_fraction():
    assert percent_text_to_fraction("25") == 0.25
    assert percent_text_to_fraction(" 4.5 ") == 0.045
    assert percent_text_to_fraction("0") == 0.0


def test_percent_text_rejects_junk():
    with pytest.raises(ValueError):
        percent_text_to_fraction("four")
    with pytest.raises(ValueError):
        percent_text_to_fraction("")


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_percent_round_trip_is_bit_exact(value):
    text = fraction_to_percent_text(value)
    assert percent_text_to_fraction(text) == value


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_text_round_trip(value):
    assert float(float_text(value)) == value


# ---------------------------------------------------------------------------
# interval grid


def test_grid_counts_and_timestamps():
    grid = IntervalGrid(39600, 82500, 300)
    assert grid.interval_count == 143
    assert grid.timestamp_count == 144
    ts = grid.timestamps()
    assert ts[0] == 39600 and ts[-1] == 82500
    assert np.all(np.diff(ts) == 300)


def test_grid_rejects_bad_shapes():
    with pytest.raises(ValueError):
        IntervalGrid(0, 0, 300)
    with pytest.raises(ValueError):
        IntervalGrid(0, 301, 300)
    with pytest.raises(ValueError):
        IntervalGrid(0, 300, 0)


def test_interval_bounds():
    # interval x is the closed span between timestamps x and x + 1
    ts = IntervalGrid(100, 400, 100).timestamps()
    assert list(zip(ts[:-1].tolist(), ts[1:].tolist())) == [
        (100, 200), (200, 300), (300, 400)]


@given(st.integers(min_value=-500, max_value=1500))
def test_interval_index_is_half_open(ts):
    grid = IntervalGrid(100, 1000, 100)
    x = grid.interval_index(ts)
    if 100 <= ts < 1000:
        bounds = grid.timestamps()
        assert bounds[x] <= ts < bounds[x + 1]
    else:
        assert x is None


@given(st.integers(min_value=-500, max_value=1500))
def test_timestamp_slot_covers_the_last_sample(ts):
    grid = IntervalGrid(100, 1000, 100)
    slot = grid.timestamp_slot(ts)
    if 100 <= ts < 1100:
        assert slot == (ts - 100) // 100
    else:
        assert slot is None


# ---------------------------------------------------------------------------
# round trip through the six-file layout


def test_write_then_parse_round_trips(tmp_path):
    bundle = small_bundle()
    write_trace_dir(bundle, str(tmp_path))
    back = parse_trace_dir(str(tmp_path))
    assert back.events == bundle.events
    assert back.server_usage == bundle.server_usage
    assert back.container_events == bundle.container_events
    assert back.container_usage == bundle.container_usage
    assert back.batch_tasks == bundle.batch_tasks
    assert back.batch_instances == bundle.batch_instances
    assert back.machine_count == bundle.machine_count


def test_write_is_byte_deterministic(tmp_path):
    bundle = small_bundle()
    write_trace_dir(bundle, str(tmp_path / "a"))
    write_trace_dir(bundle, str(tmp_path / "b"))
    for name in sorted(os.listdir(tmp_path / "a")):
        first = (tmp_path / "a" / name).read_bytes()
        second = (tmp_path / "b" / name).read_bytes()
        assert first == second, name


def test_blank_machine_cell_round_trips_as_unplaced(tmp_path):
    bundle = small_bundle()
    write_trace_dir(bundle, str(tmp_path))
    rows = (tmp_path / "batch_instance.csv").read_text().splitlines()
    # second instance has no machine assignment
    assert rows[1].split(",")[4] == ""
    back = parse_trace_dir(str(tmp_path))
    assert back.batch_instances[1].machine == 0


def test_parse_skips_malformed_rows_with_diagnostics(tmp_path):
    path = tmp_path / "server_usage.csv"
    path.write_text(
        "39600,1,25,55,50,1.0,1.0,1.0\n"
        "oops\n"
        "39900,1,not_a_number,55,50,1.0,1.0,1.0\n"
    )
    records, diags = parse_trace_file(str(path), "server_usage")
    assert len(records) == 1
    assert len(diags) == 2
    assert diags[0].line == 2


def test_parse_dir_rejects_high_skip_ratio(tmp_path):
    write_trace_dir(small_bundle(), str(tmp_path))
    (tmp_path / "server_usage.csv").write_text(
        "39600,1,25,55,50,1.0,1.0,1.0\n"
        "broken row\n"
    )
    with pytest.raises(TraceParseError, match="rejected"):
        parse_trace_dir(str(tmp_path), max_skip_ratio=0.01)
    # a permissive ratio lets the same directory through
    bundle = parse_trace_dir(str(tmp_path), max_skip_ratio=0.9)
    assert len(bundle.server_usage) == 1


def test_parse_dir_missing_file_raises(tmp_path):
    write_trace_dir(small_bundle(), str(tmp_path))
    os.remove(tmp_path / "batch_task.csv")
    with pytest.raises(TraceParseError, match="missing trace file"):
        parse_trace_dir(str(tmp_path))


def test_header_row_is_skipped_when_declared(tmp_path):
    write_trace_dir(small_bundle(), str(tmp_path))
    for name in os.listdir(tmp_path):
        body = (tmp_path / name).read_text()
        (tmp_path / name).write_text("h1,h2\n" + body)
    bundle = parse_trace_dir(str(tmp_path), has_header=True)
    assert len(bundle.server_usage) == 2


# ---------------------------------------------------------------------------
# validation report


def test_validate_reports_missing_and_undersampled_machines():
    bundle = small_bundle()
    bundle.machine_count = 3
    bundle.server_usage.append(
        ServerUsageRecord(39600, 3, 0.1, 0.1, 0.1, 0.0, 0.0, 0.0))
    report = validate_bundle(bundle)
    assert report.expected_samples == 2
    assert report.machines_no_usage == [2]
    assert report.machines_undersampled == [(3, 1)]


def test_validate_counts_duplicates_and_zero_timestamps():
    bundle = small_bundle()
    bundle.container_events.append(
        ContainerEvent(0, ContainerEventType.CREATE, 7, 1,
                       8.0, 1.00001, 0.01, None))
    bundle.batch_instances.append(
        BatchInstanceRecord(0, 39700, 12, 1, 1, InstanceStatus.FAILED,
                            1, 1, 0.0, 0.0, 0.0, 0.0))
    report = validate_bundle(bundle)
    assert report.duplicate_container_instances == {7: 2}
    assert report.zero_timestamp_batch_instances == 1
