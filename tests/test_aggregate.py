import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from trace_insight import aggregate
from trace_insight.aggregate import (
    AggDiagnostics,
    BATCH_AGG_HEADER,
    CONTAINER_AGG_HEADER,
    SERIES_HEADER,
    aggregate_batch_usage,
    aggregate_container_usage,
    build_machine_series,
    machine_cpu_counts,
    median,
    SeriesTable,
    overlap_runtime,
    write_aggregate_csvs,
)
from trace_insight.preprocess import METRICS
from trace_insight.synth import SynthConfig, generate_trace
from trace_insight.trace_model import (
    ContainerEventType,
    InstanceStatus,
    IntervalGrid,
    MachineEventType,
)

GRID = IntervalGrid(1000, 1400, 100)   # 4 intervals


def add_event(machine, cores=64):
    return (0, machine, MachineEventType.ADD, "", cores, 1.0, 1.0)


def container(instance, machine, cpu_req=8.0, mem_req=0.05, ts=0):
    return (ts, ContainerEventType.CREATE, instance, machine,
            cpu_req, mem_req, 0.01, "")


def usage(instance, ts, cpu_of_req, mem_of_req=0.6):
    return (ts, instance, cpu_of_req, mem_of_req, 0.1,
            0.4, 0.0, 0.0, 0.0, 1.5, 1.2, 2.0, 1.8)


def instance(start, end, machine=1, avg_cpu=0.8, avg_mem=0.01, job=1):
    return (start, end, job, 1, machine, InstanceStatus.TERMINATED, 1, 1,
            avg_cpu, avg_cpu, avg_mem, avg_mem)


# ---------------------------------------------------------------------------
# core counts


def test_machine_cpu_counts_takes_the_positive_max():
    bundle = oracles.bundle_from_rows(events=[
        add_event(1, 64),
        (5, 1, MachineEventType.SOFT_ERROR, "x", 0, 0.0, 0.0),
        add_event(2, 96),
    ], machine_count=3)
    # row m - 1 is machine m; machine 3 has no event and no core count
    assert machine_cpu_counts(bundle).tolist() == [64, 96, 0]


def test_container_aggregation_needs_a_core_count():
    bundle = oracles.bundle_from_rows(container_events=[container(7, 1)],
                                      machine_count=1)
    with pytest.raises(ValueError, match="core count"):
        aggregate_container_usage(bundle, GRID)


# ---------------------------------------------------------------------------
# closed-interval overlap


def test_overlap_covers_all_four_positions():
    iv = (1100, 1200)   # interval 1
    assert overlap_runtime(1120, 1180, *iv) == 60    # inside
    assert overlap_runtime(1050, 1150, *iv) == 50    # enters
    assert overlap_runtime(1150, 1250, *iv) == 50    # leaves
    assert overlap_runtime(1000, 1300, *iv) == 100   # covers
    assert overlap_runtime(900, 1050, *iv) == 0      # disjoint left
    assert overlap_runtime(1250, 1300, *iv) == 0     # disjoint right
    assert overlap_runtime(1200, 1250, *iv) == 0     # touches the boundary


@given(st.integers(0, 2000), st.integers(0, 800))
def test_overlap_matches_the_clip_formula(start, length):
    end = start + length
    ts = GRID.timestamps()
    overlaps = overlap_runtime(start, end, ts[:-1], ts[1:])
    assert overlaps.tolist() == [
        oracles.clipped_overlap(start, end, lo, hi)
        for lo, hi in zip(ts[:-1].tolist(), ts[1:].tolist())]


# ties, signed zeros, infinities and NaN, mixed with any float
MEDIAN_CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, math.inf, -math.inf, math.nan]),
    st.floats())


@settings(max_examples=300)
@given(st.lists(MEDIAN_CELLS, min_size=1, max_size=40))
def test_median_is_np_median_bit_for_bit(cells):
    values = np.array(cells)
    with np.errstate(invalid="ignore", over="ignore"):
        want = np.median(values)
        got = median(values)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert values.tobytes() == np.array(cells).tobytes()   # left as it was


@pytest.mark.parametrize("cells, want", [
    ([3.0], 3.0),
    ([4.0, 1.0], 2.5),
    ([5.0, 1.0, 3.0], 3.0),
    ([2.0, 2.0, 1.0, 9.0], 2.0),
    ([-0.0, -0.0], 0.0),   # np.mean adds from +0.0, as np.median does
    ([math.inf, -math.inf], math.nan),
    ([1.0, math.nan, 2.0], math.nan),
])
def test_median_takes_the_middle_value_or_the_two_middle_values(cells, want):
    with np.errstate(invalid="ignore"):
        got = median(np.array(cells))
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


# ---------------------------------------------------------------------------
# container attribution


def container_bundle(extra_events=(), extra_usage=()):
    return oracles.bundle_from_rows(
        events=[add_event(1)],
        container_events=[container(7, 1), *extra_events],
        container_usage=[
            usage(7, 1000, 0.5),
            usage(7, 1100, 0.4),
            usage(7, 1150, 0.6),
            *extra_usage,
        ],
        machine_count=1,
    )


def test_container_usage_is_scaled_by_request_over_cores():
    table = aggregate_container_usage(container_bundle(), GRID)
    assert table.seen.tolist() == [True]
    # 50% of an 8-core request on a 64-core machine
    assert table.cpu[0, 0] == pytest.approx(0.5 * 8.0 / 64.0)
    assert table.mem[0, 0] == pytest.approx(0.6 * 0.05)
    # two samples in interval 1 average to 0.5 before scaling
    assert table.cpu[0, 1] == pytest.approx(0.5 * 8.0 / 64.0)
    assert table.cpu[0, 2] == 0.0


def test_container_counts_run_from_creation_to_the_end():
    bundle = container_bundle(extra_events=[container(8, 1, ts=1150)])
    counts = aggregate_container_usage(bundle, GRID).count[0].tolist()
    # instance 7 exists everywhere; instance 8 joins in interval 1,
    # whose closed span [1100, 1200] is the first to contain ts 1150
    assert counts == [1, 2, 2, 2]


def test_container_created_on_a_boundary_counts_in_the_earlier_interval():
    bundle = container_bundle(extra_events=[container(8, 1, ts=1100)])
    counts = aggregate_container_usage(bundle, GRID).count[0].tolist()
    assert counts == [2, 2, 2, 2]


def test_container_usage_keeps_its_operation_order():
    # (0.1 + 0.2) + 0.3 and 0.3 + 0.2 + 0.1 round differently
    assert 0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1
    bundle = oracles.bundle_from_rows(
        events=[add_event(1)],
        # request == cores, so containers 1-3 charge their cpu_of_req exactly
        container_events=[container(i, 1, cpu_req=64.0) for i in (1, 2, 3)]
        + [container(4, 1, cpu_req=6.0)],
        container_usage=[usage(3, 1000, 0.1), usage(2, 1010, 0.2), usage(1, 1020, 0.3),
                         usage(4, 1100, 0.3), usage(4, 1110, 0.6), usage(4, 1120, 0.7)],
        machine_count=1)
    table = aggregate_container_usage(bundle, GRID)
    # a cell adds its containers in the order they first show up in it
    assert table.cpu[0, 0] == 0.0 + 0.1 + 0.2 + 0.3
    # records are averaged before scaling by request / cores, and the other
    # order rounds differently here
    assert table.cpu[0, 1] == (0.3 + 0.6 + 0.7) / 3 * 6.0 / 64
    assert table.cpu[0, 1] != (0.3 + 0.6 + 0.7) * 6.0 / 3 / 64


def test_container_aggregation_refuses_unfiltered_events():
    # a second, oversized event of instance 7 that filtering would remove
    bundle = container_bundle(extra_events=[container(7, 1, mem_req=0.95)])
    with pytest.raises(ValueError, match="^instance 7 has several container events"):
        aggregate_container_usage(bundle, GRID)


def test_container_diagnostics_cover_unknown_and_out_of_grid():
    bundle = container_bundle(extra_usage=[usage(99, 1000, 0.5),   # never created
                                           usage(7, 5000, 0.5)])   # beyond the grid
    diag = AggDiagnostics()
    aggregate_container_usage(bundle, GRID, diagnostics=diag)
    assert diag.unknown_instance_records == 1
    assert diag.out_of_grid_usage_records == 1


# ---------------------------------------------------------------------------
# batch attribution


def batch_bundle(instances):
    return oracles.bundle_from_rows(events=[add_event(1), add_event(2)],
                                    batch_instances=list(instances), machine_count=2)


def test_batch_instance_fully_inside_charges_its_average():
    table = aggregate_batch_usage(batch_bundle([instance(1010, 1050)]), GRID)
    assert table.seen.tolist() == [True, False]
    assert len(table) == GRID.interval_count   # the cells of seen machines
    assert table.count[0].tolist() == [1, 0, 0, 0]
    assert table.cpu_cores[0, 0] == 0.8
    assert table.cpu[0, 0] == 0.8 / 64.0
    assert table.mem[0, 0] == 0.01


def test_batch_instance_spanning_intervals_charges_runtime_shares():
    table = aggregate_batch_usage(batch_bundle([instance(1050, 1250)]), GRID)
    assert table.cpu_cores[0, 0] == pytest.approx(0.8 * 50 / 200)
    assert table.cpu_cores[0, 1] == pytest.approx(0.8 * 100 / 200)
    assert table.cpu_cores[0, 2] == pytest.approx(0.8 * 50 / 200)
    assert table.count[0].tolist() == [1, 1, 1, 0]


def test_batch_point_touch_counts_but_charges_nothing():
    # ends exactly where interval 0 begins
    table = aggregate_batch_usage(batch_bundle([instance(990, 1000)]), GRID)
    assert table.count[0, 0] == 1
    assert table.cpu_cores[0, 0] == 0.0


def test_zero_runtime_instance_is_charged_once_to_the_last_interval_it_touches():
    # 1100 closes interval 0 and opens interval 1
    table = aggregate_batch_usage(batch_bundle([instance(1100, 1100)]), GRID)
    assert table.count[0].tolist() == [1, 1, 0, 0]
    assert table.cpu_cores[0].tolist() == [0.0, 0.8, 0.0, 0.0]
    assert table.mem[0].tolist() == [0.0, 0.01, 0.0, 0.0]


def test_batch_cell_adds_its_instances_in_input_order():
    table = aggregate_batch_usage(batch_bundle(
        [instance(1010, 1050, avg_cpu=v) for v in (0.1, 0.2, 0.3)]), GRID)
    assert table.cpu_cores[0, 0] == 0.0 + 0.1 + 0.2 + 0.3


def test_batch_instance_outside_the_grid_is_ignored():
    table = aggregate_batch_usage(batch_bundle([instance(900, 950)]), GRID)
    assert table.seen.tolist() == [True, False]
    assert not table.count.any()


def test_batch_skips_carry_diagnostics():
    rows = [
        instance(0, 1050),            # zero start
        instance(1010, 0),            # zero end
        instance(1010, 1050, machine=0),
        instance(1100, 1050),         # ends before it starts
        instance(1010, 1050),
    ]
    diag = AggDiagnostics()
    table = aggregate_batch_usage(batch_bundle(rows), GRID, diagnostics=diag)
    assert diag.zero_timestamp_instances == 2
    assert diag.unplaced_instances == 1
    assert diag.invalid_span_instances == 1
    assert table.count[0, 0] == 1


@given(st.integers(1000, 1399), st.integers(0, 400))
def test_batch_charge_is_conserved_inside_the_grid(start, length):
    end = min(start + length, 1400)
    table = aggregate_batch_usage(batch_bundle([instance(start, end)]), GRID)
    assert table.cpu_cores.sum() == pytest.approx(0.8, rel=1e-9)


def test_borrowed_core_counts_are_counted():
    bundle = oracles.bundle_from_rows(events=[add_event(1, 96)],
                                      batch_instances=[instance(1010, 1050, machine=2)],
                                      machine_count=2)
    diag = AggDiagnostics()
    table = aggregate_batch_usage(bundle, GRID, diagnostics=diag)
    # machine 2 (row 1) has no event of its own and borrows machine 1's 96 cores
    assert table.cpu[1, 0] == 0.8 / 96.0
    assert diag.borrowed_core_machines == {2}
    aggregate_container_usage(oracles.bundle_from_rows(
        events=[add_event(1, 96)], container_events=[container(7, 2)],
        machine_count=2), GRID, diag)
    assert diag.counts()["borrowed_core_machines"] == 1


# ---------------------------------------------------------------------------
# array attribution against the record-by-record oracles

# Off-grid stamps, interior ones and (often) exact grid boundaries, drawn
# from few values so that cells collect several instances and (instance,
# interval) pairs several records: only then does summation order show.
STAMPS = st.one_of(st.integers(850, 1550),
                   st.sampled_from((990, 1000, 1050, 1100, 1199, 1300, 1400)))
CORES = {1: 64, 2: 96, 3: 40}
FRACTIONS = st.floats(0.0, 1.0)


def cores_bundle(**records):
    return oracles.bundle_from_rows(events=[add_event(m, c) for m, c in CORES.items()],
                                    machine_count=len(CORES), **records)


@given(st.dictionaries(st.integers(1, 5),
                       st.tuples(st.integers(1, 2), st.one_of(st.just(0), STAMPS),
                                 st.floats(0.25, 16.0), FRACTIONS),
                       max_size=5),
       st.lists(st.tuples(STAMPS, st.integers(1, 6), FRACTIONS, FRACTIONS),
                max_size=60))
def test_container_attribution_matches_the_oracle(events, records):
    # instance 6 never has an event; 1-5 only sometimes
    event_rows = [(inst, *fields) for inst, fields in events.items()]
    bundle = cores_bundle(
        container_events=[container(inst, m, cpu_req, mem_req, ts)
                          for inst, m, ts, cpu_req, mem_req in event_rows],
        container_usage=[usage(inst, ts, cpu, mem) for ts, inst, cpu, mem in records])
    diag = AggDiagnostics()
    table = aggregate_container_usage(bundle, GRID, diag)
    expected, skipped = oracles.attribute_containers(
        event_rows, records, CORES, GRID.start, GRID.end, GRID.step)
    assert table.seen.tolist() == [m in expected for m in CORES]
    assert len(table) == len(expected) * GRID.interval_count
    # a machine the oracle never saw is a row of zeros
    zeros = ([0] * GRID.interval_count, [0.0] * GRID.interval_count,
             [0.0] * GRID.interval_count)
    for m in CORES:
        assert (table.count[m - 1].tolist(), table.cpu[m - 1].tolist(),
                table.mem[m - 1].tolist()) == expected.get(m, zeros)
    assert (diag.unknown_instance_records, diag.out_of_grid_usage_records) == skipped


@given(st.lists(st.tuples(st.one_of(st.just(0), STAMPS),
                          st.one_of(st.just(0), st.sampled_from((50, 100, 300)),
                                    st.integers(-50, 450)),
                          st.booleans(), st.integers(0, 2),
                          st.floats(0.0, 16.0), FRACTIONS),
                max_size=16))
def test_batch_attribution_matches_the_oracle(draws):
    rows = [(start, 0 if zero_end else start + length, m, cpu, mem)
            for start, length, zero_end, m, cpu, mem in draws]
    bundle = cores_bundle(batch_instances=[
        instance(start, end, machine=m, avg_cpu=cpu, avg_mem=mem)
        for start, end, m, cpu, mem in rows])
    diag = AggDiagnostics()
    table = aggregate_batch_usage(bundle, GRID, diag)
    expected, skipped = oracles.attribute_batch(
        rows, CORES, GRID.start, GRID.end, GRID.step)
    assert table.seen.tolist() == [m in expected for m in CORES]
    assert len(table) == len(expected) * GRID.interval_count
    # a machine the oracle never saw is a row of zeros
    zeros = ([0] * GRID.interval_count, *[[0.0] * GRID.interval_count] * 3)
    for m in CORES:
        assert (table.count[m - 1].tolist(), table.cpu_cores[m - 1].tolist(),
                table.cpu[m - 1].tolist(), table.mem[m - 1].tolist()) == \
            expected.get(m, zeros)
    assert (diag.zero_timestamp_instances, diag.unplaced_instances,
            diag.invalid_span_instances) == skipped


# ---------------------------------------------------------------------------
# merged per-machine series


def dense_for(machine_values):
    """Dense usage of machines 1..max(machine_values), machine m in row
    m - 1; a machine left out is a row of zeros."""
    values = np.zeros((max(machine_values), GRID.timestamp_count, len(METRICS)))
    for m, cpu in machine_values.items():
        values[m - 1, :, 0] = cpu
        values[m - 1, :, 1] = np.asarray(cpu) / 2
        values[m - 1, :, 2] = 0.4
    return values


@pytest.mark.parametrize("block", [1, 7])
def test_batch_blocks_give_the_bits_of_one_pass(monkeypatch, block):
    # 16 machines of many short runs: cells collect several instances each,
    # so a block that summed its own cells first would change their bits
    grid = IntervalGrid(39600, 39600 + 24 * 300, 300)
    bundle, _ = generate_trace(SynthConfig(
        machine_count=16, grid=grid, quotas=(9, 1, 1, 1, 1, 1, 1, 1), seed=7,
        noise_level=0.03))
    one_pass = aggregate_batch_usage(bundle, grid)
    assert np.count_nonzero(one_pass.count > 1) > 100
    monkeypatch.setattr(aggregate, "BLOCK_INSTANCES", block)
    blocked = aggregate_batch_usage(bundle, grid)
    for name in ("seen", "count", "cpu", "mem", "cpu_cores"):
        assert getattr(blocked, name).tobytes() == getattr(one_pass, name).tobytes()
        assert getattr(blocked, name).dtype == getattr(one_pass, name).dtype


def test_series_rejects_a_dense_table_that_misses_machines():
    bundle = oracles.bundle_from_rows(events=[add_event(1), add_event(2)],
                                      machine_count=3)
    containers = aggregate_container_usage(bundle, GRID)
    batch = aggregate_batch_usage(bundle, GRID)
    for dense in (dense_for({2: [0.3] * 5}),
                  dense_for({1: [0.3] * 5, 2: [0.3] * 5}),
                  dense_for({m: [0.3] * 5 for m in (1, 2, 3, 4)})):
        with pytest.raises(ValueError, match=r"^dense usage table .* machines 1\.\.3"):
            build_machine_series(bundle, GRID, dense, containers, batch)


def test_series_names_an_aggregate_table_that_misses_machines():
    bundle = oracles.bundle_from_rows(events=[add_event(1), add_event(2)],
                                      machine_count=3)
    containers = aggregate_container_usage(bundle, GRID)
    batch = aggregate_batch_usage(bundle, GRID)
    dense = dense_for({m: [0.3] * 5 for m in (1, 2, 3)})
    # aggregates of a two-machine trace do not fit a three-machine series
    fewer = dataclasses.replace(bundle, machine_count=2)
    for name, tables in (
            ("container", (aggregate_container_usage(fewer, GRID), batch)),
            ("batch", (containers, aggregate_batch_usage(fewer, GRID)))):
        with pytest.raises(ValueError, match=rf"^{name} usage table has shape "
                                             r"\(2, 4\), but machines 1\.\.3"):
            build_machine_series(bundle, GRID, dense, *tables)


def test_series_averages_the_interval_endpoints():
    dense = dense_for({1: [0.1, 0.2, 0.3, 0.4, 0.5], 2: [0.0] * 5})
    bundle = oracles.bundle_from_rows(events=[add_event(1), add_event(2)],
                                      machine_count=2)
    table = build_machine_series(bundle, GRID, dense,
                                 aggregate_container_usage(bundle, GRID),
                                 aggregate_batch_usage(bundle, GRID))
    assert table.server_cpu.shape == (2, GRID.interval_count)
    assert table.server_cpu[0] == pytest.approx([0.15, 0.25, 0.35, 0.45])
    assert table.server_cpu[1] == pytest.approx([0.0] * 4)
    assert table.server_mem[0] == pytest.approx([0.075, 0.125, 0.175, 0.225])
    assert table.server_disk.tolist() == [[0.4] * 4] * 2


def test_series_places_aggregates_and_zero_fills_the_rest():
    dense = dense_for({1: [0.2] * 5, 2: [0.1] * 5})
    bundle = oracles.bundle_from_rows(
        events=[add_event(1), add_event(2)],
        container_events=[container(7, 1)],
        container_usage=[usage(7, 1000, 0.5)],
        batch_instances=[instance(1110, 1150, machine=2)],
        machine_count=2,
    )
    caggs = aggregate_container_usage(bundle, GRID)
    baggs = aggregate_batch_usage(bundle, GRID)
    table = build_machine_series(bundle, GRID, dense, caggs, baggs)
    assert table.container_count.tolist() == [[1, 1, 1, 1], [0, 0, 0, 0]]
    assert table.batch_count.tolist() == [[0, 0, 0, 0], [0, 1, 0, 0]]
    assert table.batch_cpu[1, 1] == pytest.approx(0.8 / 64.0)
    assert table.batch_cpu[0].tolist() == [0.0] * 4
    for field in dataclasses.fields(table):
        signal = getattr(table, field.name)
        assert signal.shape == (2, GRID.interval_count), field.name
        assert signal.dtype == np.float64, field.name


def test_sums_over_no_records_are_float64_and_print_as_floats(tmp_path):
    # a container with no usage record and no batch instance: every sum runs
    # over no records, where bincount alone gives int64 zeros
    bundle = oracles.bundle_from_rows(events=[add_event(1)],
                                      container_events=[container(7, 1)],
                                      machine_count=1)
    caggs = aggregate_container_usage(bundle, GRID)
    baggs = aggregate_batch_usage(bundle, GRID)
    for name, sums in (("container cpu", caggs.cpu), ("container mem", caggs.mem),
                       ("batch cpu", baggs.cpu), ("batch mem", baggs.mem),
                       ("batch cpu_cores", baggs.cpu_cores)):
        assert sums.dtype == np.float64, name
        assert sums.tolist() == [[0.0] * GRID.interval_count], name
    table = build_machine_series(bundle, GRID, dense_for({1: [0.2] * 5}), caggs, baggs)
    write_aggregate_csvs(table, caggs.seen, baggs.seen, GRID, str(tmp_path))
    for row in read_csv(tmp_path / "machine_series.csv"):
        assert [row[c] for c in ("container_count", "container_cpu", "container_mem",
                                 "batch_count", "batch_cpu", "batch_mem")] == \
            ["1", "0.0", "0.0", "0", "0.0", "0.0"]
    for row in read_csv(tmp_path / "container_usage_agg.csv"):
        assert (row["total_cpu"], row["total_mem"]) == ("0.0", "0.0")


def test_series_csv_headers_and_residuals(tmp_path):
    dense = dense_for({1: [0.2] * 5})
    bundle = oracles.bundle_from_rows(
        events=[add_event(1)],
        container_events=[container(7, 1)],
        container_usage=[usage(7, 1000, 0.5)],
        batch_instances=[instance(1010, 1050)],
        machine_count=1,
    )
    caggs = aggregate_container_usage(bundle, GRID)
    baggs = aggregate_batch_usage(bundle, GRID)
    table = build_machine_series(bundle, GRID, dense, caggs, baggs)

    write_aggregate_csvs(table, caggs.seen, baggs.seen, GRID, str(tmp_path))
    lines = (tmp_path / "machine_series.csv").read_text().splitlines()
    assert lines[0].split(",") == list(SERIES_HEADER)
    assert len(lines) == 1 + GRID.interval_count
    row = dict(zip(SERIES_HEADER, lines[1].split(",")))
    residual = float(row["server_cpu"]) - float(row["container_cpu"]) \
        - float(row["batch_cpu"])
    assert float(row["residual_cpu"]) == pytest.approx(residual)
    for name, header in (("container_usage_agg.csv", CONTAINER_AGG_HEADER),
                         ("batch_usage_agg.csv", BATCH_AGG_HEADER)):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0].split(",") == list(header)
        assert len(lines) == 1 + GRID.interval_count


def read_csv(path):
    header, *lines = path.read_text().splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


def test_agg_lines_repeat_their_series_line_and_skip_absent_machines(tmp_path):
    # machine 1 hosts containers only, 2 batch only, 3 both and 4 neither
    dense = dense_for({m: [0.1 * m] * 5 for m in (1, 2, 3, 4)})
    bundle = oracles.bundle_from_rows(
        events=[add_event(m) for m in (1, 2, 3, 4)],
        container_events=[container(7, 1), container(8, 3, ts=1150)],
        container_usage=[usage(7, 1000, 0.5), usage(7, 1210, 0.3),
                         usage(8, 1220, 0.7)],
        batch_instances=[instance(1010, 1250, machine=2),
                         instance(1100, 1300, machine=3, avg_cpu=1.7)],
        machine_count=4,
    )
    caggs = aggregate_container_usage(bundle, GRID)
    baggs = aggregate_batch_usage(bundle, GRID)
    table = build_machine_series(bundle, GRID, dense, caggs, baggs)
    write_aggregate_csvs(table, caggs.seen, baggs.seen, GRID, str(tmp_path))
    key = ("machine", "interval_index", "interval_start")
    series = {tuple(row[k] for k in key): row
              for row in read_csv(tmp_path / "machine_series.csv")}
    assert len(series) == 4 * GRID.interval_count
    for name, machines, fields in (
            ("container_usage_agg.csv", {"1", "3"},
             {"container_count": "container_count", "total_cpu": "container_cpu",
              "total_mem": "container_mem"}),
            ("batch_usage_agg.csv", {"2", "3"},
             {"batch_count": "batch_count", "total_cpu": "batch_cpu",
              "total_mem": "batch_mem"})):
        rows = read_csv(tmp_path / name)
        assert {row["machine"] for row in rows} == machines, name
        assert len(rows) == len(machines) * GRID.interval_count, name
        for row in rows:
            line = series[tuple(row[k] for k in key)]
            assert {f: row[f] for f in fields} == \
                {f: line[s] for f, s in fields.items()}, name
    assert {r["machine"] for r in read_csv(tmp_path / "machine_series.csv")} == \
        {"1", "2", "3", "4"}


@pytest.mark.parametrize("block_lines", [3, 8, 256])
def test_aggregate_csvs_match_the_row_at_a_time_oracle(tmp_path, monkeypatch,
                                                       block_lines):
    # 4 intervals a machine: blocks of 3 lines split machines apart, blocks
    # of 8 fall between machines 2 and 3 and leave machine 5 on its own, and
    # one block of 256 holds all 20 lines
    monkeypatch.setattr(aggregate, "BLOCK_LINES", block_lines)
    rng = np.random.default_rng(11)
    shape = (5, GRID.interval_count)
    special = np.array([-0.0, 1e-05, 1e16, 5e-324, np.nan, np.inf, 0.25])
    signals = {
        field.name: rng.random(shape)
        for field in dataclasses.fields(SeriesTable)}
    for name in ("server_cpu", "server_mem", "server_disk"):
        signals[name] = rng.choice(special, shape)
    signals["server_cpu"][0] = [-0.0, 1e-05, 1e16, 5e-324]
    signals["server_mem"][1, :2] = [np.nan, np.inf]
    for name in ("container_count", "batch_count"):
        signals[name] = rng.integers(0, 9, shape).astype(float)
    table = SeriesTable(**signals)
    # machines 1, 3 and 4 host containers, and 2, 3 and 5 batch
    containers = np.array([True, False, True, True, False])
    batch = np.array([False, True, True, False, True])
    new, old = tmp_path / "new", tmp_path / "oracle"
    new.mkdir()
    old.mkdir()
    write_aggregate_csvs(table, containers, batch, GRID, str(new))
    oracles.write_aggregate_tables(str(old), [1, 2, 3, 4, 5],
                                   GRID.timestamps()[:-1].tolist(), signals,
                                   {1, 3, 4}, {2, 3, 5})
    for name in ("machine_series.csv", "container_usage_agg.csv",
                 "batch_usage_agg.csv"):
        assert (new / name).read_bytes() == (old / name).read_bytes(), name
    text = (new / "machine_series.csv").read_text()
    for cell in ("-0.0", "1e-05", "1e+16", "5e-324", "nan", "inf"):
        assert f",{cell}," in text, cell
