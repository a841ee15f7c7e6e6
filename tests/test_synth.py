import dataclasses
import json
import os

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from trace_insight import synth
from trace_insight.aggregate import (
    aggregate_batch_usage,
    aggregate_container_usage,
    build_machine_series,
)
from trace_insight.classify import occupancy_matrix
from trace_insight.preprocess import METRICS, supplement_server_usage
from trace_insight.synth import (
    AnomalyPlant,
    GapPlant,
    PlantKind,
    SynthConfig,
    TYPE_LABELS,
    _noisy_rows,
    batch_runs,
    expected_occupancy_bits,
    generate_trace,
    has_containers,
    write_ground_truth,
    write_synthetic_trace,
)
from trace_insight.trace_model import (
    TRACE_FILENAMES,
    IntervalGrid,
    MachineEventType,
    enum_code,
    parse_trace_dir,
)

GRID = IntervalGrid(39600, 39600 + 24 * 300, 300)   # 24 intervals

QUOTAS = (5, 1, 2, 1, 1, 2, 1, 1)   # 14 machines, every type present


BUNDLE_ATTRS = ("events", "server_usage", "container_events", "container_usage",
                "batch_tasks", "batch_instances")


def same_bundle(a, b) -> bool:
    """Same machine count and every column with the same dtype and bytes."""
    return a.machine_count == b.machine_count and all(
        list(x.columns) == list(y.columns) and all(
            x.columns[k].dtype == y.columns[k].dtype
            and x.columns[k].tobytes() == y.columns[k].tobytes() for k in x.columns)
        for x, y in ((getattr(a, attr), getattr(b, attr)) for attr in BUNDLE_ATTRS))


def softerror_stamps(bundle, machine):
    events = bundle.events
    mine = (events.machine == machine) & (
        events.event_type == enum_code(MachineEventType.SOFT_ERROR))
    return events.timestamp[mine].tolist()


def config_for(plants=(), gaps=(), noise=0.0, seed=11, quotas=QUOTAS):
    return SynthConfig(
        machine_count=sum(quotas),
        grid=GRID,
        quotas=quotas,
        seed=seed,
        noise_level=noise,
        anomaly_plants=tuple(plants),
        gap_plants=tuple(gaps),
    )


# ---------------------------------------------------------------------------
# per-type occupancy patterns


@given(st.sampled_from(TYPE_LABELS), st.integers(5, 40))
def test_expected_bits_mirror_the_run_layout(label, n):
    bits = expected_occupancy_bits(label, n)
    assert len(bits) == 2 * n
    covered = np.zeros(n, dtype=np.uint8)
    for a, b in batch_runs(label, n):
        assert 0 <= a <= b <= n - 1
        covered[a:b + 1] = 1
    assert np.array_equal(bits[:n], covered)
    assert np.array_equal(bits[n:], np.full(n, int(has_containers(label)),
                                            dtype=np.uint8))


def test_batch_runs_shapes():
    assert batch_runs("Type1", 10) == [(0, 9)]
    assert batch_runs("Type2", 10) == []
    assert batch_runs("Type4", 10) == []
    assert batch_runs("Type5", 10) == [(0, 4)]
    assert batch_runs("Type8", 10) == [(5, 9)]
    runs = batch_runs("Type7", 16)
    assert len(runs) == 2
    assert runs[0][0] == 0 and runs[1][1] == 15
    gap = runs[1][0] - runs[0][1] - 1
    assert gap == 2   # 16 // 8


# ---------------------------------------------------------------------------
# generation basics


def test_types_fill_ascending_id_blocks():
    _, truth = generate_trace(config_for())
    expected = []
    for label, quota in zip(TYPE_LABELS, QUOTAS):
        expected.extend([label] * quota)
    assert [truth.types[m] for m in range(1, 15)] == expected


def test_generation_is_deterministic():
    a_bundle, a_truth = generate_trace(config_for(noise=0.05))
    b_bundle, b_truth = generate_trace(config_for(noise=0.05))
    assert same_bundle(a_bundle, b_bundle)
    assert a_truth == b_truth
    c_bundle, _ = generate_trace(config_for(noise=0.05, seed=12))
    assert not same_bundle(c_bundle, a_bundle)


def test_every_machine_gets_full_usage_coverage():
    bundle, _ = generate_trace(config_for())
    machines, counts = np.unique(bundle.server_usage.machine, return_counts=True)
    assert machines.tolist() == list(range(1, 15))
    assert set(counts.tolist()) == {GRID.timestamp_count}


def test_noise_stays_clamped_to_the_unit_interval():
    bundle, _ = generate_trace(config_for(noise=0.5, seed=3))
    usage = bundle.server_usage
    for values in (usage.cpu, usage.mem, usage.disk):
        assert ((values >= 0.0) & (values <= 1.0)).all()


def test_noise_rows_equal_one_clamped_draw_per_cell_row_by_row():
    base = (0.3, 0.0, 0.95)
    rng = np.random.default_rng(5)
    expected = [[min(max(b + 0.2 * rng.standard_normal(), 0.0), 1.0) for b in base]
                for _ in range(40)]
    rng = np.random.default_rng(5)
    got = _noisy_rows(rng, base, 0.2, 40)
    assert got.dtype == np.float64 and got.shape == (40, 3)
    assert got.tobytes() == np.array(expected).tobytes()
    state = rng.bit_generator.state
    assert _noisy_rows(rng, base, 0.0, 2).tobytes() == np.array([base] * 2).tobytes()
    assert rng.bit_generator.state == state   # no noise, no draw


# every plant kind, some on several machines, on the 14-machine layout
EVERY_PLANT = (
    AnomalyPlant(machine=2, kind=PlantKind.FREQUENT_SOFT_ERROR),
    AnomalyPlant(machine=2, kind=PlantKind.HEAVY_ONLINE),
    AnomalyPlant(machine=3, kind=PlantKind.HEAVY_ONLINE),
    AnomalyPlant(machine=4, kind=PlantKind.LIGHTER_ONLINE_SKEW),
    AnomalyPlant(machine=5, kind=PlantKind.LIGHTER_ONLINE_SKEW),
    AnomalyPlant(machine=6, kind=PlantKind.IDLE),
    AnomalyPlant(machine=10, kind=PlantKind.SOFT_ERROR_WORKLOAD_STOP),
    AnomalyPlant(machine=10, kind=PlantKind.FREQUENT_SOFT_ERROR),
    AnomalyPlant(machine=11, kind=PlantKind.HEAVY_ONLINE),
)
GAPS = (GapPlant(machine=5, metric="cpu", slots=(3, 4, 5)),
        GapPlant(machine=1, metric="mem", slots=(0,)),
        GapPlant(machine=14, metric="disk", slots=(24,)))


@pytest.mark.parametrize("seed", [7, 11, 1234])
@pytest.mark.parametrize("layout", [
    dict(plants=EVERY_PLANT, gaps=GAPS),
    dict(plants=EVERY_PLANT, gaps=GAPS, noise=0.3),
    dict(noise=0.05),
    # Type2 has neither containers nor batch work, Type3 only batch work,
    # Type4 only containers
    dict(quotas=(0, 2, 0, 0, 0, 0, 0, 0), noise=0.1),
    dict(quotas=(0, 2, 1, 1, 0, 0, 0, 0), noise=0.1,
         plants=(AnomalyPlant(machine=1, kind=PlantKind.IDLE),)),
], ids=["plants", "plants-noisy", "noisy", "no-container-or-batch", "mixed"])
def test_generated_trace_equals_the_row_generator(seed, layout):
    config = config_for(seed=seed, **layout)
    bundle, truth = generate_trace(config)
    want_bundle, want_truth = oracles.synth_rows_reference(config)
    assert same_bundle(bundle, want_bundle)
    assert truth == want_truth


def test_quota_validation():
    off_by_one = dataclasses.replace(config_for(), quotas=(5, 1, 2, 1, 1, 2, 1, 2))
    with pytest.raises(ValueError, match="quotas sum"):
        generate_trace(off_by_one)
    with pytest.raises(ValueError, match="nonnegative"):
        generate_trace(config_for(quotas=(6, 1, 2, 1, 1, 2, 1, -1)))
    with pytest.raises(ValueError, match="8 quotas"):
        generate_trace(dataclasses.replace(config_for(), quotas=(14,)))
    with pytest.raises(ValueError, match="machine_count must be >= 1, got 0"):
        generate_trace(config_for(quotas=(0,) * 8))


def test_short_grids_reject_split_patterns():
    tiny = IntervalGrid(0, 1200, 300)   # 4 intervals, too few for Type7
    config = dataclasses.replace(config_for(), grid=tiny)
    with pytest.raises(ValueError, match="Type7"):
        generate_trace(config)


# ---------------------------------------------------------------------------
# occupancy recovery (the whole point of the generator)


def machine_bits(bundle, grid):
    dense, _ = supplement_server_usage(bundle, grid)
    caggs = aggregate_container_usage(bundle, grid)
    baggs = aggregate_batch_usage(bundle, grid)
    table = build_machine_series(bundle, grid, dense.values, caggs, baggs)
    # row m - 1 of the occupancy matrix is machine m
    return dict(enumerate(occupancy_matrix(table), 1))


def test_zero_noise_trace_reproduces_expected_occupancy_exactly():
    bundle, truth = generate_trace(config_for())
    bits = machine_bits(bundle, GRID)
    for machine, label in truth.types.items():
        want = expected_occupancy_bits(label, GRID.interval_count)
        assert np.array_equal(bits[machine], want), (machine, label)


# ---------------------------------------------------------------------------
# anomaly plants


def test_idle_plant_produces_exact_zero_usage():
    plant = AnomalyPlant(machine=6, kind=PlantKind.IDLE)
    bundle, truth = generate_trace(config_for(plants=[plant]))
    assert truth.anomalies == {6: ["Idle"]}
    usage = bundle.server_usage
    mine = usage.machine == 6
    assert mine.any()
    for values in (usage.cpu, usage.mem, usage.disk):
        assert (values[mine] == 0.0).all()
    assert 6 not in bundle.container_events.machine
    assert 6 not in bundle.batch_instances.machine


def test_frequent_softerror_plant_emits_four_events():
    plant = AnomalyPlant(machine=2, kind=PlantKind.FREQUENT_SOFT_ERROR)
    bundle, _ = generate_trace(config_for(plants=[plant]))
    span = GRID.end - GRID.start
    want = [GRID.start + round((i + 1) * span / 5) for i in range(4)]
    assert softerror_stamps(bundle, 2) == want


def test_workload_stop_plant_places_the_softerror_at_the_stop():
    plant = AnomalyPlant(machine=10, kind=PlantKind.SOFT_ERROR_WORKLOAD_STOP)
    bundle, truth = generate_trace(config_for(plants=[plant]))   # machine 10: Type5
    half = GRID.interval_count // 2
    assert softerror_stamps(bundle, 10) == [GRID.start + half * GRID.step + 37]
    assert truth.types[10] == "Type5"


def test_heavy_online_plant_scales_container_count_and_memory():
    plant = AnomalyPlant(machine=3, kind=PlantKind.HEAVY_ONLINE)
    bundle, _ = generate_trace(config_for(plants=[plant]))
    machines = bundle.container_events.machine
    assert np.count_nonzero(machines == 3) == 18
    assert 2 <= np.count_nonzero(machines == 1) <= 4
    usage = bundle.server_usage
    boosted = np.mean(usage.mem[usage.machine == 3])
    plain = np.mean(usage.mem[usage.machine == 1])
    assert boosted == pytest.approx(plain + 0.25)


def test_lighter_online_skew_plant_floods_batch_streams():
    plant = AnomalyPlant(machine=4, kind=PlantKind.LIGHTER_ONLINE_SKEW)
    bundle, _ = generate_trace(config_for(plants=[plant]))
    assert np.count_nonzero(bundle.container_events.machine == 4) == 1
    insts = bundle.batch_instances
    mine = insts.machine == 4
    assert np.count_nonzero(mine) == 71
    # all streams share the span
    assert len(set(insts.start[mine])) == 1 and len(set(insts.end[mine])) == 1


def test_plants_must_sit_on_a_compatible_machine():
    idle_on_type1 = AnomalyPlant(machine=1, kind=PlantKind.IDLE)
    with pytest.raises(ValueError, match="Type2"):
        generate_trace(config_for(plants=[idle_on_type1]))
    doubled = [AnomalyPlant(machine=6, kind=PlantKind.IDLE),
               AnomalyPlant(machine=6, kind=PlantKind.IDLE)]
    with pytest.raises(ValueError, match="duplicate"):
        generate_trace(config_for(plants=doubled))
    out_of_range = AnomalyPlant(machine=99, kind=PlantKind.IDLE)
    with pytest.raises(ValueError, match="out of range"):
        generate_trace(config_for(plants=[out_of_range]))


# ---------------------------------------------------------------------------
# gap plants


def test_gap_plant_removes_rows_and_records_truth():
    gap = GapPlant(machine=5, metric="cpu", slots=(3, 4, 5))
    bundle, truth = generate_trace(config_for(gaps=[gap]))
    gone = {GRID.start + s * GRID.step for s in (3, 4, 5)}
    usage = bundle.server_usage
    remaining = set(usage.timestamp[usage.machine == 5].tolist())
    assert remaining.isdisjoint(gone)
    assert len(remaining) == GRID.timestamp_count - 3
    (record,) = truth.gaps
    assert record.machine == 5 and record.metric == "cpu"
    assert record.timestamps == sorted(gone)
    assert len(record.true_values) == 3


def test_gap_truth_lets_interpolation_be_checked():
    gap = GapPlant(machine=5, metric="mem", slots=(7,))
    bundle, truth = generate_trace(config_for(gaps=[gap]))
    dense, _ = supplement_server_usage(bundle, GRID)
    (record,) = truth.gaps
    restored = dense.values[4, 7, METRICS.index("mem")]
    # zero noise makes the surrounding samples constant, so the repair is exact
    assert restored == pytest.approx(record.true_values[0], abs=1e-12)


def test_gap_metric_must_be_known():
    gap = GapPlant(machine=5, metric="watts", slots=(3,))
    with pytest.raises(ValueError, match="unknown gap metric 'watts'"):
        generate_trace(config_for(gaps=[gap]))


def test_gap_slots_must_exist_on_the_grid():
    gap = GapPlant(machine=5, metric="cpu", slots=(999,))
    with pytest.raises(ValueError, match="out of range"):
        generate_trace(config_for(gaps=[gap]))


# ---------------------------------------------------------------------------
# persistence


def test_ground_truth_json_round_trip(tmp_path):
    plants = [AnomalyPlant(machine=6, kind=PlantKind.IDLE)]
    gaps = [GapPlant(machine=5, metric="cpu", slots=(3,))]
    _, truth = generate_trace(config_for(plants=plants, gaps=gaps))
    path = tmp_path / "truth.json"
    write_ground_truth(truth, str(path))
    assert truth.anomalies == {6: ["Idle"]} and len(truth.gaps) == 1
    data = json.loads(path.read_text())
    assert data == {
        "types": {str(m): label for m, label in truth.types.items()},
        "anomalies": {"6": ["Idle"]},
        "gaps": [dataclasses.asdict(gap) for gap in truth.gaps],
    }
    assert data["gaps"][0]["machine"] == 5 and data["gaps"][0]["metric"] == "cpu"


def test_written_trace_parses_back_identically(tmp_path):
    config = config_for(noise=0.02, seed=6)
    bundle, truth = generate_trace(config)
    write_synthetic_trace(bundle, truth, str(tmp_path))
    back = parse_trace_dir(str(tmp_path))
    assert same_bundle(back, bundle)


# the 64-machine demo of scripts/run_synthetic_demo.py on a 48-interval grid
DEMO_QUOTAS = (36, 4, 4, 4, 4, 4, 4, 4)
DEMO_PLANTS = (AnomalyPlant(machine=37, kind=PlantKind.IDLE),
               AnomalyPlant(machine=1, kind=PlantKind.HEAVY_ONLINE),
               AnomalyPlant(machine=2, kind=PlantKind.LIGHTER_ONLINE_SKEW),
               AnomalyPlant(machine=49, kind=PlantKind.FREQUENT_SOFT_ERROR),
               AnomalyPlant(machine=53, kind=PlantKind.SOFT_ERROR_WORKLOAD_STOP))
DEMO_GAPS = (GapPlant(machine=3, metric="cpu", slots=(10, 11, 12, 13, 14)),
             GapPlant(machine=4, metric="mem", slots=(30, 31, 32, 33)))


@pytest.mark.parametrize("seed", [7, 11, 1234])
def test_written_demo_trace_equals_the_cell_by_cell_writer(tmp_path, seed):
    config = dataclasses.replace(
        config_for(plants=DEMO_PLANTS, gaps=DEMO_GAPS, noise=0.03, seed=seed,
                   quotas=DEMO_QUOTAS),
        grid=IntervalGrid(39600, 39600 + 48 * 300, 300))
    bundle, truth = generate_trace(config)
    write_synthetic_trace(bundle, truth, str(tmp_path / "fast"))
    oracles.write_trace_reference(bundle, str(tmp_path / "reference"))
    for name in TRACE_FILENAMES.values():
        assert (tmp_path / "fast" / name).read_bytes() == \
            (tmp_path / "reference" / name).read_bytes(), name


def test_the_trace_is_written_through_the_module_name(tmp_path, monkeypatch):
    # the benchmark's tracer times synth.write_s around synth.write_trace_dir
    calls = []
    monkeypatch.setattr(synth, "write_trace_dir",
                        lambda bundle, path: calls.append((bundle, path)))
    bundle, truth = generate_trace(config_for())
    write_synthetic_trace(bundle, truth, str(tmp_path))
    assert calls == [(bundle, str(tmp_path))]


def test_written_trace_is_byte_deterministic(tmp_path):
    config = config_for(noise=0.02, seed=6)
    write_synthetic_trace(*generate_trace(config), str(tmp_path / "a"))
    write_synthetic_trace(*generate_trace(config), str(tmp_path / "b"))
    names = sorted(os.listdir(tmp_path / "a"))
    assert "ground_truth.json" in names
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name


# ---------------------------------------------------------------------------
# plants must be separable in feature space


def test_plants_move_the_features_they_claim_to_move():
    plants = [
        AnomalyPlant(machine=6, kind=PlantKind.IDLE),
        AnomalyPlant(machine=3, kind=PlantKind.HEAVY_ONLINE),
        AnomalyPlant(machine=4, kind=PlantKind.LIGHTER_ONLINE_SKEW),
    ]
    bundle, _ = generate_trace(config_for(plants=plants, noise=0.02))
    dense, _ = supplement_server_usage(bundle, GRID)
    caggs = aggregate_container_usage(bundle, GRID)
    baggs = aggregate_batch_usage(bundle, GRID)
    table = build_machine_series(bundle, GRID, dense.values, caggs, baggs)
    mem, containers, batches = (signal.mean(axis=1) for signal in (
        table.server_mem, table.container_count, table.batch_count))

    # machine m is row m - 1
    plain = [m - 1 for m in range(1, 15) if m not in (3, 4, 6)]
    spread = max(mem[plain].std(), 1e-6)
    assert mem[6 - 1] == 0.0
    assert (mem[plain].mean() - 0.0) / spread > 3.0
    assert containers[3 - 1] >= containers[plain].max() * 3
    assert batches[4 - 1] > batches[plain].max() * 5
