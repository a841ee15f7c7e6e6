"""Seeded synthetic trace generator with planted ground truth.

Produces a full six-file bundle in which every machine follows one of the
eight workload-distribution patterns, selected anomalies are planted on
specific machines, and server-usage samples can be knocked out to exercise
the gap-repair path. The generator is the oracle for the desk-scale
acceptance tests: whatever it plants is recorded in a GroundTruth object
that ships alongside the bundle as ground_truth.json.

Batch instances are tiled inside [t_a + 1, t_{b+1} - 1] for an occupied
interval run [a, b]; the one-second margins keep closed-interval membership
from leaking into the neighboring intervals, so the binarized occupancy
equals the planted pattern exactly.
"""

from __future__ import annotations

import json
import math
import os
from collections import defaultdict
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .preprocess import METRICS
from .trace_model import (
    ContainerEventType,
    InstanceStatus,
    IntervalGrid,
    MachineEventType,
    TaskStatus,
    TraceBundle,
    write_trace_dir,
)

TYPE_LABELS = ("Type1", "Type2", "Type3", "Type4",
               "Type5", "Type6", "Type7", "Type8")

# per-type (cpu, mem, disk) base usage fractions
BASE_USAGE = {
    "Type1": (0.25, 0.55, 0.50),
    "Type2": (0.0, 0.0, 0.0),
    "Type3": (0.1744, 0.2955, 0.4332),
    "Type4": (0.1206, 0.3620, 0.3346),
    "Type5": (0.22, 0.285, 0.42),
    "Type6": (0.2129, 0.3988, 0.4531),
    "Type7": (0.2474, 0.4743, 0.5004),
    "Type8": (0.1958, 0.2966, 0.5658),
}

_CONTAINER_TYPES = {"Type1", "Type4", "Type6", "Type7", "Type8"}

MACHINE_CORES = 64


class PlantKind(Enum):
    FREQUENT_SOFT_ERROR = "FrequentSoftError"
    SOFT_ERROR_WORKLOAD_STOP = "SoftErrorWorkloadStop"
    HEAVY_ONLINE = "HeavyOnline"
    LIGHTER_ONLINE_SKEW = "LighterOnlineSkew"
    IDLE = "Idle"


@dataclass(frozen=True, slots=True)
class AnomalyPlant:
    machine: int
    kind: PlantKind
    params: tuple[tuple[str, float], ...] = ()

    def param(self, name: str, default: float) -> float:
        return dict(self.params).get(name, default)


@dataclass(frozen=True, slots=True)
class GapPlant:
    machine: int
    metric: str
    slots: tuple[int, ...]   # sample slots to knock out


@dataclass(frozen=True, slots=True)
class SynthConfig:
    machine_count: int
    grid: IntervalGrid
    quotas: tuple[int, ...]          # one count per TYPE_LABELS entry
    seed: int
    noise_level: float = 0.0
    anomaly_plants: tuple[AnomalyPlant, ...] = ()
    gap_plants: tuple[GapPlant, ...] = ()


@dataclass
class GapRecord:
    machine: int
    metric: str
    timestamps: list[int]
    true_values: list[float]


@dataclass
class GroundTruth:
    types: dict[int, str] = field(default_factory=dict)
    anomalies: dict[int, list[str]] = field(default_factory=dict)
    gaps: list[GapRecord] = field(default_factory=list)


def batch_runs(label: str, interval_count: int) -> list[tuple[int, int]]:
    """Occupied batch-interval runs [a, b] (inclusive) for a pattern."""
    n = interval_count
    half = n // 2
    if label in ("Type1", "Type3"):
        return [(0, n - 1)]
    if label in ("Type2", "Type4"):
        return []
    if label in ("Type5", "Type6"):
        return [(0, half - 1)]
    if label == "Type7":
        gap = max(1, n // 8)
        start = (n - gap) // 2
        return [(0, start - 1), (start + gap, n - 1)]
    if label == "Type8":
        return [(half, n - 1)]
    raise ValueError(f"unknown type label {label!r}")


def has_containers(label: str) -> bool:
    return label in _CONTAINER_TYPES


def expected_occupancy_bits(label: str, interval_count: int) -> np.ndarray:
    """The 2N bit vector a clean machine of this type must binarize to."""
    bits = np.zeros(2 * interval_count, dtype=np.uint8)
    for a, b in batch_runs(label, interval_count):
        bits[a:b + 1] = 1
    if has_containers(label):
        bits[interval_count:] = 1
    return bits


def _check_feasible(config: SynthConfig) -> None:
    n = config.grid.interval_count
    if len(config.quotas) != len(TYPE_LABELS):
        raise ValueError(f"need {len(TYPE_LABELS)} quotas, got {len(config.quotas)}")
    if any(q < 0 for q in config.quotas):
        raise ValueError(f"quotas must be nonnegative, got {config.quotas}")
    if sum(config.quotas) != config.machine_count:
        raise ValueError(f"quotas sum to {sum(config.quotas)}, "
                         f"expected machine_count {config.machine_count}")
    needs_split = {"Type5": 2, "Type6": 2, "Type8": 2, "Type7": 5}
    for label, quota in zip(TYPE_LABELS, config.quotas):
        if quota > 0 and n < needs_split.get(label, 1):
            raise ValueError(
                f"{label} pattern needs at least {needs_split[label]} "
                f"intervals, grid has {n}")


_PLANT_HOMES = {
    PlantKind.IDLE: {"Type2"},
    PlantKind.SOFT_ERROR_WORKLOAD_STOP: {"Type5", "Type6"},
    PlantKind.HEAVY_ONLINE: _CONTAINER_TYPES,
    PlantKind.LIGHTER_ONLINE_SKEW: {"Type1"},
}


def _check_plants(config: SynthConfig, types: dict[int, str]) -> None:
    seen: set[tuple[PlantKind, int]] = set()
    for plant in config.anomaly_plants:
        if not 1 <= plant.machine <= config.machine_count:
            raise ValueError(f"plant machine {plant.machine} out of range")
        if (plant.kind, plant.machine) in seen:
            raise ValueError(f"duplicate {plant.kind.value} plant "
                             f"on machine {plant.machine}")
        seen.add((plant.kind, plant.machine))
        homes = _PLANT_HOMES.get(plant.kind)
        label = types[plant.machine]
        if homes is not None and label not in homes:
            raise ValueError(
                f"{plant.kind.value} plant needs a machine of "
                f"{sorted(homes)}, machine {plant.machine} is {label}")
    for gap in config.gap_plants:
        if not 1 <= gap.machine <= config.machine_count:
            raise ValueError(f"gap machine {gap.machine} out of range")
        if gap.metric not in METRICS:
            raise ValueError(f"unknown gap metric {gap.metric!r}")
        slot_count = config.grid.timestamp_count
        bad = [s for s in gap.slots if not 0 <= s < slot_count]
        if bad:
            raise ValueError(f"gap slots out of range: {bad}")


def _assign_types(config: SynthConfig) -> dict[int, str]:
    types: dict[int, str] = {}
    machine = 1
    for label, quota in zip(TYPE_LABELS, config.quotas):
        for _ in range(quota):
            types[machine] = label
            machine += 1
    return types


def _noisy(rng: np.random.Generator, base: float, noise: float,
           lo: float = 0.0, hi: float = 1.0) -> float:
    if noise <= 0:
        return float(min(max(base, lo), hi))
    return float(min(max(base + noise * rng.standard_normal(), lo), hi))


def _log_uniform_duration(rng: np.random.Generator, step: int) -> int:
    lo = math.log(30.0)
    hi = math.log(4.0 * step)
    return max(1, int(round(math.exp(rng.uniform(lo, hi)))))


class _IdSource:
    def __init__(self):
        self.container = 0
        self.job = 0

    def next_container(self) -> int:
        self.container += 1
        return self.container

    def next_job(self) -> int:
        self.job += 1
        return self.job


def _gen_machine(rows: dict[str, list[tuple]], machine: int, label: str,
                 plants: list[AnomalyPlant], grid: IntervalGrid,
                 noise: float, rng: np.random.Generator,
                 ids: _IdSource) -> None:
    """Append the machine's rows to ``rows`` (per ``TraceBundle`` attribute,
    in each file's default column order)."""
    n = grid.interval_count
    kinds = {p.kind: p for p in plants}
    half = n // 2

    events = rows["events"]
    events.append((0, machine, MachineEventType.ADD, "", MACHINE_CORES, 1.0, 1.0))
    if PlantKind.FREQUENT_SOFT_ERROR in kinds:
        span = grid.end - grid.start
        for i in range(4):
            ts = grid.start + round((i + 1) * span / 5)
            events.append((int(ts), machine, MachineEventType.SOFT_ERROR,
                           "agent check failed", 0, 0.0, 0.0))
    if PlantKind.SOFT_ERROR_WORKLOAD_STOP in kinds:
        ts = grid.start + half * grid.step + 37
        events.append((int(ts), machine, MachineEventType.SOFT_ERROR,
                       "disk full", 0, 0.0, 0.0))

    base_cpu, base_mem, base_disk = BASE_USAGE[label]
    if PlantKind.HEAVY_ONLINE in kinds:
        base_mem = min(1.0, base_mem
                       + kinds[PlantKind.HEAVY_ONLINE].param("mem_boost", 0.25))
    idle = PlantKind.IDLE in kinds
    for x in range(grid.timestamp_count):
        ts = grid.start + x * grid.step
        if idle:
            cpu = mem = disk = 0.0
        else:
            cpu = _noisy(rng, base_cpu, noise)
            mem = _noisy(rng, base_mem, noise)
            disk = _noisy(rng, base_disk, noise)
        rows["server_usage"].append((ts, machine, cpu, mem, disk, 0.0, 0.0, 0.0))

    if has_containers(label) and not idle:
        if PlantKind.HEAVY_ONLINE in kinds:
            count = int(kinds[PlantKind.HEAVY_ONLINE].param("containers", 18))
        elif PlantKind.LIGHTER_ONLINE_SKEW in kinds:
            count = 1
        else:
            count = 2 + int(rng.integers(3))
        for _ in range(count):
            instance = ids.next_container()
            # tuple items are evaluated left to right: the RNG draw order
            rows["container_events"].append((
                0, ContainerEventType.CREATE, instance, machine,
                float(rng.choice((2.0, 4.0, 8.0))), float(rng.uniform(0.01, 0.05)),
                float(rng.uniform(0.005, 0.02)), ""))
            for x in range(n):
                rows["container_usage"].append((
                    grid.start + x * grid.step, instance,
                    _noisy(rng, 0.3, noise), _noisy(rng, 0.6, noise),
                    _noisy(rng, 0.1, noise), _noisy(rng, base_disk, noise),
                    0.0, 0.0, 0.0, 1.5, 1.2, 2.0, 1.8))

    runs = [] if idle else batch_runs(label, n)
    streams = 0
    if PlantKind.LIGHTER_ONLINE_SKEW in kinds:
        streams = int(kinds[PlantKind.LIGHTER_ONLINE_SKEW].param("streams", 71))
    for a, b in runs:
        span_start = grid.start + a * grid.step + 1
        span_end = grid.start + (b + 1) * grid.step - 1
        job = ids.next_job()
        if streams:
            spans = [(span_start, span_end)] * streams
        else:
            spans = []
            s = span_start
            while s <= span_end:
                e = min(s + _log_uniform_duration(rng, grid.step), span_end)
                spans.append((s, e))
                s = e + 1
        rows["batch_tasks"].append((span_start, span_end, job, 1, len(spans),
                                    TaskStatus.TERMINATED, 1.0, 0.01))
        for i, (s, e) in enumerate(spans):
            avg_cpu = float(rng.uniform(0.2, 1.2))
            avg_mem = float(rng.uniform(0.005, 0.02))
            rows["batch_instances"].append((
                s, e, job, 1, machine, InstanceStatus.TERMINATED, i + 1, len(spans),
                avg_cpu * float(rng.uniform(1.0, 1.3)), avg_cpu,
                float(min(avg_mem * rng.uniform(1.0, 1.3), 1.0)), avg_mem))


def plant_gap(bundle: TraceBundle, machine: int, metric: str,
              timestamps: list[int],
              ground_truth: GroundTruth | None = None) -> TraceBundle:
    """Remove the machine's server-usage samples at the given timestamps.

    The trace format stores one row per (machine, timestamp), so a gap always
    removes the whole sample; ``metric`` names the series whose true values
    get recorded in the ground truth for later restoration checks.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    usage = bundle.server_usage
    mine = usage.machine == machine
    if not mine.any():
        raise ValueError(f"machine {machine} has no server-usage samples")
    wanted = set(timestamps)
    cut = mine & np.isin(usage.timestamp, list(wanted))
    # the last row of a timestamp holds its true value
    removed = dict(zip(usage.timestamp[cut].tolist(),
                       getattr(usage, metric)[cut].tolist()))
    missing = sorted(wanted - set(removed))
    if missing:
        raise ValueError(f"machine {machine} has no samples at {missing}")
    if ground_truth is not None and removed:
        ts_sorted = sorted(removed)
        ground_truth.gaps.append(GapRecord(
            machine=machine, metric=metric, timestamps=ts_sorted,
            true_values=[removed[ts] for ts in ts_sorted]))
    return replace(bundle, server_usage=usage.take(~cut))


def generate_trace(config: SynthConfig) -> tuple[TraceBundle, GroundTruth]:
    """Build a bundle plus its ground truth; deterministic in config.seed
    (each machine draws from its own spawned substream)."""
    _check_feasible(config)
    types = _assign_types(config)
    _check_plants(config, types)

    plants_of: dict[int, list[AnomalyPlant]] = {}
    for plant in config.anomaly_plants:
        plants_of.setdefault(plant.machine, []).append(plant)

    truth = GroundTruth(types=dict(types))
    for machine, plants in sorted(plants_of.items()):
        truth.anomalies[machine] = sorted(p.kind.value for p in plants)

    ids = _IdSource()
    rows: dict[str, list[tuple]] = defaultdict(list)
    children = np.random.SeedSequence(config.seed).spawn(config.machine_count)
    for machine in range(1, config.machine_count + 1):
        rng = np.random.default_rng(children[machine - 1])
        _gen_machine(rows, machine, types[machine],
                     plants_of.get(machine, []), config.grid,
                     config.noise_level, rng, ids)
    bundle = TraceBundle.from_rows(machine_count=config.machine_count, **rows)

    for gap in config.gap_plants:
        timestamps = [config.grid.start + s * config.grid.step
                      for s in sorted(set(gap.slots))]
        bundle = plant_gap(bundle, gap.machine, gap.metric, timestamps, truth)
    return bundle, truth


# ---------------------------------------------------------------------------
# ground-truth I/O

GROUND_TRUTH_FILENAME = "ground_truth.json"


def ground_truth_dict(truth: GroundTruth) -> dict:
    return {
        "types": {str(m): label for m, label in sorted(truth.types.items())},
        "anomalies": {str(m): kinds for m, kinds in sorted(truth.anomalies.items())},
        "gaps": [
            {"machine": g.machine, "metric": g.metric,
             "timestamps": g.timestamps, "true_values": g.true_values}
            for g in truth.gaps
        ],
    }


def write_ground_truth(truth: GroundTruth, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ground_truth_dict(truth), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_ground_truth(path: str) -> GroundTruth:
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    return GroundTruth(
        types={int(m): label for m, label in raw["types"].items()},
        anomalies={int(m): list(kinds) for m, kinds in raw["anomalies"].items()},
        gaps=[GapRecord(machine=g["machine"], metric=g["metric"],
                        timestamps=list(g["timestamps"]),
                        true_values=list(g["true_values"]))
              for g in raw["gaps"]],
    )


def write_synthetic_trace(bundle: TraceBundle, truth: GroundTruth, out_dir: str) -> None:
    """Write a generated trace and its ground truth into ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    write_trace_dir(bundle, out_dir)
    write_ground_truth(truth, os.path.join(out_dir, GROUND_TRUTH_FILENAME))
