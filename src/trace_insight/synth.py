"""Seeded synthetic trace generator with planted ground truth.

Produces a full six-file bundle in which every machine follows one of the
eight workload-distribution patterns, selected anomalies are planted on
specific machines, and server-usage samples can be knocked out to exercise
the gap-repair path. A plant is a kind and a machine; what each kind does is
fixed (``HEAVY_ONLINE_CONTAINERS``, ``HEAVY_ONLINE_MEM_BOOST`` and
``SKEW_STREAMS`` below). The generator is the oracle for the desk-scale
acceptance tests: whatever it plants is recorded in a GroundTruth object
that ships alongside the bundle as ground_truth.json.

Each machine draws from its own stream, spawned from the seed, in a fixed
order: its server usage, then per container its requests and usage, then
per batch run its instance spans and the instances' usage. The six tables
are then built as columns from those draws. Machines, container instances
and batch jobs are numbered by position, from 1.

Batch instances are tiled inside [t_a + 1, t_{b+1} - 1] for an occupied
interval run [a, b]; the one-second margins keep closed-interval membership
from leaking into the neighboring intervals, so the binarized occupancy
equals the planted pattern exactly.
"""

from __future__ import annotations

import math
import os
from collections import defaultdict
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .preprocess import METRICS
from .stage import TYPE_LABELS, write_json
from .trace_model import (
    ContainerEventType,
    InstanceStatus,
    IntervalGrid,
    MachineEventType,
    Table,
    TaskStatus,
    TraceBundle,
    enum_code,
    write_trace_dir,
)

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


def _check_feasible(config: SynthConfig) -> None:
    n = config.grid.interval_count
    if config.machine_count < 1:
        raise ValueError(f"machine_count must be >= 1, got {config.machine_count}")
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
    # batch instances last from 30 s to 4 steps, drawn log-uniform, and a run
    # keeps a second off each end of its intervals: both need 8 s steps
    if config.grid.step < 8 and any(quota and batch_runs(label, n) for label, quota
                                    in zip(TYPE_LABELS, config.quotas)):
        raise ValueError(f"grid_step must be >= 8 when any machine runs batch "
                         f"work, got {config.grid.step}")


_PLANT_HOMES = {
    PlantKind.IDLE: {"Type2"},
    PlantKind.SOFT_ERROR_WORKLOAD_STOP: {"Type5", "Type6"},
    PlantKind.HEAVY_ONLINE: _CONTAINER_TYPES,
    PlantKind.LIGHTER_ONLINE_SKEW: {"Type1"},
}

# what a plant does to its machine: HeavyOnline runs 18 containers and adds
# 0.25 to the memory base; LighterOnlineSkew runs each batch run as 71
# instances that share its span
HEAVY_ONLINE_CONTAINERS = 18
HEAVY_ONLINE_MEM_BOOST = 0.25
SKEW_STREAMS = 71


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
    placed: dict[int, list[GapPlant]] = defaultdict(list)
    for gap in config.gap_plants:
        if not 1 <= gap.machine <= config.machine_count:
            raise ValueError(f"gap machine {gap.machine} out of range")
        if gap.metric not in METRICS:
            raise ValueError(f"unknown gap metric {gap.metric!r}")
        if not gap.slots:
            raise ValueError(f"{gap.metric} gap on machine {gap.machine} has no "
                             "slots, so it would plant nothing")
        slot_count = config.grid.timestamp_count
        bad = [s for s in gap.slots if not 0 <= s < slot_count]
        if bad:
            raise ValueError(f"gap slots out of range: {bad}")
        # a gap removes the machine's whole sample row at each of its slots
        for other in placed[gap.machine]:
            shared = sorted(set(gap.slots) & set(other.slots))
            if shared:
                raise ValueError(f"{other.metric} and {gap.metric} gaps on machine "
                                 f"{gap.machine} share slots {shared}; a gap removes "
                                 "the whole sample, so they must not overlap")
        placed[gap.machine].append(gap)


def _assign_types(config: SynthConfig) -> dict[int, str]:
    return dict(enumerate(np.repeat(TYPE_LABELS, config.quotas).tolist(), start=1))


def _noisy_rows(rng: np.random.Generator, base: tuple[float, ...], noise: float,
                rows: int) -> np.ndarray:
    """``rows`` rows of ``base`` plus ``noise`` times a standard normal per
    cell, clipped to [0, 1]. The cells are drawn in one array, row by row;
    nothing is drawn when ``noise`` is 0."""
    values = np.tile(np.asarray(base, dtype=np.float64), (rows, 1))
    if noise > 0:
        values += noise * rng.standard_normal(values.shape)
    return np.clip(values, 0.0, 1.0)


def _gen_machine(drawn: dict[str, list], machine: int, label: str,
                 kinds: set[PlantKind], grid: IntervalGrid,
                 noise: float, rng: np.random.Generator) -> None:
    """Append what the machine draws to ``drawn``, in draw order: its server
    usage, each container's requests and usage, each batch run's spans and draws."""
    n = grid.interval_count

    base_cpu, base_mem, base_disk = BASE_USAGE[label]
    if PlantKind.HEAVY_ONLINE in kinds:
        base_mem = min(1.0, base_mem + HEAVY_ONLINE_MEM_BOOST)
    idle = PlantKind.IDLE in kinds
    # an idle machine reads 0 throughout and draws no noise
    base = (0.0, 0.0, 0.0) if idle else (base_cpu, base_mem, base_disk)
    drawn["server_usage"].append(
        _noisy_rows(rng, base, 0.0 if idle else noise, grid.timestamp_count))

    if has_containers(label) and not idle:
        if PlantKind.HEAVY_ONLINE in kinds:
            count = HEAVY_ONLINE_CONTAINERS
        elif PlantKind.LIGHTER_ONLINE_SKEW in kinds:
            count = 1
        else:
            count = 2 + int(rng.integers(3))
        for _ in range(count):
            drawn["container_machine"].append(machine)
            drawn["requests"].append((rng.choice((2.0, 4.0, 8.0)),
                                      *rng.uniform((0.01, 0.005), (0.05, 0.02))))
            drawn["container_usage"].append(
                _noisy_rows(rng, (0.3, 0.6, 0.1, base_disk), noise, n))

    runs = [] if idle else batch_runs(label, n)
    streams = SKEW_STREAMS if PlantKind.LIGHTER_ONLINE_SKEW in kinds else 0
    for a, b in runs:
        span_start = grid.start + a * grid.step + 1
        span_end = grid.start + (b + 1) * grid.step - 1
        if streams:
            starts, ends = [span_start] * streams, [span_end] * streams
        else:
            lo, hi = math.log(30.0), math.log(4.0 * grid.step)
            starts, ends, s = [], [], span_start
            while s <= span_end:
                duration = max(1, int(round(math.exp(rng.uniform(lo, hi)))))
                starts.append(s)
                ends.append(min(s + duration, span_end))
                s = ends[-1] + 1
        drawn["run"].append((machine, span_start, span_end, len(starts)))
        drawn["start"] += starts
        drawn["end"] += ends
        # per instance: avg cpu, avg mem, and the factors of max cpu and max mem
        drawn["instance_draws"].append(rng.uniform(
            (0.2, 0.005, 1.0, 1.0), (1.2, 0.02, 1.3, 1.3), (len(starts), 4)))


def _stacked(rows: list, width: int, dtype=np.float64) -> np.ndarray:
    """The rows, each a ``(k, width)`` array or ``width`` values, one under
    another, as ``width`` columns."""
    return np.vstack([np.empty((0, width), dtype), *rows]).T.copy()


def _table(file_key: str, rows: int, **columns) -> Table:
    """A table of ``rows`` rows from its columns in field order; a constant
    column is given as its value and filled."""
    return Table(file_key, {name: np.full(rows, value) if np.isscalar(value) else value
                            for name, value in columns.items()})


def _bundle(drawn: dict[str, list], events: list[tuple], grid: IntervalGrid,
            machine_count: int) -> TraceBundle:
    """The trace of what the machines drew and of their ``(machine, timestamp,
    detail)`` events; an add event has no detail."""
    n, stamps = grid.interval_count, grid.timestamps()
    machines, times, details = zip(*events)
    added = np.array(details) == ""
    server_events = _table(
        "server_event", len(times), timestamp=np.array(times, dtype=np.int64),
        machine=np.array(machines, dtype=np.int64),
        event_type=np.where(added, enum_code(MachineEventType.ADD),
                            enum_code(MachineEventType.SOFT_ERROR)),
        event_detail=np.array(details, dtype=str),
        cpu_count=np.where(added, MACHINE_CORES, 0), norm_memory=added * 1.0,
        norm_disk=added * 1.0)
    cpu, mem, disk = _stacked(drawn["server_usage"], 3)
    server_usage = _table(
        "server_usage", len(cpu), timestamp=np.tile(stamps, machine_count),
        machine=np.repeat(np.arange(1, machine_count + 1), len(stamps)), cpu=cpu,
        mem=mem, disk=disk, load1=0.0, load5=0.0, load15=0.0)
    hosts = np.array(drawn["container_machine"], dtype=np.int64)
    instances = np.arange(1, len(hosts) + 1)
    cpu_req, mem_req, disk_req = _stacked(drawn["requests"], 3)
    container_events = _table(
        "container_event", len(hosts), timestamp=0,
        event_type=enum_code(ContainerEventType.CREATE), instance=instances,
        machine=hosts, cpu_req=cpu_req, mem_req=mem_req, disk_req=disk_req,
        cpu_set="")
    cpu, mem, disk_of_req, disk = _stacked(drawn["container_usage"], 4)
    container_usage = _table(
        "container_usage", len(cpu), timestamp=np.tile(stamps[:n], len(hosts)),
        instance=np.repeat(instances, n), cpu_of_req=cpu, mem_of_req=mem,
        disk_of_req=disk_of_req, disk=disk, load1=0.0, load5=0.0, load15=0.0,
        avg_cpi=1.5, avg_mpki=1.2, max_cpi=2.0, max_mpki=1.8)
    hosts, starts, ends, sizes = _stacked(drawn["run"], 4, np.int64)
    jobs = np.arange(1, len(hosts) + 1)
    batch_tasks = _table(
        "batch_task", len(jobs), create_time=starts, end_time=ends, job=jobs,
        task=1, instance_count=sizes, status=enum_code(TaskStatus.TERMINATED),
        cpu_req=1.0, mem_req=0.01)
    avg_cpu, avg_mem, cpu_factor, mem_factor = _stacked(drawn["instance_draws"], 4)
    firsts = np.repeat(np.cumsum(sizes) - sizes, sizes)   # each run's first row
    batch_instances = _table(
        "batch_instance", len(avg_cpu), start=np.array(drawn["start"], dtype=np.int64),
        end=np.array(drawn["end"], dtype=np.int64), job=np.repeat(jobs, sizes), task=1,
        machine=np.repeat(hosts, sizes), status=enum_code(InstanceStatus.TERMINATED),
        seq_no=np.arange(len(avg_cpu)) - firsts + 1,
        total_seq_no=np.repeat(sizes, sizes), max_cpu=avg_cpu * cpu_factor,
        avg_cpu=avg_cpu, max_mem=np.minimum(avg_mem * mem_factor, 1.0), avg_mem=avg_mem)
    return TraceBundle(server_events, server_usage, container_events, container_usage,
                       batch_tasks, batch_instances, machine_count=machine_count)


def generate_trace(config: SynthConfig) -> tuple[TraceBundle, GroundTruth]:
    """Build a bundle plus its ground truth; deterministic in config.seed
    (each machine draws from its own spawned substream)."""
    _check_feasible(config)
    types = _assign_types(config)
    _check_plants(config, types)

    # each planted machine's plant kinds (a kind appears once per machine)
    plants_of: dict[int, set[PlantKind]] = {}
    for plant in config.anomaly_plants:
        plants_of.setdefault(plant.machine, set()).add(plant.kind)

    grid = config.grid
    stop = grid.start + grid.interval_count // 2 * grid.step + 37
    truth = GroundTruth(types=dict(types))
    # each machine's add event, then the soft errors its plants call for
    events = [(machine, 0, "") for machine in types]
    for machine, kinds in sorted(plants_of.items()):
        truth.anomalies[machine] = sorted(kind.value for kind in kinds)
        if PlantKind.FREQUENT_SOFT_ERROR in kinds:
            events += [(machine, grid.start + round(i * (grid.end - grid.start) / 5),
                        "agent check failed") for i in range(1, 5)]
        if PlantKind.SOFT_ERROR_WORKLOAD_STOP in kinds:
            events.append((machine, stop, "disk full"))
    events.sort(key=lambda event: event[0])   # stable: the add event stays first

    drawn: dict[str, list] = defaultdict(list)
    children = np.random.SeedSequence(config.seed).spawn(config.machine_count)
    for machine, child in enumerate(children, start=1):
        _gen_machine(drawn, machine, types[machine], plants_of.get(machine, set()),
                     grid, config.noise_level, np.random.default_rng(child))
    bundle = _bundle(drawn, events, grid, config.machine_count)

    # server usage is machine-major, one sample a row: row (machine - 1) * T +
    # slot; a gap cuts the whole sample and records its metric's true values
    usage = bundle.server_usage
    keep = np.ones(len(usage), dtype=bool)
    for gap in config.gap_plants:
        slots = sorted(set(gap.slots))
        if slots:
            rows = (gap.machine - 1) * grid.timestamp_count + np.array(slots)
            keep[rows] = False
            truth.gaps.append(GapRecord(
                gap.machine, gap.metric, [grid.start + s * grid.step for s in slots],
                getattr(usage, gap.metric)[rows].tolist()))
    return replace(bundle, server_usage=usage.take(keep)), truth


# ---------------------------------------------------------------------------
# ground-truth I/O

GROUND_TRUTH_FILENAME = "ground_truth.json"


def write_ground_truth(truth: GroundTruth, path: str) -> None:
    write_json(path, {
        "types": {str(m): label for m, label in truth.types.items()},
        "anomalies": {str(m): kinds for m, kinds in truth.anomalies.items()},
        "gaps": [
            {"machine": g.machine, "metric": g.metric,
             "timestamps": g.timestamps, "true_values": g.true_values}
            for g in truth.gaps
        ],
    })


def write_synthetic_trace(bundle: TraceBundle, truth: GroundTruth, out_dir: str) -> None:
    """Write a generated trace and its ground truth into ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    write_trace_dir(bundle, out_dir)
    write_ground_truth(truth, os.path.join(out_dir, GROUND_TRUTH_FILENAME))
