"""Trace schema: record types, CSV parsing/serialization, and the interval grid.

A trace is a directory of six comma-separated CSV files (no header by default):
machine events, server usage, container events, container usage, batch tasks,
and batch task instances. Column order is controlled by a schema profile so
alternative file layouts can be parsed without code changes.

Unit conventions, applied at parse time and inverted on write:
  * percent columns become fractions in [0, 1],
  * timestamps stay integer seconds relative to trace start (0 means
    "before the recorded period"),
  * everything else is kept as-is.

Percent cells are converted through ``decimal.Decimal`` exponent shifts so the
text -> fraction -> text cycle rounds exactly once; re-serializing a parsed
bundle and parsing it again reproduces every float bit-for-bit.
"""

from __future__ import annotations

import csv
import logging
import math
import os
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from enum import Enum

import numpy as np

log = logging.getLogger(__name__)

DEFAULT_FILENAMES = {
    "server_event": "server_event.csv",
    "server_usage": "server_usage.csv",
    "container_event": "container_event.csv",
    "container_usage": "container_usage.csv",
    "batch_task": "batch_task.csv",
    "batch_instance": "batch_instance.csv",
}

FILE_KEYS = tuple(DEFAULT_FILENAMES)


class TraceParseError(Exception):
    """Fatal parse problem: missing file or too many rejected rows."""


class MachineEventType(Enum):
    ADD = "add"
    SOFT_ERROR = "softerror"
    HARD_ERROR = "harderror"


class ContainerEventType(Enum):
    CREATE = "Create"


class TaskStatus(Enum):
    TERMINATED = "Terminated"
    WAITING = "Waiting"
    RUNNING = "Running"
    FAILED = "Failed"


class InstanceStatus(Enum):
    READY = "Ready"
    WAITING = "Waiting"
    RUNNING = "Running"
    TERMINATED = "Terminated"
    FAILED = "Failed"
    CANCELLED = "Cancelled"
    INTERRUPTED = "Interrupted"


def _parse_enum(enum_cls, text: str):
    lowered = text.strip().lower()
    for member in enum_cls:
        if member.value.lower() == lowered:
            return member
    raise ValueError(f"unknown {enum_cls.__name__} value {text!r}")


@dataclass(frozen=True, slots=True)
class MachineEvent:
    timestamp: int
    machine: int
    event_type: MachineEventType
    event_detail: str | None
    cpu_count: int
    norm_memory: float
    norm_disk: float


@dataclass(frozen=True, slots=True)
class ServerUsageRecord:
    timestamp: int
    machine: int
    cpu: float        # fraction of machine CPU
    mem: float        # fraction of machine memory
    disk: float       # fraction of machine disk
    load1: float
    load5: float
    load15: float


@dataclass(frozen=True, slots=True)
class ContainerEvent:
    timestamp: int
    event_type: ContainerEventType
    instance: int
    machine: int
    cpu_req: float    # cores
    mem_req: float    # fraction of machine memory
    disk_req: float   # fraction of machine disk
    cpu_set: tuple[int, ...] | None


@dataclass(frozen=True, slots=True)
class ContainerUsageRecord:
    timestamp: int    # start of the measurement interval
    instance: int
    cpu_of_req: float   # fraction of the requested CPU actually used
    mem_of_req: float   # fraction of the requested memory actually used
    disk_of_req: float
    disk: float         # fraction of machine disk
    load1: float
    load5: float
    load15: float
    avg_cpi: float
    avg_mpki: float
    max_cpi: float
    max_mpki: float


@dataclass(frozen=True, slots=True)
class BatchTaskRecord:
    create_time: int
    end_time: int
    job: int
    task: int
    instance_count: int
    status: TaskStatus
    cpu_req: float    # cores
    mem_req: float    # fraction


@dataclass(frozen=True, slots=True)
class BatchInstanceRecord:
    start: int        # may be 0 ("before trace period" / never started)
    end: int          # may be 0
    job: int
    task: int
    machine: int      # 0 when the instance never landed on a machine
    status: InstanceStatus
    seq_no: int
    total_seq_no: int
    max_cpu: float    # cores
    avg_cpu: float    # cores
    max_mem: float    # fraction
    avg_mem: float    # fraction


@dataclass
class TraceBundle:
    """All parsed records plus the derived machine count.

    Treated as immutable after construction; pipeline stages that need a
    modified view (e.g. filtered container events) build a new bundle with
    ``dataclasses.replace``.
    """

    events: list[MachineEvent] = field(default_factory=list)
    server_usage: list[ServerUsageRecord] = field(default_factory=list)
    container_events: list[ContainerEvent] = field(default_factory=list)
    container_usage: list[ContainerUsageRecord] = field(default_factory=list)
    batch_tasks: list[BatchTaskRecord] = field(default_factory=list)
    batch_instances: list[BatchInstanceRecord] = field(default_factory=list)
    machine_count: int = 0

    def machine_ids(self) -> range:
        return range(1, self.machine_count + 1)


@dataclass(frozen=True, slots=True)
class RowDiagnostic:
    file: str
    line: int
    reason: str


# ---------------------------------------------------------------------------
# unit conversion


def percent_text_to_fraction(text: str) -> float:
    """Parse a percent CSV cell into a fraction with a single rounding step.

    ``Decimal.scaleb`` shifts the decimal exponent exactly, so the only
    rounding happens in the final ``float()``; ``fraction_to_percent_text``
    inverts the conversion exactly.
    """
    try:
        value = float(Decimal(text.strip()).scaleb(-2))
    except (InvalidOperation, ValueError) as exc:
        raise ValueError(f"bad percent value {text!r}") from exc
    if not math.isfinite(value):
        raise ValueError(f"non-finite percent value {text!r}")
    return value


def fraction_to_percent_text(value: float) -> str:
    return format(Decimal(repr(value)).scaleb(2), "f")


def float_text(value: float) -> str:
    """Shortest decimal text that parses back to exactly ``value``."""
    return repr(float(value))


# ---------------------------------------------------------------------------
# field converters (all raise ValueError on bad cells)


def _int(text: str, name: str) -> int:
    try:
        return int(text.strip())
    except ValueError as exc:
        raise ValueError(f"bad integer for {name}: {text!r}") from exc


def _nonneg_int(text: str, name: str) -> int:
    value = _int(text, name)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def _float(text: str, name: str) -> float:
    try:
        value = float(text.strip())
    except ValueError as exc:
        raise ValueError(f"bad number for {name}: {text!r}") from exc
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {text!r}")
    return value


def _nonneg_float(text: str, name: str) -> float:
    value = _float(text, name)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def _unit_fraction(text: str, name: str) -> float:
    value = _float(text, name)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0,1], got {value}")
    return value


def _percent_fraction(text: str, name: str) -> float:
    value = percent_text_to_fraction(text)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0,100] percent, got {text!r}")
    return value


def _cpu_set(text: str) -> tuple[int, ...] | None:
    text = text.strip()
    if not text:
        return None
    return tuple(int(part) for part in text.replace(" ", "|").split("|") if part)


# ---------------------------------------------------------------------------
# per-file row builders

FILE_FIELDS: dict[str, tuple[str, ...]] = {
    "server_event": (
        "timestamp", "machine", "event_type", "event_detail",
        "cpu_count", "norm_memory", "norm_disk",
    ),
    "server_usage": (
        "timestamp", "machine", "cpu_pct", "mem_pct", "disk_pct",
        "load1", "load5", "load15",
    ),
    "container_event": (
        "timestamp", "event_type", "instance", "machine",
        "cpu_req", "mem_req", "disk_req", "cpu_set",
    ),
    "container_usage": (
        "timestamp", "instance", "cpu_pct_of_req", "mem_pct_of_req",
        "disk_pct_of_req", "disk_pct", "load1", "load5", "load15",
        "avg_cpi", "avg_mpki", "max_cpi", "max_mpki",
    ),
    "batch_task": (
        "create_time", "end_time", "job", "task", "instance_count",
        "status", "cpu_req", "mem_req",
    ),
    "batch_instance": (
        "start", "end", "job", "task", "machine", "status",
        "seq_no", "total_seq_no", "max_cpu", "avg_cpu", "max_mem", "avg_mem",
    ),
}

SCHEMA_PROFILES: dict[str, dict[str, tuple[str, ...]]] = {
    "default": {key: fields for key, fields in FILE_FIELDS.items()},
}


def _build_server_event(f: dict[str, str]) -> MachineEvent:
    return MachineEvent(
        timestamp=_nonneg_int(f["timestamp"], "timestamp"),
        machine=_machine_id(f["machine"]),
        event_type=_parse_enum(MachineEventType, f["event_type"]),
        event_detail=f["event_detail"].strip() or None,
        cpu_count=_nonneg_int(f["cpu_count"], "cpu_count"),
        norm_memory=_unit_fraction(f["norm_memory"], "norm_memory"),
        norm_disk=_unit_fraction(f["norm_disk"], "norm_disk"),
    )


def _build_server_usage(f: dict[str, str]) -> ServerUsageRecord:
    return ServerUsageRecord(
        timestamp=_nonneg_int(f["timestamp"], "timestamp"),
        machine=_machine_id(f["machine"]),
        cpu=_percent_fraction(f["cpu_pct"], "cpu_pct"),
        mem=_percent_fraction(f["mem_pct"], "mem_pct"),
        disk=_percent_fraction(f["disk_pct"], "disk_pct"),
        load1=_nonneg_float(f["load1"], "load1"),
        load5=_nonneg_float(f["load5"], "load5"),
        load15=_nonneg_float(f["load15"], "load15"),
    )


def _build_container_event(f: dict[str, str]) -> ContainerEvent:
    cpu_req = _float(f["cpu_req"], "cpu_req")
    if cpu_req <= 0:
        raise ValueError(f"cpu_req must be > 0, got {cpu_req}")
    # mem_req is nominally a fraction of machine memory, but known bad
    # duplicate records carry values slightly above 1 (e.g. 1.00001) and the
    # duplicate filter must get to see them, so only positivity is enforced.
    mem_req = _float(f["mem_req"], "mem_req")
    if mem_req <= 0:
        raise ValueError(f"mem_req must be > 0, got {mem_req}")
    return ContainerEvent(
        timestamp=_nonneg_int(f["timestamp"], "timestamp"),
        event_type=_parse_enum(ContainerEventType, f["event_type"]),
        instance=_nonneg_int(f["instance"], "instance"),
        machine=_machine_id(f["machine"]),
        cpu_req=cpu_req,
        mem_req=mem_req,
        disk_req=_nonneg_float(f["disk_req"], "disk_req"),
        cpu_set=_cpu_set(f["cpu_set"]),
    )


def _build_container_usage(f: dict[str, str]) -> ContainerUsageRecord:
    return ContainerUsageRecord(
        timestamp=_nonneg_int(f["timestamp"], "timestamp"),
        instance=_nonneg_int(f["instance"], "instance"),
        cpu_of_req=_percent_fraction(f["cpu_pct_of_req"], "cpu_pct_of_req"),
        mem_of_req=_percent_fraction(f["mem_pct_of_req"], "mem_pct_of_req"),
        disk_of_req=_percent_fraction(f["disk_pct_of_req"], "disk_pct_of_req"),
        disk=_percent_fraction(f["disk_pct"], "disk_pct"),
        load1=_nonneg_float(f["load1"], "load1"),
        load5=_nonneg_float(f["load5"], "load5"),
        load15=_nonneg_float(f["load15"], "load15"),
        avg_cpi=_nonneg_float(f["avg_cpi"], "avg_cpi"),
        avg_mpki=_nonneg_float(f["avg_mpki"], "avg_mpki"),
        max_cpi=_nonneg_float(f["max_cpi"], "max_cpi"),
        max_mpki=_nonneg_float(f["max_mpki"], "max_mpki"),
    )


def _build_batch_task(f: dict[str, str]) -> BatchTaskRecord:
    instance_count = _int(f["instance_count"], "instance_count")
    if instance_count < 1:
        raise ValueError(f"instance_count must be >= 1, got {instance_count}")
    return BatchTaskRecord(
        create_time=_nonneg_int(f["create_time"], "create_time"),
        end_time=_nonneg_int(f["end_time"], "end_time"),
        job=_nonneg_int(f["job"], "job"),
        task=_nonneg_int(f["task"], "task"),
        instance_count=instance_count,
        status=_parse_enum(TaskStatus, f["status"]),
        cpu_req=_nonneg_float(f["cpu_req"], "cpu_req"),
        mem_req=_nonneg_float(f["mem_req"], "mem_req"),
    )


_AVG_MAX_TOL = 1e-9


def _build_batch_instance(f: dict[str, str]) -> BatchInstanceRecord:
    start = _nonneg_int(f["start"], "start")
    end = _nonneg_int(f["end"], "end")
    status = _parse_enum(InstanceStatus, f["status"])
    if status is InstanceStatus.TERMINATED and (start == 0 or end < start):
        raise ValueError(
            f"Terminated instance needs start > 0 and end >= start, got [{start},{end}]"
        )
    max_cpu = _nonneg_float(f["max_cpu"], "max_cpu")
    avg_cpu = _nonneg_float(f["avg_cpu"], "avg_cpu")
    if avg_cpu > max_cpu + _AVG_MAX_TOL:
        raise ValueError(f"avg_cpu {avg_cpu} exceeds max_cpu {max_cpu}")
    machine_text = f["machine"].strip()
    return BatchInstanceRecord(
        start=start,
        end=end,
        job=_nonneg_int(f["job"], "job"),
        task=_nonneg_int(f["task"], "task"),
        machine=_nonneg_int(machine_text, "machine") if machine_text else 0,
        status=status,
        seq_no=_nonneg_int(f["seq_no"], "seq_no"),
        total_seq_no=_nonneg_int(f["total_seq_no"], "total_seq_no"),
        max_cpu=max_cpu,
        avg_cpu=avg_cpu,
        max_mem=_unit_fraction(f["max_mem"], "max_mem"),
        avg_mem=_unit_fraction(f["avg_mem"], "avg_mem"),
    )


def _machine_id(text: str) -> int:
    value = _int(text, "machine")
    if value < 1:
        raise ValueError(f"machine id must be >= 1, got {value}")
    return value


_BUILDERS = {
    "server_event": _build_server_event,
    "server_usage": _build_server_usage,
    "container_event": _build_container_event,
    "container_usage": _build_container_usage,
    "batch_task": _build_batch_task,
    "batch_instance": _build_batch_instance,
}


# ---------------------------------------------------------------------------
# parsing


def _resolve_profile(schema_profile) -> dict[str, tuple[str, ...]]:
    if isinstance(schema_profile, str):
        try:
            profile = SCHEMA_PROFILES[schema_profile]
        except KeyError:
            raise TraceParseError(f"unknown schema profile {schema_profile!r}") from None
    else:
        profile = dict(schema_profile)
    for key in FILE_KEYS:
        if key not in profile:
            raise TraceParseError(f"schema profile missing column order for {key!r}")
        if sorted(profile[key]) != sorted(FILE_FIELDS[key]):
            raise TraceParseError(f"schema profile for {key!r} must permute {FILE_FIELDS[key]}")
    return profile


def parse_trace_file(path: str, file_key: str, columns: tuple[str, ...] | None = None,
                     has_header: bool = False):
    """Parse one trace CSV. Returns (records, diagnostics).

    Malformed rows are skipped and reported; nothing is raised here so callers
    decide what rejection rate is tolerable.
    """
    columns = columns or FILE_FIELDS[file_key]
    build = _BUILDERS[file_key]
    records = []
    diagnostics: list[RowDiagnostic] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for line_no, row in enumerate(reader, start=1):
            if has_header and line_no == 1:
                continue
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(columns):
                diagnostics.append(RowDiagnostic(
                    file_key, line_no, f"expected {len(columns)} columns, got {len(row)}"))
                continue
            try:
                records.append(build(dict(zip(columns, row))))
            except ValueError as exc:
                diagnostics.append(RowDiagnostic(file_key, line_no, str(exc)))
    return records, diagnostics


def parse_trace_dir(path: str, schema_profile="default", *, filenames: dict | None = None,
                    has_header: bool = False, max_skip_ratio: float = 0.01,
                    diagnostics: list | None = None) -> TraceBundle:
    """Parse the six trace files under ``path`` into a TraceBundle.

    Raises TraceParseError when a file is missing or when any file's rejected
    row fraction exceeds ``max_skip_ratio``. Row-level diagnostics are logged
    and, when a ``diagnostics`` list is supplied, appended to it.
    """
    profile = _resolve_profile(schema_profile)
    names = dict(DEFAULT_FILENAMES)
    if filenames:
        names.update(filenames)
    parsed: dict[str, list] = {}
    for key in FILE_KEYS:
        file_path = os.path.join(path, names[key])
        if not os.path.exists(file_path):
            raise TraceParseError(f"missing trace file: {file_path}")
        records, diags = parse_trace_file(
            file_path, key, profile[key], has_header=has_header)
        total = len(records) + len(diags)
        if diags:
            log.warning("%s: skipped %d of %d rows (first: line %d, %s)",
                        names[key], len(diags), total, diags[0].line, diags[0].reason)
            if diagnostics is not None:
                diagnostics.extend(diags)
        if total and len(diags) / total > max_skip_ratio:
            raise TraceParseError(
                f"{names[key]}: rejected {len(diags)}/{total} rows, above "
                f"the {max_skip_ratio:.2%} limit")
        parsed[key] = records
    bundle = TraceBundle(
        events=parsed["server_event"],
        server_usage=parsed["server_usage"],
        container_events=parsed["container_event"],
        container_usage=parsed["container_usage"],
        batch_tasks=parsed["batch_task"],
        batch_instances=parsed["batch_instance"],
    )
    bundle.machine_count = _max_machine_id(bundle)
    return bundle


def _max_machine_id(bundle: TraceBundle) -> int:
    highest = 0
    for rec in bundle.events:
        highest = max(highest, rec.machine)
    for rec in bundle.server_usage:
        highest = max(highest, rec.machine)
    for rec in bundle.container_events:
        highest = max(highest, rec.machine)
    for rec in bundle.batch_instances:
        highest = max(highest, rec.machine)
    return highest


# ---------------------------------------------------------------------------
# serialization (inverse of parsing)


def _event_cells(rec: MachineEvent) -> dict[str, str]:
    return {
        "timestamp": str(rec.timestamp),
        "machine": str(rec.machine),
        "event_type": rec.event_type.value,
        "event_detail": rec.event_detail or "",
        "cpu_count": str(rec.cpu_count),
        "norm_memory": float_text(rec.norm_memory),
        "norm_disk": float_text(rec.norm_disk),
    }


def _server_usage_cells(rec: ServerUsageRecord) -> dict[str, str]:
    return {
        "timestamp": str(rec.timestamp),
        "machine": str(rec.machine),
        "cpu_pct": fraction_to_percent_text(rec.cpu),
        "mem_pct": fraction_to_percent_text(rec.mem),
        "disk_pct": fraction_to_percent_text(rec.disk),
        "load1": float_text(rec.load1),
        "load5": float_text(rec.load5),
        "load15": float_text(rec.load15),
    }


def _container_event_cells(rec: ContainerEvent) -> dict[str, str]:
    return {
        "timestamp": str(rec.timestamp),
        "event_type": rec.event_type.value,
        "instance": str(rec.instance),
        "machine": str(rec.machine),
        "cpu_req": float_text(rec.cpu_req),
        "mem_req": float_text(rec.mem_req),
        "disk_req": float_text(rec.disk_req),
        "cpu_set": "|".join(str(c) for c in rec.cpu_set) if rec.cpu_set else "",
    }


def _container_usage_cells(rec: ContainerUsageRecord) -> dict[str, str]:
    return {
        "timestamp": str(rec.timestamp),
        "instance": str(rec.instance),
        "cpu_pct_of_req": fraction_to_percent_text(rec.cpu_of_req),
        "mem_pct_of_req": fraction_to_percent_text(rec.mem_of_req),
        "disk_pct_of_req": fraction_to_percent_text(rec.disk_of_req),
        "disk_pct": fraction_to_percent_text(rec.disk),
        "load1": float_text(rec.load1),
        "load5": float_text(rec.load5),
        "load15": float_text(rec.load15),
        "avg_cpi": float_text(rec.avg_cpi),
        "avg_mpki": float_text(rec.avg_mpki),
        "max_cpi": float_text(rec.max_cpi),
        "max_mpki": float_text(rec.max_mpki),
    }


def _batch_task_cells(rec: BatchTaskRecord) -> dict[str, str]:
    return {
        "create_time": str(rec.create_time),
        "end_time": str(rec.end_time),
        "job": str(rec.job),
        "task": str(rec.task),
        "instance_count": str(rec.instance_count),
        "status": rec.status.value,
        "cpu_req": float_text(rec.cpu_req),
        "mem_req": float_text(rec.mem_req),
    }


def _batch_instance_cells(rec: BatchInstanceRecord) -> dict[str, str]:
    return {
        "start": str(rec.start),
        "end": str(rec.end),
        "job": str(rec.job),
        "task": str(rec.task),
        # unplaced instances keep the source convention of an empty cell
        "machine": str(rec.machine) if rec.machine else "",
        "status": rec.status.value,
        "seq_no": str(rec.seq_no),
        "total_seq_no": str(rec.total_seq_no),
        "max_cpu": float_text(rec.max_cpu),
        "avg_cpu": float_text(rec.avg_cpu),
        "max_mem": float_text(rec.max_mem),
        "avg_mem": float_text(rec.avg_mem),
    }


_CELL_MAKERS = {
    "server_event": _event_cells,
    "server_usage": _server_usage_cells,
    "container_event": _container_event_cells,
    "container_usage": _container_usage_cells,
    "batch_task": _batch_task_cells,
    "batch_instance": _batch_instance_cells,
}

_BUNDLE_ATTRS = {
    "server_event": "events",
    "server_usage": "server_usage",
    "container_event": "container_events",
    "container_usage": "container_usage",
    "batch_task": "batch_tasks",
    "batch_instance": "batch_instances",
}


def write_trace_dir(bundle: TraceBundle, path: str, schema_profile="default", *,
                    filenames: dict | None = None) -> None:
    """Write the bundle back to six CSV files (byte-deterministic)."""
    profile = _resolve_profile(schema_profile)
    names = dict(DEFAULT_FILENAMES)
    if filenames:
        names.update(filenames)
    os.makedirs(path, exist_ok=True)
    for key in FILE_KEYS:
        make_cells = _CELL_MAKERS[key]
        columns = profile[key]
        with open(os.path.join(path, names[key]), "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            for rec in getattr(bundle, _BUNDLE_ATTRS[key]):
                cells = make_cells(rec)
                writer.writerow([cells[col] for col in columns])


# ---------------------------------------------------------------------------
# interval grid


@dataclass(frozen=True)
class IntervalGrid:
    """Uniform sampling grid: timestamps t_x = start + x*step, x = 0..N,
    and closed intervals I_x = [t_x, t_{x+1}], x = 0..N-1.

    Note the off-by-one that trips people up: a grid carries one more
    timestamp than it has intervals (144 vs 143 at the reference scale).
    """

    start: int
    end: int
    step: int

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError(f"step must be positive, got {self.step}")
        if self.end <= self.start:
            raise ValueError(f"grid end {self.end} must exceed start {self.start}")
        if (self.end - self.start) % self.step != 0:
            raise ValueError(
                f"grid span {self.end - self.start} not divisible by step {self.step}")

    @property
    def interval_count(self) -> int:
        return (self.end - self.start) // self.step

    @property
    def timestamp_count(self) -> int:
        return self.interval_count + 1

    def timestamps(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.timestamp_count, dtype=np.int64)

    def interval_index(self, timestamp: int) -> int | None:
        """Index x with t_x <= timestamp < t_{x+1}; None outside [start, end)."""
        if timestamp < self.start or timestamp >= self.end:
            return None
        return (timestamp - self.start) // self.step

    def timestamp_slot(self, timestamp: int) -> int | None:
        """Sample slot for bucketing raw usage rows: slot x covers
        [t_x, t_x + step), so the final timestamp owns its own slot."""
        if timestamp < self.start or timestamp >= self.end + self.step:
            return None
        return (timestamp - self.start) // self.step


# ---------------------------------------------------------------------------
# validation


@dataclass
class ValidationReport:
    expected_samples: int
    machines_no_usage: list[int]
    machines_undersampled: list[tuple[int, int]]   # (machine, sample count)
    duplicate_container_instances: dict[int, int]  # instance -> record count
    zero_timestamp_batch_instances: int


def validate_bundle(bundle: TraceBundle) -> ValidationReport:
    """Report-only checks; the bundle is never modified.

    The expected per-machine sample count is taken from the best-covered
    machine, which equals the grid's timestamp count on a healthy trace.
    """
    counts: dict[int, int] = {}
    for rec in bundle.server_usage:
        counts[rec.machine] = counts.get(rec.machine, 0) + 1
    expected = max(counts.values(), default=0)
    no_usage = [m for m in bundle.machine_ids() if m not in counts]
    undersampled = sorted(
        (m, n) for m, n in counts.items() if 0 < n < expected)

    event_counts: dict[int, int] = {}
    for ev in bundle.container_events:
        event_counts[ev.instance] = event_counts.get(ev.instance, 0) + 1
    duplicates = {inst: n for inst, n in sorted(event_counts.items()) if n > 1}

    zero_ts = sum(1 for bi in bundle.batch_instances if bi.start == 0 or bi.end == 0)
    return ValidationReport(
        expected_samples=expected,
        machines_no_usage=no_usage,
        machines_undersampled=undersampled,
        duplicate_container_instances=duplicates,
        zero_timestamp_batch_instances=zero_ts,
    )
