"""Trace schema: one table of numpy columns per trace file, CSV parsing and
writing, and the interval grid.

A trace is a directory of six comma-separated CSV files with no header row:
machine events, server usage, container events, container usage, batch tasks,
and batch task instances. Each file parses into a ``Table``: one numpy column
per field, one entry per accepted row, ``len(table)`` rows. One spec per file
(``_SPECS``) gives every field a kind, which drives both parsing and writing,
and lists the checks that span several columns. Its field order is the
column order of the file, which is the one layout of the published trace.

Kinds and units, applied at parse time and inverted on write:
  * ids, counts and timestamps are int64; timestamps stay integer seconds
    relative to trace start (0 means "before the recorded period"), and an
    empty batch-instance machine cell is machine 0 (never placed),
  * percent cells become float64 fractions in [0, 1], in a column named
    after the field without ``_pct``,
  * enums become int8 codes, the member's position in its Enum class
    (``enum_code``),
  * ``event_detail`` and ``cpu_set`` stay text, ``cpu_set`` normalised to
    ``1|2|3``; everything else is float64 as written.

Each kind states its rule once: its parse, the mask of the values it
accepts, and the words for a cell that fails either. Parsing reads
``BLOCK_ROWS`` rows at a time, converts each column of a block with one
``np.fromiter`` and applies the masks to whole columns. A row that any check
rejects has its cells checked one at a time by the same parse and mask, in
the spec's check order, to name the first rule it breaks in its
``RowDiagnostic``.

A percent cell converts as ``float(text + "e-2")``, which rounds the exact
decimal value once. Cells with an exponent, or longer than Decimal's default
28-digit precision, take the ``decimal.Decimal`` exponent shift of
``percent_text_to_fraction`` instead, which gives the same float wherever
both apply. ``fraction_to_percent_text`` inverts the conversion exactly, so
writing a bundle and parsing it again reproduces every float bit-for-bit.

Writing formats a block column at a time too, each kind's ``text`` in C
loops: ``str`` or ``repr`` of the column's Python values, and for percent
cells the digit shift of ``percent_texts``. The shortest repr ``0.d1d2d3…``
of a fraction in [1e-4, 1) is written ``d1d2.d3…``, with a leading zero of
``d1d2`` dropped; every other value takes ``fraction_to_percent_text``.
Only a file with a text field goes through ``csv.writer``, because only a
text cell can need quoting; the lines of every other file are joined by
``csv_lines``.

``save_columns`` writes a parsed bundle, with the rows each file lost, to
one binary file, and ``load_columns`` reads it back with the same dtypes,
so a later stage can skip parsing the same six files again.
"""

from __future__ import annotations

import csv
import logging
import math
import operator
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from decimal import Decimal
from enum import Enum
from functools import partial
from itertools import islice, repeat
from typing import Callable, Iterable, Iterator, TextIO

import numpy as np

log = logging.getLogger(__name__)

TRACE_FILENAMES = {
    "server_event": "server_event.csv",
    "server_usage": "server_usage.csv",
    "container_event": "container_event.csv",
    "container_usage": "container_usage.csv",
    "batch_task": "batch_task.csv",
    "batch_instance": "batch_instance.csv",
}

FILE_KEYS = tuple(TRACE_FILENAMES)

# Rows converted per block: bounds the parser's transient memory.
BLOCK_ROWS = 1024


class TraceParseError(Exception):
    """Fatal parse problem: a missing or unreadable file, or too many
    rejected rows."""


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


def enum_code(member: Enum) -> np.int8:
    """The int8 code an enum column stores for ``member``."""
    return np.int8(list(type(member)).index(member))


@dataclass(frozen=True, slots=True)
class RowDiagnostic:
    file: str
    line: int
    reason: str


# ---------------------------------------------------------------------------
# unit conversion


def percent_text_to_fraction(text: str) -> float:
    """Parse a percent CSV cell into a fraction with a single rounding step.

    ``Decimal.scaleb`` shifts the decimal exponent exactly (up to the
    context's 28 digits), so the only rounding happens in the final
    ``float()``; ``fraction_to_percent_text`` inverts the conversion exactly.
    """
    try:
        value = float(Decimal(text.strip()).scaleb(-2))
    except (ArithmeticError, ValueError) as exc:   # decimal's errors included
        raise ValueError(f"bad percent value {text!r}") from exc
    if not math.isfinite(value):
        raise ValueError(f"non-finite percent value {text!r}")
    return value


def fraction_to_percent_text(value: float) -> str:
    return format(Decimal(repr(value)).scaleb(2), "f")


def percent_texts(column) -> list[str]:
    """``fraction_to_percent_text`` of each float of ``column``, in C loops
    where it can be. A repr ``0.d1d2d3…`` with at least three fraction
    digits is the percent text ``d1d2.d3…`` with a leading zero of ``d1d2``
    dropped (``0.0312`` is ``3.12``, ``0.00012`` is ``0.012``); every other
    repr (``0.0``, ``0.05``, ``1.0``, an exponent, a sign) takes the
    definition."""
    values = np.asarray(column, dtype=np.float64).tolist()
    texts = list(map(repr, values))
    heads = map(str.removeprefix, map(operator.getitem, texts, repeat(slice(2, 4))),
                repeat("0"))
    shifted = list(map(operator.add, map(operator.add, heads, repeat(".")),
                       map(operator.getitem, texts, repeat(slice(4, None)))))
    positional = (np.fromiter(map(str.startswith, texts, repeat("0.")), bool, len(texts))
                  & (np.fromiter(map(len, texts), np.intp, len(texts)) > 4))
    for i in np.flatnonzero(~positional).tolist():
        shifted[i] = fraction_to_percent_text(values[i])
    return shifted


def float_text(value: float) -> str:
    """Shortest decimal text that parses back to exactly ``value``."""
    return repr(float(value))


@contextmanager
def csv_file(path: str, header) -> Iterator[TextIO]:
    """An artifact CSV at ``path``, open for writing in the dialect of every
    artifact (UTF-8, ``\\n`` line ends) with its ``header`` line written."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        yield fh


def csv_lines(*columns) -> str:
    """CSV lines, each ended by a newline, of the rows zipped from columns of
    cell texts. Cells are joined as they are, so none may need quoting."""
    lines = "\n".join(map(",".join, zip(*columns)))
    return lines + "\n" if lines else lines


_DECIMAL_DIGITS = 28


def _percent_column(cells: tuple[str, ...]):
    """``percent_text_to_fraction`` over a block column, in C where it can
    be: up to 28 characters, ``float(cell + "e-2")`` gives the same float.
    It raises on a cell with an exponent or surrounding space, which sends
    the block to the cell-by-cell path."""
    if max(map(len, cells)) > _DECIMAL_DIGITS:
        return map(percent_text_to_fraction, cells)
    return map(float, map(operator.add, cells, repeat("e-2")))


def _cpu_set(text: str) -> str:
    """Normalised ``1|2|3`` text; spaces also separate, int() checks parts."""
    return "|".join(str(int(part)) for part in
                    text.strip().replace(" ", "|").split("|") if part)


# ---------------------------------------------------------------------------
# field kinds and file specs


_INT64 = np.iinfo(np.int64)


@dataclass(frozen=True)
class _Kind:
    """How one field parses, checks and writes, each stated once.

    ``parse`` converts a cell and ``valid`` masks the values the field
    accepts; ``rule`` words a value ``valid`` refuses, and ``bad`` a cell
    ``parse`` refuses (None: the parse error's own text). Both format over
    the field ``name``, the cell ``text`` and the parsed ``value``; ``strip``
    kinds read and quote the cell stripped. The block parser applies
    ``parse`` and ``valid`` to whole columns, and ``check`` to the cells of a
    rejected row to name the rule it breaks. ``text`` turns a block column
    back into its cells. ``parse_all`` maps ``parse`` over a block column
    where a faster equal form exists."""

    dtype: type
    parse: Callable[[str], object]
    valid: Callable[[np.ndarray], np.ndarray] | None
    rule: str | None
    text: Callable[[np.ndarray], Iterable[str]]
    parse_all: Callable[[tuple], Iterator] | None = None
    bad: str | None = None
    strip: bool = False

    def column(self, cells: tuple[str, ...]) -> np.ndarray:
        """A block column; raises on the first cell that does not parse."""
        parsed = (self.parse_all or partial(map, self.parse))(cells)
        if self.dtype is str:
            return np.array(list(parsed), dtype=str)
        return np.fromiter(parsed, self.dtype, len(cells))

    def check(self, text: str, name: str):
        """The value of one cell. Raises ValueError worded for the first
        check it fails: the parse, the 64-bit range of an int64 kind, the
        finiteness of a float64 kind, then ``valid``."""
        if self.strip:
            text = text.strip()
        try:
            value = self.parse(text)
        except ValueError as exc:
            if self.bad is None:
                raise
            raise ValueError(self.bad.format(name=name, text=text)) from exc
        if self.dtype is np.int64 and not _INT64.min <= value <= _INT64.max:
            message = "{name} outside the 64-bit integer range: {text!r}"
        elif self.dtype is np.float64 and not math.isfinite(value):
            message = "{name} must be finite, got {text!r}"
        elif self.valid is not None and not self.valid(value):
            message = self.rule
        else:
            return value
        raise ValueError(message.format(name=name, text=text, value=value))


def _texts(convert, dtype=None):
    """The cells of a block column: ``convert`` over its values as ``dtype``."""
    return lambda column: map(convert, np.asarray(column, dtype).tolist())


_int_kind = partial(_Kind, np.int64, int, text=_texts(str),
                    bad="bad integer for {name}: {text!r}")
_float_kind = partial(_Kind, np.float64, float, text=_texts(repr, np.float64),
                      bad="bad number for {name}: {text!r}")

_MACHINE = _int_kind(lambda v: v >= 1, "machine id must be >= 1, got {value}")
_NONNEG_INT = _int_kind(lambda v: v >= 0, "{name} must be >= 0, got {value}")
# a blank cell is machine 0, which never ran
_OPTIONAL_MACHINE = replace(
    _NONNEG_INT, parse=lambda cell: int(cell) if cell.strip() else 0,
    text=lambda column: np.where(column != 0, column.astype(str), "").tolist(),
    strip=True)
_COUNT = _int_kind(lambda v: v >= 1, "{name} must be >= 1, got {value}")
_PERCENT = _Kind(np.float64, percent_text_to_fraction,
                 lambda v: (v >= 0.0) & (v <= 1.0),
                 "{name} must lie in [0,100] percent, got {text!r}",
                 percent_texts, parse_all=_percent_column)
_UNIT_FRACTION = _float_kind(lambda v: (v >= 0.0) & (v <= 1.0),
                             "{name} must lie in [0,1], got {value}")
_NONNEG_FLOAT = _float_kind(lambda v: (v >= 0.0) & (v < np.inf),
                            "{name} must be >= 0, got {value}")
_POSITIVE_FLOAT = _float_kind(lambda v: (v > 0.0) & (v < np.inf),
                              "{name} must be > 0, got {value}")
_TEXT = _Kind(str, str.strip, None, None, np.ndarray.tolist)
_CPU_SET = _Kind(str, _cpu_set, None, None, np.ndarray.tolist)


def _enum_kind(enum_cls) -> _Kind:
    """An enum field: int8 codes into the members of ``enum_cls``."""
    values = [m.value for m in enum_cls]
    lookup = {value.lower(): code for code, value in enumerate(values)}
    return _Kind(np.int8, lambda cell: lookup.get(cell.strip().lower(), -1),
                 lambda v: v >= 0, f"unknown {enum_cls.__name__} value {{text!r}}",
                 _texts(values.__getitem__))


@dataclass(frozen=True)
class _Rule:
    """A check across columns: ``violated`` takes the named fields' values
    (scalars or block columns) and the message formats over them."""

    fields: tuple[str, ...]
    violated: Callable
    message: str


_AVG_MAX_TOL = 1e-9
_TERMINATED = enum_code(InstanceStatus.TERMINATED)

_TERMINATED_SPAN = _Rule(
    ("status", "start", "end"),
    lambda status, start, end: (status == _TERMINATED) & ((start == 0) | (end < start)),
    "Terminated instance needs start > 0 and end >= start, got [{start},{end}]")
_AVG_WITHIN_MAX = _Rule(
    ("avg_cpu", "max_cpu"),
    lambda avg_cpu, max_cpu: avg_cpu > max_cpu + _AVG_MAX_TOL,
    "avg_cpu {avg_cpu} exceeds max_cpu {max_cpu}")


@dataclass(frozen=True)
class _FileSpec:
    """One trace file: its ``TraceBundle`` attribute, its fields with their
    kinds in column order, and the fields and cross-column rules a row is
    checked against before the remaining fields, in that order."""

    attr: str
    fields: dict[str, _Kind]
    check_first: tuple = ()

    def check_order(self) -> list:
        first = [step for step in self.check_first if isinstance(step, str)]
        return list(self.check_first) + [f for f in self.fields if f not in first]

    def rules(self) -> list[_Rule]:
        return [step for step in self.check_first if isinstance(step, _Rule)]


_SPECS = {
    "server_event": _FileSpec("events", {
        "timestamp": _NONNEG_INT, "machine": _MACHINE,
        "event_type": _enum_kind(MachineEventType), "event_detail": _TEXT,
        "cpu_count": _NONNEG_INT, "norm_memory": _UNIT_FRACTION,
        "norm_disk": _UNIT_FRACTION,
    }),
    "server_usage": _FileSpec("server_usage", {
        "timestamp": _NONNEG_INT, "machine": _MACHINE, "cpu_pct": _PERCENT,
        "mem_pct": _PERCENT, "disk_pct": _PERCENT, "load1": _NONNEG_FLOAT,
        "load5": _NONNEG_FLOAT, "load15": _NONNEG_FLOAT,
    }),
    # mem_req is nominally a fraction of machine memory, but known bad
    # duplicate records carry values slightly above 1 (e.g. 1.00001) and the
    # duplicate filter must get to see them, so only positivity is enforced.
    "container_event": _FileSpec("container_events", {
        "timestamp": _NONNEG_INT, "event_type": _enum_kind(ContainerEventType),
        "instance": _NONNEG_INT, "machine": _MACHINE, "cpu_req": _POSITIVE_FLOAT,
        "mem_req": _POSITIVE_FLOAT, "disk_req": _NONNEG_FLOAT, "cpu_set": _CPU_SET,
    }, check_first=("cpu_req", "mem_req")),
    "container_usage": _FileSpec("container_usage", {
        "timestamp": _NONNEG_INT, "instance": _NONNEG_INT,
        "cpu_pct_of_req": _PERCENT, "mem_pct_of_req": _PERCENT,
        "disk_pct_of_req": _PERCENT, "disk_pct": _PERCENT,
        "load1": _NONNEG_FLOAT, "load5": _NONNEG_FLOAT, "load15": _NONNEG_FLOAT,
        "avg_cpi": _NONNEG_FLOAT, "avg_mpki": _NONNEG_FLOAT,
        "max_cpi": _NONNEG_FLOAT, "max_mpki": _NONNEG_FLOAT,
    }),
    "batch_task": _FileSpec("batch_tasks", {
        "create_time": _NONNEG_INT, "end_time": _NONNEG_INT, "job": _NONNEG_INT,
        "task": _NONNEG_INT, "instance_count": _COUNT,
        "status": _enum_kind(TaskStatus), "cpu_req": _NONNEG_FLOAT,
        "mem_req": _NONNEG_FLOAT,
    }, check_first=("instance_count",)),
    "batch_instance": _FileSpec("batch_instances", {
        "start": _NONNEG_INT, "end": _NONNEG_INT, "job": _NONNEG_INT,
        "task": _NONNEG_INT, "machine": _OPTIONAL_MACHINE,
        "status": _enum_kind(InstanceStatus), "seq_no": _NONNEG_INT,
        "total_seq_no": _NONNEG_INT, "max_cpu": _NONNEG_FLOAT,
        "avg_cpu": _NONNEG_FLOAT, "max_mem": _UNIT_FRACTION,
        "avg_mem": _UNIT_FRACTION,
    }, check_first=("start", "end", "status", _TERMINATED_SPAN,
                    "max_cpu", "avg_cpu", _AVG_WITHIN_MAX)),
}

def _column_name(field_name: str) -> str:
    """Percent fields hold fractions once parsed, so their column drops
    ``_pct``."""
    return field_name.replace("_pct", "")


# ---------------------------------------------------------------------------
# tables


class Table:
    """One trace file as numpy columns: ``table.<column>`` is an array with
    one entry per row, and ``len(table)`` is the row count."""

    def __init__(self, file_key: str, columns: dict[str, np.ndarray]):
        self.file_key = file_key
        self.columns = columns

    def __getattr__(self, name: str) -> np.ndarray:
        columns = self.__dict__.get("columns", {})
        if name in columns:
            return columns[name]
        raise AttributeError(f"{self.__dict__.get('file_key')} table has no "
                             f"column {name!r}")

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))

    def take(self, rows) -> Table:
        """The rows selected by a boolean mask or index array, in order."""
        return Table(self.file_key,
                     {name: column[rows] for name, column in self.columns.items()})


@dataclass(eq=False)
class TraceBundle:
    """The six parsed files plus the derived machine count.

    Treated as immutable after construction; pipeline stages that need a
    modified view (e.g. filtered container events) build a new bundle with
    ``dataclasses.replace``.
    """

    events: Table
    server_usage: Table
    container_events: Table
    container_usage: Table
    batch_tasks: Table
    batch_instances: Table
    machine_count: int = 0


# ---------------------------------------------------------------------------
# parsing


def _convert(kind: _Kind, cells: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """One block column as (values, mask of the cells that pass)."""
    try:
        values = kind.column(cells)
        parsed = None
    except (ValueError, OverflowError):
        # some cell does not convert: convert cell by cell and mark it
        values = np.zeros(len(cells), dtype=object if kind.dtype is str else kind.dtype)
        parsed = np.ones(len(cells), dtype=bool)
        for i, cell in enumerate(cells):
            try:
                values[i] = kind.parse(cell)
            except (ValueError, OverflowError):
                parsed[i] = False
        if kind.dtype is str:
            values = values.astype(str)
    ok = np.ones(len(cells), dtype=bool) if kind.valid is None else kind.valid(values)
    return values, ok if parsed is None else ok & parsed


def _reason(spec: _FileSpec, cells: dict[str, str]) -> str:
    """The first check a rejected row breaks, in the spec's check order."""
    values: dict[str, object] = {}
    for step in spec.check_order():
        if isinstance(step, _Rule):
            if step.violated(*(values[name] for name in step.fields)):
                return step.message.format(**values)
            continue
        try:
            values[step] = spec.fields[step].check(cells[step], step)
        except ValueError as exc:
            return str(exc)
    raise RuntimeError(f"row {cells} was rejected but passes every check")


def _convert_block(file_key: str, rows: list[list[str]], line_nos: list[int],
                   diagnostics: list[RowDiagnostic]) -> dict[str, np.ndarray]:
    """Accepted rows of one block as columns; rejected ones go to
    ``diagnostics``."""
    spec = _SPECS[file_key]
    values: dict[str, np.ndarray] = {}
    ok = np.ones(len(rows), dtype=bool)
    for (name, kind), cells in zip(spec.fields.items(), zip(*rows)):
        values[name], passed = _convert(kind, cells)
        ok &= passed
    for rule in spec.rules():
        ok &= ~rule.violated(*(values[name] for name in rule.fields))
    for i in np.flatnonzero(~ok).tolist():
        diagnostics.append(RowDiagnostic(
            file_key, line_nos[i], _reason(spec, dict(zip(spec.fields, rows[i])))))
    # a text column is rebuilt so its width is that of the accepted rows
    return {name: (np.array(column[ok].tolist(), dtype=str)
                   if column.dtype.kind == "U" else column[ok])
            for name, column in values.items()}


def parse_trace_file(path: str, file_key: str,
                     ) -> tuple[Table, list[RowDiagnostic]]:
    """Parse one trace CSV, its columns in field order. Returns (table,
    diagnostics).

    Malformed rows are skipped and reported in line order; nothing is raised
    here so callers decide what rejection rate is tolerable.
    """
    spec = _SPECS[file_key]
    width = len(spec.fields)
    blocks: list[dict[str, np.ndarray]] = []
    diagnostics: list[RowDiagnostic] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        first_line = 1
        while block := list(islice(reader, BLOCK_ROWS)):
            line_nos = range(first_line, first_line + len(block))
            first_line += len(block)
            rows = block
            if set(map(len, block)) != {width}:
                rows, kept = [], []
                for line_no, row in zip(line_nos, block):
                    if len(row) == width:
                        rows.append(row)
                        kept.append(line_no)
                    elif row and not (len(row) == 1 and not row[0].strip()):
                        diagnostics.append(RowDiagnostic(
                            file_key, line_no,
                            f"expected {width} columns, got {len(row)}"))
                line_nos = kept
            if rows:
                blocks.append(_convert_block(file_key, rows, line_nos, diagnostics))
    diagnostics.sort(key=lambda diag: diag.line)
    table = Table(file_key, {
        _column_name(name): (np.concatenate([b[name] for b in blocks]) if blocks
                             else np.array([], dtype=kind.dtype))
        for name, kind in spec.fields.items()})
    return table, diagnostics


def parse_trace_dir(path: str, *, max_skip_ratio: float = 0.01,
                    diagnostics: list | None = None) -> TraceBundle:
    """Parse the six trace files under ``path`` into a TraceBundle.

    Raises TraceParseError when a file is missing, cannot be read as UTF-8
    text, or has a rejected row fraction above ``max_skip_ratio``. Row-level
    diagnostics are logged and, when a ``diagnostics`` list is supplied,
    appended to it.
    """
    tables: dict[str, Table] = {}
    for key, spec in _SPECS.items():
        file_path = os.path.join(path, TRACE_FILENAMES[key])
        if not os.path.exists(file_path):
            raise TraceParseError(f"missing trace file: {file_path}")
        try:
            table, diags = parse_trace_file(file_path, key)
        except (OSError, UnicodeDecodeError) as e:
            raise TraceParseError(f"cannot read trace file {file_path}: {e}") from e
        if diags and diagnostics is not None:
            diagnostics.extend(diags)
        _check_skips(TRACE_FILENAMES[key], len(table), len(diags),
                     diags[0] if diags else None, max_skip_ratio)
        tables[spec.attr] = table
    machine_count = max((int(t.machine.max()) for t in tables.values()
                         if "machine" in t.columns and len(t)), default=0)
    return TraceBundle(**tables, machine_count=machine_count)


def _check_skips(name: str, kept: int, skipped: int, first: RowDiagnostic | None,
                 max_skip_ratio: float) -> None:
    """Log a file's skipped rows, naming the first, and raise TraceParseError
    when they exceed ``max_skip_ratio`` of its rows."""
    total = kept + skipped
    if skipped:
        log.warning("%s: skipped %d of %d rows (first: line %d, %s)",
                    name, skipped, total, first.line, first.reason)
    if total and skipped / total > max_skip_ratio:
        raise TraceParseError(f"{name}: rejected {skipped}/{total} rows, above "
                              f"the {max_skip_ratio:.2%} limit")


# ---------------------------------------------------------------------------
# parsed columns on disk


def save_columns(bundle: TraceBundle, diagnostics: list[RowDiagnostic],
                 path: str) -> None:
    """Write ``bundle`` and the rows its parse skipped to ``path``, so that
    ``load_columns`` can stand in for parsing the same files again.

    The file is consecutive ``np.save`` records (no pickles, no zip
    timestamps, so the bytes are deterministic): the machine count, then per
    file in ``_SPECS`` order its columns in field order, the skipped-row
    count with the line of the first skipped row (0 if none), and that row's
    reason. ``diagnostics`` are those ``parse_trace_dir`` collected.
    """
    skipped = dict.fromkeys(_SPECS, 0)
    first: dict[str, RowDiagnostic] = {}
    for diag in diagnostics:
        skipped[diag.file] += 1
        first.setdefault(diag.file, diag)
    with open(path, "wb") as fh:
        save = partial(np.save, fh, allow_pickle=False)
        save(np.array([bundle.machine_count], dtype=np.int64))
        for key, spec in _SPECS.items():
            columns = getattr(bundle, spec.attr).columns
            for name in spec.fields:
                save(columns[_column_name(name)])
            diag = first.get(key)
            save(np.array([skipped[key], diag.line if diag else 0], dtype=np.int64))
            save(np.array([diag.reason if diag else ""]))


def load_columns(path: str, max_skip_ratio: float = 0.01,
                 ) -> tuple[TraceBundle, dict[str, int]]:
    """The bundle ``save_columns`` wrote to ``path``, and the rows skipped
    per file key. Logs each file's skipped rows and applies
    ``max_skip_ratio`` to them as ``parse_trace_dir`` does, in the same file
    order and with the same messages."""
    tables: dict[str, Table] = {}
    skipped: dict[str, int] = {}
    with open(path, "rb") as fh:
        load = partial(np.load, fh, allow_pickle=False)
        machine_count = int(load()[0])
        for key, spec in _SPECS.items():
            table = Table(key, {_column_name(name): load() for name in spec.fields})
            count, line = load().tolist()
            reason = str(load()[0])
            _check_skips(TRACE_FILENAMES[key], len(table), count,
                         RowDiagnostic(key, line, reason), max_skip_ratio)
            tables[spec.attr] = table
            skipped[key] = count
    return TraceBundle(**tables, machine_count=machine_count), skipped


# ---------------------------------------------------------------------------
# serialization (inverse of parsing)


def write_trace_dir(bundle: TraceBundle, path: str) -> None:
    """Write the bundle back to six CSV files (byte-deterministic), a block
    of ``BLOCK_ROWS`` rows at a time, each block column turned into cells by
    its kind's ``text``; percent cells shift the digits of the fraction's
    repr (``percent_texts``). Only a file with a text field
    (``event_detail``, ``cpu_set``) goes through ``csv.writer``, because
    only a text cell can need quoting; other files are joined by
    ``csv_lines``."""
    os.makedirs(path, exist_ok=True)
    for key, spec in _SPECS.items():
        table = getattr(bundle, spec.attr)
        quoting = any(kind.dtype is str for kind in spec.fields.values())
        with open(os.path.join(path, TRACE_FILENAMES[key]), "w", newline="",
                  encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            for lo in range(0, len(table), BLOCK_ROWS):
                cells = [kind.text(table.columns[_column_name(name)][lo:lo + BLOCK_ROWS])
                         for name, kind in spec.fields.items()]
                if quoting:
                    writer.writerows(zip(*cells))
                else:
                    fh.write(csv_lines(*cells))


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
