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
``BLOCK_ROWS`` records at a time and has two readers. A block of plain lines
goes to numpy's C reader, ``np.loadtxt``: int and float cells parse in C,
with the ``PyOS_string_to_double`` of ``float()``, every other cell by its
kind's parse (a text cell into an ``object`` field), and the masks and the
cross-column rules apply to whole columns. On ASCII text without information
separators it accepts a subset of what ``int()`` and ``float()`` accept, to
the same values. Every other block goes to the row rule, ``_row``: a block
the C reader refuses or could read otherwise (``_c_read``), and the rest of
a file from its first block that only ``csv.reader`` reads right (a quote, a
CR, a NUL, a line over its field limit). The row rule checks a row's width,
then its cells one at a time by the same parse and mask, and the
cross-column rules, in the spec's check order. It also names the first rule
broken by a row the C reader's masks reject, in its ``RowDiagnostic``, so
each row is accepted and explained by the same code.

A parse keeps every column, or only those a ``keep`` set names
(``PREPROCESS_COLUMNS``, which preprocess passes). The checks run on every
column either way: the C reader's masks and rules on whole block columns,
the row rule on every cell. So the rows accepted and the diagnostics do not
depend on ``keep``; only the kept columns are copied out of each block and
concatenated, a column at a time, each freeing its blocks as it goes.

A percent cell converts as ``float(text + "e-2")``, which rounds the exact
decimal value once. Cells where that raises (an exponent, trailing space),
or longer than Decimal's default 28-digit precision, take the
``decimal.Decimal`` exponent shift of ``percent_text_to_fraction`` instead,
which gives the same float wherever both apply.
``cells.fraction_to_percent_text`` inverts the conversion exactly, so
writing a bundle and parsing it again reproduces every float bit-for-bit.

Writing turns a block of ``BLOCK_ROWS`` rows into bytes a kind at a time:
the block columns of one kind go to its ``cells`` together, which makes the
cells of all of them as one uint8 grid by numpy array arithmetic
(``cells.py``): ``str`` of an int, ``repr`` of a float, the
``fraction_to_percent_text`` of a percent cell, an enum's name. One
``cells.csv_lines`` call joins the grids of the block into its lines. Only a
file with a text field goes through ``csv.writer``, with the same cell
texts, because only a text cell can need quoting.

``save_columns`` writes the grid, the columns of a bundle that analyze reads
(``SAVED_COLUMNS``), the rows each file lost and the repaired cpu, mem and
disk of the dense usage to one binary file, and ``load_columns`` reads them
back with the same dtypes: the one hand-off from preprocess to analyze.
"""

from __future__ import annotations

import csv
import logging
import math
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, replace
from decimal import Decimal
from enum import Enum
from functools import cached_property, partial
from itertools import chain, islice, repeat
from typing import BinaryIO, Callable, Iterable, Iterator, TextIO

import numpy as np

from .cells import csv_lines, float_cells, int_cells, text_cells

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
    ``float()``; ``cells.fraction_to_percent_text`` inverts the conversion
    exactly.
    """
    try:
        value = float(Decimal(text.strip()).scaleb(-2))
    except (ArithmeticError, ValueError) as exc:   # decimal's errors included
        raise ValueError(f"bad percent value {text!r}") from exc
    if not math.isfinite(value):
        raise ValueError(f"non-finite percent value {text!r}")
    return value


@contextmanager
def csv_file(path: str, header) -> Iterator[BinaryIO]:
    """An artifact CSV at ``path``, open for writing the bytes of
    ``cells.csv_lines`` in the dialect of every artifact (UTF-8, ``\\n``
    line ends) with its ``header`` line written."""
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        yield fh


_DECIMAL_DIGITS = 28


def _percent(text: str) -> float:
    """``percent_text_to_fraction`` of a cell, in C where it can be: up to 28
    characters, ``float(text + "e-2")`` gives the same float. A longer cell,
    or one where that raises (an exponent, trailing space), takes the
    definition."""
    if len(text) <= _DECIMAL_DIGITS:
        try:
            return float(text + "e-2")
        except ValueError:
            pass
    return percent_text_to_fraction(text)


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
    kinds read and quote the cell stripped. The C reader applies ``parse``
    and ``valid`` to whole columns, and the row rule ``check`` to the cells
    of one row. ``cells`` turns block columns of the kind, in any shape,
    back into a grid of their cells (``cells.py``); a text kind has none,
    as ``csv.writer`` writes and quotes its cells."""

    dtype: type
    parse: Callable[[str], object]
    valid: Callable[[np.ndarray], np.ndarray] | None
    rule: str | None
    cells: Callable[[np.ndarray], np.ndarray] | None
    bad: str | None = None
    strip: bool = False

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


_int_kind = partial(_Kind, np.int64, int, cells=int_cells,
                    bad="bad integer for {name}: {text!r}")
_float_kind = partial(_Kind, np.float64, float, cells=float_cells,
                      bad="bad number for {name}: {text!r}")

_MACHINE = _int_kind(lambda v: v >= 1, "machine id must be >= 1, got {value}")
_NONNEG_INT = _int_kind(lambda v: v >= 0, "{name} must be >= 0, got {value}")
# a blank cell is machine 0, which never ran
_OPTIONAL_MACHINE = replace(
    _NONNEG_INT, parse=lambda cell: int(cell.strip() or 0),
    cells=lambda block: np.where((block != 0)[..., None], int_cells(block), 0),
    strip=True)
_COUNT = _int_kind(lambda v: v >= 1, "{name} must be >= 1, got {value}")
_PERCENT = _Kind(np.float64, _percent, lambda v: (v >= 0.0) & (v <= 1.0),
                 "{name} must lie in [0,100] percent, got {text!r}",
                 partial(float_cells, percent=True))
_UNIT_FRACTION = _float_kind(lambda v: (v >= 0.0) & (v <= 1.0),
                             "{name} must lie in [0,1], got {value}")
_NONNEG_FLOAT = _float_kind(lambda v: (v >= 0.0) & (v < np.inf),
                            "{name} must be >= 0, got {value}")
_POSITIVE_FLOAT = _float_kind(lambda v: (v > 0.0) & (v < np.inf),
                              "{name} must be > 0, got {value}")
_TEXT = _Kind(str, str.strip, None, None, None)
_CPU_SET = _Kind(str, _cpu_set, None, None, None)


def _enum_kind(enum_cls) -> _Kind:
    """An enum field: int8 codes into the members of ``enum_cls``."""
    values = [m.value for m in enum_cls]
    lookup = {value.lower(): code for code, value in enumerate(values)}
    names = text_cells(values)
    return _Kind(np.int8, lambda cell: lookup.get(cell.strip().lower(), -1),
                 lambda v: v >= 0, f"unknown {enum_cls.__name__} value {{text!r}}",
                 names.__getitem__)


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

    @cached_property
    def check_order(self) -> list:
        first = [step for step in self.check_first if isinstance(step, str)]
        return list(self.check_first) + [f for f in self.fields if f not in first]

    @cached_property
    def rules(self) -> list[_Rule]:
        return [step for step in self.check_first if isinstance(step, _Rule)]

    @cached_property
    def c_reader(self) -> tuple[np.dtype, dict[int, Callable]]:
        """The structured dtype and converters ``np.loadtxt`` reads a block
        of this file with. Plain int and float fields parse in C; every other
        field by its kind's ``parse``, a text field into an ``object`` field."""
        return (np.dtype([(name, object if kind.dtype is str else kind.dtype)
                          for name, kind in self.fields.items()]),
                {i: kind.parse for i, kind in enumerate(self.fields.values())
                 if kind.parse not in (int, float)})


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
        if not self.columns:
            raise TypeError(f"{self.file_key} table has no columns, so no row count")
        return len(next(iter(self.columns.values())))

    def take(self, rows) -> Table:
        """The rows selected by a boolean mask or index array, in order."""
        return Table(self.file_key,
                     {name: column[rows] for name, column in self.columns.items()})


@dataclass(eq=False)
class TraceBundle:
    """The six parsed files plus the derived machine count and, for a bundle
    ``parse_trace_dir`` read, the rows the row rule read (``python_rows``):
    those of the blocks numpy's C reader did not take.

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
    python_rows: int = 0

    @property
    def nbytes(self) -> int:
        """The bytes of the columns the six tables hold."""
        return sum(column.nbytes for spec in _SPECS.values()
                   for column in getattr(self, spec.attr).columns.values())


# ---------------------------------------------------------------------------
# parsing


def _row(spec: _FileSpec, cells: list[str]) -> tuple[list | None, str | None]:
    """The row rule: (the values of one row's cells in field order, None)
    for a row every check accepts, else (None, the first check it breaks, in
    the spec's check order); a blank row is (None, None), skipped unnamed."""
    if len(cells) != len(spec.fields):
        if not cells or (len(cells) == 1 and not cells[0].strip()):
            return None, None
        return None, f"expected {len(spec.fields)} columns, got {len(cells)}"
    texts = dict(zip(spec.fields, cells))
    values: dict[str, object] = {}
    for step in spec.check_order:
        if isinstance(step, _Rule):
            if step.violated(*(values[name] for name in step.fields)):
                return None, step.message.format(**values)
            continue
        try:
            values[step] = spec.fields[step].check(texts[step], step)
        except ValueError as exc:
            return None, str(exc)
    return [values[name] for name in spec.fields], None


def _split(line: str) -> list[str]:
    """The cells of a plain line, as csv.reader cuts them."""
    return line.rstrip("\n").split(",")


def _accept(file_key: str, values: dict[str, np.ndarray], lines: list[str],
            line_nos, diagnostics: list[RowDiagnostic],
            kept: list[str]) -> dict[str, np.ndarray]:
    """The rows of the ``kept`` fields of the columns ``values`` the C reader
    read from ``lines`` that every mask and rule accepts, as columns; every
    field's mask applies, kept or not. Each rejected row goes to
    ``diagnostics``, with the reason the row rule finds in its cells."""
    spec = _SPECS[file_key]
    ok = np.ones(len(lines), dtype=bool)
    for name, kind in spec.fields.items():
        if kind.valid is not None:
            ok &= kind.valid(values[name])
    for rule in spec.rules:
        ok &= ~rule.violated(*(values[name] for name in rule.fields))
    for i in np.flatnonzero(~ok).tolist():
        cells = _split(lines[i])
        row, reason = _row(spec, cells)
        if row is not None:
            raise RuntimeError(f"row {cells} was rejected but passes every check")
        diagnostics.append(RowDiagnostic(file_key, line_nos[i], reason))
    # a text column is rebuilt as str, as wide as the accepted rows
    return {name: (np.array(column[ok].tolist(), dtype=str)
                   if column.dtype == object else column[ok])
            for name, column in values.items() if name in kept}


def _read_rows(file_key: str, rows: Iterable[list[str]], line_nos,
               diagnostics: list[RowDiagnostic],
               kept: list[str]) -> dict[str, np.ndarray]:
    """The rows of a block that the row rule accepts, as columns of the
    ``kept`` fields; each row it rejects goes to ``diagnostics``."""
    spec = _SPECS[file_key]
    accepted = []
    for line_no, cells in zip(line_nos, rows):
        row, reason = _row(spec, cells)
        if row is not None:
            accepted.append(row)
        elif reason is not None:
            diagnostics.append(RowDiagnostic(file_key, line_no, reason))
    columns = zip(*accepted) if accepted else repeat(())
    return {name: np.array(column, dtype=kind.dtype)
            for (name, kind), column in zip(spec.fields.items(), columns)
            if name in kept}


# What only csv.reader reads right: a quote, a CR line end and NUL
_CSV_ONLY = '"\r\0'
# ASCII information separators: numpy's C reader strips them as space around
# a number, where int() and float() refuse the cell
_NUMPY_SPACE = "\x1c\x1d\x1e\x1f"


def _c_read(spec: _FileSpec, lines: list[str]) -> dict[str, np.ndarray] | None:
    """The columns of a block of plain lines as numpy's C reader parses them,
    a text field as an ``object`` column, or None where they could differ
    from the row rule's values: a block with a character outside ASCII (the
    reader takes some letters for digits) or a ``_NUMPY_SPACE``, a cell it
    refuses or warns about, a blank line it skips. Every cell it does read,
    ``int()``, ``float()`` or the kind's ``parse`` reads to the same value."""
    text = "".join(lines)
    if not text.isascii() or any(map(text.__contains__, _NUMPY_SPACE)):
        return None
    dtype, converters = spec.c_reader
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # encoding=None hands the converters str; numpy 1.x's default,
            # "bytes", would hand them bytes
            table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=1,
                               dtype=dtype, converters=converters, encoding=None)
    except (ValueError, OverflowError, Warning):
        return None
    if len(table) != len(lines):
        return None
    return {name: table[name] for name in spec.fields}


def _record_blocks(fh: TextIO) -> Iterator[tuple[list, bool]]:
    """The records of the trace file open as ``fh``, ``BLOCK_ROWS`` at a time:
    (lines, True) for plain lines, one record each, that ``str.split`` cuts
    as csv.reader does; (csv rows, False) from the first block with a
    ``_CSV_ONLY`` character or a line over the csv field limit on, so
    csv.reader reads or refuses those as it does."""
    limit = csv.field_size_limit()
    while lines := list(islice(fh, BLOCK_ROWS)):
        text = "".join(lines)
        if any(map(text.__contains__, _CSV_ONLY)) or max(map(len, lines)) > limit:
            fh = chain(lines, fh)
            break
        yield lines, True
    reader = csv.reader(fh)
    while rows := list(islice(reader, BLOCK_ROWS)):
        yield rows, False


def parse_trace_file(path: str, file_key: str, keep: tuple[str, ...] | None = None,
                     ) -> tuple[Table, list[RowDiagnostic], int]:
    """Parse one trace CSV, its columns in field order: all of them, or
    those named in ``keep``. Returns (table, diagnostics, rows the row rule
    read).

    Malformed rows are skipped and reported in line order; nothing is raised
    here so callers decide what rejection rate is tolerable. A block of plain
    ASCII lines is read by numpy's C reader, every other block a row at a
    time by the row rule (see the module docstring); both give the same
    columns and diagnostics, and the third value counts the rows of the
    blocks the C reader did not take. Every cell is checked, whichever
    columns are kept, so ``keep`` changes neither the rows accepted nor the
    diagnostics; a ``keep`` that names no column of the file keeps its
    first, so ``len(table)`` still counts its rows.
    """
    spec = _SPECS[file_key]
    kept = [name for name in spec.fields if keep is None or _column_name(name) in keep]
    kept = kept or list(spec.fields)[:1]
    blocks: list[dict[str, np.ndarray]] = []
    diagnostics: list[RowDiagnostic] = []
    python_rows = 0
    with open(path, newline="", encoding="utf-8") as fh:
        first_line = 1
        for block, plain in _record_blocks(fh):
            line_nos = range(first_line, first_line + len(block))
            first_line += len(block)
            columns = _c_read(spec, block) if plain else None
            if columns is not None:
                blocks.append(_accept(file_key, columns, block, line_nos,
                                      diagnostics, kept))
                continue
            python_rows += len(block)
            blocks.append(_read_rows(file_key, map(_split, block) if plain else block,
                                     line_nos, diagnostics, kept))
    table = Table(file_key, {
        _column_name(name): (np.concatenate([b.pop(name) for b in blocks]) if blocks
                             else np.array([], dtype=spec.fields[name].dtype))
        for name in kept})
    return table, diagnostics, python_rows


def parse_trace_dir(path: str, *, max_skip_ratio: float = 0.01,
                    diagnostics: list | None = None,
                    keep: dict[str, tuple[str, ...]] | None = None) -> TraceBundle:
    """Parse the six trace files under ``path`` into a TraceBundle, each
    table with every column, or with the columns ``keep`` names for its file
    key (``PREPROCESS_COLUMNS``; see ``parse_trace_file``). The machine
    count reads every kept ``machine`` column.

    Raises TraceParseError when a file is missing, cannot be read as UTF-8
    CSV text (a cell longer than the csv module's field limit included), or
    has a rejected row fraction above ``max_skip_ratio``. Row-level
    diagnostics are logged and, when a ``diagnostics`` list is supplied,
    appended to it.
    """
    tables: dict[str, Table] = {}
    python_rows = 0
    for key, spec in _SPECS.items():
        file_path = os.path.join(path, TRACE_FILENAMES[key])
        if not os.path.exists(file_path):
            raise TraceParseError(f"missing trace file: {file_path}")
        try:
            table, diags, file_python_rows = parse_trace_file(
                file_path, key, None if keep is None else keep[key])
        except (OSError, UnicodeDecodeError, csv.Error) as e:
            raise TraceParseError(f"cannot read trace file {file_path}: {e}") from e
        if diags and diagnostics is not None:
            diagnostics.extend(diags)
        name, total = TRACE_FILENAMES[key], len(table) + len(diags)
        if diags:
            log.warning("%s: skipped %d of %d rows (first: line %d, %s)",
                        name, len(diags), total, diags[0].line, diags[0].reason)
        if total and len(diags) / total > max_skip_ratio:
            raise TraceParseError(f"{name}: rejected {len(diags)}/{total} rows, "
                                  f"above the {max_skip_ratio:.2%} limit")
        tables[spec.attr] = table
        python_rows += file_python_rows
    machine_count = max((int(t.machine.max()) for t in tables.values()
                         if "machine" in t.columns and len(t)), default=0)
    return TraceBundle(**tables, machine_count=machine_count, python_rows=python_rows)


# ---------------------------------------------------------------------------
# parsed columns on disk

# The first record of a ``save_columns`` file; a new layout of its records
# takes a new name, so a file saved in an older one is refused.
COLUMNS_LAYOUT = "grid, analyze columns, skipped counts, dense cpu/mem/disk"

# The columns analyze reads, in field order per file key: the only ones
# ``save_columns`` keeps. Machine and container counts, core counts, usage
# and soft errors come from them; server usage reaches analyze as the dense
# values, and batch tasks not at all.
SAVED_COLUMNS = {
    "server_event": ("timestamp", "machine", "event_type", "cpu_count"),
    "server_usage": (),
    "container_event": ("timestamp", "instance", "machine", "cpu_req", "mem_req"),
    "container_usage": ("timestamp", "instance", "cpu_of_req", "mem_of_req"),
    "batch_task": (),
    "batch_instance": ("start", "end", "machine", "avg_cpu", "avg_mem"),
}

# The columns ``pipeline.run_preprocess`` has the parse keep: the saved ones
# plus every server-usage column, as the repair reads all six metrics, the
# timestamp and the machine. Every file with a ``machine`` column keeps it,
# so the machine count is that of the full parse.
PREPROCESS_COLUMNS = {**SAVED_COLUMNS, "server_usage": tuple(
    _column_name(name) for name in _SPECS["server_usage"].fields)}


def save_columns(bundle: TraceBundle, skipped: dict[str, int],
                 dense: np.ndarray, grid: IntervalGrid, path: str) -> None:
    """Write the ``SAVED_COLUMNS`` of ``bundle``, the rows its parse skipped
    per file key, and the cpu, mem and disk planes (the first three of the
    last axis, the only metrics analyze reads) of the dense usage repaired
    on ``grid`` to ``path``, for ``load_columns``; the file records its grid.

    The file is consecutive ``np.save`` records (no pickles, no zip
    timestamps, so the bytes are deterministic): ``COLUMNS_LAYOUT``, the
    grid's start, end and step, the machine count, then per file in
    ``_SPECS`` order its saved columns and its skipped-row count, then the
    dense planes.
    """
    with open(path, "wb") as fh:
        save = partial(np.save, fh, allow_pickle=False)
        save(np.array([COLUMNS_LAYOUT]))
        save(np.array([grid.start, grid.end, grid.step], dtype=np.int64))
        save(np.array([bundle.machine_count], dtype=np.int64))
        for key, spec in _SPECS.items():
            columns = getattr(bundle, spec.attr).columns
            for name in SAVED_COLUMNS[key]:
                save(columns[name])
            save(np.array([skipped.get(key, 0)], dtype=np.int64))
        save(dense[..., :3])


def load_columns(path: str) -> tuple[TraceBundle, dict[str, int], np.ndarray,
                                      IntervalGrid]:
    """The bundle, rows skipped per file key, dense cpu, mem and disk values
    and grid that ``save_columns`` wrote to ``path``, with the dtypes they
    were saved with. Each table holds its ``SAVED_COLUMNS`` alone, so
    reading another column raises the table's AttributeError, and a table
    with none has no length. Raises ValueError for a file in another
    layout."""
    tables: dict[str, Table] = {}
    skipped: dict[str, int] = {}
    with open(path, "rb") as fh:
        load = partial(np.load, fh, allow_pickle=False)
        if load().tolist() != [COLUMNS_LAYOUT]:
            raise ValueError("not in the layout save_columns writes")
        grid = IntervalGrid(*load().tolist())
        machine_count = int(load()[0])
        for key, spec in _SPECS.items():
            tables[spec.attr] = Table(key, {name: load() for name in SAVED_COLUMNS[key]})
            skipped[key] = int(load()[0])
        dense = load()
    return TraceBundle(**tables, machine_count=machine_count), skipped, dense, grid


# ---------------------------------------------------------------------------
# serialization (inverse of parsing)


def write_trace_dir(bundle: TraceBundle, path: str) -> None:
    """Write the bundle back to six CSV files (byte-deterministic), a block
    of ``BLOCK_ROWS`` rows at a time: the block columns of one kind make one
    grid of cells by the kind's ``cells``, and ``csv_lines`` joins the
    grids. Only a file with a text field (``event_detail``, ``cpu_set``)
    goes through ``csv.writer``, because only a text cell can need
    quoting."""
    os.makedirs(path, exist_ok=True)
    for key, spec in _SPECS.items():
        table = getattr(bundle, spec.attr)
        kinds = list(spec.fields.values())
        columns = [table.columns[_column_name(name)] for name in spec.fields]
        # the fields of each cells function: one grid each in a block
        groups: dict[Callable, list[int]] = {}
        for i, kind in enumerate(kinds):
            if kind.cells is not None:
                groups.setdefault(kind.cells, []).append(i)
        quoting = any(kind.cells is None for kind in kinds)
        with open(os.path.join(path, TRACE_FILENAMES[key]), "w", newline="",
                  encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            for lo in range(0, len(table), BLOCK_ROWS):
                cells = [column[lo:lo + BLOCK_ROWS] for column in columns]
                for make, fields in groups.items():
                    grid = make(np.stack([cells[i] for i in fields], axis=1))
                    for j, i in enumerate(fields):
                        cells[i] = grid[:, j]
                if quoting:
                    writer.writerows(zip(*(
                        block.tolist() if kind.cells is None
                        else csv_lines(block).decode().splitlines()
                        for kind, block in zip(kinds, cells))))
                else:
                    fh.write(csv_lines(*cells).decode())


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
