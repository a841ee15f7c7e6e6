import json
import os
import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from trace_insight import trace_model
from trace_insight.cells import fraction_to_percent_text
from trace_insight.pipeline import run_preprocess
from trace_insight.synth import SynthConfig, generate_trace
from trace_insight.trace_model import (
    FILE_KEYS,
    PREPROCESS_COLUMNS,
    ContainerEventType,
    InstanceStatus,
    IntervalGrid,
    MachineEventType,
    SAVED_COLUMNS,
    Table,
    TaskStatus,
    TraceBundle,
    TraceParseError,
    append_dense,
    load_columns,
    parse_trace_dir,
    parse_trace_file,
    percent_text_to_fraction,
    save_columns,
    write_trace_dir,
)

BUNDLE_ATTRS = ("events", "server_usage", "container_events", "container_usage",
                "batch_tasks", "batch_instances")


def small_bundle() -> TraceBundle:
    return oracles.bundle_from_rows(
        events=[
            (0, 1, MachineEventType.ADD, "", 64, 1.0, 1.0),
            (0, 2, MachineEventType.ADD, "", 64, 1.0, 1.0),
            (40000, 2, MachineEventType.SOFT_ERROR, "disk full", 0, 0.0, 0.0),
        ],
        server_usage=[
            (39600, 1, 0.25, 0.55, 0.5, 1.2, 1.1, 1.0),
            (39900, 1, 0.26, 0.54, 0.5, 1.2, 1.1, 1.0),
        ],
        container_events=[
            (0, ContainerEventType.CREATE, 7, 1, 8.0, 0.0424093, 0.01, "1|2|3"),
        ],
        container_usage=[
            (39600, 7, 0.3, 0.6, 0.1, 0.5, 0.0, 0.0, 0.0, 1.5, 1.2, 2.0, 1.8),
        ],
        batch_tasks=[
            (39601, 39700, 11, 1, 2, TaskStatus.TERMINATED, 1.0, 0.01),
        ],
        batch_instances=[
            (39601, 39650, 11, 1, 1, InstanceStatus.TERMINATED, 1, 2,
             0.9, 0.7, 0.012, 0.011),
            (39651, 39700, 11, 1, 0, InstanceStatus.TERMINATED, 2, 2,
             0.8, 0.6, 0.012, 0.011),
        ],
        machine_count=2,
    )


def assert_same_columns(got, want):
    """Every column of two tables has the same dtype and the same bytes."""
    assert list(got.columns) == list(want.columns)
    for name, column in want.columns.items():
        assert got.columns[name].dtype == column.dtype, name
        assert got.columns[name].tobytes() == column.tobytes(), name


def assert_saved_columns(back, bundle):
    """``back`` holds the ``SAVED_COLUMNS`` of every table of ``bundle``,
    each with its dtype and bytes, and no other column."""
    for attr, key in oracles.BUNDLE_FILES.items():
        table = getattr(bundle, attr)
        assert_same_columns(getattr(back, attr), Table(key, {
            name: table.columns[name] for name in SAVED_COLUMNS[key]}))


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
    with pytest.raises(ValueError, match="bad percent value"):
        percent_text_to_fraction("1e999999999")   # past Decimal's exponent range


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_percent_round_trip_is_bit_exact(value):
    text = fraction_to_percent_text(value)
    assert percent_text_to_fraction(text) == value


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


# ---------------------------------------------------------------------------
# round trip through the saved columns


@pytest.mark.parametrize("bundle", [small_bundle(), oracles.bundle_from_rows()],
                         ids=["small", "empty"])
def test_saved_columns_load_back_with_their_dtypes(tmp_path, bundle):
    skipped = {"server_usage": 2, "batch_task": 1}
    # repaired values with long reprs, and negative zeros, keep every bit
    dense = np.random.default_rng(7).random((bundle.machine_count, 4, 6)) / 3
    dense[:, 0, 0] = dense[:, 1, 2] = -0.0
    path = str(tmp_path / "columns")
    grid = IntervalGrid(39600, 39600 + 3 * 300, 300)
    save_columns(bundle, skipped, grid, path)
    append_dense(dense, path)
    back, back_skipped, back_dense, back_grid = load_columns(path)
    assert back_grid == grid
    assert_saved_columns(back, bundle)
    assert back.machine_count == bundle.machine_count
    assert back_skipped == {"server_event": 0, "server_usage": 2,
                            "container_event": 0, "container_usage": 0,
                            "batch_task": 1, "batch_instance": 0}
    # the cpu, mem and disk planes, and nothing of the loads
    assert (back_dense.dtype, back_dense.shape) == \
        (dense.dtype, (bundle.machine_count, 4, 3))
    assert back_dense.tobytes() == dense[..., :3].tobytes()
    # int8 enum codes keep their dtype
    assert back.events.event_type.dtype == np.int8
    # a column not saved stays absent
    with pytest.raises(AttributeError, match="server_event table has no column "
                                             "'event_detail'"):
        back.events.event_detail
    # no timestamps or archive metadata: saving again gives the same bytes
    first = (tmp_path / "columns").read_bytes()
    save_columns(bundle, skipped, grid, path)
    append_dense(dense, path)
    assert (tmp_path / "columns").read_bytes() == first


def test_a_table_without_columns_has_no_length():
    with pytest.raises(TypeError, match="^server_usage table has no columns, "
                                        "so no row count$"):
        len(Table("server_usage", {}))
    assert len(Table("server_usage", {"machine": np.array([], np.int64)})) == 0


def test_loaded_columns_meet_the_skip_limit_as_parsing_does(tmp_path, caplog,
                                                            monkeypatch):
    write_trace_dir(small_bundle(), str(tmp_path))
    with open(tmp_path / "container_usage.csv", "a", encoding="utf-8") as fh:
        fh.write("broken row\n")
    # the limit is met once, by the parse: over it there is nothing to save
    with pytest.raises(TraceParseError, match="rejected 1/2 rows"):
        parse_trace_dir(str(tmp_path))
    diagnostics = []
    with monkeypatch.context() as permissive:
        permissive.setattr(trace_model, "MAX_SKIP_RATIO", 0.9)
        bundle = parse_trace_dir(str(tmp_path), diagnostics=diagnostics)
    skipped = {diag.file: 1 for diag in diagnostics}
    path = str(tmp_path / "columns")
    save_columns(bundle, skipped, IntervalGrid(0, 300, 300), path)
    append_dense(np.zeros((bundle.machine_count, 0, 0)), path)
    caplog.clear()
    back, back_skipped, _, _ = load_columns(path)
    # loading keeps the rows and the skip count the parse let through, and
    # neither logs the skips again nor applies a limit of its own
    assert_saved_columns(back, bundle)
    assert len(back.container_usage) == 1
    assert back_skipped["container_usage"] == 1
    assert sum(back_skipped.values()) == 1
    assert caplog.messages == []


# ---------------------------------------------------------------------------
# round trip through the six-file layout


def test_write_then_parse_round_trips(tmp_path):
    bundle = small_bundle()
    write_trace_dir(bundle, str(tmp_path))
    back = parse_trace_dir(str(tmp_path))
    for attr in BUNDLE_ATTRS:
        assert_same_columns(getattr(back, attr), getattr(bundle, attr))
    assert back.machine_count == bundle.machine_count


def test_write_is_byte_deterministic(tmp_path):
    bundle = small_bundle()
    write_trace_dir(bundle, str(tmp_path / "a"))
    write_trace_dir(bundle, str(tmp_path / "b"))
    for name in sorted(os.listdir(tmp_path / "a")):
        first = (tmp_path / "a" / name).read_bytes()
        second = (tmp_path / "b" / name).read_bytes()
        assert first == second, name


def quoting_bundle() -> TraceBundle:
    """A bundle whose free text needs quoting and whose percent cells take
    the definition's path: 1e-05, 0.0 and 1.0."""
    return oracles.bundle_from_rows(
        events=[
            (0, 1, MachineEventType.ADD, "", 64, 1.0, 1.0),
            (5, 1, MachineEventType.SOFT_ERROR, 'disk "sdb", then\nfan', 0, 0.0, 0.0),
            (9, 1, MachineEventType.HARD_ERROR, "a,b", 0, 0.0, 0.0),
        ],
        server_usage=[(39600, 1, 1e-05, 0.0, 1.0, 0.0, 1e-05, 2.5),
                      (39900, 1, 0.0312, 0.00012, 0.05, 1.0, 0.0, 0.0)],
        container_events=[(0, ContainerEventType.CREATE, 7, 1, 8.0, 0.5, 0.0, "1|2")],
        container_usage=[(39600, 7, 1e-05, 0.0, 1.0, 0.123456789,
                          0.0, 0.0, 0.0, 1.5, 1.2, 2.0, 1.8)],
        machine_count=1,
    )


@pytest.mark.parametrize("bundle", [small_bundle(), quoting_bundle(),
                                    oracles.bundle_from_rows()],
                         ids=["small", "quoting", "empty"])
def test_write_matches_the_cell_by_cell_reference(tmp_path, bundle):
    write_trace_dir(bundle, str(tmp_path / "fast"))
    oracles.write_trace_reference(bundle, str(tmp_path / "reference"))
    for name in trace_model.TRACE_FILENAMES.values():
        assert (tmp_path / "fast" / name).read_bytes() == \
            (tmp_path / "reference" / name).read_bytes(), name
    back = parse_trace_dir(str(tmp_path / "fast"))
    for attr in BUNDLE_ATTRS:
        assert_same_columns(getattr(back, attr), getattr(bundle, attr))


def test_integer_columns_of_float_fields_write_as_floats(tmp_path):
    bundle = oracles.bundle_from_rows(
        server_usage=[(39600, 1, 0.0, 1.0, 0.0, 2.0, 0.0, 1.0)], machine_count=1)
    columns = bundle.server_usage.columns
    for name in ("cpu", "mem", "disk", "load1", "load5", "load15"):
        columns[name] = columns[name].astype(np.int64)
    write_trace_dir(bundle, str(tmp_path))
    assert (tmp_path / "server_usage.csv").read_text() == "39600,1,0,100,0,2.0,0.0,1.0\n"


def test_blank_machine_cell_round_trips_as_unplaced(tmp_path):
    bundle = small_bundle()
    write_trace_dir(bundle, str(tmp_path))
    rows = (tmp_path / "batch_instance.csv").read_text().splitlines()
    # second instance has no machine assignment
    assert rows[1].split(",")[4] == ""
    back = parse_trace_dir(str(tmp_path))
    assert back.batch_instances.machine.tolist() == [1, 0]


def test_parse_skips_malformed_rows_with_diagnostics(tmp_path):
    path = tmp_path / "server_usage.csv"
    path.write_text(
        "39600,1,25,55,50,1.0,1.0,1.0\n"
        "oops\n"
        "39900,1,not_a_number,55,50,1.0,1.0,1.0\n"
    )
    table, diags, _ = parse_trace_file(str(path), "server_usage")
    assert len(table) == 1
    assert len(diags) == 2
    assert diags[0].line == 2


def test_parse_dir_rejects_high_skip_ratio(tmp_path, caplog, monkeypatch):
    write_trace_dir(small_bundle(), str(tmp_path))
    (tmp_path / "server_usage.csv").write_text(
        "39600,1,25,55,50,1.0,1.0,1.0\n"
        "broken row\n"
    )
    with pytest.raises(TraceParseError, match=r"^server_usage.csv: rejected "
                                              r"1/2 rows, above the 1.00% limit$"):
        parse_trace_dir(str(tmp_path))
    # the file's skipped rows are logged, naming the first
    assert caplog.messages == ["server_usage.csv: skipped 1 of 2 rows "
                               "(first: line 2, expected 8 columns, got 1)"]
    # a permissive ratio lets the same directory through
    monkeypatch.setattr(trace_model, "MAX_SKIP_RATIO", 0.9)
    bundle = parse_trace_dir(str(tmp_path))
    assert len(bundle.server_usage) == 1


def test_parse_dir_missing_file_raises(tmp_path):
    write_trace_dir(small_bundle(), str(tmp_path))
    os.remove(tmp_path / "batch_task.csv")
    with pytest.raises(TraceParseError, match="missing trace file"):
        parse_trace_dir(str(tmp_path))


def test_parse_dir_names_a_file_it_cannot_read(tmp_path):
    write_trace_dir(small_bundle(), str(tmp_path))
    with open(tmp_path / "server_event.csv", "ab") as fh:
        fh.write(b"0,1,softerror,caf\xe9 down,0,0,0\n")
    with pytest.raises(TraceParseError, match=r"cannot read trace file "
                                              r".*server_event\.csv: 'utf-8'"):
        parse_trace_dir(str(tmp_path))
    write_trace_dir(small_bundle(), str(tmp_path))
    os.remove(tmp_path / "batch_task.csv")
    os.mkdir(tmp_path / "batch_task.csv")
    with pytest.raises(TraceParseError, match=r"cannot read trace file "
                                              r".*batch_task\.csv: .*directory"):
        parse_trace_dir(str(tmp_path))
    # a cell longer than the csv module's field limit, in a file with a text
    # field and in one numpy's C reader would otherwise read
    for name, row in [("server_event", "0,1,softerror," + "x" * 140_000 + ",0,0,0"),
                      ("server_usage", "39600,1,5,5,5," + "0" * 140_000 + ",0,0")]:
        write_trace_dir(small_bundle(), str(tmp_path / name))
        with open(tmp_path / name / f"{name}.csv", "a", encoding="utf-8") as fh:
            fh.write(row + "\n")
        with pytest.raises(TraceParseError, match=rf"cannot read trace file "
                                                  rf".*{name}\.csv: field "
                                                  r"larger than field limit"):
            parse_trace_dir(str(tmp_path / name))


def test_a_header_row_is_a_rejected_row_on_line_1(tmp_path, monkeypatch):
    # the trace has no header rows: a file that starts with one has that
    # line refused and reported like any other malformed row
    write_trace_dir(small_bundle(), str(tmp_path))
    for key, name in trace_model.TRACE_FILENAMES.items():
        columns = [field for field, _ in oracles.PARSE_FIELDS[key]]
        body = (tmp_path / name).read_text()
        (tmp_path / name).write_text(",".join(columns) + "\n" + body)
    diagnostics = []
    monkeypatch.setattr(trace_model, "MAX_SKIP_RATIO", 1.0)
    bundle = parse_trace_dir(str(tmp_path), diagnostics=diagnostics)
    assert [(d.file, d.line) for d in diagnostics] == \
        [(key, 1) for key in trace_model.FILE_KEYS]
    assert len(bundle.server_usage) == 2


# ---------------------------------------------------------------------------
# block parser against the row-at-a-time oracle

# Past 28 digits Decimal rounds before float() does; these texts sit close
# enough to a halfway point between two floats for that to show.
LONG_PERCENTS = ["54.4229225295951912766412306154961697757",
                 "62.5720304108054070635347443385398946702",
                 "6.55288592398131156113727513456979067996"]
# Percent cells the C reader casts as bytes or hands to the row rule: 28
# characters (the longest it casts), 29 (the width of its bytes field, so
# the block goes to the row rule) and 33, and the forms float() and
# Decimal both read: underscores, leading space or tab, a sign, a bare
# point either side, an exponent.
EDGE_PERCENTS = ["54.4229225295951912766412306", "54.42292252959519127664123061",
                 "54.422922529595191276641230615496", "1_0", " 5", "\t5", "+5",
                 ".5", "5.", "5e1", "0.5E+1"]

# Valid cells are drawn more often than odd ones, so that rows often fail
# one or two checks and the first failure decides the reason. The odd ones
# include cells numpy's C reader refuses, some of which int() or float()
# read (``3.0`` as an int, underscores, digits outside ASCII, a comment
# sign), cells it would misread (a letter outside ASCII as a digit, an
# ASCII information separator at the edge as space, which int() and
# float() refuse but str.strip removes) and a quoted number.
INT_CELLS = st.one_of(st.integers(0, 60).map(str), st.integers(0, 60).map(str),
                      st.sampled_from(["", "x", " 7 ", "+3", "1_0", "2.5", "-0", "-2",
                                       "3.0", "\u0663", " 7", '"5"', "\u01fe5",
                                       "5\x1f", "\x1c7"]))
FLOAT_CELLS = st.one_of(
    st.floats(0.0, 20.0).map(repr), st.floats(-2.0, 20.0).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-0.0", " 0.5 ", "", "x",
                     "1.0000000001", "1e-1", "0", "1_0.5", "\u0663.5", "#1", '"5"',
                     "0.5\x1f"]))
PERCENT_CELLS = st.one_of(
    st.floats(0.0, 100.0).map(repr),
    st.from_regex(r"\A[+-]?[0-9]{1,3}(\.[0-9]{0,40})?\Z"),
    st.from_regex(r"\A[0-9]{1,2}(\.[0-9]{1,3})?[eE][+-]?[0-9]\Z"),
    st.sampled_from(["", " 25 ", "+5", "-0", "-0.0", "nan", "NaN", "inf",
                     "-inf", "Infinity", "100.0000001", "-0.0000001", "100",
                     "1e3", "abc", " 4.5e1 ", "00.5", "1_0", "1e999999999",
                     "1.1e0", "77.442e0", "61.248e-2", *LONG_PERCENTS,
                     *EDGE_PERCENTS]))
CELLS = {
    "nonneg_int": INT_CELLS, "int": INT_CELLS, "machine": INT_CELLS,
    "optional_machine": st.one_of(INT_CELLS,
                                  st.sampled_from(["", "  ", "\t", " 7", "5 "])),
    "float": FLOAT_CELLS, "nonneg_float": FLOAT_CELLS, "unit": FLOAT_CELLS,
    "percent": PERCENT_CELLS,
    "text": st.sampled_from(["", "disk full", " padded ", "agent check failed",
                             "caf\u00e9", "a\x1fb"]),
    "cpu_set": st.sampled_from(["", "1|2|3", "4 5", "1||2", "x|1", " 7 ", "+3",
                                "1|2\x1c"]),
}
# Cells each kind accepts, for rows that all pass, so that most blocks reach
# numpy's C reader. An optional machine with an information separator at its
# edge, one of 29 characters or more (it fills the C reader's bytes field),
# a text cell outside ASCII or holding one, and a cpu set holding one send
# their block to the row rule.
VALID_CELLS = {
    "nonneg_int": st.integers(0, 60).map(str), "int": st.integers(1, 60).map(str),
    "machine": st.integers(1, 60).map(str),
    "optional_machine": st.one_of(st.integers(0, 60).map(str), st.sampled_from(
        ["", "  ", "\t", " 5 ", "5\x1f", "0" * 29 + "5"])),
    "float": st.floats(0.5, 20.0).map(repr), "nonneg_float": st.floats(0.0, 20.0).map(repr),
    "unit": st.floats(0.0, 1.0).map(repr),
    "percent": st.one_of(st.floats(0.0, 100.0).map(repr),
                         st.from_regex(r"\A[0-9]{1,2}(\.[0-9]{0,40})?\Z"),
                         st.sampled_from(LONG_PERCENTS + EDGE_PERCENTS)),
    "text": CELLS["text"], "cpu_set": st.sampled_from(["", "1|2|3", "4 5", "1|2\x1c"]),
}
# The batch instance spans and cpu pair, by field name, drawn so that their
# rules hold too.
VALID_RULE_CELLS = {
    "start": st.integers(1, 30).map(str), "end": st.integers(30, 60).map(str),
    "max_cpu": st.floats(10.0, 20.0).map(repr), "avg_cpu": st.floats(0.0, 10.0).map(repr),
}


def enum_cells(file_key, valid=False):
    """The file's enum values in mixed case and with space around them, one
    of those past the C reader's 29-byte field; unless ``valid``, also words
    it does not know, one whose first 29 bytes are a member's value
    followed by spaces."""
    values = st.sampled_from(oracles.PARSE_ENUMS[file_key][1])
    known = st.one_of(values, values.map(lambda v: f" {v.upper()} "),
                      values.map(str.swapcase),
                      values.map(lambda v: f"\t{v}{' ' * 30}"))
    if valid:
        return known
    return st.one_of(known, values.map(lambda v: f"{v}{' ' * 30}x"),
                     st.sampled_from(["bogus", "", "Create", "add"]))


@st.composite
def trace_files(draw):
    """(file key, CSV text) with rows of drawn cells in field order, some of
    them blank or of the wrong width, often after a header line of the field
    names, which is one more row to refuse; or, in the valid mode (one file
    in four), rows of valid cells alone. Lines end in LF or, in a CRLF
    variant (one file in four), in CR LF. The mixed files with LF line ends,
    where C-reader blocks and row-rule blocks meet, stay the majority."""
    file_key = draw(st.sampled_from(sorted(oracles.PARSE_FIELDS)))
    fields = oracles.PARSE_FIELDS[file_key]
    columns = [name for name, _ in fields]
    kinds = dict(fields)
    valid = draw(st.integers(0, 3)) == 0
    shapes = ["row"] if valid else ["row"] * 6 + ["blank", "short", "long"]
    lines = []
    if not valid and draw(st.booleans()):
        lines.append(",".join(columns))
    for _ in range(draw(st.integers(0, 14))):
        shape = draw(st.sampled_from(shapes))
        if shape == "blank":
            lines.append(draw(st.sampled_from(["", "  "])))
            continue
        if valid:
            cells = [draw(enum_cells(file_key, valid=True) if kinds[name] == "enum"
                          else VALID_RULE_CELLS.get(name, VALID_CELLS[kinds[name]]))
                     for name in columns]
        else:
            cells = [draw(enum_cells(file_key) if kinds[name] == "enum"
                          else CELLS[kinds[name]]) for name in columns]
        if shape == "short":
            cells = cells[:draw(st.integers(1, len(cells) - 1))]
        elif shape == "long":
            cells.append("9")
        lines.append(",".join(cells))
    end = draw(st.sampled_from(["\n", "\n", "\n", "\r\n"]))
    return file_key, end.join(lines) + end


@settings(max_examples=540)
@given(trace_files(), st.integers(1, 4))
def test_block_parser_matches_the_row_oracle(drawn, block_rows):
    file_key, text = drawn
    saved = trace_model.BLOCK_ROWS
    trace_model.BLOCK_ROWS = block_rows   # several blocks, the last partial
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.csv")
            with open(path, "w", newline="", encoding="utf-8") as fh:
                fh.write(text)
            table, diags, _ = parse_trace_file(path, file_key)
            rows, want_diags = oracles.parse_rows(path, file_key)
    finally:
        trace_model.BLOCK_ROWS = saved
    assert [(d.line, d.reason) for d in diags] == want_diags
    assert len(table) == len(rows)
    fields = [name for name, _ in oracles.PARSE_FIELDS[file_key]]
    assert len(table.columns) == len(fields)
    for (name, column), values in zip(table.columns.items(),
                                      zip(*rows) if rows else [()] * len(fields)):
        # text columns are as wide as their longest accepted cell
        want = np.array(values, dtype=str if column.dtype.kind == "U" else column.dtype)
        assert (column.dtype, column.tobytes()) == (want.dtype, want.tobytes()), name


def test_columns_sized_short_at_the_first_block_grow_to_every_row(tmp_path,
                                                                  monkeypatch):
    # the first block's lines are three times as long as the rest, so the
    # columns sized from it hold 19 of the file's 40 rows and double twice;
    # every row still lands where the row oracle puts it
    monkeypatch.setattr(trace_model, "BLOCK_ROWS", 4)
    lines = [f"{39600 + i},{i + 1},12.345678,23.456789,34.567891,"
             f"0.123456789,0.23456789,0.3456789" for i in range(4)]
    lines += [f"{39600 + i},1,1,2,3,0.5,0.5,0.5" for i in range(4, 40)]
    path = tmp_path / "server_usage.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    table, diags, _ = parse_trace_file(str(path), "server_usage")
    rows, want_diags = oracles.parse_rows(str(path), "server_usage")
    assert diags == want_diags == [] and len(table) == len(rows) == 40
    for column, values in zip(table.columns.values(), zip(*rows)):
        want = np.array(values, dtype=column.dtype)
        assert column.tobytes() == want.tobytes()


@given(st.lists(st.one_of(
    st.from_regex(r"\A[0-9]{1,2}(\.[0-9]{1,3})?[eE][+-]?[0-2]\Z"),
    st.floats(0.0, 100.0).map(repr), st.sampled_from(LONG_PERCENTS + EDGE_PERCENTS)),
    min_size=1, max_size=30))
def test_percent_columns_equal_the_decimal_conversion(texts):
    texts = [t for t in texts if percent_text_to_fraction(t) <= 1.0]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "server_usage.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"39600,1,{t},{t},{t},0,0,0\n" for t in texts)
        table, diags, _ = parse_trace_file(path, "server_usage")
    assert diags == []
    want = np.array([percent_text_to_fraction(t) for t in texts], dtype=np.float64)
    for column in (table.cpu, table.mem, table.disk):
        assert column.tobytes() == want.tobytes()


# Cells the C reader's cast gets, each with "e-2" appended: the edge cells
# up to 28 characters, a negative zero, a 27-digit mantissa, and cells both
# float() and the cast refuse.
CAST_CELLS = [cell for cell in EDGE_PERCENTS if len(cell) <= 28] + [
    "-0", "0" * 27 + "1", "99.9999999999999999999999999", "5 ", "nan", "inf",
    "1__0", "0x10", "", "1e400", "\x0b5", "5\x0c"]


@pytest.mark.parametrize("text", CAST_CELLS)
def test_numpys_bytes_cast_reads_a_percent_cell_as_float_does(text):
    cells = np.strings.add(np.array([text.encode()], trace_model._CELL_BYTES), b"e-2")
    try:
        want = float(text + "e-2")
    except ValueError:
        with pytest.raises(ValueError):
            cells.astype(np.float64)
    else:
        assert cells.astype(np.float64).tobytes() == np.float64(want).tobytes()


def test_only_text_fields_reach_the_c_reader_through_a_converter():
    # percent, enum and blank-machine cells are read as bytes and converted
    # a column at a time, with no Python call per cell
    for key, spec in trace_model._SPECS.items():
        _, converters = spec.c_reader
        kinds = list(spec.fields.values())
        assert sorted(converters) == [i for i, kind in enumerate(kinds)
                                      if kind.dtype is str], key


def test_a_row_breaking_several_rules_names_the_first_one_checked(tmp_path):
    path = tmp_path / "trace.csv"
    cases = [
        # bad timestamp, zero cpu_req: requests are checked first
        ("container_event", "x,Create,7,1,0,0.5,0.01,",
         "cpu_req must be > 0, got 0.0"),
        # bad job, instance_count 0: the count is checked first
        ("batch_task", "1,2,x,1,0,Terminated,1.0,0.01",
         "instance_count must be >= 1, got 0"),
        # bad job, avg_cpu above max_cpu: the cpu pair is checked first
        ("batch_instance", "5,9,x,1,1,Terminated,1,1,0.5,0.7,0.1,0.1",
         "avg_cpu 0.7 exceeds max_cpu 0.5"),
        # Terminated with end < start and a bad max_cpu
        ("batch_instance", "9,5,1,1,1,Terminated,1,1,x,0.7,0.1,0.1",
         "Terminated instance needs start > 0 and end >= start, got [9,5]"),
    ]
    for file_key, line, reason in cases:
        path.write_text(line + "\n")
        table, diags, _ = parse_trace_file(str(path), file_key)
        assert len(table) == 0
        assert [(d.line, d.reason) for d in diags] == [(1, reason)], line


VALID_ROWS = {
    "server_event": "0,1,add,,32,0.5,0.5",
    "server_usage": "39600,1,50,50,50,1.0,1.0,1.0",
    "container_event": "0,Create,7,1,4,0.5,0.01,1|2",
    "container_usage": "39600,7,10,20,30,40,1.0,1.0,1.0,0.5,0.5,0.5,0.5",
    "batch_task": "1,2,3,4,5,Terminated,1.0,0.01",
    "batch_instance": "5,9,1,1,1,Terminated,1,1,0.5,0.4,0.1,0.1",
}

# (file, field, cell, reason): one cell of each message class in an
# otherwise valid row; reason None means the cell is accepted.
REJECTED_CELLS = [
    ("server_usage", "timestamp", "9223372036854775808",
     "timestamp outside the 64-bit integer range: '9223372036854775808'"),
    ("batch_task", "job", " -9223372036854775809",
     "job outside the 64-bit integer range: ' -9223372036854775809'"),
    ("server_usage", "timestamp", "2.5", "bad integer for timestamp: '2.5'"),
    ("server_event", "cpu_count", "-4", "cpu_count must be >= 0, got -4"),
    ("batch_task", "instance_count", "-1", "instance_count must be >= 1, got -1"),
    ("container_event", "machine", "0", "machine id must be >= 1, got 0"),
    ("server_usage", "load1", "x", "bad number for load1: 'x'"),
    ("server_usage", "load5", "nan", "load5 must be finite, got 'nan'"),
    ("batch_instance", "max_mem", "-inf", "max_mem must be finite, got '-inf'"),
    ("container_event", "disk_req", "-0.5", "disk_req must be >= 0, got -0.5"),
    ("server_event", "norm_disk", "1.5", "norm_disk must lie in [0,1], got 1.5"),
    ("server_usage", "cpu_pct", "5%", "bad percent value '5%'"),
    ("container_usage", "disk_pct", "Infinity", "non-finite percent value 'Infinity'"),
    ("server_usage", "mem_pct", "100.0000001",
     "mem_pct must lie in [0,100] percent, got '100.0000001'"),
    ("server_usage", "disk_pct", "5" + "0" * 39,
     "disk_pct must lie in [0,100] percent, got '5" + "0" * 39 + "'"),
    ("server_event", "event_type", "reboot", "unknown MachineEventType value 'reboot'"),
    ("batch_instance", "status", " Done ", "unknown InstanceStatus value ' Done '"),
    ("container_event", "cpu_set", "1|x", "invalid literal for int() with base 10: 'x'"),
    ("batch_instance", "machine", "  ", None),
    # the optional machine quotes its cell stripped
    ("batch_instance", "machine", " x ", "bad integer for machine: 'x'"),
    ("batch_instance", "machine", "-3", "machine must be >= 0, got -3"),
    ("batch_instance", "machine", "5\x1f", None),
    ("server_usage", "machine", "5\x1f", "bad integer for machine: '5\\x1f'"),
    # numpy's C reader strips an information separator as space and reads
    # some letters outside ASCII as digits, where int() and float() refuse
    ("server_usage", "load1", "1.0\x1c", "bad number for load1: '1.0\\x1c'"),
    ("batch_task", "job", "\u01fe5", "bad integer for job: '\u01fe5'"),
]


@pytest.mark.parametrize("file_key,field,cell,reason", REJECTED_CELLS)
def test_each_rejected_cell_is_named_by_its_rule(tmp_path, file_key, field, cell,
                                                reason):
    cells = VALID_ROWS[file_key].split(",")
    cells[list(trace_model._SPECS[file_key].fields).index(field)] = cell
    path = tmp_path / "trace.csv"
    path.write_text(VALID_ROWS[file_key] + "\n" + ",".join(cells) + "\n")
    table, diags, _ = parse_trace_file(str(path), file_key)
    assert [(d.line, d.reason) for d in diags] == ([] if reason is None
                                                   else [(2, reason)])
    assert len(table) == (2 if reason is None else 1)


def test_every_checked_kind_words_its_rule():
    for spec in trace_model._SPECS.values():
        for name, kind in spec.fields.items():
            assert kind.valid is None or kind.rule, name


def test_column_dtypes_and_names(tmp_path):
    write_trace_dir(small_bundle(), str(tmp_path))
    bundle = parse_trace_dir(str(tmp_path))
    assert bundle.server_usage.cpu.dtype == np.float64
    assert bundle.batch_instances.status.dtype == np.int8
    assert bundle.events.timestamp.dtype == np.int64
    assert bundle.container_usage.cpu_of_req.tolist() == [0.3]
    assert bundle.container_events.cpu_set.tolist() == ["1|2|3"]
    with pytest.raises(AttributeError, match="cpu_pct"):
        bundle.server_usage.cpu_pct


# ---------------------------------------------------------------------------
# the columns preprocess keeps

# (file key, line, field, cell): one fault per row, each in a column that
# ``PREPROCESS_COLUMNS`` drops, including one cell no kind parses (cpu_set),
# an unknown enum member and a cross-column rule over a dropped and a kept
# field (max_cpu below avg_cpu)
DROPPED_FAULTS = [
    ("server_event", 3, "norm_memory", "1.5"),
    ("container_event", 2, "disk_req", "-1"),
    ("container_event", 4, "cpu_set", "x"),
    ("container_usage", 5, "disk_pct", "150"),
    ("container_usage", 7, "avg_cpi", "-2"),
    ("batch_task", 3, "status", "Lost"),
    ("batch_instance", 4, "max_mem", "2"),
    ("batch_instance", 6, "max_cpu", "0.0001"),
    ("batch_instance", 8, "status", "Lost"),
]


@pytest.mark.parametrize("line_end", ["\n", "\r\n"], ids=["c_reader", "row_rule"])
def test_a_bad_cell_in_a_dropped_column_still_rejects_its_row(tmp_path, monkeypatch,
                                                              line_end):
    grid = IntervalGrid(39600, 39600 + 12 * 300, 300)
    bundle, _ = generate_trace(SynthConfig(
        machine_count=16, grid=grid, quotas=(9, 1, 1, 1, 1, 1, 1, 1), seed=7,
        noise_level=0.03))
    trace = tmp_path / "trace"
    write_trace_dir(bundle, str(trace))
    for key in FILE_KEYS:
        path = trace / trace_model.TRACE_FILENAMES[key]
        rows = [line.split(",") for line in path.read_text().splitlines()]
        for file_key, line, field, cell in DROPPED_FAULTS:
            if file_key == key:
                rows[line - 1][list(trace_model._SPECS[key].fields).index(field)] = cell
        # a CR line end sends every block to the row rule
        path.write_bytes("".join(",".join(row) + line_end for row in rows).encode())

    parsed = {}
    with monkeypatch.context() as permissive:
        permissive.setattr(trace_model, "MAX_SKIP_RATIO", 1.0)
        for keep in (None, PREPROCESS_COLUMNS):
            diagnostics = []
            parsed[keep is None] = (parse_trace_dir(str(trace), diagnostics=diagnostics,
                                                    keep=keep), diagnostics)
    (full, full_diags), (kept, kept_diags) = parsed[True], parsed[False]
    assert [(d.file, d.line) for d in full_diags] == \
        [(key, line) for key, line, _, _ in DROPPED_FAULTS]
    assert kept_diags == full_diags
    assert kept.machine_count == full.machine_count == 16
    # both readers are exercised: the C reader takes every block but the
    # container events' (a cell no kind parses) unless a CR sends every
    # block to the row rule
    rows = {key: len(getattr(full, attr)) + sum(d.file == key for d in full_diags)
            for attr, key in oracles.BUNDLE_FILES.items()}
    assert kept.python_rows == full.python_rows == (
        sum(rows.values()) if line_end == "\r\n" else rows["container_event"])
    for attr, key in oracles.BUNDLE_FILES.items():
        got, want = getattr(kept, attr), getattr(full, attr)
        assert len(got) == len(want), key
        # a file preprocess reads nothing of keeps its first column, so
        # len() still counts its rows
        assert list(got.columns) == list(PREPROCESS_COLUMNS[key]
                                         or list(want.columns)[:1]), key
        for name, column in got.columns.items():
            assert column.dtype == want.columns[name].dtype, (key, name)
            assert column.tobytes() == want.columns[name].tobytes(), (key, name)

    # the skip limit is met as by the full parse ...
    errors = []
    for keep in (None, PREPROCESS_COLUMNS):
        with pytest.raises(TraceParseError) as caught:
            parse_trace_dir(str(trace), keep=keep)
        errors.append(str(caught.value))
    assert errors[0] == errors[1]
    # ... and preprocess counts the same rows skipped per file
    out = tmp_path / "out"
    monkeypatch.setattr(trace_model, "MAX_SKIP_RATIO", 1.0)
    run_preprocess({"input_dir": str(trace), "output_dir": str(out),
                    "grid_end": str(grid.end)})
    counts = json.loads((out / "manifest-preprocess.json").read_text())["row_counts"]
    lost = Counter(d.file for d in full_diags)
    assert {key: counts[f"rows_skipped_{key}"] for key in FILE_KEYS} == \
        {key: lost[key] for key in FILE_KEYS}
