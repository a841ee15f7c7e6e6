"""The cell grids of ``cells.py`` against their definitions: ``repr`` for a
float cell, ``fraction_to_percent_text`` for a percent cell, ``str`` for an
int cell and ``csv.writer`` for a line."""

import csv
import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

from trace_insight.cells import (
    csv_lines,
    float_cells,
    fraction_to_percent_text,
    int_cells,
    text_cells,
)

INT64 = st.integers(min_value=-2 ** 63, max_value=2 ** 63 - 1)


def texts(grid) -> list[str]:
    """The text of each cell of a grid: its row without the NULs."""
    return [bytes(row).replace(b"\0", b"").decode() for row in grid]


def neighbours(values, ulps: int = 1) -> np.ndarray:
    """``values`` and the doubles up to ``ulps`` steps either side of them."""
    bits = np.asarray(values, np.float64).view(np.int64)
    return (bits[:, None] + np.arange(-ulps, ulps + 1)).ravel().view(np.float64)


RNG = np.random.default_rng(2020)
FIRSTS = np.arange(1, 2047, dtype=np.int64) << 52   # bits of 2**-1022..2**1023
BINADES = np.concatenate((FIRSTS, FIRSTS + (1 << 52) - 1)).view(np.float64)
RANDOM_BITS = RNG.integers(0, 2 ** 64, 20_000, dtype=np.uint64, endpoint=False)
REPR_CASES = {
    "random bit patterns": RANDOM_BITS.view(np.float64)[np.isfinite(
        RANDOM_BITS.view(np.float64))],
    # the first and last double of every normal binade, with their neighbours
    "binade ends": neighbours(BINADES),
    "powers of ten": neighbours([float(f"1e{p}") for p in range(-323, 309)]),
    "subnormals": np.concatenate((
        [5e-324, 1e-323, np.nextafter(2.0 ** -1022, 0)],
        RNG.integers(1, 2 ** 52, 2000, dtype=np.int64).view(np.float64))),
    # where repr turns to the exponent form
    "exponent form edges": neighbours([1e-4, 1e16], ulps=3),
    "integers": np.concatenate((
        [0.0, 1.0, 2.0 ** 53, 2.0 ** 53 - 1], neighbours([2.0 ** 53], ulps=4),
        RNG.integers(0, 2 ** 53, 5000, endpoint=True).astype(np.float64),
        RNG.integers(0, 10 ** 6, 5000).astype(np.float64))),
    # short odd significands over powers of two: among them the doubles
    # halfway between two shortest candidates, where an even one is taken
    "dyadic fractions": (np.arange(1, 512, 2) * 2.0 ** -np.arange(1, 80)[:, None]).ravel(),
    "fractions": np.concatenate((RNG.random(20_000), np.round(RNG.random(5000), 4))),
}

# each shape of repr a percent cell starts from: fraction digits many or
# few, integer-valued, exponent form, subnormal, signed zero, negative
PERCENT_EDGES = [0.0, -0.0, 1.0, 0.5, 0.05, 1e-4, 0.00012, 9.9e-05, 1e-05, 5e-324,
                 0.9999999999999999, 1.5, 12.5, -0.25, 0.0312, 0.123, 0.12]


@pytest.mark.parametrize("case", REPR_CASES)
def test_float_cells_equal_repr(case):
    values = np.concatenate((REPR_CASES[case], -REPR_CASES[case]))
    assert texts(float_cells(values)) == list(map(repr, values.tolist()))


def test_float_cells_of_special_values_are_repr():
    values = [np.nan, np.inf, -np.inf, 1e300, -1e-300, 1e16, 9999999999999998.0]
    assert texts(float_cells(values)) == list(map(repr, values))


def test_cells_of_one_value_follow_its_bits():
    # -0.0 == 0.0, but their texts differ
    values = [0.0, -0.0, 0.0, -0.0]
    assert texts(float_cells(values)) == ["0.0", "-0.0", "0.0", "-0.0"]
    assert texts(float_cells(values, percent=True)) == ["0", "-0", "0", "-0"]


def test_percent_cells_of_fractions_equal_the_definition():
    # a fraction's binade ends in exponent form are positional as percent
    values = np.concatenate((PERCENT_EDGES, RNG.random(20_000),
                             np.round(RNG.random(5000), 4), neighbours(BINADES[BINADES < 1]),
                             REPR_CASES["dyadic fractions"][::7]))
    assert texts(float_cells(values, percent=True)) == \
        list(map(fraction_to_percent_text, values.tolist()))


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=40))
def test_percent_cells_equal_the_definition(values):
    for column in (values, PERCENT_EDGES, values + PERCENT_EDGES):
        assert texts(float_cells(column, percent=True)) == \
            list(map(fraction_to_percent_text, column))


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_cells_round_trip(value):
    text, = texts(float_cells([value]))
    assert float(text) == value
    # csv_lines cells are this text; csv.writer writes a Python float the same
    line = io.StringIO()
    csv.writer(line, lineterminator="\n").writerow([value])
    assert line.getvalue() == text + "\n"


@given(st.lists(st.tuples(INT64, st.floats(), st.floats()), max_size=6))
def test_csv_lines_writes_number_cells_as_csv_writer_does(rows):
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    ints, left, right = zip(*rows) if rows else ((), (), ())
    assert csv_lines(int_cells(np.array(ints, np.int64)), float_cells(left),
                     float_cells(right)).decode() == out.getvalue()


def test_int_cells_equal_str():
    values = np.concatenate((RNG.integers(-2 ** 63, 2 ** 63 - 1, 20_000, endpoint=True),
                             [0, -1, 1, 9999, 10000, -10000, 2 ** 63 - 1, -2 ** 63]))
    assert texts(int_cells(values)) == list(map(str, values.tolist()))


def test_cells_keep_the_shape_of_their_block():
    block = np.array([[0.25, 1.0, -3.5], [1e-05, 12.0, 0.1]])
    grid = float_cells(block)
    assert grid.shape[:2] == block.shape
    for column in range(3):
        assert texts(grid[:, column]) == list(map(repr, block[:, column].tolist()))
    ints = np.array([[1, -22], [333, 0]])
    assert texts(int_cells(ints).reshape(4, -1)) == ["1", "-22", "333", "0"]


def test_csv_lines_joins_text_and_empty_cells():
    lines = csv_lines(int_cells([7, 80]), text_cells(["Type1", ""]),
                      float_cells([0.5, -0.0]), text_cells(["", ""]))
    assert lines == b"7,Type1,0.5,\n80,,-0.0,\n"
    assert csv_lines(int_cells(np.array([], np.int64)), text_cells([])) == b""
