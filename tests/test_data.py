"""CSV loading, preprocessing, stratified splits and the CSV writer."""

import csv
import os
import re
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from kancredit import data
from kancredit.data import (
    FEATURE_NAMES,
    LABEL_NAME,
    Dataset,
    PreprocessPolicy,
    Scaler,
    dataset_from_arrays,
    load_gmsc_csv,
    preprocess,
    split,
    write_dataset_csv,
    write_scaler_text,
    _parse_cell,
)
from kancredit.metrics import roc_curve

from conftest import GMSC_COLUMNS, make_gmsc_rows, write_gmsc_csv

DATA_DIR = Path(__file__).parent / "data"


def sorted_percentile(values, q):
    """Linear-interpolation percentile, written out longhand as an oracle."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(np.floor(pos))
    frac = pos - lo
    if lo + 1 >= len(v):
        return v[-1]
    return v[lo] * (1 - frac) + v[lo + 1] * frac


_GOOD_CELLS = dict(zip(GMSC_COLUMNS, ["0", "0.5", "45", "0", "0.3", "5000", "6", "0", "1", "0", "2"]))


def _line(index, changes=(), columns=GMSC_COLUMNS):
    """One indexed data line, with the cells named in ``changes`` replaced."""
    cells = {**_GOOD_CELLS, **dict(changes)}
    return ",".join([str(index)] + [cells[c] for c in columns])


def _write(path, lines, end="\n"):
    """The lines as a file; a lone surrogate such as "\\udcff" is written as that one byte."""
    path.write_bytes((end.join(lines) + end).encode("utf-8", "surrogateescape"))


_HEADER = "," + ",".join(GMSC_COLUMNS)
_REVERSED = GMSC_COLUMNS[::-1]

# file lines -> the loader's exact error; N in "row N" counts file lines
MALFORMED = {
    "NA-required": (
        [_HEADER, _line(1), _line(2, {"DebtRatio": "NA"})],
        "parse-error(row 3): missing value in required column",
    ),
    "empty-required": (
        [_HEADER, _line(1), _line(2, {"DebtRatio": ""})],
        "parse-error(row 3): missing value in required column",
    ),
    "nan-required": (
        [_HEADER, _line(1, {"RevolvingUtilizationOfUnsecuredLines": "nan"})],
        "parse-error(row 2): missing value in required column",
    ),
    "inf": (
        [_HEADER, _line(1, {"DebtRatio": "inf"})],
        "parse-error(row 2): non-finite value: 'inf'",
    ),
    "plus-nan-income": (
        [_HEADER, _line(1), _line(2), _line(3, {"MonthlyIncome": "+nan"})],
        "parse-error(row 4): non-finite value: '+nan'",
    ),
    "fraction-in-int": (
        [_HEADER, _line(1, {"age": "2.5"})],
        "parse-error(row 2): expected an integer: '2.5'",
    ),
    "short-row": (
        [_HEADER, _line(1), _line(2).rsplit(",", 1)[0]],
        "parse-error(row 3): expected 12 cells, got 11",
    ),
    "blank-line-before-bad-row": (
        [_HEADER, _line(1), "", _line(2, {"age": "x"})],
        "parse-error(row 4): not a number: 'x'",
    ),
    # DebtRatio comes first in the file, age first in the schema
    "two-bad-cells": (
        ["," + ",".join(_REVERSED), _line(1, {"DebtRatio": "-1", "age": "x"}, _REVERSED)],
        "parse-error(row 2): not a number: 'x'",
    ),
    "not-utf8": (
        [_HEADER, _line(1), _line(2, {"age": "4\udcff5"})],
        "parse-error(row 3): not UTF-8: invalid start byte 0xff",
    ),
}


# cases where numpy's C reader and the row-by-row parse could part ways; None
# where the file parses
DISAGREE = {
    "every-row-one-short": (
        [_HEADER, _line(1).rsplit(",", 1)[0], _line(2).rsplit(",", 1)[0]],
        "parse-error(row 2): expected 12 cells, got 11",
    ),
    "every-row-one-long": (
        [_HEADER, _line(1) + ",0", _line(2) + ",0"],
        "parse-error(row 2): expected 12 cells, got 13",
    ),
    "whitespace-only-line": (
        [_HEADER, _line(1), "   ", _line(2)],
        "parse-error(row 3): expected 12 cells, got 1",
    ),
    "lone-cr-blank-line": ([_HEADER, _line(1), "\r", _line(2)], None),
    "lone-cr-ends-a-row": ([_HEADER, _line(1) + "\r" + _line(2), _line(3)], None),
    "lone-cr-inside-a-cell": (
        [_HEADER, _line(1, {"age": "4\r5"})],
        "parse-error(row 2): expected 12 cells, got 4",
    ),
    "quoted-cell": ([_HEADER, _line(1, {"DebtRatio": '"0.3"'}), _line(2)], None),
    "quoted-index": ([_HEADER, _line('"1"'), _line('"2"')], None),
    "hash-in-a-cell": (
        [_HEADER, _line(1, {"age": "4#5"})],
        "parse-error(row 2): not a number: '4#5'",
    ),
    "hash-in-the-index": ([_HEADER, _line("#1"), _line(2)], None),
    "trailing-comma": (
        [_HEADER, _line(1), _line(2) + ","],
        "parse-error(row 3): expected 12 cells, got 13",
    ),
    "inf-required": (
        [_HEADER, _line(1, {"DebtRatio": "inf"})],
        "parse-error(row 2): non-finite value: 'inf'",
    ),
    "nan-required": (
        [_HEADER, _line(1, {"age": "nan"})],
        "parse-error(row 2): missing value in required column",
    ),
    "Infinity-required": (
        [_HEADER, _line(1, {"age": "Infinity"})],
        "parse-error(row 2): non-finite value: 'Infinity'",
    ),
    "1e400-required": (
        [_HEADER, _line(1, {"RevolvingUtilizationOfUnsecuredLines": "1e400"})],
        "parse-error(row 2): non-finite value: '1e400'",
    ),
    "single-data-row": ([_HEADER, _line(1)], None),
}

# tokens for one cell; none holds a comma, a quote or a line end
ODD_TOKENS = [
    "0", "1", "12", " 12 ", "+12", "012", "-0", "-0.0", "+0", "0e0", "1e5", "1E5", ".5", "5.",
    "2.5", "0.1", "0.30000000000000004", "4.9e-324", "1e-400", "1e400", "-1e400",
    "123456789012345678901234567890", "-1", "2", "1_000", "1__0", "_1", "1_", "\u0661\u0662",
    "\uff11\uff12", "\xa012\xa0", "\u200312", "\t12\t", "\x0c12", "\x0b12", "\u200b12", "0x10",
    "1d5", "nan", "NaN", "+nan", "-nan", "\xa0na\xa0", "inf", "-inf", "+inf", "Infinity",
    "iNfInItY", "infinit", "nan(1)", "na", "NA", "NULL", "null", "", " ", "--1", "1e", "e1",
    "1.2.3", "12abc", "#12",
]


def _odd_rows(odd_optional):
    """40 rows with the odd cells in both optional columns and "-0" or "-0.0" in three more."""
    rows = make_gmsc_rows(40, seed=14)
    income, dependents = GMSC_COLUMNS.index("MonthlyIncome"), GMSC_COLUMNS.index("NumberOfDependents")
    for i, cell in enumerate(odd_optional):
        rows[i][income] = cell
        rows[-1 - i][dependents] = cell
    for i in range(0, 39, 3):
        rows[i][GMSC_COLUMNS.index("age")] = "-0"
        rows[i + 1][GMSC_COLUMNS.index("NumberOfTimes90DaysLate")] = "-0"
        rows[i + 2][GMSC_COLUMNS.index("DebtRatio")] = "-0.0"
    return rows


def _odd_file(path):
    """A file of odd cells that numpy's C reader (or the optional columns' converter) takes."""
    rows = _odd_rows([" 12 ", " na ", "NULL", "", "NaN", "\xa07\xa0", "-0", "-0.0", " 1 "])
    rows[20][GMSC_COLUMNS.index("age")] = "\u200345"
    rows[21][0] = " 1 "
    rows[22][1] = "\xa00.25"
    write_gmsc_csv(path, rows)
    return path


def _cell_by_cell(path):
    """The file's schema columns through ``_parse_cell``, one cell at a time."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        cells = [(header.index(name), *spec) for name, *spec in data._COLUMNS]
        return np.array([[_parse_cell(row[i], *spec, "ref") for i, *spec in cells] for row in reader])


def _outcome(path):
    """load_gmsc_csv's labels and raw bytes, or its error line."""
    try:
        table = load_gmsc_csv(path)
    except ValueError as exc:
        return str(exc)
    return table.labels.tobytes(), table.raw.tobytes()


def _strict_outcome(path):
    """``_outcome`` with numpy's C reader refusing every file."""
    def refuse(*args):
        raise ValueError("refused")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data, "_read_columns", refuse)
        return _outcome(path)


class TestLoadCsv:
    def test_row_count_and_types(self, gmsc_csv):
        table = load_gmsc_csv(gmsc_csv)
        assert len(table) == 400
        assert table.labels.dtype == np.int64
        assert set(np.unique(table.labels)) <= {0, 1}
        assert table.raw.dtype == np.float64 and table.raw.shape == (400, 10)
        age = table.raw[:, FEATURE_NAMES.index("age")]
        np.testing.assert_array_equal(age, np.floor(age))

    def test_missing_income_becomes_none(self, tmp_path):
        rows = make_gmsc_rows(5, seed=1)
        rows[1][5] = 4200
        rows[2][5] = None  # MonthlyIncome
        rows[4][10] = None  # NumberOfDependents
        path = tmp_path / "m.csv"
        write_gmsc_csv(path, rows)
        table = load_gmsc_csv(path)
        income = FEATURE_NAMES.index("MonthlyIncome")
        dependents = FEATURE_NAMES.index("NumberOfDependents")
        assert np.isnan(table.raw[2, income])
        assert np.isnan(table.raw[4, dependents])
        assert table.raw[1, income] == 4200
        # NaN exactly where a cell was written as NA
        expected = np.array([[v is None for v in row[1:]] for row in rows])
        np.testing.assert_array_equal(np.isnan(table.raw), expected)

    def test_shuffled_header_matches_canonical(self, tmp_path):
        rows = make_gmsc_rows(3, seed=2)
        canon = tmp_path / "canon.csv"
        write_gmsc_csv(canon, rows)
        perm = [4, 0, 7, 2, 9, 1, 10, 3, 6, 5, 8]
        shuffled_header = [GMSC_COLUMNS[i] for i in perm]
        shuffled_rows = [[row[i] for i in perm] for row in rows]
        shuf = tmp_path / "shuf.csv"
        write_gmsc_csv(shuf, shuffled_rows, header=shuffled_header)
        a, b = load_gmsc_csv(shuf), load_gmsc_csv(canon)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.raw, b.raw)  # NaN at the same cells too

    def test_no_index_column_tolerated(self, tmp_path):
        rows = make_gmsc_rows(4, seed=3)
        path = tmp_path / "noidx.csv"
        write_gmsc_csv(path, rows, index_col=False)
        assert len(load_gmsc_csv(path)) == 4

    def test_header_mismatch(self, tmp_path):
        rows = make_gmsc_rows(2, seed=4)
        bad_header = GMSC_COLUMNS[:-1] + ["SomethingElse"]
        path = tmp_path / "bad.csv"
        write_gmsc_csv(path, rows, header=bad_header)
        with pytest.raises(ValueError, match="header-mismatch"):
            load_gmsc_csv(path)

    def test_parse_error_carries_row_number(self, tmp_path):
        rows = make_gmsc_rows(5, seed=5)
        rows[2][2] = "forty"  # age on data row 3 = file line 4
        path = tmp_path / "bad.csv"
        write_gmsc_csv(path, rows)
        with pytest.raises(ValueError, match=r"parse-error\(row 4\)"):
            load_gmsc_csv(path)

    def test_bad_label_rejected(self, tmp_path):
        rows = make_gmsc_rows(3, seed=6)
        rows[0][0] = 2
        path = tmp_path / "bad.csv"
        write_gmsc_csv(path, rows)
        with pytest.raises(ValueError, match="parse-error"):
            load_gmsc_csv(path)

    def test_negative_in_nonnegative_column(self, tmp_path):
        rows = make_gmsc_rows(3, seed=7)
        rows[1][1] = -0.25  # revolving utilization
        path = tmp_path / "bad.csv"
        write_gmsc_csv(path, rows)
        with pytest.raises(ValueError, match=r"parse-error\(row 3\)"):
            load_gmsc_csv(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_gmsc_csv(tmp_path / "absent.csv")

    def test_zero_byte_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_bytes(b"")
        with pytest.raises(ValueError, match=r"^header-mismatch: file is empty$"):
            load_gmsc_csv(path)

    @pytest.mark.parametrize(
        "lines, message", list(MALFORMED.values()), ids=list(MALFORMED)
    )
    def test_malformed_file_message(self, tmp_path, lines, message):
        path = tmp_path / "bad.csv"
        _write(path, lines)
        with pytest.raises(ValueError) as exc:
            load_gmsc_csv(path)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "lines, message", list(MALFORMED.values()), ids=list(MALFORMED)
    )
    def test_malformed_message_from_a_later_block(self, tmp_path, lines, message):
        # three good rows, a blank line and a two-line quoted cell, which the
        # C reader refuses, come first; the case's rows start 6 lines further on
        columns = lines[0].split(",")[1:]
        prefix = [_line(i, columns=columns) for i in (7, 8, 9)]
        prefix += ["", _line('"multi\nline"', columns=columns)]
        path = tmp_path / "bad.csv"
        _write(path, [lines[0], *prefix, *lines[1:]])
        with pytest.raises(ValueError) as exc:
            load_gmsc_csv(path)
        assert str(exc.value) == re.sub(
            r"row (\d+)", lambda m: f"row {int(m.group(1)) + 6}", message
        )

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a named pipe")
    def test_malformed_message_from_a_pipe(self, tmp_path):
        # a file the C reader refuses is parsed again, which a pipe cannot seek back to
        lines, message = MALFORMED["blank-line-before-bad-row"]
        path = tmp_path / "pipe.csv"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_text, args=("\n".join(lines) + "\n",), daemon=True)
        writer.start()
        try:
            with pytest.raises(ValueError) as exc:
                load_gmsc_csv(path)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert str(exc.value) == message

    def test_duplicate_header_column_is_named(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(_HEADER + ",age\n" + _line(1) + ",45\n")
        with pytest.raises(ValueError) as exc:
            load_gmsc_csv(path)
        assert str(exc.value) == "header-mismatch: duplicate columns ['age']"

    @pytest.mark.filterwarnings("error")  # numpy warns of a file without data rows
    def test_header_only_file_is_empty_input(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text(_HEADER + "\n")
        table = load_gmsc_csv(path)
        assert len(table) == 0 and table.raw.shape == (0, 10)
        with pytest.raises(ValueError, match="empty-input"):
            preprocess(table)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            load_gmsc_csv(path)
        assert seen == []

    def test_blocks_equal_per_cell_parse_bit_for_bit(self, tmp_path, monkeypatch):
        # the file never reaches the row-by-row parse
        path = _odd_file(tmp_path / "odd.csv")
        expected = _cell_by_cell(path)
        monkeypatch.setattr(data, "_parse_cell", lambda *args: pytest.fail("C reader refused"))
        table = load_gmsc_csv(path)
        assert table.labels.tobytes() == expected[:, 0].astype(np.int64).tobytes()
        assert table.raw.tobytes() == expected[:, 1:].tobytes()  # -0.0 signs included
        assert np.signbit(table.raw[:, FEATURE_NAMES.index("DebtRatio")]).sum() == 13
        assert not np.signbit(table.raw[:, FEATURE_NAMES.index("age")]).any()
        assert np.signbit(table.raw[:, FEATURE_NAMES.index("MonthlyIncome")]).sum() == 2

    def test_numpy_1_loadtxt_takes_the_odd_file_too(self, tmp_path, monkeypatch):
        # before numpy 2.0, loadtxt hands converters latin1 bytes unless it is
        # given an encoding, and the optional cells' converter reads str
        loadtxt = np.loadtxt

        def numpy_1_loadtxt(*args, encoding="bytes", **kwargs):
            return loadtxt(*args, encoding=encoding, **kwargs)

        monkeypatch.setattr(np, "loadtxt", numpy_1_loadtxt)
        path = _odd_file(tmp_path / "odd.csv")
        expected = _cell_by_cell(path)
        monkeypatch.setattr(data, "_parse_cell", lambda *args: pytest.fail("C reader refused"))
        table = load_gmsc_csv(path)
        assert table.labels.tobytes() == expected[:, 0].astype(np.int64).tobytes()
        assert table.raw.tobytes() == expected[:, 1:].tobytes()

    @pytest.mark.parametrize("odd", ["1_000", "\u0661\u0662"], ids=["underscore", "arabic-indic"])
    def test_cells_only_float_takes_fall_back_bit_for_bit(self, tmp_path, monkeypatch, odd):
        # Python's float reads underscores and other scripts' digits; the C
        # reader refuses them in a required column, so the file goes row by row
        rows = _odd_rows([odd, " 12 ", "NULL"])
        rows[20][GMSC_COLUMNS.index("age")] = odd
        rows[21][GMSC_COLUMNS.index("DebtRatio")] = odd
        path = tmp_path / "odd.csv"
        write_gmsc_csv(path, rows)
        expected = _cell_by_cell(path)
        calls = []
        monkeypatch.setattr(data, "_parse_cell", lambda *args: calls.append(1) or _parse_cell(*args))
        table = load_gmsc_csv(path)
        assert len(calls) == expected.size  # every cell, row by row
        assert table.labels.tobytes() == expected[:, 0].astype(np.int64).tobytes()
        assert table.raw.tobytes() == expected[:, 1:].tobytes()

    @pytest.mark.parametrize("case", list(DISAGREE), ids=list(DISAGREE))
    def test_cases_where_the_parsers_can_disagree(self, tmp_path, case):
        lines, message = DISAGREE[case]
        path = tmp_path / "case.csv"
        _write(path, lines)
        outcome = _outcome(path)
        assert outcome == _strict_outcome(path)
        if message is None:
            assert isinstance(outcome, tuple)
        else:
            assert outcome == message

    @pytest.mark.parametrize("column", [LABEL_NAME, "age", "DebtRatio", "MonthlyIncome", "NumberOfDependents"])
    def test_tokens_the_c_reader_takes_parse_as_float_does(self, tmp_path, monkeypatch, column):
        calls = []
        monkeypatch.setattr(data, "_parse_cell", lambda *args: calls.append(1) or _parse_cell(*args))
        spec = next(spec for name, *spec in data._COLUMNS if name == column)
        for token in ODD_TOKENS:
            path = tmp_path / "token.csv"
            _write(path, [_HEADER, _line(1), _line(2, {column: token})])
            calls.clear()
            outcome = _outcome(path)
            if not calls:  # the C reader took the file: float's bits, -0.0 signs included
                value = _parse_cell(token, *spec, "ref")
                assert isinstance(outcome, tuple), token
                table = load_gmsc_csv(path)
                cell = table.labels[1] if column == LABEL_NAME else table.raw[1, FEATURE_NAMES.index(column)]
                assert np.float64(cell).tobytes() == np.float64(value).tobytes(), token
            assert outcome == _strict_outcome(path), token

    def test_quoted_two_line_header_takes_the_fast_path(self, tmp_path, monkeypatch):
        rows = make_gmsc_rows(30, seed=16)
        path = tmp_path / "quoted.csv"
        write_gmsc_csv(path, rows)
        expected = _outcome(path)
        text = path.read_text()
        path.write_text('"\n"' + text)  # the unnamed index column's name is a quoted line end
        monkeypatch.setattr(data, "_parse_cell", lambda *args: pytest.fail("C reader refused"))
        assert _outcome(path) == expected

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a named pipe")
    def test_pipe_takes_the_fast_path(self, tmp_path, monkeypatch):
        rows = make_gmsc_rows(30, seed=17)
        plain = tmp_path / "plain.csv"
        write_gmsc_csv(plain, rows)
        expected = _outcome(plain)
        path = tmp_path / "pipe.csv"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_bytes, args=(plain.read_bytes(),), daemon=True)
        writer.start()
        monkeypatch.setattr(data, "_parse_cell", lambda *args: pytest.fail("C reader refused"))
        try:
            outcome = _outcome(path)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert outcome == expected

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("quoted", [False, True], ids=["c-reader", "row-by-row"])
    def test_bytes_not_utf8_past_the_first_chunk(self, tmp_path, end, quoted):
        # far past the 8 KB that reading the header decodes, so numpy's C
        # reader meets them first, or the row-by-row parse when a quoted
        # cell on row 2 made the C reader refuse the file
        lines = [_HEADER] + [_line(i) for i in range(1, 400)]
        lines[300] = _line(300, {"age": "4\udcff5"})
        if quoted:
            lines[1] = _line(1, {"DebtRatio": '"0.3"'})
        path = tmp_path / "bad.csv"
        _write(path, lines, end)
        assert _outcome(path) == "parse-error(row 301): not UTF-8: invalid start byte 0xff"

    @pytest.mark.parametrize("quoted", [False, True], ids=["c-reader", "row-by-row"])
    def test_byte_order_mark_is_dropped(self, tmp_path, quoted):
        # spreadsheet exports often start a UTF-8 file with one; a quoted
        # cell makes the C reader refuse the file, so it is read again
        lines = [_HEADER] + [_line(i) for i in range(1, 6)]
        if quoted:
            lines[1] = _line(1, {"DebtRatio": '"0.3"'})
        for last, want in ((_line(5), None), (_line(5, {"age": "x"}), "parse-error(row 6): not a number: 'x'")):
            plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
            _write(plain, [*lines[:-1], last])
            _write(marked, ["\ufeff" + lines[0], *lines[1:-1], last])
            outcome = _outcome(plain)
            assert _outcome(marked) == outcome == _strict_outcome(marked)
            assert isinstance(outcome, tuple) if want is None else outcome == want

    def test_peak_memory_is_bounded(self, tmp_path):
        # 80k rows make a 7.7 MB array of the file's 12 columns, which the
        # table views; one block of Python rows at a time peaked near 23 MB
        small = tmp_path / "small.csv"
        write_gmsc_csv(small, make_gmsc_rows(1000, seed=15))
        header, *body = small.read_text().splitlines(keepends=True)
        path = tmp_path / "big.csv"
        path.write_text(header + "".join(body) * 80)
        tracemalloc.start()
        try:
            table = load_gmsc_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table) == 80_000
        assert peak < 15e6, peak


    def test_each_distinct_optional_cell_is_parsed_once(self, tmp_path, monkeypatch):
        rows = make_gmsc_rows(60, seed=4)
        for i, row in enumerate(rows):
            row[5] = (None, 4200, 3100)[i % 3]  # MonthlyIncome
            row[10] = (None, 0, 2, 3100)[i % 4]  # NumberOfDependents; "3100" is in both columns
        path = tmp_path / "repeats.csv"
        write_gmsc_csv(path, rows)
        want = load_gmsc_csv(path)
        parsed = []
        real = data._optional_cell
        monkeypatch.setattr(data, "_optional_cell", lambda cell: parsed.append(cell) or real(cell))
        table = load_gmsc_csv(path)
        assert sorted(parsed) == ["0", "2", "3100", "4200", "NA"]
        assert table.raw.tobytes() == want.raw.tobytes()

    def test_a_refused_optional_cell_is_not_kept(self):
        cells = data._OptionalCells()
        assert cells["NA"] != cells["NA"] and cells["12.5"] == 12.5
        with pytest.raises(ValueError, match="not a missing token"):
            cells["+nan"]
        assert sorted(cells) == ["12.5", "NA"]

class TestPreprocess:
    def test_totality_and_range(self, gmsc_csv):
        ds = preprocess(load_gmsc_csv(gmsc_csv))
        assert ds.features.shape == (400, 10)
        assert np.all(np.isfinite(ds.features))
        assert ds.features.min() >= -1.0
        assert ds.features.max() <= 1.0
        assert ds.feature_names == FEATURE_NAMES

    def test_constant_column_scales_to_zero(self, tmp_path):
        rows = make_gmsc_rows(20, seed=8)
        for row in rows:
            row[2] = 45  # constant age
        path = tmp_path / "const.csv"
        write_gmsc_csv(path, rows)
        ds = preprocess(load_gmsc_csv(path))
        age_col = FEATURE_NAMES.index("age")
        np.testing.assert_array_equal(ds.features[:, age_col], 0.0)

    def test_scaling_endpoints(self, gmsc_csv):
        ds = preprocess(load_gmsc_csv(gmsc_csv))
        # values at the winsorization bounds land exactly on the interval ends
        sc = ds.scaler
        probe = np.tile(sc.lo, (2, 1))
        probe[1] = sc.hi
        out = sc.transform(probe)
        span = sc.hi > sc.lo
        np.testing.assert_allclose(out[0][span], -1.0, atol=0)
        np.testing.assert_allclose(out[1][span], 1.0, atol=0)

    def test_policy_bounds_out_of_order(self):
        with pytest.raises(ValueError, match=r"^invalid-policy: "):
            PreprocessPolicy(0.9, 0.1)

    def test_scaler_equals_longhand_bit_for_bit(self, gmsc_csv):
        raw = load_gmsc_csv(gmsc_csv).raw.copy()
        raw[:, FEATURE_NAMES.index("age")] = 45.0  # a column with zero span
        sc = Scaler.fit(raw, PreprocessPolicy())
        filled = np.where(np.isnan(raw), sc.impute, raw)
        assert sc.lo.tobytes() == np.quantile(filled, 0.01, axis=0).tobytes()
        assert sc.hi.tobytes() == np.quantile(filled, 0.99, axis=0).tobytes()
        span = sc.hi - sc.lo
        with np.errstate(invalid="ignore", divide="ignore"):
            scaled = -1.0 + 2.0 * (np.clip(filled, sc.lo, sc.hi) - sc.lo) / span
        assert sc.transform(raw).tobytes() == np.where(span > 0, scaled, 0.0).tobytes()

    @staticmethod
    def adversarial_raw(case):
        """A raw (n, 10) array whose columns stress the quantile fit."""
        rng = np.random.default_rng(31)
        income = FEATURE_NAMES.index("MonthlyIncome")
        if case == "ties":
            raw = rng.integers(0, 3, (200, 10)).astype(float)
        elif case == "constant":
            raw = np.full((50, 10), 7.0)
        elif case in ("one row", "two rows"):
            raw = rng.normal(size=(1 if case == "one row" else 2, 10))
        elif case == "signed zeros":
            raw = rng.choice([0.0, -0.0, 0.0, -0.0, 1.0], (300, 10))
        else:
            raw = rng.lognormal(size=(120, 10))
        if case == "all-NaN income":
            raw[:, income] = np.nan
        if case == "NaN in a required column":
            raw[[3, 40, 41], FEATURE_NAMES.index("DebtRatio")] = np.nan
        if len(raw) > 2:
            raw[::7, income] = np.nan
        return raw

    @pytest.mark.parametrize("policy", [PreprocessPolicy(), PreprocessPolicy(0.0, 1.0), PreprocessPolicy(0.3, 0.7)])
    @pytest.mark.parametrize(
        "case",
        ["ties", "constant", "one row", "two rows", "all-NaN income", "NaN in a required column", "signed zeros"],
    )
    def test_bounds_equal_whole_matrix_quantile_bit_for_bit(self, case, policy):
        raw = self.adversarial_raw(case)
        sc = Scaler.fit(raw, policy)
        filled = np.where(np.isnan(raw), sc.impute, raw)
        lo, hi = np.quantile(filled, [policy.lower_quantile, policy.upper_quantile], axis=0)
        pairs = [(sc.lo, lo), (sc.hi, hi)]
        if case == "signed zeros":  # a sorted column may put the other zero at a cut: -0.0 + 0.0 is 0.0
            pairs = [(got + 0.0, want + 0.0) for got, want in pairs]
        assert all(got.tobytes() == want.tobytes() for got, want in pairs)
        # the whole-matrix bounds scale every value to the same bits
        span = hi - lo
        with np.errstate(invalid="ignore", divide="ignore"):
            scaled = -1.0 + 2.0 * (np.clip(filled, lo, hi) - lo) / span
        assert sc.transform(raw).tobytes() == np.where(span > 0, scaled, 0.0).tobytes()

    @pytest.mark.parametrize(
        "case",
        ["ties", "constant", "one row", "two rows", "all-NaN income", "NaN in a required column", "signed zeros"],
    )
    def test_income_median_equals_numpy_median_bit_for_bit(self, case):
        raw = self.adversarial_raw(case)
        income = FEATURE_NAMES.index("MonthlyIncome")
        observed = raw[:, income][~np.isnan(raw[:, income])]
        want = np.median(observed) if observed.size else 0.0  # no income at all imputes 0
        assert np.float64(Scaler.fit(raw).impute[income]).tobytes() == np.float64(want).tobytes()

    def test_signed_zero_bounds_scale_to_the_same_bits(self):
        raw = self.adversarial_raw("signed zeros")
        sc = Scaler.fit(raw)
        flipped = Scaler(sc.impute, np.where(sc.lo == 0, -sc.lo, sc.lo), np.where(sc.hi == 0, -sc.hi, sc.hi))
        assert (sc.lo == 0).any() and flipped.lo.tobytes() != sc.lo.tobytes()
        assert flipped.transform(raw).tobytes() == sc.transform(raw).tobytes()

    @pytest.mark.parametrize(
        "cell", [(0, 3, np.inf), (9, 0, -np.inf), (4, 4, np.inf)], ids=["inf", "minus-inf", "income-inf"]
    )
    @pytest.mark.filterwarnings("error")
    def test_infinite_cell_is_a_coded_error(self, cell):
        # column 4 is the income: an infinity there reaches the bounds through the median too
        row, col, value = cell
        raw = np.random.default_rng(12).uniform(0.0, 5.0, size=(10, 10))
        raw[row, col] = value
        with pytest.raises(ValueError, match=rf"^non-finite-input: column {col}$"):
            Scaler.fit(raw)

    def test_infinite_income_median_is_a_coded_error(self):
        raw = np.random.default_rng(13).uniform(0.0, 5.0, size=(10, 10))
        income = FEATURE_NAMES.index("MonthlyIncome")
        raw[:, income] = [np.inf, -np.inf] + [np.nan] * 8  # median NaN, imputed into eight cells
        with pytest.raises(ValueError, match=rf"^non-finite-input: column {income}$"):
            Scaler.fit(raw)

    def test_no_rows_is_a_coded_error(self):
        with pytest.raises(ValueError, match=r"^empty-input: "):
            Scaler.fit(np.zeros((0, 10)))

    def test_transform_leaves_its_input_unchanged(self):
        raw = self.adversarial_raw("NaN in a required column")
        before = raw.tobytes()
        sc = Scaler.fit(raw)
        out = sc.transform(raw)
        assert raw.tobytes() == before and not np.shares_memory(out, raw)

    def test_winsorize_bounds_match_sort_oracle(self, tmp_path):
        rows = make_gmsc_rows(1000, seed=9)
        path = tmp_path / "big.csv"
        write_gmsc_csv(path, rows)
        ds = preprocess(load_gmsc_csv(path))
        debt_col = FEATURE_NAMES.index("DebtRatio")
        debts = [row[4] for row in rows]
        assert ds.scaler.lo[debt_col] == pytest.approx(
            sorted_percentile(debts, 0.01), rel=1e-12
        )
        assert ds.scaler.hi[debt_col] == pytest.approx(
            sorted_percentile(debts, 0.99), rel=1e-12
        )

    def test_income_imputed_with_median(self, tmp_path):
        rows = make_gmsc_rows(50, seed=10)
        observed = [row[5] for row in rows if row[5] is not None]
        path = tmp_path / "imp.csv"
        write_gmsc_csv(path, rows)
        ds = preprocess(load_gmsc_csv(path))
        income_col = FEATURE_NAMES.index("MonthlyIncome")
        assert ds.scaler.impute[income_col] == pytest.approx(
            float(np.median(observed)), rel=1e-12
        )
        dep_col = FEATURE_NAMES.index("NumberOfDependents")
        assert ds.scaler.impute[dep_col] == 0.0

    def test_missing_values_get_scaled_imputations(self, tmp_path):
        rows = make_gmsc_rows(30, seed=11)
        rows[3][5] = None
        path = tmp_path / "imp2.csv"
        write_gmsc_csv(path, rows)
        ds = preprocess(load_gmsc_csv(path))
        income_col = FEATURE_NAMES.index("MonthlyIncome")
        sc = ds.scaler
        manual = np.clip(sc.impute[income_col], sc.lo[income_col], sc.hi[income_col])
        manual = -1 + 2 * (manual - sc.lo[income_col]) / (sc.hi[income_col] - sc.lo[income_col])
        assert ds.features[3, income_col] == pytest.approx(manual, abs=1e-12)

    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty-input"):
            preprocess([])


class TestSplit:
    def make_dataset(self, n=100, positives=10, seed=12):
        rows = make_gmsc_rows(n, seed=seed)
        for i, row in enumerate(rows):
            row[0] = 1 if i < positives else 0
        import tempfile, os

        fd, path = tempfile.mkstemp(suffix=".csv")
        os.close(fd)
        write_gmsc_csv(path, rows)
        ds = preprocess(load_gmsc_csv(path))
        os.unlink(path)
        return ds

    def test_exact_stratification(self):
        ds = self.make_dataset(100, positives=10)
        train, test = split(ds, 0.2, seed=0)
        assert len(test) == 20
        assert int(test.labels.sum()) == 2
        assert int(train.labels.sum()) == 8

    def test_no_row_loss(self):
        ds = self.make_dataset(97, positives=13)
        train, test = split(ds, 0.25, seed=1)
        assert len(train) + len(test) == 97

    def test_deterministic(self):
        ds = self.make_dataset(80, positives=20)
        a_train, a_test = split(ds, 0.2, seed=5)
        b_train, b_test = split(ds, 0.2, seed=5)
        np.testing.assert_array_equal(a_test.features, b_test.features)
        np.testing.assert_array_equal(a_train.labels, b_train.labels)

    def test_different_seeds_differ(self):
        ds = self.make_dataset(80, positives=20)
        _, a_test = split(ds, 0.2, seed=1)
        _, b_test = split(ds, 0.2, seed=2)
        assert not np.array_equal(a_test.features, b_test.features)

    def test_scaler_fitted_on_train_only(self):
        ds = self.make_dataset(200, positives=40)
        train, test = split(ds, 0.2, seed=3)
        assert train.scaler is test.scaler
        # the training rows of ds.raw are those whose scaled values are a training row
        scaled = test.scaler.transform(ds.raw)
        train_rows = set(map(tuple, train.features))
        in_train = np.array([tuple(row) in train_rows for row in scaled])
        assert in_train.sum() == len(train)
        manual = Scaler.fit(ds.raw[in_train])
        for part in ("impute", "lo", "hi"):
            np.testing.assert_array_equal(getattr(manual, part), getattr(test.scaler, part))
        np.testing.assert_array_equal(train.features, scaled[in_train])
        np.testing.assert_array_equal(test.features, scaled[~in_train])
        assert not np.array_equal(manual.hi, ds.scaler.hi)  # a refit, not the whole table's scaler

    def test_parts_keep_no_raw_matrix(self):
        rng = np.random.default_rng(14)
        arrays = dataset_from_arrays(rng.uniform(-1, 1, (40, 3)), rng.integers(0, 2, 40))
        for ds in (self.make_dataset(100, positives=20), arrays):
            assert all(part.raw is None for part in split(ds, 0.2, seed=0))

    def test_parts_hold_only_features_and_labels(self, tmp_path):
        small = tmp_path / "small.csv"
        write_gmsc_csv(small, make_gmsc_rows(1000, seed=16))
        header, *body = small.read_text().splitlines(keepends=True)
        path = tmp_path / "big.csv"
        path.write_text(header + "".join(body) * 20)
        split(preprocess(load_gmsc_csv(small)), 0.2, seed=0)  # imports and caches outside the count
        tracemalloc.start()
        try:
            parts = split(preprocess(load_gmsc_csv(path)), 0.2, seed=0)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # 20k rows: 1.6 MB of features and 0.16 MB of labels; a raw copy is another 1.6 MB
        arrays = sum(part.features.nbytes + part.labels.nbytes for part in parts)
        assert arrays == 20_000 * 8 * (len(FEATURE_NAMES) + 1)
        assert held < 1.1 * arrays, (held, arrays)

    def test_parts_equal_a_refit_transform_byte_for_byte(self):
        ds = self.make_dataset(300, positives=45)
        raw = ds.raw.copy()
        raw[::11, FEATURE_NAMES.index("MonthlyIncome")] = np.nan
        ds = Dataset(ds.features, ds.labels, ds.feature_names, ds.scaler, raw)
        # split draws its indices from the labels alone: a column of row numbers shows them
        numbered = dataset_from_arrays(np.arange(len(ds))[:, None], ds.labels)
        train, test = split(ds, 0.2, seed=7)
        train_idx, test_idx = (part.features[:, 0].astype(int) for part in split(numbered, 0.2, seed=7))
        scaler = Scaler.fit(raw[train_idx])
        assert train.features.tobytes() == scaler.transform(raw[train_idx]).tobytes()
        assert test.features.tobytes() == scaler.transform(raw[test_idx]).tobytes()
        assert raw.tobytes() == ds.raw.tobytes() and np.isnan(raw).any()  # the parts are copies

    def test_setup_peak_memory_is_bounded(self, tmp_path):
        # 20k rows: the parsed table (1.9 MB) and the whole-table features
        # (1.6 MB) are held while split gathers the training rows (1.3 MB)
        # and scales them in place, peaking at 5.77 MB; fitting on a filled
        # copy of the gathered rows and gathering them again to transform
        # peaked at 6.80 MB
        small = tmp_path / "small.csv"
        write_gmsc_csv(small, make_gmsc_rows(1000, seed=17))
        header, *body = small.read_text().splitlines(keepends=True)
        path = tmp_path / "big.csv"
        path.write_text(header + "".join(body) * 20)
        split(preprocess(load_gmsc_csv(small)), 0.2, seed=0)  # imports and caches outside the count
        tracemalloc.start()
        try:
            split(preprocess(load_gmsc_csv(path)), 0.2, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6.3e6, peak

    def test_resplit_part_is_indexed_and_keeps_its_scaler(self):
        train, _ = split(self.make_dataset(200, positives=40), 0.2, seed=3)
        parts = split(train, 0.25, seed=1)
        assert all(part.scaler is train.scaler for part in parts)
        assert sum(map(len, parts)) == len(train)
        rows = lambda ds: sorted(zip(ds.labels.tolist(), map(tuple, ds.features.tolist())))
        assert sorted(rows(parts[0]) + rows(parts[1])) == rows(train)

    def test_train_features_stay_in_range(self):
        ds = self.make_dataset(150, positives=30)
        train, test = split(ds, 0.2, seed=4)
        assert train.features.min() >= -1.0 and train.features.max() <= 1.0
        # test rows may clip at the boundary but never exceed it
        assert test.features.min() >= -1.0 and test.features.max() <= 1.0

    def test_invalid_fraction(self):
        ds = self.make_dataset(20, positives=5)
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="invalid-fraction"):
                split(ds, bad, seed=0)

    def test_negative_seed(self):
        ds = self.make_dataset(20, positives=5)
        with pytest.raises(ValueError, match="invalid-seed"):
            split(ds, 0.2, seed=-1)

    def test_class_too_small(self):
        ds = self.make_dataset(20, positives=1)
        with pytest.raises(ValueError, match="class-too-small"):
            split(ds, 0.2, seed=0)

    @pytest.mark.parametrize("fraction, cls, part", [(0.999, 0, "train"), (0.95, 1, "train"), (0.001, 0, "test")])
    def test_part_without_a_class_is_refused(self, fraction, cls, part):
        ds = self.make_dataset(100, positives=10)
        with pytest.raises(ValueError, match=rf"^empty-split: .* no class-{cls} row in the {part} part"):
            split(ds, fraction, seed=0)

    def test_array_dataset_passthrough(self):
        rng = np.random.default_rng(13)
        ds = dataset_from_arrays(rng.uniform(-1, 1, (40, 3)), rng.integers(0, 2, 40))
        train, test = split(ds, 0.25, seed=6)
        assert len(train) + len(test) == 40
        assert train.features.shape[1] == 3

    def test_array_dataset_shape_mismatch(self):
        with pytest.raises(ValueError, match=r"^dimension-mismatch: "):
            dataset_from_arrays(np.zeros((4, 3)), np.zeros(5))

    @pytest.mark.parametrize(
        "labels", [[0.7, 1.0, 0.2, 1.9], [0, 1, 2, 1], [0, 1, -1, 1], [0, 1, np.nan, 1]]
    )
    def test_array_dataset_refuses_labels_other_than_0_or_1(self, labels):
        # cast to int64, [0.7, 1.0, 0.2, 1.9] would read as [0, 1, 0, 1]
        with pytest.raises(ValueError, match=r"^invalid-label: labels must be 0 or 1$"):
            dataset_from_arrays(np.zeros((4, 3)), labels)

    def test_split_refuses_labels_other_than_0_or_1(self):
        # four classes: rows of classes 2 and 3 would all land in the training part
        rng = np.random.default_rng(14)
        ds = dataset_from_arrays(rng.uniform(-1, 1, (40, 3)), np.arange(40) % 2)
        ds.labels = np.arange(40) % 4
        with pytest.raises(ValueError, match=r"^invalid-label: labels must be 0 or 1$"):
            split(ds, 0.1, seed=0)


class TestAuditOutputs:
    def test_dataset_csv_round_trip_shape(self, gmsc_csv, tmp_path):
        ds = preprocess(load_gmsc_csv(gmsc_csv))
        out = tmp_path / "dump.csv"
        write_dataset_csv(ds, out)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "label," + ",".join(FEATURE_NAMES)
        assert len(lines) == 401

    def test_scaler_sidecar(self, gmsc_csv, tmp_path):
        ds = preprocess(load_gmsc_csv(gmsc_csv))
        out = tmp_path / "scaler.txt"
        write_scaler_text(ds.scaler, FEATURE_NAMES, out)
        text = out.read_text()
        assert "age.lo=" in text and "age.hi=" in text
        assert len(text.strip().split("\n")) == 30


def _spelled_row_by_row(header, rows):
    """The reference spelling: each row's cells through ``_fmt``, joined with commas."""
    return ",".join(header) + "\n" + "".join(",".join(map(data._fmt, row)) + "\n" for row in rows)


def _pinned_roc_points():
    """The ROC of 10 positives and 14 negatives over hand-picked scores.

    Ties across the classes, a block of signed zeros, an infinite score and
    thresholds such as 1/3 and 5e-324; every rate is a quotient by 10 or 14.
    """
    scores = [1 / 3, 0.1, 0.1, 0.75, float("inf"), 0.5, 0.5, 0.5, 2 / 7, -0.0, 0.0, 0.0,
              5e-324, 1e-300, 0.9, 0.9, 1 / 3, 0.2, 0.3, 0.6, 0.05, 0.45, 0.65, 1e16]
    labels = [1, 0, 1, 0, 1, 1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 0, 0, 0, 1, 0, 0, 1, 1, 0]
    return roc_curve(np.array(scores), np.array(labels))


def _pinned_curve_rows():
    """(layer, q, p, x, phi) rows of cubic edges, in plain float arithmetic (no libm)."""
    rows = []
    for layer, lo, hi, n_out, n_in in ((0, -1.0, 1.0, 2, 3), (1, -2.5, 0.75, 1, 2)):
        for q in range(n_out):
            for p in range(n_in):
                for i in range(25):
                    x = lo + (hi - lo) * i / 24
                    rows.append((layer, q, p, x, (x * x * x - (q + 1) * x) / (p + 3)))
    return rows


class TestCsvLines:
    """``_csv_lines`` spells every file as the row-by-row ``_fmt`` join did."""

    CASES = {
        "signed-zeros": [(0.0, 1), (-0.0, 2), (0.0, 3)],
        "non-finite": [(float("nan"), float("inf")), (float("-inf"), float("nan"))],
        "float-digits": [(5e-324,), (1e16,), (0.1,), (1 / 3,), (1e22,), (-1.5e-7,)],
        "big-and-negative-ints": [(2**70, -1), (-(2**70), 0), (-7, 3)],
        "bools": [(True, 1.0), (False, 2.0)],
        "bools-and-ints": [(True, 0.5), (0, 0.25), (False, 0.125), (1, 0.0)],
        "none": [(None, 1.0), (2.0, None)],
        "tuples": [((10, 4, 1), 0.5), ((3,), 1.5)],
        "numpy-scalars": [(np.float64(0.1), np.int64(3)), (np.float64(-0.0), np.int64(-(2**62)))],
        "mixed-int-float": [(1, 1.0), (2.5, 2), (-3, -0.0)],
        "strings": [("x0", 0.5, 3), ("x1", -0.25, 0)],
        "ragged": [(1, 2.0), (3,), (4.0, 5, 6)],
        "no-columns": [(), ()],
        "no-rows": [],
        "list-rows": [[1, 0.5], [2, 0.25]],
    }

    @pytest.mark.parametrize("rows", CASES.values(), ids=CASES.keys())
    def test_spelled_as_cell_by_cell(self, rows):
        header = ("a", "b", "c")
        assert "".join(data._csv_lines(header, rows)) == _spelled_row_by_row(header, rows)

    def test_bools_and_none_stay_words(self):
        text = "".join(data._csv_lines(("flag", "n", "x"), [(True, 1, None), (0, False, 2.5)]))
        assert text == "flag,n,x\ntrue,1,none\n0,false,2.5\n"

    def test_generator_across_blocks(self):
        n = 2 * data._CSV_BLOCK + 1

        def rows():
            for i in range(n):
                # the last block is one row; a None in the middle block sends its column to _fmt
                yield (i, i / 7, None if i == data._CSV_BLOCK + 5 else -i * 0.1)

        text = "".join(data._csv_lines(("i", "x", "y"), rows()))
        assert text == _spelled_row_by_row(("i", "x", "y"), rows())
        assert text.count("\n") == n + 1

    def test_ragged_block_between_even_ones(self):
        rows = [(i, 0.5 * i) for i in range(data._CSV_BLOCK)]
        rows += [(1.5,)] + [(i, i, i) for i in range(data._CSV_BLOCK)]
        assert "".join(data._csv_lines(("a",), rows)) == _spelled_row_by_row(("a",), rows)

    def test_roc_bytes_are_pinned(self, tmp_path):
        path = tmp_path / "roc.csv"
        data._write_csv(path, ("fpr", "tpr", "threshold"), _pinned_roc_points())
        assert path.read_bytes() == (DATA_DIR / "roc_small.csv").read_bytes()

    def test_curves_bytes_are_pinned(self, tmp_path):
        path = tmp_path / "curves.csv"
        data._write_csv(path, ("layer", "q", "p", "x", "phi"), _pinned_curve_rows())
        assert path.read_bytes() == (DATA_DIR / "curves_small.csv").read_bytes()

    def test_dump_holds_one_block_at_a_time(self, tmp_path):
        # a dump built whole in memory would peak near sixteen blocks' strings;
        # streamed, it peaked at 1.3 times one block's
        def peak(n_rows):
            rng = np.random.default_rng(3)
            ds = dataset_from_arrays(rng.uniform(-1, 1, (n_rows, 10)), np.arange(n_rows) % 2)
            tracemalloc.start()
            try:
                write_dataset_csv(ds, tmp_path / "dump.csv")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = peak(data._CSV_BLOCK)
        many = peak(16 * data._CSV_BLOCK)
        assert many < 2 * one, (one, many)
