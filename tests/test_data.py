"""CSV loading, preprocessing, and stratified-split behavior."""

import csv
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest

from kancredit import data
from kancredit.data import (
    FEATURE_NAMES,
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

from conftest import GMSC_COLUMNS, make_gmsc_rows, write_gmsc_csv


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
}


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

    @pytest.mark.parametrize(
        "lines, message", list(MALFORMED.values()), ids=list(MALFORMED)
    )
    def test_malformed_file_message(self, tmp_path, lines, message):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as exc:
            load_gmsc_csv(path)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "lines, message", list(MALFORMED.values()), ids=list(MALFORMED)
    )
    def test_malformed_message_from_a_later_block(self, tmp_path, monkeypatch, lines, message):
        # three good rows, a blank line and a two-line quoted cell fill the
        # first block; the case's rows start the second, 6 lines further on
        monkeypatch.setattr(data, "_BLOCK_ROWS", 4)
        columns = lines[0].split(",")[1:]
        prefix = [_line(i, columns=columns) for i in (7, 8, 9)]
        prefix += ["", _line('"multi\nline"', columns=columns)]
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([lines[0], *prefix, *lines[1:]]) + "\n")
        with pytest.raises(ValueError) as exc:
            load_gmsc_csv(path)
        assert str(exc.value) == re.sub(
            r"row (\d+)", lambda m: f"row {int(m.group(1)) + 6}", message
        )

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a named pipe")
    def test_malformed_message_from_a_pipe(self, tmp_path):
        # a rejected block is parsed again, which a pipe cannot seek back to
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

    def test_header_only_file_is_empty_input(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text(_HEADER + "\n")
        table = load_gmsc_csv(path)
        assert len(table) == 0 and table.raw.shape == (0, 10)
        with pytest.raises(ValueError, match="empty-input"):
            preprocess(table)

    def test_blocks_equal_per_cell_parse_bit_for_bit(self, tmp_path, monkeypatch):
        rows = make_gmsc_rows(40, seed=14)
        income, dependents = GMSC_COLUMNS.index("MonthlyIncome"), GMSC_COLUMNS.index("NumberOfDependents")
        odd_optional = [" 12 ", "1_000", " na ", "NULL", "", "NaN", "\xa07\xa0", "\u0661\u0662"]
        for i, cell in enumerate(odd_optional):
            rows[i][income] = cell
            rows[-1 - i][dependents] = cell
        for i in range(0, 39, 3):
            rows[i][GMSC_COLUMNS.index("age")] = "-0"
            rows[i + 1][GMSC_COLUMNS.index("NumberOfTimes90DaysLate")] = "-0"
            rows[i + 2][GMSC_COLUMNS.index("DebtRatio")] = "-0.0"
        rows[20][GMSC_COLUMNS.index("age")] = "\u0664\u0665"
        rows[21][0] = " 1 "
        rows[22][1] = "\xa00.25"
        path = tmp_path / "odd.csv"
        write_gmsc_csv(path, rows)
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = [h.strip() for h in next(reader)]
            cells = [(header.index(name), *spec) for name, *spec in data._COLUMNS]
            expected = np.array(
                [[_parse_cell(row[i], *spec, "ref") for i, *spec in cells] for row in reader]
            )
        # 40 rows in six blocks, none of them sent to the row-by-row parse
        monkeypatch.setattr(data, "_BLOCK_ROWS", 7)
        monkeypatch.setattr(data, "_parse_cell", lambda *args: pytest.fail("block rejected"))
        table = load_gmsc_csv(path)
        assert table.labels.tobytes() == expected[:, 0].astype(np.int64).tobytes()
        assert table.raw.tobytes() == expected[:, 1:].tobytes()  # -0.0 signs included
        assert np.signbit(table.raw[:, FEATURE_NAMES.index("DebtRatio")]).sum() == 13
        assert not np.signbit(table.raw[:, FEATURE_NAMES.index("age")]).any()

    def test_peak_memory_is_bounded(self, tmp_path):
        # 80k rows make a 7 MB table; one Python float per cell peaked near
        # 36 MB, one block of rows at a time stays near 23 MB
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
        assert peak < 30e6, peak


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
        # refit by hand on the training rows and transform a held-out row
        manual = Scaler.fit(train.raw)
        np.testing.assert_array_equal(manual.lo, test.scaler.lo)
        np.testing.assert_array_equal(manual.hi, test.scaler.hi)
        np.testing.assert_allclose(
            test.features[0], manual.transform(test.raw[:1])[0], atol=1e-15
        )
        # train and test share one scaler object state
        np.testing.assert_array_equal(train.scaler.lo, test.scaler.lo)

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

    def test_array_dataset_passthrough(self):
        rng = np.random.default_rng(13)
        ds = dataset_from_arrays(rng.uniform(-1, 1, (40, 3)), rng.integers(0, 2, 40))
        train, test = split(ds, 0.25, seed=6)
        assert len(train) + len(test) == 40
        assert train.features.shape[1] == 3


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
