"""Give Me Some Credit CSV ingestion, preprocessing, and stratified splits.

The public training file has one label column and ten feature columns; the
loader matches columns by header name (any order, optional unnamed index
column first), rejects anything malformed with the offending row number, and
returns a RawTable: the labels and the raw feature matrix, NaN where an
optional cell is missing.

numpy's C reader (``np.loadtxt``) reads the data rows, with a converter for
the two optional columns' missing-value tokens that parses each distinct
cell text once per file (``_OptionalCells``), and numpy checks of
``_parse_cell``'s rules on whole columns may only refuse.  A refused file is
parsed again from the top, row by row: that strict parse alone words errors.

Preprocessing policy: impute missing MonthlyIncome with the training
median and missing NumberOfDependents with 0, winsorize every column at
the 1st/99th percentiles (the file contains utilization ratios above 50000
that would otherwise flatten the spline grid), then scale each column
affinely onto [-1, 1] to match the network's grid domain.  A preprocessed
Dataset keeps its raw column matrix so that ``split`` can refit the scaler
on the training rows only; the parts ``split`` returns keep none.

The scaler is fitted one column at a time: a contiguous copy of the column,
filled and sorted in place, gives the winsorizing bounds as numpy's linear
(Hyndman & Fan type 7) interpolation of its two neighbouring order
statistics, the numbers ``np.quantile`` returns on the whole matrix.
``split`` gathers each part's raw rows once; the training rows are fitted
on, and each part's rows are filled and scaled in place.

Writing: ``_fmt`` is the package's one spelling of a value in an artifact or
summary line, a float (numpy scalars too) as Python's round-trip repr, never
``np.float64(...)``.  ``_write_csv`` streams a CSV in blocks of
``_CSV_BLOCK`` rows, so it holds one block's strings, never the whole file.
A block of equal-length rows is spelled a column at a time: a column of
plain ints and floats, whose ``_fmt`` is their repr, by one ``repr`` of the
column as a list, split at its separators; every other cell by ``_fmt``.
"""

from __future__ import annotations

import csv
import io
import math
import re
import warnings
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

__all__ = [
    "RawTable",
    "PreprocessPolicy",
    "Scaler",
    "Dataset",
    "FEATURE_NAMES",
    "LABEL_NAME",
    "load_gmsc_csv",
    "preprocess",
    "split",
    "dataset_from_arrays",
    "write_dataset_csv",
    "write_scaler_text",
]

LABEL_NAME = "SeriousDlqin2yrs"

# (csv column, parse kind, may be missing, must be >= 0), in RawTable order
_COLUMNS = [
    (LABEL_NAME, "label", False, True),
    ("RevolvingUtilizationOfUnsecuredLines", "float", False, True),
    ("age", "int", False, False),
    ("NumberOfTime30-59DaysPastDueNotWorse", "int", False, True),
    ("DebtRatio", "float", False, True),
    ("MonthlyIncome", "float", True, True),
    ("NumberOfOpenCreditLinesAndLoans", "int", False, True),
    ("NumberOfTimes90DaysLate", "int", False, True),
    ("NumberRealEstateLoansOrLines", "int", False, True),
    ("NumberOfTime60-89DaysPastDueNotWorse", "int", False, True),
    ("NumberOfDependents", "int", True, True),
]

FEATURE_NAMES = tuple(name for name, *_ in _COLUMNS[1:])

_MISSING_TOKENS = {"", "na", "nan", "null"}
_NONE_TOKEN = "none"  # an unset setting in a manifest or config file
_CSV_BLOCK = 1024  # rows that _csv_lines spells at a time
# cell types whose _fmt spelling is their repr (exact types: a bool is spelled
# true/false and a numpy scalar's repr names its type)
_PLAIN_CELLS = frozenset((int, float))

@dataclass(frozen=True)
class RawTable:
    """Parsed GMSC rows: labels (n,) int64 and raw features (n, 10), NaN where missing."""

    labels: np.ndarray
    raw: np.ndarray

    def __len__(self) -> int:
        return self.labels.shape[0]


@dataclass(frozen=True)
class PreprocessPolicy:
    lower_quantile: float = 0.01
    upper_quantile: float = 0.99

    def __post_init__(self):
        if not 0.0 <= self.lower_quantile < self.upper_quantile <= 1.0:
            raise ValueError(
                f"invalid-policy: need 0 <= lower < upper <= 1, got "
                f"({self.lower_quantile}, {self.upper_quantile})"
            )


@dataclass(frozen=True)
class Scaler:
    """Per-column imputation value plus winsorized [lo, hi] scaling bounds.

    ``lo`` and ``hi`` are ``np.quantile(filled, q, axis=0)`` bit for bit,
    ``filled`` being the raw matrix with each NaN imputed, but for the sign
    of a zero bound: a sorted column and numpy's partition may order
    ``0.0`` and ``-0.0`` differently.  The scaled features do not see that
    sign, since ``-1 + 2 * (x - lo) / span`` loses it.
    """

    impute: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    @classmethod
    def fit(cls, raw: np.ndarray, policy: PreprocessPolicy = PreprocessPolicy()) -> "Scaler":
        """Impute values and bounds from one filled and sorted column at a time.

        A column that holds an infinity after imputation is a coded
        ``non-finite-input`` error: its bounds would be NaN.  A matrix with
        no rows is ``empty-input``.
        """
        n_rows, n_cols = raw.shape
        if n_rows == 0:
            raise ValueError("empty-input: no rows to fit the scaler on")
        impute = np.zeros(n_cols)
        income_col = FEATURE_NAMES.index("MonthlyIncome")
        observed = raw[:, income_col]
        observed = observed[~np.isnan(observed)]
        with np.errstate(invalid="ignore"):  # a NaN median of infinities is refused below
            impute[income_col] = float(np.median(observed)) if observed.size else 0.0
        # numpy's linear quantile is order statistics i and i + 1 interpolated at
        # gamma = v - i, where v = (n - 1) * q and i = floor(v); it gives the
        # same number from those two alone, where v = gamma and i = 0
        cuts = []
        for q in (policy.lower_quantile, policy.upper_quantile):
            v = (n_rows - 1) * q
            i = math.floor(v)
            cuts.append((i, v - i))
        lo, hi = np.empty(n_cols), np.empty(n_cols)
        for j in range(n_cols):
            col = raw[:, j].copy()
            col[np.isnan(col)] = impute[j]
            col.sort()
            if not (np.isfinite(col[0]) and np.isfinite(col[-1])):  # sorted: any inf or NaN is at an end
                raise ValueError(f"non-finite-input: column {j}")
            lo[j], hi[j] = (np.quantile(col[i : i + 2], gamma) for i, gamma in cuts)
        return cls(impute=impute, lo=lo, hi=hi)

    def transform(self, raw: np.ndarray) -> np.ndarray:
        """-1 + 2 * (clip(filled) - lo) / span, in a new array; 0 where span <= 0."""
        return self._scale(np.array(raw, dtype=np.float64))

    def _scale(self, out: np.ndarray) -> np.ndarray:
        """``transform`` of the raw rows in ``out``, written over them."""
        np.copyto(out, self.impute, where=np.isnan(out))
        np.clip(out, self.lo, self.hi, out=out)
        out -= self.lo
        out *= 2.0
        span = self.hi - self.lo
        with np.errstate(invalid="ignore", divide="ignore"):
            out /= span
        out += -1.0
        out[:, ~(span > 0)] = 0.0
        return out


@dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple
    scaler: Scaler | None = None
    raw: np.ndarray | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return self.labels.shape[0]


def _fmt(value) -> str:
    """The one spelling of a value in an artifact or summary line; a float as Python's repr."""
    if value is None:
        return _NONE_TOKEN
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))  # plain float repr even for numpy scalars
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def _spelled(column) -> list:
    """``_fmt`` of each cell; a column of plain ints and floats is spelled by one list repr."""
    if _PLAIN_CELLS.issuperset(map(type, column)):
        return repr(list(column))[1:-1].split(", ")
    return list(map(_fmt, column))


def _csv_lines(header, rows):
    """The text of a CSV artifact: the header line, then each block of rows as whole lines.

    A block whose rows all have one nonzero length is spelled a column at a
    time (``_spelled``); any other block row by row.  Either way each cell
    reads as ``_fmt`` spells it.
    """
    yield ",".join(header) + "\n"
    rows = iter(rows)
    while block := list(islice(rows, _CSV_BLOCK)):
        if len(set(map(len, block))) == 1 and block[0]:
            lines = map(",".join, zip(*map(_spelled, zip(*block))))
        else:
            lines = (",".join(map(_fmt, row)) for row in block)
        yield "\n".join(lines) + "\n"


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_csv_lines(header, rows))


def _parse_cell(cell: str, kind: str, optional: bool, nonneg: bool, where: str) -> float:
    text = cell.strip()
    if text.lower() in _MISSING_TOKENS:
        if optional:
            return math.nan
        raise ValueError(f"parse-error({where}): missing value in required column")
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"parse-error({where}): not a number: {text!r}") from None
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"parse-error({where}): non-finite value: {text!r}")
    if nonneg and value < 0:
        raise ValueError(f"parse-error({where}): negative value: {text!r}")
    if kind == "float":
        return value
    if kind == "label" and value not in (0.0, 1.0):
        raise ValueError(f"parse-error({where}): label must be 0 or 1: {text!r}")
    whole = int(value)
    if value != whole:
        raise ValueError(f"parse-error({where}): expected an integer: {text!r}")
    return float(whole)  # "-0" is the integer 0, not -0.0


def _optional_cell(cell: str) -> float:
    """An optional cell for the C reader: NaN if missing; a NaN spelled any other way refuses."""
    if cell.strip().lower() in _MISSING_TOKENS:
        return math.nan
    value = float(cell)
    if math.isnan(value):
        raise ValueError(f"a NaN that is not a missing token: {cell!r}")
    return value


class _OptionalCells(dict):
    """``_optional_cell`` of each distinct cell text, kept once found; a refused cell is not kept.

    The C reader calls ``__getitem__``, a C method, so a cell seen before
    costs no Python frame: the 300k optional cells of a 150k-row file hold
    about 20k distinct texts.
    """

    def __missing__(self, cell: str) -> float:
        value = self[cell] = _optional_cell(cell)
        return value


def _read_columns(fh, width, cells) -> np.ndarray:
    """The rest of ``fh`` by numpy's C reader, in schema order; ValueError where a cell might be refused."""
    optional_cell = _OptionalCells().__getitem__  # one cache per read, shared by both columns
    converters = {index: optional_cell for index, _, optional, _ in cells if optional}
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)  # a file without data rows warns
        rows = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, converters=converters,
                          encoding=None)  # str cells: numpy < 2.0 hands converters latin1 bytes
    if rows.shape[1] != width:  # rows that are all one width too short or too long still parse
        raise ValueError("a row of the wrong width")
    for index, kind, optional, nonneg in cells:
        col = rows[:, index]
        ok = np.isfinite(col) & ((col >= 0) | (not nonneg))
        if kind != "float":
            ok &= (col == np.floor(col)) & ((col <= 1) | (kind != "label"))
            col += 0.0  # "-0" is the integer 0
        if not (ok | (optional & np.isnan(col))).all():
            raise ValueError("a cell needs the row-by-row parse")
    order = [index for index, *_ in cells]  # a slice where it can be, so no copy
    return rows[:, order] if np.any(np.diff(order) != 1) else rows[:, order[0] : order[-1] + 1]


def _parse_table(fh) -> np.ndarray:
    """The checked header, then the data rows as an (n, 11) array in schema order."""
    header = next(csv.reader(fh), None)
    if header is None:
        raise ValueError("header-mismatch: file is empty")
    offset = 1 if header and header[0].strip() == "" else 0
    names = [h.strip() for h in header[offset:]]
    wanted = {name for name, *_ in _COLUMNS}
    if set(names) != wanted:
        missing = sorted(wanted - set(names))
        extra = sorted(set(names) - wanted)
        raise ValueError(f"header-mismatch: missing columns {missing}, unexpected {extra}")
    duplicates = sorted(name for name in wanted if names.count(name) > 1)
    if duplicates:
        raise ValueError(f"header-mismatch: duplicate columns {duplicates}")
    cells = [(offset + names.index(name), *spec) for name, *spec in _COLUMNS]
    try:
        return _read_columns(fh, len(header), cells)
    except (ValueError, UserWarning):  # bytes that are not UTF-8 too
        fh.seek(0)  # the row-by-row parse is the only code that words an error
    reader = csv.reader(fh)
    next(reader)
    values = []
    for row in filter(None, reader):  # csv reads a blank line as an empty row
        where = f"row {reader.line_num}"
        if len(row) != len(header):
            raise ValueError(f"parse-error({where}): expected {len(header)} cells, got {len(row)}")
        values += [_parse_cell(row[index], *spec, where) for index, *spec in cells]
    return np.array(values, dtype=np.float64).reshape(-1, len(_COLUMNS))


def _utf8_error(data: bytes) -> str:
    """The parse-error naming the file line of the first bytes in ``data`` that are not UTF-8."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(re.findall(rb"\r\n|\r|\n", data[: exc.start])) + 1  # where csv ends a line
        return f"parse-error(row {line}): not UTF-8: {exc.reason} {data[exc.start]:#04x}"


def load_gmsc_csv(path) -> RawTable:
    """Parse the GMSC training CSV into a RawTable, strictly."""
    with open(path, "rb") as stream:
        if not stream.seekable():  # a pipe: hold its bytes, so a refused fast read can start over
            stream = io.BytesIO(stream.read())
        # utf-8-sig drops a leading byte-order mark, after a seek(0) too
        fh = io.TextIOWrapper(stream, encoding="utf-8-sig", newline="")  # lives until the file closes
        try:
            table = _parse_table(fh)
        except UnicodeDecodeError:
            stream.seek(0)
            raise ValueError(_utf8_error(stream.read())) from None
    return RawTable(labels=table[:, 0].astype(np.int64), raw=table[:, 1:])


def preprocess(table: RawTable) -> Dataset:
    """RawTable -> normalized Dataset; keeps the raw matrix, for ``split`` to refit on."""
    if not len(table):
        raise ValueError("empty-input: no records to preprocess")
    scaler = Scaler.fit(table.raw)
    return Dataset(
        features=scaler.transform(table.raw),
        labels=table.labels,
        feature_names=FEATURE_NAMES,
        scaler=scaler,
        raw=table.raw,
    )


def split(dataset: Dataset, test_fraction: float, seed: int):
    """Stratified train/test split into two parts without a raw matrix.

    A dataset with a raw matrix (from ``preprocess``) gets a scaler refit on
    its training rows only, and each part is that scaler's transform of its
    raw rows, gathered once and scaled in place.  One without (from
    ``dataset_from_arrays``, or a part of an earlier split) is split by
    indexing its features, and both parts keep its scaler.  A label other
    than 0 or 1 raises ``invalid-label``, and a fraction that leaves either
    part without a row of each class raises ``empty-split``.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"invalid-fraction: need 0 < fraction < 1, got {test_fraction}")
    if seed < 0:
        raise ValueError(f"invalid-seed: need seed >= 0, got {seed}")
    labels = _binary(dataset.labels)
    rng = np.random.default_rng(seed)
    test_idx = []
    for cls in (0, 1):
        members = np.flatnonzero(labels == cls)
        if members.size and members.size < 2:
            raise ValueError(f"class-too-small: class {cls} has {members.size} member")
        members = members[rng.permutation(members.size)]
        n_test = int(round(members.size * test_fraction))
        for part, n in (("train", members.size - n_test), ("test", n_test)):
            if n == 0:
                raise ValueError(
                    f"empty-split: test fraction {test_fraction} leaves no class-{cls} "
                    f"row in the {part} part"
                )
        test_idx.append(members[:n_test])
    test_idx = np.sort(np.concatenate(test_idx))
    mask = np.zeros(len(dataset), dtype=bool)
    mask[test_idx] = True
    train_idx = np.flatnonzero(~mask)

    rows = dataset.features if dataset.raw is None else dataset.raw
    train_rows = rows[train_idx]  # each part's rows are gathered once
    if dataset.raw is None:
        scaler, features = dataset.scaler, lambda part: part
    else:
        scaler = Scaler.fit(train_rows)
        features = scaler._scale  # in place: a gathered part is its own copy
    make = lambda part, idx: Dataset(features(part), labels[idx], dataset.feature_names, scaler)
    train = make(train_rows, train_idx)
    # the test part is gathered once the training part is built, off its peak
    return train, make(rows[test_idx], test_idx)


def _binary(labels) -> np.ndarray:
    """``labels`` as an array, else ``invalid-label`` if one is not 0 or 1."""
    labels = np.asarray(labels)
    if not np.all((labels == 0) | (labels == 1)):
        raise ValueError("invalid-label: labels must be 0 or 1")
    return labels


def dataset_from_arrays(features, labels) -> Dataset:
    """Wrap plain arrays as a Dataset with columns x0, x1, ... (no scaler, no raw matrix).

    Labels must be 0 or 1.  Without a raw matrix, ``split`` cuts it by
    indexing the features.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = _binary(labels).astype(np.int64)
    if features.ndim != 2 or labels.shape != (features.shape[0],):
        raise ValueError(
            f"dimension-mismatch: features {features.shape} vs labels {labels.shape}"
        )
    feature_names = tuple(f"x{i}" for i in range(features.shape[1]))
    return Dataset(features=features, labels=labels, feature_names=feature_names)


def write_dataset_csv(dataset: Dataset, path) -> None:
    """Audit dump: label plus normalized feature columns, one block of rows in memory at a time."""
    rows = ((y, *x.tolist()) for y, x in zip(dataset.labels.tolist(), dataset.features))
    _write_csv(path, ("label", *dataset.feature_names), rows)


def write_scaler_text(scaler: Scaler, feature_names, path) -> None:
    """Scaler sidecar as key=value lines, one triple per column."""
    with open(path, "w", encoding="utf-8") as fh:
        for j, name in enumerate(feature_names):
            for part, values in (("impute", scaler.impute), ("lo", scaler.lo), ("hi", scaler.hi)):
                fh.write(f"{name}.{part}={_fmt(values[j])}\n")
