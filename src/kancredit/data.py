"""Give Me Some Credit CSV ingestion, preprocessing, and stratified splits.

The public training file has one label column and ten feature columns; the
loader matches columns by header name (any order, optional unnamed index
column first), rejects anything malformed with the offending row number, and
returns a RawTable: the labels and the raw feature matrix, NaN where an
optional cell is missing.

The loader parses ``_BLOCK_ROWS`` rows at a time, column by column, with
``_parse_cell``'s rules as numpy checks that may only reject.  A file with a
block they reject is parsed again from the top, row by row through
``_parse_cell``: that strict parse alone words a ``parse-error(row N)``.

Preprocessing policy: impute missing MonthlyIncome with the training
median and missing NumberOfDependents with 0, winsorize every column at
the 1st/99th percentiles (the file contains utilization ratios above 50000
that would otherwise flatten the spline grid), then scale each column
affinely onto [-1, 1] to match the network's grid domain.  A Dataset keeps
its raw column matrix so that a later split can refit the scaler on the
training rows only.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from itertools import compress, islice

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

_BLOCK_ROWS = 16384  # rows per column-wise parse block


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
    """Per-column imputation value plus winsorized [lo, hi] scaling bounds."""

    impute: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    @classmethod
    def fit(cls, raw: np.ndarray, policy: PreprocessPolicy = PreprocessPolicy()) -> "Scaler":
        n_cols = raw.shape[1]
        impute = np.zeros(n_cols)
        income_col = FEATURE_NAMES.index("MonthlyIncome")
        observed = raw[:, income_col]
        observed = observed[~np.isnan(observed)]
        impute[income_col] = float(np.median(observed)) if observed.size else 0.0
        filled = np.where(np.isnan(raw), impute[None, :], raw)
        qs = [policy.lower_quantile, policy.upper_quantile]
        lo, hi = np.quantile(filled, qs, axis=0, overwrite_input=True)  # filled is our own copy
        return cls(impute=impute, lo=lo, hi=hi)

    def transform(self, raw: np.ndarray) -> np.ndarray:
        """-1 + 2 * (clip(filled) - lo) / span, computed in place; 0 where span <= 0."""
        out = np.where(np.isnan(raw), self.impute, raw)
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


def _parse_column(col, kind, optional, nonneg) -> np.ndarray:
    """A block's column as ``_parse_cell`` parses it; ValueError where it might refuse a cell."""
    keep = np.ones(len(col), dtype=bool)
    if optional:
        tokens = map(str.lower, map(str.strip, col))
        keep = ~np.fromiter(map(_MISSING_TOKENS.__contains__, tokens), bool, len(col))
    values = np.full(len(col), math.nan)
    values[keep] = np.fromiter(map(float, compress(col, keep.tolist())), np.float64)
    ok = np.isfinite(values) & ((values >= 0) | (not nonneg))
    if kind != "float":
        ok &= (values == np.floor(values)) & ((values <= 1) | (kind != "label"))
    if not (ok | ~keep).all():
        raise ValueError("a cell needs the row-by-row parse")
    return values if kind == "float" else values + 0.0  # "-0" is the integer 0


def _parse_blocks(rows, width, cells) -> np.ndarray | None:
    """The rows ``_BLOCK_ROWS`` at a time, column by column; None if a block might hold an error."""
    blocks = [np.empty((0, len(cells)))]
    try:
        while block := list(islice(rows, _BLOCK_ROWS)):
            if set(map(len, block)) != {width}:
                return None
            columns = list(zip(*block))
            blocks.append(np.column_stack([_parse_column(columns[i], *spec) for i, *spec in cells]))
    except (ValueError, csv.Error):
        return None
    return np.concatenate(blocks)


def load_gmsc_csv(path) -> RawTable:
    """Parse the GMSC training CSV into a RawTable, strictly."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        if not fh.seekable():  # a pipe: hold its text, so a rejected block can be read again
            fh = io.StringIO(fh.read(), newline="")
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("header-mismatch: file is empty") from None
        offset = 1 if header and header[0].strip() == "" else 0
        names = [h.strip() for h in header[offset:]]
        wanted = {name for name, *_ in _COLUMNS}
        if set(names) != wanted:
            missing = sorted(wanted - set(names))
            extra = sorted(set(names) - wanted)
            raise ValueError(
                f"header-mismatch: missing columns {missing}, unexpected {extra}"
            )
        duplicates = sorted(name for name in wanted if names.count(name) > 1)
        if duplicates:
            raise ValueError(f"header-mismatch: duplicate columns {duplicates}")
        cells = [(offset + names.index(name), *spec) for name, *spec in _COLUMNS]
        table = _parse_blocks(filter(None, reader), len(header), cells)
        if table is None:  # the row-by-row parse is the only code that words an error
            fh.seek(0)
            reader = csv.reader(fh)
            next(reader)
            values = []
            for row in reader:
                if not row:
                    continue
                where = f"row {reader.line_num}"
                if len(row) != len(header):
                    raise ValueError(
                        f"parse-error({where}): expected {len(header)} cells, got {len(row)}"
                    )
                for index, kind, optional, nonneg in cells:
                    values.append(_parse_cell(row[index], kind, optional, nonneg, where))
            table = np.array(values, dtype=np.float64).reshape(-1, len(_COLUMNS))
    return RawTable(labels=table[:, 0].astype(np.int64), raw=table[:, 1:])


def preprocess(table: RawTable) -> Dataset:
    """RawTable -> normalized Dataset; keeps the raw matrix for later refits."""
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
    """Stratified train/test split; the scaler is refit on training rows only.

    Datasets without a raw matrix (built directly from arrays) are split by
    indexing the features as-is.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"invalid-fraction: need 0 < fraction < 1, got {test_fraction}")
    if seed < 0:
        raise ValueError(f"invalid-seed: need seed >= 0, got {seed}")
    labels = dataset.labels
    rng = np.random.default_rng(seed)
    test_idx = []
    for cls in (0, 1):
        members = np.flatnonzero(labels == cls)
        if members.size and members.size < 2:
            raise ValueError(f"class-too-small: class {cls} has {members.size} member")
        members = members[rng.permutation(members.size)]
        n_test = int(round(members.size * test_fraction))
        test_idx.append(members[:n_test])
    test_idx = np.sort(np.concatenate(test_idx))
    mask = np.zeros(len(dataset), dtype=bool)
    mask[test_idx] = True
    train_idx = np.flatnonzero(~mask)

    if dataset.raw is not None:
        raw_train = dataset.raw[train_idx]
        scaler = Scaler.fit(raw_train)
        make = lambda idx, raw: Dataset(
            features=scaler.transform(raw),
            labels=labels[idx],
            feature_names=dataset.feature_names,
            scaler=scaler,
            raw=raw,
        )
        # the test rows are gathered after the training part is built, off its peak
        return make(train_idx, raw_train), make(test_idx, dataset.raw[test_idx])
    make = lambda idx: Dataset(
        features=dataset.features[idx],
        labels=labels[idx],
        feature_names=dataset.feature_names,
        scaler=dataset.scaler,
    )
    return make(train_idx), make(test_idx)


def dataset_from_arrays(features, labels) -> Dataset:
    """Wrap plain arrays as a Dataset with columns x0, x1, ... (no scaler, no raw matrix)."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if features.ndim != 2 or labels.shape != (features.shape[0],):
        raise ValueError(
            f"dimension-mismatch: features {features.shape} vs labels {labels.shape}"
        )
    feature_names = tuple(f"x{i}" for i in range(features.shape[1]))
    return Dataset(features=features, labels=labels, feature_names=feature_names)


def write_dataset_csv(dataset: Dataset, path) -> None:
    """Audit dump: label plus normalized feature columns."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["label", *dataset.feature_names])
        for y, row in zip(dataset.labels, dataset.features):
            writer.writerow([int(y), *[repr(float(v)) for v in row]])


def write_scaler_text(scaler: Scaler, feature_names, path) -> None:
    """Scaler sidecar as key=value lines, one triple per column."""
    lines = []
    for j, name in enumerate(feature_names):
        lines.append(f"{name}.impute={scaler.impute[j]!r}")
        lines.append(f"{name}.lo={scaler.lo[j]!r}")
        lines.append(f"{name}.hi={scaler.hi[j]!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
