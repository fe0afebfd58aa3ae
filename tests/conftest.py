"""Shared fixtures: toy datasets and a synthetic GMSC-format CSV factory."""

import csv
import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

GMSC_COLUMNS = [
    "SeriousDlqin2yrs",
    "RevolvingUtilizationOfUnsecuredLines",
    "age",
    "NumberOfTime30-59DaysPastDueNotWorse",
    "DebtRatio",
    "MonthlyIncome",
    "NumberOfOpenCreditLinesAndLoans",
    "NumberOfTimes90DaysLate",
    "NumberRealEstateLoansOrLines",
    "NumberOfTime60-89DaysPastDueNotWorse",
    "NumberOfDependents",
]


@pytest.fixture
def toy_dataset():
    """Linearly separable 2-feature set with a margin around the boundary."""
    rng = np.random.default_rng(0)
    rows = []
    while len(rows) < 80:
        x = rng.uniform(-1.0, 1.0, size=2)
        s = x.sum()
        if abs(s) > 0.2:
            rows.append((x, 1 if s > 0 else 0))
    features = np.array([r[0] for r in rows])
    labels = np.array([r[1] for r in rows], dtype=np.int64)
    return SimpleNamespace(features=features, labels=labels)


def make_gmsc_rows(n, seed):
    """Synthetic rows in the GMSC schema with a planted default signal."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        revolving = float(rng.uniform(0, 1.3)) * (50.0 if rng.random() < 0.01 else 1.0)
        age = int(rng.integers(21, 91))
        late30 = int(rng.poisson(0.25))
        debt_ratio = float(abs(rng.normal(0.35, 0.4))) * (
            100.0 if rng.random() < 0.02 else 1.0
        )
        income = None if rng.random() < 0.2 else int(rng.lognormal(8.6, 0.7))
        open_lines = int(rng.poisson(8))
        late90 = int(rng.poisson(0.09))
        real_estate = int(rng.poisson(1.0))
        late60 = int(rng.poisson(0.06))
        dependents = None if rng.random() < 0.025 else int(rng.poisson(0.75))
        z = -2.6 + 1.8 * min(revolving, 1.5) + 0.8 * late30 + 1.5 * late90 + 0.9 * late60
        label = int(rng.random() < 1.0 / (1.0 + np.exp(-z)))
        rows.append(
            [
                label,
                revolving,
                age,
                late30,
                debt_ratio,
                income,
                open_lines,
                late90,
                real_estate,
                late60,
                dependents,
            ]
        )
    return rows


def write_gmsc_csv(path, rows, header=None, index_col=True):
    header = list(header if header is not None else GMSC_COLUMNS)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(([""] if index_col else []) + header)
        for i, row in enumerate(rows, start=1):
            cells = ["NA" if v is None else v for v in row]
            writer.writerow(([i] if index_col else []) + cells)


@pytest.fixture
def gmsc_csv(tmp_path):
    """Path to a 400-row synthetic CSV in the canonical column order."""
    path = tmp_path / "synthetic.csv"
    write_gmsc_csv(path, make_gmsc_rows(400, seed=7))
    return path


def patch_chunk_rows(monkeypatch, rows):
    """Give every network ``rows`` rows per chunk: ``network._chunk_rows`` alone sizes the grid."""
    monkeypatch.setattr("kancredit.network._chunk_rows", lambda net: rows)


def find_real_gmsc():
    """Locate the real GMSC training file, if the user provided one."""
    env = os.environ.get("KANCREDIT_GMSC")
    candidates = [env] if env else []
    here = Path(__file__).resolve().parent.parent
    candidates += [here / "data" / "cs-training.csv", Path("data/cs-training.csv")]
    for cand in candidates:
        if cand and Path(cand).is_file():
            return Path(cand)
    return None
