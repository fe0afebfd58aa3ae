"""Seeded benchmark inputs, cached per seed and built outside the measured process.

A fixture directory holds ``gmsc.csv`` (rows from
``tests/conftest.make_gmsc_rows``), ``test_split.npz`` (the test split the CLI
derives from it with its default split seed, for the harness's own ROC_AUC
check) and ``model.json`` (the checkpoint ``score_explain_10x4x1`` loads,
trained on the train split and saved with ``kancredit.network.save_network``).
``manifest.json`` records each file's sha256 and a digest of the sources the
build runs (``src/kancredit/*.py`` and ``tests/conftest.py``); a fixture whose
files or sources do not match it is rebuilt, so a cached split or checkpoint
is always the one the checkout's own code makes.

Building runs in a child process (``python3 fixtures.py build ...``) so that
neither its time nor its memory reaches any metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

MANIFEST = "manifest.json"
NAMES = ("gmsc.csv", "test_split.npz", "model.json")
KEEP = 16  # most recently used fixtures kept; about 13 MB each at 150k rows
TEST_FRACTION = 0.2
SPLIT_SEED = 42  # the CLI's default --seed


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def source_digest(root: Path) -> str:
    """sha256 over the package sources and the row generator, in path order."""
    digest = hashlib.sha256()
    for path in [*sorted((root / "src" / "kancredit").glob("*.py")), root / "tests" / "conftest.py"]:
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(sha256(path).encode())
    return digest.hexdigest()


def _valid(dest: Path, names, sources: str) -> bool:
    try:
        manifest = json.loads((dest / MANIFEST).read_text())
        recorded = manifest["files"]
    except (OSError, ValueError, KeyError):
        return False
    return manifest.get("sources") == sources and all(
        name in recorded and (dest / name).is_file() and sha256(dest / name) == recorded[name]
        for name in names
    )


def ensure(root: Path, cache: Path, seed: int, rows: int, model: dict, timeout: float) -> Path:
    """Return a valid fixture directory for ``seed``, building it if needed.

    ``model`` holds the ``TrainConfig`` fields of the score checkpoint.
    Fixtures beyond the ``KEEP`` most recently used are deleted.
    """
    dest = cache / f"rows{rows}-seed{seed}"
    sources = source_digest(root)
    if not _valid(dest, NAMES, sources):
        _build_in_child(root, dest, seed, rows, model, timeout)
        if not _valid(dest, NAMES, sources):
            raise RuntimeError(f"fixture {dest.name} does not match its manifest after a build")
    os.utime(dest)
    for stale in sorted(cache.glob("rows*-seed*"), key=lambda d: d.stat().st_mtime)[:-KEEP]:
        shutil.rmtree(stale, ignore_errors=True)
    return dest


def _build_in_child(root: Path, dest: Path, seed: int, rows: int, model: dict, timeout: float) -> None:
    cmd = [sys.executable, str(Path(__file__).resolve()), "build", str(root), str(dest),
           "--seed", str(seed), "--rows", str(rows), "--model", json.dumps(model)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"fixture build failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")


def build(root: Path, dest: Path, seed: int, rows: int, model: dict) -> None:
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    import numpy as np

    from conftest import make_gmsc_rows, write_gmsc_csv
    from kancredit.data import load_gmsc_csv, preprocess, split
    from kancredit.network import save_network
    from kancredit.training import TrainConfig, train

    dest.parent.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="build-", dir=dest.parent))
    try:
        write_gmsc_csv(work / "gmsc.csv", make_gmsc_rows(rows, seed))
        train_ds, test_ds = split(preprocess(load_gmsc_csv(work / "gmsc.csv")), TEST_FRACTION, SPLIT_SEED)
        np.savez(work / "test_split.npz", features=test_ds.features, labels=test_ds.labels)
        net, _ = train(train_ds, TrainConfig(seed=seed, **model))
        save_network(net, work / "model.json")
        manifest = {"seed": seed, "rows": rows, "model": model, "sources": source_digest(root),
                    "files": {name: sha256(work / name) for name in NAMES}}
        (work / MANIFEST).write_text(json.dumps(manifest, indent=1) + "\n")
        shutil.rmtree(dest, ignore_errors=True)
        os.replace(work, dest)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="fixtures.py")
    parser.add_argument("command", choices=["build"])
    parser.add_argument("root", type=Path)
    parser.add_argument("dest", type=Path)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rows", type=int, required=True)
    parser.add_argument("--model", type=json.loads, required=True, help="TrainConfig fields, JSON")
    ns = parser.parse_args(argv)
    build(ns.root, ns.dest, ns.seed, ns.rows, ns.model)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
