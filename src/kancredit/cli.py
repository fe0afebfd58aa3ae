"""Command-line surface: train, eval, explain, sweep, export-dot, curves.

Every artifact-producing run writes a ``manifest.txt`` of resolved settings
into its output directory. A manifest is itself a valid ``--config`` file, so
``kancredit train --config runA/manifest.txt --out runB`` reproduces runA's
metric files byte-for-byte. Precedence is defaults < config file < flags.

Exit codes: 0 success, 1 internal error, 2 usage or data error. Data and
configuration failures print one ``error: <code>: <detail>`` line to stderr,
where ``<code>`` is the machine-readable prefix carried by the exception.
"""

import argparse
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .data import load_gmsc_csv, preprocess, split, write_dataset_csv, write_scaler_text
from .explain import (
    decision_path,
    decision_path_text,
    edge_scores,
    export_dot,
    propagate_scores,
    sample_activation_curves,
)
from .metrics import classification_report, roc_curve
from .network import load_network, network_probabilities, save_network
from .training import TrainConfig, train

__all__ = ["main"]

GRID_SWEEP = (3, 10, 50, 80)
LR_SWEEP = (0.1, 0.01, 0.001)
SWEEP_WIDTH = (10, 1)
SWEEP_DEGREE = 4
GRID_SWEEP_LR = 0.1
GRID_SWEEP_STEPS = 100
LR_SWEEP_GRID = 10
LR_SWEEP_STEPS = 200

_NONE_TOKEN = "none"


# ---------------------------------------------------------------------------
# Config plumbing: typed keys, config files, manifests.
# ---------------------------------------------------------------------------


def _parse_width(text: str):
    try:
        widths = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(
            f"invalid-config: width must be comma-separated integers, got {text!r}"
        ) from None
    return widths


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"invalid-config: expected a boolean, got {text!r}")


def _parse_split_name(text: str) -> str:
    if text not in ("train", "test"):
        raise ValueError(f"invalid-config: split must be 'train' or 'test', got {text!r}")
    return text


@dataclass(frozen=True)
class _Key:
    """One setting: the config key, its ``--flag`` (``_`` as ``-``) and its type."""

    name: str
    convert: object
    default: object = None
    required: bool = False
    help: str | None = None


# every subcommand's settings, in --help order; the parser is built from them
_KEYS = {
    "train": (
        _Key("data", str, required=True, help="GMSC-format CSV"),
        _Key("out", str, required=True, help="output directory"),
        _Key("width", _parse_width, (10, 4, 1), help="layer widths, e.g. 10,4,1"),
        _Key("grid", int, 30, help="spline grid interval count"),
        _Key("k", int, 4, help="spline degree"),
        _Key("lr", float, 0.1, help="Adam learning rate"),
        _Key("steps", int, 100, help="training steps"),
        _Key("batch", int, -1, help="batch size, -1 for full batch"),
        _Key("seed", int, 42, help="seed for init, batching, and split"),
        _Key("test_fraction", float, 0.2),
        _Key("dump_data", _parse_bool, False,
             help="also write the preprocessed train/test CSVs and scaler"),
    ),
    "eval": (
        _Key("model", str, required=True, help="checkpoint JSON from train"),
        _Key("data", str, required=True, help="GMSC-format CSV"),
        _Key("out", str, required=True, help="output directory"),
        _Key("on", _parse_split_name, "test", help="train or test (default test)"),
        _Key("threshold", float, 0.5),
        _Key("seed", int, 42),
        _Key("test_fraction", float, 0.2),
        _Key("width", _parse_width, help="assert checkpoint widths"),
        _Key("grid", int, help="assert checkpoint grid"),
        _Key("k", int, help="assert checkpoint degree"),
    ),
    "explain": (
        _Key("model", str, required=True, help="checkpoint JSON from train"),
        _Key("data", str, required=True, help="GMSC-format CSV"),
        _Key("out", str, required=True, help="output directory"),
        _Key("on", _parse_split_name, "test"),
        _Key("seed", int, 42),
        _Key("test_fraction", float, 0.2),
        _Key("points", int, 100, help="samples per activation curve"),
        _Key("sample", int, help="also trace this row's decision path"),
    ),
    "sweep": (
        _Key("data", str, required=True, help="GMSC-format CSV"),
        _Key("out", str, required=True, help="output directory"),
        _Key("seed", int, 42),
        _Key("test_fraction", float, 0.2),
        _Key("parallel", int, 1, help="concurrent sweep cells (default 1)"),
    ),
    "export-dot": (
        _Key("model", str, required=True, help="checkpoint JSON from train"),
        _Key("data", str, required=True, help="GMSC-format CSV (edge widths come from data)"),
        _Key("out", str, help="output directory; stdout when omitted"),
        _Key("on", _parse_split_name, "test"),
        _Key("seed", int, 42),
        _Key("test_fraction", float, 0.2),
    ),
    "curves": (
        _Key("model", str, required=True, help="checkpoint JSON from train"),
        _Key("out", str, help="output directory; stdout when omitted"),
        _Key("points", int, 100),
    ),
}


def _read_config(path):
    pairs = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"invalid-config: line {lineno} of {path} is not key=value")
        key, _, value = line.partition("=")
        pairs.append((key.strip(), value.strip()))
    return pairs


def _resolve(command: str, ns) -> dict:
    """Merge defaults, the optional config file, and explicit flags."""
    keys = _KEYS[command]
    by_name = {k.name: k for k in keys}
    values = {k.name: k.default for k in keys}
    if ns.config is not None:
        for name, raw in _read_config(ns.config):
            if name == "command":
                if raw != command:
                    raise ValueError(
                        f"invalid-config: config file is for {raw!r}, not {command!r}"
                    )
                continue
            if name not in by_name:
                raise ValueError(f"invalid-config: unknown key {name!r} for {command}")
            values[name] = None if raw == _NONE_TOKEN else by_name[name].convert(raw)
    for key in keys:
        flag = getattr(ns, key.name)
        if flag is not None:
            values[key.name] = flag
    for key in keys:
        if key.required and values[key.name] is None:
            raise ValueError(f"invalid-config: {command} needs a value for {key.name!r}")
    return values


def _fmt(value) -> str:
    if value is None:
        return _NONE_TOKEN
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))  # plain float repr even for numpy scalars
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def _write_manifest(out_dir: Path, command: str, values: dict) -> None:
    lines = [f"command={command}"]
    lines += [f"{name}={_fmt(values[name])}" for name in sorted(values)]
    (out_dir / "manifest.txt").write_text("\n".join(lines) + "\n")


def _write_kv(path: Path, mapping: dict) -> None:
    lines = [f"{name}={_fmt(mapping[name])}" for name in sorted(mapping)]
    path.write_text("\n".join(lines) + "\n")


def _csv_text(header, rows) -> str:
    lines = [",".join(header)]
    lines += [",".join(_fmt(cell) for cell in row) for row in rows]
    return "\n".join(lines) + "\n"


def _write_csv(path: Path, header, rows) -> None:
    path.write_text(_csv_text(header, rows))


# ---------------------------------------------------------------------------
# Shared helpers.
# ---------------------------------------------------------------------------


def _load_split(values):
    table = load_gmsc_csv(values["data"])
    return split(preprocess(table), values["test_fraction"], values["seed"])


def _pick(train_ds, test_ds, name):
    return train_ds if name == "train" else test_ds


def _metric_report(net, dataset, threshold=0.5):
    probs = network_probabilities(net, dataset.features)
    return classification_report(probs, dataset.labels, threshold=threshold), probs


def _check_against_checkpoint(net, values):
    """Optional width/grid/k flags must agree with the loaded model."""
    stated = {
        "width": values.get("width"),
        "grid": values.get("grid"),
        "k": values.get("k"),
    }
    actual = {"width": tuple(net.widths), "grid": net.grid_count, "k": net.degree}
    for name, want in stated.items():
        if want is not None and want != actual[name]:
            raise ValueError(
                f"checkpoint-mismatch: {name} flag {want} disagrees with "
                f"checkpoint value {actual[name]}"
            )
    values.update(actual)


def _train_config(values) -> TrainConfig:
    return TrainConfig(
        widths=values["width"],
        grid_count=values["grid"],
        degree=values["k"],
        learning_rate=values["lr"],
        steps=values["steps"],
        batch_size=values["batch"],
        seed=values["seed"],
    )


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def cmd_train(ns) -> int:
    values = _resolve("train", ns)
    out = Path(values["out"])
    out.mkdir(parents=True, exist_ok=True)
    train_ds, test_ds = _load_split(values)
    cfg = _train_config(values)
    net, report = train(train_ds, cfg)
    save_network(net, out / "model.json")
    _write_csv(
        out / "loss.csv",
        ("step", "loss"),
        [(t + 1, loss) for t, loss in enumerate(report.loss_history)],
    )
    test_metrics = None
    for name, ds in (("train", train_ds), ("test", test_ds)):
        metrics, _ = _metric_report(net, ds)
        metrics["split"] = name
        _write_kv(out / f"metrics_{name}.txt", metrics)
        if name == "test":
            test_metrics = metrics
    if values["dump_data"]:
        write_dataset_csv(train_ds, out / "data_train.csv")
        write_dataset_csv(test_ds, out / "data_test.csv")
        write_scaler_text(train_ds.scaler, train_ds.feature_names, out / "scaler.txt")
    _write_manifest(out, "train", values)

    print(
        f"train: steps={cfg.steps} final_loss={float(report.loss_history[-1])!r} "
        f"test_roc_auc={test_metrics['roc_auc']!r} "
        f"test_f1_class0={test_metrics['class0_f1']!r} "
        f"seconds={report.seconds:.2f}"
    )
    print(f"train: wrote {out / 'model.json'}")
    return 0


def cmd_eval(ns) -> int:
    values = _resolve("eval", ns)
    net = load_network(values["model"])
    _check_against_checkpoint(net, values)
    out = Path(values["out"])
    out.mkdir(parents=True, exist_ok=True)
    train_ds, test_ds = _load_split(values)
    dataset = _pick(train_ds, test_ds, values["on"])
    metrics, probs = _metric_report(net, dataset, threshold=values["threshold"])
    metrics["split"] = values["on"]
    _write_kv(out / "metrics.txt", metrics)
    _write_csv(
        out / "roc.csv",
        ("fpr", "tpr", "threshold"),
        [(pt.fpr, pt.tpr, pt.threshold) for pt in roc_curve(probs, dataset.labels)],
    )
    _write_manifest(out, "eval", values)
    print(f"eval: split={values['on']} n={metrics['n_samples']}")
    print(f"eval: roc_auc={metrics['roc_auc']!r}")
    for cls in (0, 1):
        print(
            f"eval: class{cls} precision={metrics[f'class{cls}_precision']!r} "
            f"recall={metrics[f'class{cls}_recall']!r} f1={metrics[f'class{cls}_f1']!r}"
        )
    return 0


def cmd_explain(ns) -> int:
    values = _resolve("explain", ns)
    net = load_network(values["model"])
    train_ds, test_ds = _load_split(values)
    dataset = _pick(train_ds, test_ds, values["on"])
    # everything that can reject the input runs before the first write
    i = values["sample"]
    if i is not None and not 0 <= i < len(dataset.features):
        raise ValueError(f"index-out-of-range: sample {i} outside [0, {len(dataset.features)})")
    scores = edge_scores(net, dataset)
    curves = sample_activation_curves(net, values["points"])
    out = Path(values["out"])
    out.mkdir(parents=True, exist_ok=True)

    raw, normalized, ranking = propagate_scores(scores)
    ids = [f"x{p}" for p in range(net.widths[0])]
    rank_of = {p: r for r, p in enumerate(ranking)}
    _write_csv(
        out / "attribution.csv",
        ("feature", "score", "normalized_score", "rank"),
        [(ids[p], raw[p], normalized[p], rank_of[p]) for p in range(len(ids))],
    )
    (out / "structure.dot").write_text(export_dot(net, scores))
    _write_csv(out / "curves.csv", ("layer", "q", "p", "x", "phi"), curves)
    if i is not None:
        path = decision_path(net, dataset.features[i])
        _write_csv(
            out / "sample_path.csv",
            ("layer", "node", "input", "x", "phi", "share"),
            path.steps,
        )
        (out / "sample_path.txt").write_text(decision_path_text(path) + "\n")
        print(f"explain: sample={i} logit={path.logit!r}")
    _write_manifest(out, "explain", values)
    top = ", ".join(ids[p] for p in ranking[:3])
    print(f"explain: top features {top}")
    print(f"explain: wrote {out / 'attribution.csv'}")
    return 0


def _sweep_cell(values, train_ds, test_ds):
    """Train one sweep configuration, given as resolved `train` values.

    The cell manifest is a complete `train` manifest, so any cell can be
    reproduced standalone with `kancredit train --config <cell>/manifest.txt`.
    """
    cell_dir = Path(values["out"])
    cell_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    net, _ = train(train_ds, _train_config(values))
    seconds = time.perf_counter() - started
    save_network(net, cell_dir / "model.json")
    metrics, _ = _metric_report(net, test_ds)
    metrics["split"] = "test"
    _write_kv(cell_dir / "metrics.txt", metrics)
    _write_manifest(cell_dir, "train", values)
    return metrics["roc_auc"], metrics["class0_f1"], seconds


def cmd_sweep(ns) -> int:
    values = _resolve("sweep", ns)
    out = Path(values["out"])
    out.mkdir(parents=True, exist_ok=True)
    train_ds, test_ds = _load_split(values)

    base = {k.name: k.default for k in _KEYS["train"]} | {
        "data": values["data"],
        "width": SWEEP_WIDTH,
        "k": SWEEP_DEGREE,
        "seed": values["seed"],
        "test_fraction": values["test_fraction"],
    }
    cells = [
        base | {"out": str(out / f"grid_{g}"), "grid": g, "lr": GRID_SWEEP_LR,
                "steps": GRID_SWEEP_STEPS}
        for g in GRID_SWEEP
    ] + [
        base | {"out": str(out / f"lr_{_fmt(lr)}"), "grid": LR_SWEEP_GRID, "lr": lr,
                "steps": LR_SWEEP_STEPS}
        for lr in LR_SWEEP
    ]

    def run(cell):
        return _sweep_cell(cell, train_ds, test_ds)

    workers = max(1, values["parallel"])
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, cells))
    else:
        results = [run(cell) for cell in cells]

    grid_rows = [
        (g, auc, f1, f"{sec:.3f}")
        for g, (auc, f1, sec) in zip(GRID_SWEEP, results[: len(GRID_SWEEP)])
    ]
    lr_rows = [
        (lr, auc, f1, f"{sec:.3f}")
        for lr, (auc, f1, sec) in zip(LR_SWEEP, results[len(GRID_SWEEP) :])
    ]
    _write_csv(out / "grid_sweep.csv", ("grid", "roc_auc", "f1", "seconds"), grid_rows)
    _write_csv(out / "lr_sweep.csv", ("lr", "roc_auc", "f1", "seconds"), lr_rows)

    reference = [
        "# Externally published GMSC benchmark results, recorded for context.",
        "# Rows produced by this package live in grid_sweep.csv / lr_sweep.csv.",
        "# f1 values are majority-class (label 0) at threshold 0.5.",
        "reference.logistic_regression.roc_auc=0.8503",
        "reference.logistic_regression.f1=0.9665",
        "reference.xgboost.roc_auc=0.8634",
        "reference.xgboost.f1=0.9669",
        "reference.svm.roc_auc=0.8555",
        "reference.svm.f1=0.9665",
        "reference.spline_net_10_4_1.roc_auc=0.8670",
        "reference.spline_net_10_4_1.f1=0.9675",
        "reference.spline_net_10_1.roc_auc=0.8640",
        "reference.spline_net_10_1.f1=0.9675",
        "# Same 10,1 architecture at grid 10 trained with LBFGS instead of Adam:",
        "reference.lbfgs_grid10.roc_auc=0.8637",
        "reference.lbfgs_grid10.f1=0.9673",
        "reference.lbfgs_grid10.seconds=143.15",
    ]
    (out / "reference.txt").write_text("\n".join(reference) + "\n")
    _write_manifest(out, "sweep", values)

    for row in grid_rows:
        print(f"sweep: grid={row[0]} roc_auc={row[1]!r} f1={row[2]!r}")
    for row in lr_rows:
        print(f"sweep: lr={row[0]!r} roc_auc={row[1]!r} f1={row[2]!r}")
    return 0


def cmd_export_dot(ns) -> int:
    values = _resolve("export-dot", ns)
    net = load_network(values["model"])
    train_ds, test_ds = _load_split(values)
    dataset = _pick(train_ds, test_ds, values["on"])
    dot = export_dot(net, edge_scores(net, dataset))
    if values["out"] is None:
        sys.stdout.write(dot)
        return 0
    out = Path(values["out"])
    out.mkdir(parents=True, exist_ok=True)
    (out / "structure.dot").write_text(dot)
    _write_manifest(out, "export-dot", values)
    print(f"export-dot: wrote {out / 'structure.dot'}")
    return 0


def cmd_curves(ns) -> int:
    values = _resolve("curves", ns)
    net = load_network(values["model"])
    rows = sample_activation_curves(net, values["points"])
    header = ("layer", "q", "p", "x", "phi")
    if values["out"] is None:
        sys.stdout.write(_csv_text(header, rows))
        return 0
    out = Path(values["out"])
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "curves.csv", header, rows)
    _write_manifest(out, "curves", values)
    print(f"curves: wrote {out / 'curves.csv'}")
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point.
# ---------------------------------------------------------------------------


# subcommand -> (handler, help line); its flags come from _KEYS
_COMMANDS = {
    "train": (cmd_train, "fit a network and write checkpoint + metrics"),
    "eval": (cmd_eval, "score a checkpoint on a split"),
    "explain": (cmd_explain, "attribution, structure DOT, activation curves"),
    "sweep": (cmd_sweep, "grid-size and learning-rate sweeps"),
    "export-dot": (cmd_export_dot, "write the structure graph as DOT"),
    "curves": (cmd_curves, "sample every edge's activation curve"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kancredit",
        description="Spline-network credit default scoring: train, evaluate, explain.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_line) in _COMMANDS.items():
        p = subs.add_parser(command, help=help_line)
        p.add_argument("--config", help="flat key=value file; flags override its entries")
        for key in _KEYS[command]:
            flag = "--" + key.name.replace("_", "-")
            if key.convert is _parse_bool:
                p.add_argument(flag, dest=key.name, action="store_true", default=None,
                               help=key.help)
            else:
                p.add_argument(flag, dest=key.name, type=key.convert, help=key.help)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (None, 0) else 2
    try:
        return ns.func(ns)
    except OSError as exc:
        print(f"error: io-error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort boundary
        print(f"error: internal-error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
