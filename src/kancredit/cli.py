"""Command-line surface: train, eval, explain, sweep, export-dot, curves.

Every artifact-producing run writes a ``manifest.txt`` of resolved settings
into its output directory; ``main`` resolves each command's settings and
writes that manifest, once for every command. A manifest is itself a valid
``--config`` file, so ``kancredit train --config runA/manifest.txt --out
runB`` reproduces runA's metric files byte-for-byte. Precedence is defaults
< config file < flags.

No command writes a file or creates a directory before its inputs are read
and checked: a run that fails on its data, checkpoint or settings leaves
``--out`` as it found it.

Exit codes: 0 success, 1 internal error, 2 usage or data error. Data and
configuration failures print one ``error: <code>: <detail>`` line to stderr,
where ``<code>`` is the machine-readable prefix carried by the exception. A
bad flag or config value gives one ``invalid-config`` line naming the setting
and where it came from: ``--grid abc`` or ``grid=abc in <file>``; so does a
config ``<key>=none`` for a key that has a default value, and a config file
that sets a key twice. A flag given twice takes its last value, as argparse
does, so a shell alias's flags can be overridden. A flag that takes a value
takes the next argument, even one that starts with ``-``. A flag is spelled
in full: argparse's prefix matching is off, so ``--thresh`` is an unknown
flag, not ``--threshold``.

Each setting that several subcommands share is one ``_Key``: ``data``,
``out`` (required, or optional with stdout), ``model``, ``on``, ``points``
and the ``_SPLIT`` group of ``seed`` and ``test_fraction``, which ``train``
splits by and ``eval``, ``explain``, ``sweep`` and ``export-dot`` rebuild from.
"""

import argparse
import codecs
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .data import _NONE_TOKEN, _csv_lines, _fmt, _write_csv, load_gmsc_csv, preprocess, split
from .data import write_dataset_csv, write_scaler_text
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

# sweep studies: (swept train key, its values, the other train values); each
# value is one 10,1 degree-4 cell in <out>/<key>_<value>, one row of <key>_sweep.csv
_SWEEPS = (
    ("grid", (3, 10, 50, 80), {"lr": 0.1, "steps": 100}),
    ("lr", (0.1, 0.01, 0.001), {"grid": 10, "steps": 200}),
)

# ---------------------------------------------------------------------------
# Config plumbing: typed keys, config files, manifests.
# ---------------------------------------------------------------------------


def _parse_width(text: str):
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError("expected comma-separated integers") from None


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError("expected a boolean")


def _parse_split_name(text: str) -> str:
    if text not in ("train", "test"):
        raise ValueError("expected 'train' or 'test'")
    return text


@dataclass(frozen=True)
class _Key:
    """One setting: the config key, its ``--flag`` (``_`` as ``-``) and its type."""

    name: str
    convert: object
    default: object = None
    required: bool = False
    help: str | None = None

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


# settings that several subcommands share, one definition each
_DATA = _Key("data", str, required=True, help="GMSC-format CSV")
_OUT = _Key("out", str, required=True, help="output directory")
_OUT_OR_STDOUT = _Key("out", str, help="output directory; stdout when omitted")
_MODEL = _Key("model", str, required=True, help="checkpoint JSON from train")
_ON = _Key("on", _parse_split_name, "test", help="train or test (default test)")
_POINTS = _Key("points", int, 100, help="samples per activation curve")
# the split that train makes and eval, explain, sweep and export-dot rebuild
_SPLIT = (
    _Key("seed", int, 42, help="seed for the split (train: also init and batching)"),
    _Key("test_fraction", float, 0.2, help="share of rows held out for the test split"),
)
# train's model settings: (key, TrainConfig field, converter, help); each
# key's default is the field's, and _train_config hands the values back to it
_TRAIN = (
    ("width", "widths", _parse_width, "layer widths, e.g. 10,4,1"),
    ("grid", "grid_count", int, "spline grid interval count"),
    ("k", "degree", int, "spline degree"),
    ("lr", "learning_rate", float, "Adam learning rate"),
    ("steps", "steps", int, "training steps"),
    ("batch", "batch_size", int, "batch size, -1 for full batch"),
)

# every subcommand's settings, in --help order; the parser is built from them
_KEYS = {
    "train": (
        _DATA, _OUT,
        *(_Key(name, convert, getattr(TrainConfig, field), help=text)
          for name, field, convert, text in _TRAIN),
        *_SPLIT,
        _Key("dump_data", _parse_bool, False,
             help="also write the preprocessed train/test CSVs and scaler"),
    ),
    "eval": (
        _MODEL, _DATA, _OUT, _ON,
        _Key("threshold", float, 0.5, help="probability cut-off for the class metrics"),
        *_SPLIT,
        _Key("width", _parse_width, help="assert checkpoint widths"),
        _Key("grid", int, help="assert checkpoint grid"),
        _Key("k", int, help="assert checkpoint degree"),
    ),
    "explain": (_MODEL, _DATA, _OUT, _ON, *_SPLIT, _POINTS,
                _Key("sample", int, help="also trace this row's decision path")),
    "sweep": (_DATA, _OUT, *_SPLIT),
    "export-dot": (_MODEL, _DATA, _OUT_OR_STDOUT, _ON, *_SPLIT),
    "curves": (_MODEL, _OUT_OR_STDOUT, _POINTS),
}


def _read_config(path):
    """The ``(key, value)`` pairs of a UTF-8 ``key=value`` file.

    A leading byte-order mark is dropped, as the CSV reader drops it. The
    text is decoded as the file system decodes names, which undoes
    ``_write_kv``: a path it wrote from the command line names the same file
    again under any locale. A key set on two lines is refused.
    """
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"invalid-config: {path} is not text: {exc}") from None
    text = os.fsdecode(data)
    pairs, where = [], {}  # key -> "line <n> <text>" that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"invalid-config: line {lineno} of {path} is not key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in where:
            raise ValueError(f"invalid-config: {key} is set twice in {path}: "
                             f"{where[key]} and line {lineno} {line}")
        where[key] = f"line {lineno} {line}"
        pairs.append((key, value))
    return pairs


def _resolve(command: str, ns) -> dict:
    """Merge defaults, config file and flags; the one place setting text becomes a value."""
    keys = {k.name: k for k in _KEYS[command]}
    values = {name: k.default for name, k in keys.items()}
    texts = []  # (name, text, source), config lines first so that flags win
    if ns.config is not None:
        for name, raw in _read_config(ns.config):
            source = f"{name}={raw} in {ns.config}"
            if name == "command":
                if raw != command:
                    raise ValueError(
                        f"invalid-config: {source}: config file is for {raw!r}, not {command!r}"
                    )
                continue
            if name not in keys:
                raise ValueError(f"invalid-config: {source}: unknown key for {command}")
            text = None if raw == _NONE_TOKEN else raw  # only a config line can unset a key
            texts.append((name, text, source))
    for name, key in keys.items():
        flag = getattr(ns, name)
        if flag is not None:
            text = _fmt(flag)  # --dump-data is a switch that stores True
            texts.append((name, text, f"{key.flag} {text}"))
    try:
        for name, text, source in texts:
            if text is None and keys[name].default is not None:
                raise ValueError(f"{name} cannot be unset")
            values[name] = None if text is None else keys[name].convert(text)
    except ValueError as exc:
        raise ValueError(f"invalid-config: {source}: {exc}") from None
    for name, key in keys.items():
        if key.required and values[name] is None:
            raise ValueError(f"invalid-config: {command} needs a value for {name!r}")
    return values


def _write_kv(path: Path, mapping: dict, command: str | None = None) -> None:
    """``key=value`` lines in key order; a manifest leads with ``command=<name>``.

    A path argument that the locale could not decode keeps its own bytes.
    """
    lines = [] if command is None else [f"command={command}"]
    lines += [f"{name}={_fmt(mapping[name])}" for name in sorted(mapping)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogateescape")


# ---------------------------------------------------------------------------
# Shared helpers.
# ---------------------------------------------------------------------------


def _load_split(values):
    table = load_gmsc_csv(values["data"])
    return split(preprocess(table), values["test_fraction"], values["seed"])


def _scored_split(values):
    """The split that ``--on`` names, rebuilt from the CSV, seed and fraction."""
    train_ds, test_ds = _load_split(values)
    return train_ds if values["on"] == "train" else test_ds


def _out_dir(values) -> Path:
    """Create ``--out``; called just before a command's first write."""
    out = Path(values["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit(command: str, values, name: str, text: str) -> Path | None:
    """Write ``text`` to stdout, or to ``<out>/<name>`` and return ``--out``."""
    if values["out"] is None:
        sys.stdout.write(text)
        return None
    out = _out_dir(values)
    (out / name).write_text(text, encoding="utf-8")
    print(f"{command}: wrote {out / name}")
    return out


def _metric_report(net, dataset, split_name, threshold=0.5):
    """The metrics of ``dataset`` tagged with its split name, and its probabilities."""
    probs = network_probabilities(net, dataset.features)
    metrics = classification_report(probs, dataset.labels, threshold=threshold)
    metrics["split"] = split_name
    return metrics, probs


def _check_against_checkpoint(net, values):
    """Optional width/grid/k flags must agree with the loaded model."""
    actual = {"width": tuple(net.widths), "grid": net.grid_count, "k": net.degree}
    for name, have in actual.items():
        if values[name] not in (None, have):
            raise ValueError(
                f"checkpoint-mismatch: {name} flag {values[name]} disagrees with "
                f"checkpoint value {have}"
            )
    values.update(actual)


def _train_config(values) -> TrainConfig:
    return TrainConfig(seed=values["seed"], **{field: values[name] for name, field, *_ in _TRAIN})


# ---------------------------------------------------------------------------
# Subcommands: each takes its resolved settings and returns the --out
# directory it wrote, or None when it wrote to stdout; main writes the manifest.
# ---------------------------------------------------------------------------


def cmd_train(values) -> Path:
    train_ds, test_ds = _load_split(values)
    net, report = train(train_ds, _train_config(values))
    reports = {
        name: _metric_report(net, ds, name)[0]
        for name, ds in (("train", train_ds), ("test", test_ds))
    }
    out = _out_dir(values)
    save_network(net, out / "model.json")
    _write_csv(out / "loss.csv", ("step", "loss"), enumerate(report.loss_history.tolist(), start=1))
    for name, metrics in reports.items():
        _write_kv(out / f"metrics_{name}.txt", metrics)
    if values["dump_data"]:
        write_dataset_csv(train_ds, out / "data_train.csv")
        write_dataset_csv(test_ds, out / "data_test.csv")
        write_scaler_text(train_ds.scaler, train_ds.feature_names, out / "scaler.txt")
    print(
        f"train: steps={values['steps']} final_loss={_fmt(report.loss_history[-1])} "
        f"test_roc_auc={_fmt(reports['test']['roc_auc'])} "
        f"test_f1_class0={_fmt(reports['test']['class0_f1'])} "
        f"seconds={report.seconds:.2f}"
    )
    print(f"train: wrote {out / 'model.json'}")
    return out


def cmd_eval(values) -> Path:
    net = load_network(values["model"])
    _check_against_checkpoint(net, values)
    dataset = _scored_split(values)
    metrics, probs = _metric_report(net, dataset, values["on"], values["threshold"])
    out = _out_dir(values)
    _write_kv(out / "metrics.txt", metrics)
    _write_csv(out / "roc.csv", ("fpr", "tpr", "threshold"), roc_curve(probs, dataset.labels))
    print(f"eval: split={values['on']} n={metrics['n_samples']}")
    print(f"eval: roc_auc={_fmt(metrics['roc_auc'])}")
    for cls in (0, 1):
        print(
            f"eval: class{cls} precision={_fmt(metrics[f'class{cls}_precision'])} "
            f"recall={_fmt(metrics[f'class{cls}_recall'])} f1={_fmt(metrics[f'class{cls}_f1'])}"
        )
    return out


def cmd_explain(values) -> Path:
    net = load_network(values["model"])
    dataset = _scored_split(values)
    i = values["sample"]
    if i is not None and not 0 <= i < len(dataset.features):
        raise ValueError(f"index-out-of-range: sample {i} outside [0, {len(dataset.features)})")
    curves = sample_activation_curves(net, values["points"])  # checks --points before the long pass
    scores = edge_scores(net, dataset)
    out = _out_dir(values)

    raw, normalized, ranking = propagate_scores(scores)
    ids = [f"x{p}" for p in range(net.widths[0])]
    rank_of = {p: r for r, p in enumerate(ranking)}
    _write_csv(
        out / "attribution.csv",
        ("feature", "score", "normalized_score", "rank"),
        [(ids[p], raw[p], normalized[p], rank_of[p]) for p in range(len(ids))],
    )
    (out / "structure.dot").write_text(export_dot(net, scores), encoding="utf-8")
    _write_csv(out / "curves.csv", ("layer", "q", "p", "x", "phi"), curves)
    if i is not None:
        path = decision_path(net, dataset.features[i])
        _write_csv(out / "sample_path.csv", ("layer", "node", "input", "x", "phi", "share"), path.steps)
        (out / "sample_path.txt").write_text(decision_path_text(path), encoding="utf-8")
        print(f"explain: sample={i} logit={_fmt(path.logit)}")
    top = ", ".join(ids[p] for p in ranking[:3])
    print(f"explain: top features {top}")
    print(f"explain: wrote {out / 'attribution.csv'}")
    return out


def _sweep_cell(values, train_ds, test_ds):
    """Train one sweep configuration, given as resolved `train` values.

    The cell manifest is a complete `train` manifest, so any cell can be
    reproduced standalone with `kancredit train --config <cell>/manifest.txt`.
    """
    net, report = train(train_ds, _train_config(values))
    cell_dir = _out_dir(values)
    save_network(net, cell_dir / "model.json")
    metrics, _ = _metric_report(net, test_ds, "test")
    _write_kv(cell_dir / "metrics.txt", metrics)
    _write_kv(cell_dir / "manifest.txt", values, "train")
    return metrics["roc_auc"], metrics["class0_f1"], report.seconds


def cmd_sweep(values) -> Path:
    train_ds, test_ds = _load_split(values)
    out = Path(values["out"])
    base = {k.name: k.default for k in _KEYS["train"]} | {
        "data": values["data"],
        "width": (10, 1),
        "k": 4,
    } | {k.name: values[k.name] for k in _SPLIT}
    # wall-clock seconds differ from run to run, so they go to timings.csv
    # alone and the other sweep files keep their bytes
    timings = []
    for key, swept, others in _SWEEPS:
        rows = []
        for v in swept:
            cell = base | others | {key: v, "out": str(out / f"{key}_{_fmt(v)}")}
            auc, f1, seconds = _sweep_cell(cell, train_ds, test_ds)
            rows.append((v, auc, f1))
            timings.append((key, v, f"{seconds:.3f}"))
        _write_csv(out / f"{key}_sweep.csv", (key, "roc_auc", "f1"), rows)
        for v, auc, f1 in rows:
            print(f"sweep: {key}={_fmt(v)} roc_auc={_fmt(auc)} f1={_fmt(f1)}")
    _write_csv(out / "timings.csv", ("study", "value", "seconds"), timings)

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
    (out / "reference.txt").write_text("\n".join(reference) + "\n", encoding="utf-8")
    return out


def cmd_export_dot(values) -> Path | None:
    net = load_network(values["model"])
    dot = export_dot(net, edge_scores(net, _scored_split(values)))
    return _emit("export-dot", values, "structure.dot", dot)


def cmd_curves(values) -> Path | None:
    net = load_network(values["model"])
    rows = sample_activation_curves(net, values["points"])
    text = "".join(_csv_lines(("layer", "q", "p", "x", "phi"), rows))
    return _emit("curves", values, "curves.csv", text)


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
        allow_abbrev=False,
        description="Spline-network credit default scoring: train, evaluate, explain.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_line) in _COMMANDS.items():
        p = subs.add_parser(command, help=help_line, allow_abbrev=False)
        p.add_argument("--config", help="flat key=value file; flags override its entries")
        for key in _KEYS[command]:
            if key.convert is _parse_bool:
                p.add_argument(key.flag, dest=key.name, action="store_true", default=None,
                               help=key.help)
            else:
                p.add_argument(key.flag, dest=key.name, help=key.help)
        p.set_defaults(func=func)
    return parser


def _attach_values(argv) -> list:
    """``argv`` with each value-taking flag and the argument after it joined as ``--flag=value``.

    argparse reads a value that starts with ``-`` as a flag unless it looks
    like ``-1`` or ``-.5``, so ``--threshold -1e-3`` would not parse.  Only
    full flag names are joined; the parsers take no prefix either.
    """
    takes_value = {"--config"} | {
        key.flag for keys in _KEYS.values() for key in keys if key.convert is not _parse_bool
    }
    args, rest = [], iter(argv)
    for arg in rest:
        value = next(rest, None) if arg in takes_value else None
        args.append(arg if value is None else f"{arg}={value}")
    return args


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(_attach_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 0 if exc.code in (None, 0) else 2
    try:
        values = _resolve(ns.command, ns)
        out = ns.func(values)
        if out is not None:
            _write_kv(out / "manifest.txt", values, ns.command)
        return 0
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
