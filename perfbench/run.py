"""Benchmark for the kancredit CLI: end-to-end times with tracing off, layer times with it on.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

The seed makes the input CSV and the checkpoint that
``score_explain_10x4x1`` loads. Both are cached under ``perfbench/.cache``
and built in a separate process, so neither counts in any metric. Each repetition of the
workload then runs in a fresh process (``child.py``) that calls
``kancredit.cli.main`` once per command. Repetitions continue until the next
one would end after ``--seconds`` (at least three are made), and every metric
is the median over repetitions. ``wall_s`` and ``setup_s`` are scaled to a
fixed host speed by a probe timed on the measured thread (see PROBE_REF_S).
After each repetition the harness checks the command's outputs; a command
that fails a check counts in ``failed`` and its repetition is left out of
the medians.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` repetitions alternate traced and untraced, and the last line
reports the per-layer metrics and the tracing overhead. Lines before it carry
steadiness diagnostics and per-repetition values. ``--smoke`` shrinks rows and
steps so the benchmark's own tests finish in seconds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = HERE / ".cache"

import fixtures  # noqa: E402  (sibling module)

MIN_REPS = 3
MAX_REPS = 60
RUN_DEADLINE_S = 170.0
# One BLAS thread: the numpy work here is einsum and elementwise, which does
# not use BLAS threads, and a single thread keeps other tenants' load from
# changing how the work is split.
BLAS_THREADS = 1

FULL = {"rows": 150_000, "full_steps": 4, "mb_steps": 60, "mb_batch": 4096, "points": 200,
        "model": {"widths": [10, 4, 1], "grid_count": 30, "degree": 4, "learning_rate": 0.1,
                  "steps": 30, "batch_size": 4096}}
SMOKE = {"rows": 3_000, "full_steps": 4, "mb_steps": 12, "mb_batch": 256, "points": 20,
         "model": {"widths": [10, 4, 1], "grid_count": 30, "degree": 4, "learning_rate": 0.1,
                   "steps": 5, "batch_size": 256}}


def workloads(size: dict) -> dict:
    """Workload name -> [(command kind, extra flags)], in run order."""
    return {
        "train_full_10x1_g80": [
            ("train", ["--width", "10,1", "--grid", "80", "--k", "4", "--lr", "0.1",
                       "--batch", "-1", "--steps", str(size["full_steps"])])],
        "train_minibatch_10x4x1_g30": [
            ("train", ["--width", "10,4,1", "--grid", "30", "--k", "4", "--lr", "0.1",
                       "--batch", str(size["mb_batch"]), "--steps", str(size["mb_steps"])])],
        "score_explain_10x4x1": [
            ("eval", []),
            ("explain", ["--on", "train", "--points", str(size["points"]), "--sample", "0"])],
    }


WORKLOADS = tuple(workloads(FULL))

# Every wrapped function each workload reaches: all reported ones, and the
# ones the CLI calls directly. A traced run in which one is never called
# fails, so a metric never reads zero because a function stopped being used.
_TRAIN_REACHES = [
    "cli.main", "data.load_gmsc_csv", "data.preprocess", "data.split",
    "training.train", "training.backward", "training.adam_step", "splines.basis_values",
    "network.flatten_params", "network.set_params", "network.network_logits",
    "network.network_probabilities", "network.save_network",
    "metrics.roc_auc", "metrics.classification_report"]
REACHES = {
    "train_full_10x1_g80": _TRAIN_REACHES,
    "train_minibatch_10x4x1_g30": [*_TRAIN_REACHES, "splines.basis_derivatives"],
    "score_explain_10x4x1": [
        "cli.main", "network.load_network", "network.set_params", "data.load_gmsc_csv",
        "data.preprocess", "data.split", "splines.basis_values", "network.network_logits",
        "network.network_probabilities", "network.edge_forward", "metrics.roc_auc", "metrics.roc_curve",
        "metrics.classification_report", "explain.edge_scores", "explain.propagate_scores",
        "explain.export_dot", "explain.sample_activation_curves", "explain.decision_path",
        "explain.decision_path_text"],
}

# Per command kind: set-up functions the CLI must call, and the artifacts it
# must write.
COMMANDS = {
    "train": {
        "setup": ["load_gmsc_csv", "preprocess", "split"],
        "artifacts": ["model.json", "loss.csv", "metrics_train.txt", "metrics_test.txt",
                      "manifest.txt"],
    },
    "eval": {
        "setup": ["load_network", "load_gmsc_csv", "preprocess", "split"],
        "artifacts": ["metrics.txt", "roc.csv", "manifest.txt"],
    },
    "explain": {
        "setup": ["load_network", "load_gmsc_csv", "preprocess", "split"],
        "artifacts": ["attribution.csv", "structure.dot", "curves.csv", "sample_path.csv",
                      "sample_path.txt", "manifest.txt"],
    },
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "test_roc_auc": "ratio"}

# Per-layer metric -> the span (self time, calls) or tracer count it reads.
SELF_TIMES = {
    "data.load_gmsc_csv.self_s": "data.load_gmsc_csv",
    "data.preprocess.self_s": "data.preprocess",
    "data.split.self_s": "data.split",
    "splines.basis_values.self_s": "splines.basis_values",
    "splines.basis_derivatives.self_s": "splines.basis_derivatives",
    "network.network_logits.self_s": "network.network_logits",
    "network.flatten_params.self_s": "network.flatten_params",
    "network.set_params.self_s": "network.set_params",
    "network.save_network.self_s": "network.save_network",
    "network.load_network.self_s": "network.load_network",
    "training.backward.self_s": "training.backward",
    "training.adam_step.self_s": "training.adam_step",
    "training.train.self_s": "training.train",
    "metrics.roc_auc.self_s": "metrics.roc_auc",
    "metrics.roc_curve.self_s": "metrics.roc_curve",
    "metrics.classification_report.self_s": "metrics.classification_report",
    "explain.edge_scores.self_s": "explain.edge_scores",
    "explain.sample_activation_curves.self_s": "explain.sample_activation_curves",
    "explain.decision_path.self_s": "explain.decision_path",
    "explain.export_dot.self_s": "explain.export_dot",
    "cli.self_s": "cli.main",
}
CALLS = {
    "splines.basis_values.calls": "splines.basis_values",
    "training.backward.calls": "training.backward",
    "explain.edge_forward.calls": "network.edge_forward",
}
COUNTS = {
    "data.rows": "data.rows",
    "splines.basis_values.points": "splines.basis_values.points",
    "splines.basis_derivatives.points": "splines.basis_derivatives.points",
    "network.network_logits.rows": "network.network_logits.rows",
    "network.param_copies": "network.param_copies",
    "training.backward.rows": "training.backward.rows",
    "metrics.rows": "metrics.rows",
    "explain.edge_scores.rows": "explain.edge_scores.rows",
}
PER_LAYER_UNITS = {
    **{name: "s" for name in SELF_TIMES},
    **{name: "count" for name in CALLS},
    **{name: "count" for name in COUNTS},
    "splines.basis_mb_computed": "MB",
    "splines.basis_nonzero_share": "ratio",
    "training.step_p50_ms": "ms",
    "training.step_p90_ms": "ms",
    "trace.overhead_s": "s",
}
P90_MIN_STEPS = 100  # at least ten steps beyond the 90th percentile

# ``wall_s`` and ``setup_s`` leave out steal time (see ``child.py``) and are
# given at a fixed host speed. The host this was built on runs at two or
# three speed levels that last from seconds to tens of minutes, so raw
# seconds from two sets of runs can differ by 50%. Each untraced repetition
# therefore times a fixed probe on the measured thread (``child.HostProbe``),
# and a window's measured seconds are scaled by PROBE_REF_S over the median
# probe reading inside that window: the time the window would take on a host
# where the reading is PROBE_REF_S. Set-up windows read the probe's Python
# loop, the rest the whole shot.
PROBE_REF_S = {"setup": 1.1e-4, "wall": 2.5e-4}


class BenchError(Exception):
    """The benchmark cannot produce a result; it exits non-zero without one."""


# ---------------------------------------------------------------------------
# Output checks, run in this process after each repetition.
# ---------------------------------------------------------------------------


def _read_kv(path: Path) -> dict:
    return dict(line.split("=", 1) for line in path.read_text().splitlines() if line)


def _read_csv(path: Path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _harness_auc(model_path: Path, test) -> float:
    # imported here: main() puts the checkout's src/ on sys.path first
    from kancredit.metrics import roc_auc
    from kancredit.network import load_network, network_probabilities

    net = load_network(model_path)
    return roc_auc(network_probabilities(net, test["features"]), test["labels"])


def check_command(kind: str, out: Path, model: Path | None, test) -> tuple[str | None, float | None]:
    """(failure reason or None, reported test ROC_AUC or None) for one command."""
    missing = [name for name in COMMANDS[kind]["artifacts"] if not (out / name).is_file()]
    if missing:
        return f"missing artifacts {missing}", None
    auc = None
    if kind == "train":
        _, rows = _read_csv(out / "loss.csv")
        losses = [float(row[1]) for row in rows]
        if not losses or not all(math.isfinite(v) for v in losses):
            return "loss.csv holds a non-finite value", None
        if not losses[-1] < losses[0]:
            return f"final loss {losses[-1]!r} is not below the first {losses[0]!r}", None
        auc = float(_read_kv(out / "metrics_test.txt")["roc_auc"])
        model = out / "model.json"
    elif kind == "eval":
        _, rows = _read_csv(out / "roc.csv")
        first, last = rows[0][:2], rows[-1][:2]
        if [float(v) for v in first] != [0.0, 0.0] or [float(v) for v in last] != [1.0, 1.0]:
            return f"roc.csv runs from {first} to {last}, not (0,0) to (1,1)", None
        auc = float(_read_kv(out / "metrics.txt")["roc_auc"])
    elif kind == "explain":
        header, rows = _read_csv(out / "attribution.csv")
        col = header.index("normalized_score")
        total = sum(float(row[col]) for row in rows)
        if abs(total - 1.0) > 1e-9:
            return f"normalized attribution sums to {total!r}", None
        return None, None
    harness = _harness_auc(model, test)
    if abs(harness - auc) > 1e-12:
        return f"reported test_roc_auc {auc!r} but the saved model scores {harness!r}", None
    return None, auc


# ---------------------------------------------------------------------------
# Steadiness diagnostics (printed, not metrics).
# ---------------------------------------------------------------------------


def _cpu_ticks():
    """(steal, total) jiffies of the aggregate cpu line, or None."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()[1:]
    except OSError:
        return None
    values = [int(v) for v in fields]
    return (values[7] if len(values) > 7 else 0), sum(values[:8])


def _loadavg():
    try:
        return [float(v) for v in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "openblas": openblas, "blas_threads": BLAS_THREADS}


# ---------------------------------------------------------------------------
# Repetitions and aggregation.
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    return env


def run_rep(commands, reaches, fixture: Path, work: Path, traced: bool, deadline: float) -> dict:
    """One fresh-process repetition; returns the child's result plus out dirs."""
    work.mkdir(parents=True)
    spec_commands, outs = [], []
    for kind, flags in commands:
        out = work / kind
        argv = [kind, "--data", str(fixture / "gmsc.csv"), "--out", str(out), *flags]
        if kind != "train":
            argv[1:1] = ["--model", str(fixture / "model.json")]
        spec_commands.append({"argv": argv, "setup": COMMANDS[kind]["setup"]})
        outs.append(out)
    spec = {"root": str(ROOT), "trace": traced, "commands": spec_commands, "expect_called": reaches}
    (work / "spec.json").write_text(json.dumps(spec))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run deadline passed")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(work / "spec.json"), str(work / "result.json")],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("a repetition ran past the run deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"measured process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads((work / "result.json").read_text())
    result["outs"] = outs
    result["traced"] = traced
    return result


def _median(values):
    return statistics.median(values) if values else 0.0


def scaled(rep, key: str) -> float:
    """A repetition's set-up or wall seconds at the probe's reference speed."""
    return sum(c[f"{key}_s"] * PROBE_REF_S[key] / c[f"{key}_probe_s"] for c in rep["commands"])


def raw(rep, key: str) -> float:
    return sum(c[f"{key}_s"] for c in rep["commands"])


def end_to_end(reps) -> dict:
    return {
        "wall_s": _median([scaled(r, "wall") for r in reps]),
        "setup_s": _median([scaled(r, "setup") for r in reps]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in reps]),
        "test_roc_auc": _median([r["auc"] for r in reps]),
    }


def per_layer(traced, plain) -> dict:
    traces = [r["trace"] for r in traced]
    values = {}
    for metric, span in SELF_TIMES.items():
        values[metric] = _median([t["self_s"].get(span, 0.0) for t in traces])
    first = traces[0]
    for metric, span in CALLS.items():
        values[metric] = first["calls"].get(span, 0)
    for metric, key in COUNTS.items():
        values[metric] = first["counts"].get(key, 0)
    counts = first["counts"]
    values["splines.basis_mb_computed"] = counts.get("splines.basis_bytes_computed", 0) / 1e6
    entries = counts.get("splines.basis_values.entries", 0)
    values["splines.basis_nonzero_share"] = counts.get("splines.basis_values.nonzero", 0) / entries if entries else 0.0
    steps_ms = sorted(1000.0 * s for t in traces for s in t["step_s"])
    values["training.step_p50_ms"] = _median(steps_ms)
    values["training.step_p90_ms"] = (
        statistics.quantiles(steps_ms, n=10)[-1] if len(steps_ms) >= P90_MIN_STEPS else 0.0)
    # traced repetitions run no probe, so this compares measured seconds
    values["trace.overhead_s"] = (
        _median([raw(r, "wall") for r in traced]) - _median([raw(r, "wall") for r in plain]))
    return values


def measure(name, commands, fixture, test, seconds, trace, deadline, work_root):
    """Run repetitions; returns (good reps, attempted, failed, failure reasons)."""
    reps, failures = [], []
    attempted = 0
    started = time.monotonic()
    while len(reps) + len(failures) < MAX_REPS:
        done = len(reps) + len(failures)
        elapsed = time.monotonic() - started
        if done >= MIN_REPS and elapsed + elapsed / done > seconds:
            break
        traced = trace and done % 2 == 0
        ticks = _cpu_ticks()
        rep = run_rep(commands, REACHES[name], fixture, work_root / f"rep{done}", traced, deadline)
        ticks_after = _cpu_ticks()
        reasons = []
        for (kind, _), out, cmd in zip(commands, rep["outs"], rep["commands"]):
            attempted += 1
            if cmd["rc"] != 0:
                reasons.append(f"{kind} exited {cmd['rc']}")
                continue
            try:
                reason, auc = check_command(kind, out, fixture / "model.json", test)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                reason, auc = f"{kind} output unreadable: {exc}", None
            if reason:
                reasons.append(f"{kind}: {reason}")
            if auc is not None:
                rep["auc"] = auc
        shutil.rmtree(work_root / f"rep{done}", ignore_errors=True)
        line = {"rep": done, "traced": traced,
                "measured_wall_s": sum(c["wall_s"] or 0.0 for c in rep["commands"]),
                "measured_setup_s": raw(rep, "setup"),
                "peak_rss_mb": rep["peak_rss_mb"],
                "steal_ticks": ticks_after[0] - ticks[0] if ticks and ticks_after else None,
                "per_command": [{k: v for k, v in c.items() if k != "rc"} for c in rep["commands"]],
                "failures": reasons}
        if not (traced or reasons):
            line.update(wall_s=scaled(rep, "wall"), setup_s=scaled(rep, "setup"))
        print(f"perfbench: {name} {json.dumps(line)}", flush=True)
        if reasons:
            failures.append(reasons)
        else:
            reps.append(rep)
    return reps, attempted, sum(len(f) for f in failures), failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny rows and steps, for tests")
    ns = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps the
    # measured process and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + RUN_DEADLINE_S
    size = SMOKE if ns.smoke else FULL
    commands = workloads(size).get(ns.workload)
    if commands is None:
        print(f"perfbench: unknown workload {ns.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if not ((ROOT / "src" / "kancredit" / "cli.py").is_file() and (ROOT / "tests" / "conftest.py").is_file()):
        print(f"perfbench: {ROOT} holds no kancredit sources (src/kancredit, tests/conftest.py)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np

    info = machine_info()
    load_start, ticks_start = _loadavg(), _cpu_ticks()
    CACHE.mkdir(exist_ok=True)
    work_root = Path(tempfile.mkdtemp(prefix="run-", dir=CACHE))
    try:
        fixture = fixtures.ensure(ROOT, CACHE / "fixtures", ns.seed, size["rows"], size["model"],
                                  timeout=deadline - time.monotonic())
        with np.load(fixture / "test_split.npz") as npz:
            test = {"features": npz["features"], "labels": npz["labels"]}
        reps, attempted, failed, failures = measure(
            ns.workload, commands, fixture, test, ns.seconds, bool(ns.trace), deadline, work_root)
    except (BenchError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    ticks_end = _cpu_ticks()
    steal = None
    if ticks_start and ticks_end:
        steal = {"steal_ticks": ticks_end[0] - ticks_start[0], "total_ticks": ticks_end[1] - ticks_start[1]}
    probe = {}
    for key, ref in PROBE_REF_S.items():
        ms = [1000.0 * c[f"{key}_probe_s"] for r in reps if not r["traced"] for c in r["commands"]]
        if ms:
            probe[key] = {"ref_ms": 1000.0 * ref, "min_ms": min(ms), "median_ms": _median(ms),
                          "max_ms": max(ms)}
    diagnostics = {**info, "loadavg_start": load_start, "loadavg_end": _loadavg(), "steal": steal,
                   "probe": probe, "reps": len(reps), "ops_attempted": attempted, "ops_failed": failed,
                   "failures": failures}
    print(f"perfbench: diagnostics {json.dumps(diagnostics)}", flush=True)

    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    if not plain or (ns.trace and not traced):
        print("perfbench: no repetition passed its checks", file=sys.stderr)
        return 1
    correct = failed == 0
    if ns.trace:
        counts = [{**r["trace"]["calls"], **r["trace"]["counts"]} for r in traced]
        if any(c != counts[0] for c in counts[1:]):
            print("perfbench: counts differ between traced repetitions", flush=True)
            correct = False
        values, units = per_layer(traced, plain), PER_LAYER_UNITS
    else:
        values, units = end_to_end(plain), END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
