"""Tests of the benchmark harness itself: run with ``python3 -m pytest perfbench``.

The end-to-end tests use ``--smoke`` (3000 rows, a few steps), so the whole
file finishes in well under a minute.
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _smoke(workload, trace, seed=3):
    proc = _bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Span arithmetic.
# ---------------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["training.train", 1.0, 9.0, 0],
        ["training.backward", 2.0, 5.0, 1],
        ["splines.basis_values", 2.5, 4.0, 2],
        [tracer.COUNT_SPAN, 4.0, 4.5, 2],
    ]
    got = tracer.self_times(spans)
    assert got["cli.main"] == pytest.approx(2.0)
    assert got["training.train"] == pytest.approx(5.0)
    assert got["training.backward"] == pytest.approx(1.0)
    assert got["splines.basis_values"] == pytest.approx(1.5)


def test_steps_are_gaps_between_backward_starts():
    spans = [["training.train", 0.0, 10.0, -1]]
    spans += [["training.backward", start, start + 0.5, 0] for start in (1.0, 3.0, 6.0)]
    assert tracer.step_seconds(spans) == pytest.approx([2.0, 3.0])
    with pytest.raises(tracer.TraceError):
        tracer.step_seconds(spans[:2])


# ---------------------------------------------------------------------------
# Wrapping: every binding, and loud failure when a reported function is gone.
# ---------------------------------------------------------------------------


def _fake_package(monkeypatch, drop=None):
    """A package with the layer modules, each defining its reported functions."""
    pkg = types.ModuleType("fakekan")
    monkeypatch.setitem(sys.modules, "fakekan", pkg)
    modules = {}
    for layer in tracer.LAYERS:
        module = types.ModuleType(f"fakekan.{layer}")
        names = [n for n in tracer.REPORTED[layer] if n != drop]
        for name in names:
            exec(f"def {name}(*args, **kwargs):\n    return None", module.__dict__)
            module.__dict__[name].__module__ = module.__name__
        module.__all__ = names
        monkeypatch.setitem(sys.modules, module.__name__, module)
        setattr(pkg, layer, module)
        modules[layer] = module
    return modules


def test_install_wraps_the_binding_a_caller_imported(monkeypatch):
    modules = _fake_package(monkeypatch)
    original = modules["splines"].basis_derivatives
    modules["training"].basis_derivatives = original  # as `from ... import`
    t = tracer.Tracer()
    replaced = t.install("fakekan")
    assert modules["training"].basis_derivatives is not original
    assert modules["splines"].basis_derivatives is not original
    assert replaced == sum(len(tracer.REPORTED[layer]) for layer in tracer.LAYERS) + 1
    modules["training"].basis_derivatives(None, [1.0, 2.0])
    assert t.calls()["splines.basis_derivatives"] == 1
    assert t.counts["splines.basis_derivatives.points"] == 2


def test_missing_reported_function_fails_loudly(monkeypatch):
    _fake_package(monkeypatch, drop="adam_step")
    with pytest.raises(tracer.TraceError, match="adam_step is missing"):
        tracer.Tracer().install("fakekan")


# ---------------------------------------------------------------------------
# Output checks.
# ---------------------------------------------------------------------------


def _write(out, name, text):
    out.mkdir(parents=True, exist_ok=True)
    (out / name).write_text(text)


def test_eval_check_rejects_roc_not_ending_at_one(tmp_path):
    for name in run.COMMANDS["eval"]["artifacts"]:
        _write(tmp_path, name, "")
    _write(tmp_path, "roc.csv", "fpr,tpr,threshold\n0.0,0.0,inf\n0.5,0.9,0.2\n")
    reason, _ = run.check_command("eval", tmp_path, None, None)
    assert "roc.csv" in reason


def test_explain_check_rejects_attribution_not_summing_to_one(tmp_path):
    for name in run.COMMANDS["explain"]["artifacts"]:
        _write(tmp_path, name, "")
    _write(tmp_path, "attribution.csv",
           "feature,score,normalized_score,rank\nx0,1.0,0.6,0\nx1,0.5,0.3,1\n")
    reason, _ = run.check_command("explain", tmp_path, None, None)
    assert "sums to" in reason


def test_train_check_rejects_non_finite_and_rising_loss(tmp_path):
    for name in run.COMMANDS["train"]["artifacts"]:
        _write(tmp_path, name, "")
    _write(tmp_path, "loss.csv", "step,loss\n1,0.6\n2,nan\n")
    assert "non-finite" in run.check_command("train", tmp_path, None, None)[0]
    _write(tmp_path, "loss.csv", "step,loss\n1,0.6\n2,0.7\n")
    assert "not below" in run.check_command("train", tmp_path, None, None)[0]
    (tmp_path / "model.json").unlink()
    assert "missing" in run.check_command("train", tmp_path, None, None)[0]


# ---------------------------------------------------------------------------
# The benchmark end to end, in smoke mode.
# ---------------------------------------------------------------------------


def test_metric_tables_match_benchmark_json():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER_UNITS)
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)
    for m in SPEC["end_to_end"]:
        assert m["unit"] == run.END_TO_END[m["name"]]
    for m in SPEC["per_layer"]:
        assert m["unit"] == run.PER_LAYER_UNITS[m["name"]]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result = _smoke(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert list(result["metrics"]) == list(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat_between_runs():
    first = _smoke("score_explain_10x4x1", trace=1)
    second = _smoke("score_explain_10x4x1", trace=1)
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == list(run.PER_LAYER_UNITS)
    count_names = [n for n, unit in run.PER_LAYER_UNITS.items() if unit == "count"]
    count_names.append("splines.basis_mb_computed")
    for name in count_names:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["explain.edge_forward.calls"]["value"] > 0


def test_traced_train_run_reaches_the_training_layer():
    result = _smoke("train_minibatch_10x4x1_g30", trace=1)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["training.backward.calls"] == run.SMOKE["mb_steps"]
    assert values["splines.basis_derivatives.points"] > 0
    assert values["training.step_p50_ms"] > 0
    assert 0 < values["splines.basis_nonzero_share"] < 1


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reaches_exactly_the_guarded_functions(workload):
    # Every reported function a workload calls must be in REACHES, where a
    # traced run that never calls it fails; the rest read zero.
    result = _smoke(workload, trace=1)
    spans = {**run.SELF_TIMES, **run.CALLS}
    for metric, span in spans.items():
        called = result["metrics"][metric]["value"] > 0
        assert called == (span in run.REACHES[workload]), metric


def test_function_no_longer_called_fails_the_traced_run(tmp_path):
    # A training layer that stops calling splines.basis_derivatives (as if it
    # had inlined it) must fail the run, not report zero time.
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "tests").mkdir()
    shutil.copy(ROOT / "tests" / "conftest.py", tmp_path / "tests" / "conftest.py")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".cache", "__pycache__"))
    training = tmp_path / "src" / "kancredit" / "training.py"
    training.write_text(training.read_text() + (
        "\nimport types\n\n"
        "basis_derivatives = types.FunctionType(\n"
        "    basis_derivatives.__code__, basis_derivatives.__globals__)\n"))
    proc = _bench("--workload", "train_minibatch_10x4x1_g30", "--seed", "3", "--seconds", "1",
                  "--trace", "1", "--smoke", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert "never called" in proc.stderr and "splines.basis_derivatives" in proc.stderr
    assert not proc.stdout.strip() or not proc.stdout.strip().splitlines()[-1].startswith("{")


def test_fixture_is_rebuilt_when_the_sources_change(tmp_path):
    import fixtures

    (tmp_path / "src" / "kancredit").mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "kancredit" / "data.py").write_text("A = 1\n")
    (tmp_path / "tests" / "conftest.py").write_text("")
    before = fixtures.source_digest(tmp_path)
    (tmp_path / "src" / "kancredit" / "data.py").write_text("A = 2\n")
    assert fixtures.source_digest(tmp_path) != before


def test_probe_window_reads_its_own_shots_or_falls_back_to_all():
    import child

    probe = child.HostProbe()
    for start, loop, shot in [(0.0, 1.0, 3.0), (1.0, 1.0, 3.0), (2.0, 2.0, 5.0), (3.0, 2.0, 5.0),
                              (4.0, 2.0, 5.0), (9.0, 9.0, 9.0)]:
        probe._starts[probe.count], probe._loop[probe.count], probe._seconds[probe.count] = start, loop, shot
        probe.count += 1
    assert probe.window([(2.0, 5.0)], loop_only=True) == (15.0, 2.0, 3)
    assert probe.window([(0.0, 2.0), (4.0, 5.0)], loop_only=False) == (11.0, 3.0, 3)
    # two shots are too few: the median over all six
    assert probe.window([(0.0, 2.0)], loop_only=False) == (6.0, 5.0, 2)


def test_times_are_scaled_by_the_probe_in_their_window():
    ref = run.PROBE_REF_S
    rep = {"commands": [
        {"wall_s": 2.0, "wall_probe_s": 2 * ref["wall"], "setup_s": 1.0, "setup_probe_s": ref["setup"]},
        {"wall_s": 1.0, "wall_probe_s": ref["wall"] / 2, "setup_s": 3.0, "setup_probe_s": 3 * ref["setup"]}]}
    assert run.scaled(rep, "wall") == pytest.approx(1.0 + 2.0)
    assert run.scaled(rep, "setup") == pytest.approx(1.0 + 1.0)
    assert run.raw(rep, "wall") == pytest.approx(3.0)


def test_unknown_workload_exits_2():
    proc = _bench("--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 2 and not proc.stdout


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".cache", "__pycache__"))
    proc = _bench("--workload", run.WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
