"""End-to-end CLI behaviour on synthetic data: exit codes, artifacts, reruns."""

import contextlib
import dataclasses
import io
import json
import os
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import kancredit.cli as kcli
import kancredit.network as knet
from kancredit.cli import _KEYS, main
from kancredit.data import load_gmsc_csv, preprocess, split
from kancredit.network import _layer_batch, init_network, load_network, save_network
from kancredit.training import TrainConfig, train

from conftest import make_gmsc_rows, patch_chunk_rows, write_gmsc_csv


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synthetic.csv"
    write_gmsc_csv(path, make_gmsc_rows(400, seed=11))
    return path


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory, data_csv):
    """One small trained model shared by the read-only command tests."""
    out = tmp_path_factory.mktemp("runs") / "base"
    rc = main(
        [
            "train",
            "--data", str(data_csv),
            "--out", str(out),
            "--width", "10,1",
            "--grid", "5",
            "--k", "3",
            "--steps", "25",
        ]
    )
    assert rc == 0
    return out


class TestTrain:
    def test_writes_expected_artifacts(self, trained_run):
        for name in ("model.json", "loss.csv", "metrics_train.txt", "metrics_test.txt", "manifest.txt"):
            assert (trained_run / name).exists(), name

    def test_loss_csv_shape(self, trained_run):
        lines = (trained_run / "loss.csv").read_text().splitlines()
        assert lines[0] == "step,loss"
        assert len(lines) == 1 + 25
        step, loss = lines[1].split(",")
        assert step == "1" and float(loss) > 0

    def test_metrics_files_are_key_value(self, trained_run):
        text = (trained_run / "metrics_test.txt").read_text()
        pairs = dict(line.split("=", 1) for line in text.splitlines())
        assert 0.0 <= float(pairs["roc_auc"]) <= 1.0
        assert pairs["split"] == "test"
        assert "class0_f1" in pairs and "class1_f1" in pairs

    def test_missing_data_file_exits_2(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "io-error" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, data_csv, tmp_path):
        rc = main(["train", "--data", str(data_csv), "--out", str(tmp_path), "--bogus"])
        assert rc == 2

    @pytest.mark.parametrize(
        "body, named",
        [
            (b"width=ten,one\n", "width=ten,one in CFG: expected comma-separated integers"),
            (b"grid=abc\n", "grid=abc in CFG: "),
            (b"lr=abc\n", "lr=abc in CFG: "),
            (b"seed=1.5\n", "seed=1.5 in CFG: "),
            (b"dump_data=maybe\n", "dump_data=maybe in CFG: expected a boolean"),
            (b"grid=5\nk=\xff\n", "CFG is not text: "),
            (b"grid=5\nsteps\n", "line 2 of CFG is not key=value"),
            (b"grid=5\nbogus=1\n", "bogus=1 in CFG: unknown key for train"),
            (b"command=eval\n", "command=eval in CFG: config file is for 'eval', not 'train'"),
        ],
        ids=[
            "width", "grid", "lr", "seed", "dump_data", "not-utf8", "not-key-value", "unknown-key",
            "other-command",
        ],
    )
    def test_bad_config_value_exits_2(self, body, named, data_csv, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(body)
        out = tmp_path / "o"
        rc = main(["train", "--config", str(cfg), "--data", str(data_csv), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: invalid-config: " + named.replace("CFG", str(cfg)))
        assert not out.exists()

    def test_dump_data_writes_processed_csvs(self, data_csv, tmp_path):
        out = tmp_path / "dump"
        rc = main(
            ["train", "--data", str(data_csv), "--out", str(out),
             "--width", "10,1", "--grid", "5", "--k", "3", "--steps", "3",
             "--dump-data"]
        )
        assert rc == 0
        for name in ("data_train.csv", "data_test.csv", "scaler.txt"):
            assert (out / name).exists(), name


class TestManifestReproducibility:
    def test_rerun_from_manifest_matches_bytes(self, data_csv, tmp_path):
        out_a = tmp_path / "a"
        rc = main(
            ["train", "--data", str(data_csv), "--out", str(out_a),
             "--width", "10,1", "--grid", "5", "--k", "3", "--steps", "10"]
        )
        assert rc == 0
        out_b = tmp_path / "b"
        rc = main(["train", "--config", str(out_a / "manifest.txt"), "--out", str(out_b)])
        assert rc == 0
        for name in ("metrics_train.txt", "metrics_test.txt", "loss.csv", "model.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_flags_override_config(self, data_csv, tmp_path):
        out_a = tmp_path / "a"
        main(
            ["train", "--data", str(data_csv), "--out", str(out_a),
             "--width", "10,1", "--grid", "5", "--k", "3", "--steps", "4"]
        )
        out_b = tmp_path / "b"
        rc = main(
            ["train", "--config", str(out_a / "manifest.txt"),
             "--out", str(out_b), "--steps", "6"]
        )
        assert rc == 0
        lines = (out_b / "loss.csv").read_text().splitlines()
        assert len(lines) == 1 + 6
        manifest = dict(
            line.split("=", 1) for line in (out_b / "manifest.txt").read_text().splitlines()
        )
        assert manifest["steps"] == "6"

    def test_config_skips_comments_and_blank_lines(self, trained_run, tmp_path):
        cfg = tmp_path / "curves.cfg"
        cfg.write_text("# points=9 is commented out\n\n   \npoints=3\n")
        out = tmp_path / "cur"
        rc = main(["curves", "--config", str(cfg), "--model", str(trained_run / "model.json"),
                   "--out", str(out)])
        assert rc == 0
        assert "points=3" in (out / "manifest.txt").read_text().splitlines()
        assert len((out / "curves.csv").read_text().splitlines()) == 1 + 10 * 3

    def test_config_with_a_byte_order_mark_resolves_as_without(self, trained_run, tmp_path):
        text = "command=curves\npoints=3\n"
        outs = []
        for name, data in (("plain", text.encode()), ("bom", b"\xef\xbb\xbf" + text.encode())):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_bytes(data)
            out = tmp_path / name
            rc = main(["curves", "--config", str(cfg), "--model", str(trained_run / "model.json"),
                       "--out", str(out)])
            assert rc == 0
            outs.append(out)
        assert (outs[0] / "curves.csv").read_bytes() == (outs[1] / "curves.csv").read_bytes()
        manifests = [(out / "manifest.txt").read_text().replace(str(out), "<out>") for out in outs]
        assert manifests[0] == manifests[1]
        assert kcli._read_config(tmp_path / "bom.cfg") == kcli._read_config(tmp_path / "plain.cfg")

    def test_config_for_other_command_rejected(self, trained_run, data_csv, tmp_path, capsys):
        rc = main(
            ["eval", "--config", str(trained_run / "manifest.txt"),
             "--model", str(trained_run / "model.json"),
             "--data", str(data_csv), "--out", str(tmp_path / "e")]
        )
        assert rc == 2
        assert "invalid-config" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, first, second",
        [
            ("train", "grid=3", "grid=5"),
            ("eval", "threshold=0.5", "threshold=0.4"),
            ("explain", "points=10", "points=20"),
            ("sweep", "seed=1", "seed=2"),
            ("export-dot", "on=test", "on=train"),
            ("curves", "points=10", "points=20"),
        ],
    )
    def test_config_key_set_twice_is_one_coded_line(
        self, command, first, second, trained_run, data_csv, tmp_path, capsys
    ):
        name = first.split("=")[0]
        assert name in {k.name for k in _KEYS[command]}
        cfg = tmp_path / "twice.cfg"
        cfg.write_text(f"{first}\n# a comment\n{second}\n")
        out = tmp_path / "out"
        inputs = {"model": trained_run / "model.json", "data": data_csv, "out": out}
        argv = [command, "--config", str(cfg)]
        for key in _KEYS[command]:
            if key.name in inputs:
                argv += ["--" + key.name, str(inputs[key.name])]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: invalid-config: {name} is set twice in {cfg}: "
            f"line 1 {first} and line 3 {second}\n"
        )
        assert not out.exists()

    def test_flag_given_twice_takes_the_last_value(self, trained_run, tmp_path):
        out = tmp_path / "cur"
        rc = main(["curves", "--model", str(trained_run / "model.json"), "--out", str(out),
                   "--points", "3", "--points", "4"])
        assert rc == 0
        assert "points=4" in (out / "manifest.txt").read_text().splitlines()


class TestEval:
    def test_writes_metrics_and_roc(self, trained_run, data_csv, tmp_path, capsys):
        out = tmp_path / "eval"
        rc = main(
            ["eval", "--model", str(trained_run / "model.json"),
             "--data", str(data_csv), "--out", str(out)]
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "roc_auc=" in stdout and "class0" in stdout and "class1" in stdout
        roc_lines = (out / "roc.csv").read_text().splitlines()
        assert roc_lines[0] == "fpr,tpr,threshold"
        first = roc_lines[1].split(",")
        last = roc_lines[-1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 0.0
        assert float(last[0]) == 1.0 and float(last[1]) == 1.0

    def test_eval_matches_train_metrics(self, trained_run, data_csv, tmp_path):
        out = tmp_path / "eval"
        main(
            ["eval", "--model", str(trained_run / "model.json"),
             "--data", str(data_csv), "--out", str(out)]
        )
        eval_pairs = dict(
            line.split("=", 1) for line in (out / "metrics.txt").read_text().splitlines()
        )
        train_pairs = dict(
            line.split("=", 1)
            for line in (trained_run / "metrics_test.txt").read_text().splitlines()
        )
        assert eval_pairs["roc_auc"] == train_pairs["roc_auc"]

    def test_negative_threshold_value_is_read_as_a_number(self, trained_run, data_csv, tmp_path):
        out = tmp_path / "eval"
        rc = main(
            ["eval", "--model", str(trained_run / "model.json"),
             "--data", str(data_csv), "--out", str(out), "--threshold", "-1e-3"]
        )
        assert rc == 0
        assert "threshold=-0.001" in (out / "manifest.txt").read_text().splitlines()

    @pytest.mark.parametrize("value", ["-1e-3", "0.3"])
    def test_flag_prefix_is_an_unknown_flag(self, value, trained_run, data_csv, tmp_path, capsys):
        out = tmp_path / "eval"
        rc = main(
            ["eval", "--model", str(trained_run / "model.json"),
             "--data", str(data_csv), "--out", str(out), "--thresh", value]
        )
        assert rc == 2
        assert re.search(r"--thresh(?!old)", capsys.readouterr().err.splitlines()[-1])
        assert not out.exists()

    def test_on_train_scores_the_training_split(self, trained_run, data_csv, tmp_path):
        out = tmp_path / "eval"
        rc = main(
            ["eval", "--model", str(trained_run / "model.json"),
             "--data", str(data_csv), "--out", str(out), "--on", "train"]
        )
        assert rc == 0
        pairs = dict(line.split("=", 1) for line in (out / "metrics.txt").read_text().splitlines())
        train_ds, _ = split(preprocess(load_gmsc_csv(data_csv)), 0.2, 42)
        assert pairs["split"] == "train"
        assert int(pairs["n_samples"]) == len(train_ds)

    def test_rerun_is_byte_identical(self, trained_run, data_csv, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            rc = main(
                ["eval", "--model", str(trained_run / "model.json"),
                 "--data", str(data_csv), "--out", str(out)]
            )
            assert rc == 0
        assert (out_a / "metrics.txt").read_bytes() == (out_b / "metrics.txt").read_bytes()
        assert (out_a / "roc.csv").read_bytes() == (out_b / "roc.csv").read_bytes()

    def test_checkpoint_mismatch(self, trained_run, data_csv, tmp_path, capsys):
        rc = main(
            ["eval", "--model", str(trained_run / "model.json"),
             "--data", str(data_csv), "--out", str(tmp_path / "e"),
             "--grid", "999"]
        )
        assert rc == 2
        assert "checkpoint-mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "broken",
        [
            "missing-params", "null-grid", "text-param", "not-json", "nan-param", "inf-range",
            "numeric-text-grid", "numeric-text-param", "text-and-bool-widths", "float-seed",
            "bool-degree",
        ],
    )
    def test_broken_checkpoint_is_coded(self, broken, trained_run, data_csv, tmp_path, capsys):
        text = (trained_run / "model.json").read_text()
        if broken == "not-json":
            text = text[: len(text) // 2]
        else:
            payload = json.loads(text)
            if broken == "missing-params":
                del payload["params"]
            elif broken == "null-grid":
                payload["grid_count"] = None
            elif broken == "nan-param":
                payload["params"][3] = float("nan")
            elif broken == "inf-range":
                payload["range_max"] = float("inf")
            elif broken == "numeric-text-grid":
                payload["grid_count"] = str(payload["grid_count"])
            elif broken == "numeric-text-param":
                payload["params"][3] = str(payload["params"][3])
            elif broken == "text-and-bool-widths":
                payload["widths"] = ["10", True]
            elif broken == "float-seed":
                payload["seed"] = payload["seed"] + 0.9
            elif broken == "bool-degree":
                payload["degree"] = True
            else:
                payload["params"][3] = "a"
            text = json.dumps(payload)
        model = tmp_path / "model.json"
        model.write_text(text)
        rc = main(["eval", "--model", str(model), "--data", str(data_csv),
                   "--out", str(tmp_path / "e")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: checkpoint-mismatch: ")

    def test_matching_flags_accepted(self, trained_run, data_csv, tmp_path):
        rc = main(
            ["eval", "--model", str(trained_run / "model.json"),
             "--data", str(data_csv), "--out", str(tmp_path / "e"),
             "--width", "10,1", "--grid", "5", "--k", "3"]
        )
        assert rc == 0


class TestExplain:
    def test_writes_all_artifacts(self, trained_run, data_csv, tmp_path):
        out = tmp_path / "exp"
        rc = main(
            ["explain", "--model", str(trained_run / "model.json"),
             "--data", str(data_csv), "--out", str(out),
             "--points", "5", "--sample", "0"]
        )
        assert rc == 0
        for name in ("attribution.csv", "structure.dot", "curves.csv",
                     "sample_path.csv", "sample_path.txt", "manifest.txt"):
            assert (out / name).exists(), name

    def test_attribution_rows_and_normalization(self, trained_run, data_csv, tmp_path):
        out = tmp_path / "exp"
        main(
            ["explain", "--model", str(trained_run / "model.json"),
             "--data", str(data_csv), "--out", str(out), "--points", "3"]
        )
        lines = (out / "attribution.csv").read_text().splitlines()
        assert lines[0] == "feature,score,normalized_score,rank"
        assert len(lines) == 11
        normalized = [float(line.split(",")[2]) for line in lines[1:]]
        assert sum(normalized) == pytest.approx(1.0, abs=1e-9)
        ranks = sorted(int(line.split(",")[3]) for line in lines[1:])
        assert ranks == list(range(10))

    def test_sample_path_resums_to_logit(self, trained_run, data_csv, tmp_path, capsys):
        out = tmp_path / "exp"
        rc = main(
            ["explain", "--model", str(trained_run / "model.json"),
             "--data", str(data_csv), "--out", str(out),
             "--points", "3", "--sample", "4"]
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        logit_line = [l for l in stdout.splitlines() if "logit=" in l][0]
        logit = float(logit_line.split("logit=")[1])
        net = load_network(trained_run / "model.json")
        final_layer = len(net.widths) - 2
        rows = (out / "sample_path.csv").read_text().splitlines()[1:]
        contributions = [
            float(r.split(",")[4]) for r in rows if int(r.split(",")[0]) == final_layer
        ]
        assert np.sum(contributions) == pytest.approx(logit, abs=1e-12)

    def test_sample_out_of_range(self, trained_run, data_csv, tmp_path, capsys):
        rc = main(
            ["explain", "--model", str(trained_run / "model.json"),
             "--data", str(data_csv), "--out", str(tmp_path / "exp"),
             "--points", "3", "--sample", "100000"]
        )
        assert rc == 2
        assert "index-out-of-range" in capsys.readouterr().err
        assert not list((tmp_path / "exp").glob("*"))

    def test_too_few_points_writes_nothing(self, trained_run, data_csv, tmp_path, capsys):
        rc = main(
            ["explain", "--model", str(trained_run / "model.json"),
             "--data", str(data_csv), "--out", str(tmp_path / "exp"), "--points", "1"]
        )
        assert rc == 2
        assert "invalid-point-count" in capsys.readouterr().err
        assert not list((tmp_path / "exp").glob("*"))

    def test_too_few_points_is_refused_before_the_attribution_pass(
        self, trained_run, data_csv, tmp_path, capsys, monkeypatch
    ):
        def refuse(*args):
            raise AssertionError("edge_scores ran before --points was checked")

        monkeypatch.setattr(kcli, "edge_scores", refuse)
        rc = main(
            ["explain", "--model", str(trained_run / "model.json"),
             "--data", str(data_csv), "--out", str(tmp_path / "exp"), "--points", "1"]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: invalid-point-count: ")
        assert not (tmp_path / "exp").exists()

    def test_dot_stable_across_runs(self, trained_run, data_csv, tmp_path):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            main(
                ["explain", "--model", str(trained_run / "model.json"),
                 "--data", str(data_csv), "--out", str(out), "--points", "3"]
            )
        assert (outs[0] / "structure.dot").read_bytes() == (outs[1] / "structure.dot").read_bytes()


class TestTextArtifacts:
    def test_every_artifact_is_utf8_with_one_final_newline_and_plain_floats(self, data_csv, tmp_path):
        model = tmp_path / "train" / "model.json"
        common = ["--data", str(data_csv)]
        runs = [
            ["train", *common, "--width", "10,2,1", "--grid", "5", "--k", "3", "--steps", "5", "--dump-data"],
            ["eval", "--model", str(model), *common],
            ["explain", "--model", str(model), *common, "--points", "5", "--sample", "0"],
            ["curves", "--model", str(model), "--points", "5"],
            ["export-dot", "--model", str(model), *common],
        ]
        for argv in runs:
            assert main([*argv, "--out", str(tmp_path / argv[0])]) == 0, argv[0]
        files = sorted(p for p in tmp_path.rglob("*") if p.is_file())
        assert {"scaler.txt", "data_train.csv", "roc.csv", "sample_path.txt", "curves.csv",
                "structure.dot"} <= {p.name for p in files}
        for path in files:
            text = path.read_bytes().decode("utf-8")
            assert text.endswith("\n") and not text.endswith("\n\n"), path
            assert not any("np." in line for line in text.splitlines()), path

    def test_non_ascii_data_path_under_an_ascii_locale(self, data_csv, tmp_path):
        csv = tmp_path / "d\u00e5ta.csv"
        shutil.copyfile(data_csv, csv)
        out = tmp_path / "run"
        env = {k: v for k, v in os.environ.items() if k not in ("PYTHONUTF8", "PYTHONIOENCODING")}
        env |= {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0",
                "PYTHONPATH": str(Path(kcli.__file__).parents[1])}

        def run_ascii(*argv):
            done = subprocess.run([sys.executable, "-X", "utf8=0", "-m", "kancredit.cli", *argv],
                                  env=env, capture_output=True, timeout=120)
            assert done.returncode == 0, done.stderr
            assert done.stderr == b""

        run_ascii("train", "--data", str(csv), "--out", str(out),
                  "--width", "10,1", "--grid", "5", "--steps", "3")
        manifest = (out / "manifest.txt").read_bytes()
        assert f"data={csv}\n".encode("utf-8") in manifest
        redo = tmp_path / "redo"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["train", "--config", str(out / "manifest.txt"), "--out", str(redo)]) == 0
        # the rerun under the same locale reads the path back as the bytes it was written from
        again = tmp_path / "again"
        run_ascii("train", "--config", str(out / "manifest.txt"), "--out", str(again))
        for rerun in (redo, again):
            assert (rerun / "metrics_test.txt").read_bytes() == (out / "metrics_test.txt").read_bytes()
            assert (rerun / "manifest.txt").read_bytes() == manifest.replace(
                f"out={out}\n".encode(), f"out={rerun}\n".encode())


@pytest.fixture(scope="module")
def sweep_run(tmp_path_factory):
    """One sweep's output directory and its stdout."""
    path = tmp_path_factory.mktemp("sweep") / "small.csv"
    write_gmsc_csv(path, make_gmsc_rows(120, seed=3))
    out = tmp_path_factory.mktemp("sweep") / "out"
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        rc = main(["sweep", "--data", str(path), "--out", str(out)])
    assert rc == 0
    return out, stdout.getvalue()


@pytest.fixture
def sweep_dir(sweep_run):
    return sweep_run[0]


class TestSweep:
    def test_summary_shapes(self, sweep_dir):
        grid_lines = (sweep_dir / "grid_sweep.csv").read_text().splitlines()
        assert grid_lines[0] == "grid,roc_auc,f1"
        assert [l.split(",")[0] for l in grid_lines[1:]] == ["3", "10", "50", "80"]
        lr_lines = (sweep_dir / "lr_sweep.csv").read_text().splitlines()
        assert lr_lines[0] == "lr,roc_auc,f1"
        assert [l.split(",")[0] for l in lr_lines[1:]] == ["0.1", "0.01", "0.001"]
        timing_lines = (sweep_dir / "timings.csv").read_text().splitlines()
        assert timing_lines[0] == "study,value,seconds"
        assert [tuple(l.split(",")[:2]) for l in timing_lines[1:]] == [
            ("grid", "3"), ("grid", "10"), ("grid", "50"), ("grid", "80"),
            ("lr", "0.1"), ("lr", "0.01"), ("lr", "0.001"),
        ]
        assert all(float(l.split(",")[2]) >= 0 for l in timing_lines[1:])

    def test_two_sweeps_differ_only_in_timings(self, tmp_path):
        path = tmp_path / "small.csv"
        write_gmsc_csv(path, make_gmsc_rows(120, seed=3))
        out = tmp_path / "out"
        runs = []
        for _ in range(2):  # the same --out both times, so the manifests can match too
            shutil.rmtree(out, ignore_errors=True)
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["sweep", "--data", str(path), "--out", str(out)]) == 0
            runs.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})
        first, second = runs
        timings = Path("timings.csv")
        assert sorted(first) == sorted(second) and timings in first
        assert {name: data for name, data in first.items() if name != timings} == {
            name: data for name, data in second.items() if name != timings
        }

    def test_cells_are_reproducible_train_runs(self, sweep_dir, tmp_path):
        cell = sweep_dir / "grid_3"
        redo = tmp_path / "redo"
        rc = main(["train", "--config", str(cell / "manifest.txt"), "--out", str(redo)])
        assert rc == 0
        assert (cell / "metrics.txt").read_bytes() == (redo / "metrics_test.txt").read_bytes()

    def test_reference_and_manifest_present(self, sweep_dir):
        assert "reference." in (sweep_dir / "reference.txt").read_text()
        assert (sweep_dir / "manifest.txt").exists()
        for name in ("grid_3", "grid_10", "grid_50", "grid_80", "lr_0.1", "lr_0.01", "lr_0.001"):
            assert (sweep_dir / name / "model.json").exists(), name

    def test_stdout_cells_and_csv_rows_agree(self, sweep_run):
        out, stdout = sweep_run
        cells = ["grid_3", "grid_10", "grid_50", "grid_80", "lr_0.1", "lr_0.01", "lr_0.001"]
        assert sorted(p.name for p in out.iterdir() if p.is_dir()) == sorted(cells)
        printed = [
            re.fullmatch(r"sweep: (\w+)=(\S+) roc_auc=(\S+) f1=(\S+)", line).groups()
            for line in stdout.splitlines()
        ]
        assert [f"{key}_{value}" for key, value, _, _ in printed] == cells
        rows = [
            line.split(",")
            for name in ("grid_sweep.csv", "lr_sweep.csv")
            for line in (out / name).read_text().splitlines()[1:]
        ]
        assert len(rows) == len(cells)
        for cell, (_, _, auc, f1), row in zip(cells, printed, rows):
            metrics = dict(
                line.split("=", 1) for line in (out / cell / "metrics.txt").read_text().splitlines()
            )
            assert row[1:3] == [auc, f1] == [metrics["roc_auc"], metrics["class0_f1"]], cell

    def test_cells_train_in_order_on_the_caller(self, tmp_path, monkeypatch):
        # four chunks per step, so every cell's passes start a helper thread
        patch_chunk_rows(monkeypatch, 30)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        cells, helpers_alive = [], []

        def recording_train(dataset, cfg):
            cells.append((threading.current_thread(), cfg.grid_count, cfg.learning_rate))
            return train(dataset, cfg)

        def counting_layer_batch(layer, cur, *rest):  # rest: a full-batch step's layer-0 positions
            helpers_alive.append(
                sum(t.name.startswith("kancredit-chunk") for t in threading.enumerate())
            )
            return _layer_batch(layer, cur, *rest)

        monkeypatch.setattr(kcli, "train", recording_train)
        monkeypatch.setattr(knet, "_layer_batch", counting_layer_batch)
        path = tmp_path / "small.csv"
        write_gmsc_csv(path, make_gmsc_rows(120, seed=3))
        out = tmp_path / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["sweep", "--data", str(path), "--out", str(out)]) == 0
        assert [(grid, lr) for _, grid, lr in cells] == [  # the grid study, then the lr study
            (3, 0.1), (10, 0.1), (50, 0.1), (80, 0.1), (10, 0.1), (10, 0.01), (10, 0.001),
        ]
        assert {thread for thread, _, _ in cells} == {threading.current_thread()}
        assert max(helpers_alive) == 1
        assert (out / "manifest.txt").read_text(encoding="utf-8").splitlines() == [
            "command=sweep", f"data={path}", f"out={out}", "seed=42", "test_fraction=0.2",
        ]

    def test_each_study_csv_is_written_once_its_cells_are_trained(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        written = []  # the study CSVs in --out as each cell starts to train

        def recording_train(dataset, cfg):
            written.append(sorted(p.name for p in out.glob("*_sweep.csv")))
            return train(dataset, cfg)

        monkeypatch.setattr(kcli, "train", recording_train)
        path = tmp_path / "small.csv"
        write_gmsc_csv(path, make_gmsc_rows(120, seed=3))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["sweep", "--data", str(path), "--out", str(out)]) == 0
        assert written == [[]] * 4 + [["grid_sweep.csv"]] * 3
        assert sorted(p.name for p in out.glob("*_sweep.csv")) == ["grid_sweep.csv", "lr_sweep.csv"]

    def test_parallel_flag_is_unrecognized(self, data_csv, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["sweep", "--data", str(data_csv), "--out", str(out), "--parallel", "2"])
        assert rc == 2
        assert "unrecognized arguments: --parallel 2" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_with_parallel_is_one_coded_line(self, data_csv, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = tmp_path / "manifest.txt"  # a sweep manifest written while sweep had --parallel
        cfg.write_text(
            f"command=sweep\ndata={data_csv}\nout={out}\nparallel=1\nseed=42\ntest_fraction=0.2\n",
            encoding="utf-8",
        )
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"error: invalid-config: parallel=1 in {cfg}: unknown key for sweep\n"
        )
        assert not out.exists()


class TestExportCommands:
    @pytest.mark.parametrize("command", ["eval", "explain", "export-dot"])
    def test_checkpoint_of_another_width_is_one_coded_line(self, command, data_csv, tmp_path, capsys):
        model = tmp_path / "model.json"
        save_network(init_network([3, 1], 5, 3, seed=0), model)
        out = tmp_path / "out"
        rc = main([command, "--model", str(model), "--data", str(data_csv), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: dimension-mismatch: ")
        assert not out.exists()

    def test_export_dot_stdout(self, trained_run, data_csv, capsys):
        rc = main(
            ["export-dot", "--model", str(trained_run / "model.json"), "--data", str(data_csv)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph kan {")
        assert out.rstrip().endswith("}")

    def test_export_dot_directory(self, trained_run, data_csv, tmp_path):
        out = tmp_path / "dot"
        rc = main(
            ["export-dot", "--model", str(trained_run / "model.json"),
             "--data", str(data_csv), "--out", str(out)]
        )
        assert rc == 0
        assert (out / "structure.dot").exists()
        assert (out / "manifest.txt").exists()

    def test_curves_row_count(self, trained_run, tmp_path):
        out = tmp_path / "cur"
        rc = main(["curves", "--model", str(trained_run / "model.json"),
                   "--points", "4", "--out", str(out)])
        assert rc == 0
        lines = (out / "curves.csv").read_text().splitlines()
        assert lines[0] == "layer,q,p,x,phi"
        assert len(lines) == 1 + 10 * 4  # one edge per input for width 10,1

    def test_curves_stdout(self, trained_run, capsys):
        rc = main(["curves", "--model", str(trained_run / "model.json"), "--points", "2"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("layer,q,p,x,phi")

    def test_curves_stdout_equals_out_file(self, trained_run, tmp_path, capsys):
        model = str(trained_run / "model.json")
        assert main(["curves", "--model", model, "--points", "7"]) == 0
        stdout = capsys.readouterr().out
        out = tmp_path / "cur"
        assert main(["curves", "--model", model, "--points", "7", "--out", str(out)]) == 0
        assert (out / "curves.csv").read_text(encoding="utf-8") == stdout
        assert len(stdout.splitlines()) == 1 + 10 * 7

    def test_missing_model_exits_2(self, tmp_path, capsys):
        rc = main(["curves", "--model", str(tmp_path / "none.json")])
        assert rc == 2
        assert "io-error" in capsys.readouterr().err


class TestNoOutputOnBadInput:
    @pytest.mark.parametrize("command", ["train", "eval", "sweep", "explain", "export-dot"])
    def test_malformed_csv_leaves_no_out_dir(self, command, trained_run, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        model = [] if command in ("train", "sweep") else ["--model", str(trained_run / "model.json")]
        out = tmp_path / "out"
        rc = main([command, *model, "--data", str(bad), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: header-mismatch: ")
        assert not out.exists()

    def test_rejected_learning_rate_leaves_no_out_dir(self, data_csv, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["train", "--data", str(data_csv), "--out", str(out), "--lr", "-1"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: invalid-config: ")
        assert not out.exists()

    def test_failed_train_metrics_leave_no_out_dir(self, data_csv, tmp_path, capsys, monkeypatch):
        # a split always leaves both classes in both parts, so the metrics
        # failure after training is injected
        def refuse(*args, **kwargs):
            raise ValueError("single-class-input: ROC needs both classes")

        monkeypatch.setattr(kcli, "classification_report", refuse)
        out = tmp_path / "out"
        rc = main(["train", "--data", str(data_csv), "--out", str(out), "--steps", "2"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: single-class-input: ")
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_diverged_run_on_two_threads_prints_one_line(self, data_csv, tmp_path, capsys, monkeypatch):
        patch_chunk_rows(monkeypatch, 7)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        out = tmp_path / "out"
        rc = main(["train", "--data", str(data_csv), "--out", str(out), "--lr", "1e300"])
        assert rc == 2
        assert capsys.readouterr().err == "error: diverged: step 2\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "changes",
        # a degree of 10**12 asks for terabytes, so an allocation made before the check fails at once
        [{"widths": [1000000, 1000000, 1]}, {"degree": 10**12}, {"widths": [10**30, 1]}],
        ids=["wide-layers", "high-degree", "huge-width"],
    )
    def test_checkpoint_shape_is_checked_before_allocating(self, changes, trained_run, tmp_path, capsys):
        model = tmp_path / "model.json"
        payload = json.loads((trained_run / "model.json").read_text())
        model.write_text(json.dumps(payload | changes))
        out = tmp_path / "out"
        rc = main(["curves", "--model", str(model), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert re.match(r"error: length-mismatch: expected \d+ parameters, got \(\d+,\)$", err)
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flags, code",
        [
            ("train", ["--lr", "-1"], "invalid-config"),
            ("train", ["--lr", "nan"], "invalid-config"),
            ("train", ["--lr", "inf"], "invalid-config"),
            ("train", ["--seed", "-1"], "invalid-seed"),
            ("eval", ["--seed", "-1"], "invalid-seed"),
            ("explain", ["--seed", "-1"], "invalid-seed"),
            ("sweep", ["--seed", "-1"], "invalid-seed"),
            ("export-dot", ["--seed", "-1"], "invalid-seed"),
            ("eval", ["--threshold", "nan"], "invalid-threshold"),
            ("sweep", ["--test-fraction", "1"], "invalid-fraction"),
            ("train", ["--data", "HEADER_A_B_CSV"], "header-mismatch"),
            ("train", ["--lr", "1e300"], "diverged"),
            ("train", ["--test-fraction", "0.999"], "empty-split"),
            ("train", ["--data", "NOT_UTF8_CSV"], "parse-error(row 401)"),
            ("train", ["--grid", "abc"], "invalid-config"),
            ("train", ["--width", "10,x"], "invalid-config"),
            ("train", ["--lr", "abc"], "invalid-config"),
            ("eval", ["--on", "x"], "invalid-config"),
            ("train", ["--lr", "-1e-3"], "invalid-config"),
        ],
    )
    def test_bad_value_is_one_coded_line(self, command, flags, code, data_csv, trained_run, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        not_utf8 = tmp_path / "not-utf8.csv"
        text = data_csv.read_bytes()  # a byte 0xff inside the last cell of line 401
        not_utf8.write_bytes(text[:-3] + b"\xff" + text[-3:])
        files = {"HEADER_A_B_CSV": bad, "NOT_UTF8_CSV": not_utf8}
        flags = [str(files.get(f, f)) for f in flags]  # a later --data wins
        model = [] if command in ("train", "sweep") else ["--model", str(trained_run / "model.json")]
        out = tmp_path / "out"
        rc = main([command, *model, "--data", str(data_csv), "--out", str(out), *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert re.match(r"error: [a-z-]+(\(row \d+\))?: ", err)
        assert err.startswith(f"error: {code}: ")
        assert not out.exists()


def _typed_settings():
    """Every setting whose text is converted, by config line and, unless a switch, by flag.

    A setting with a default is also given as a config ``none``, which only
    a setting without one accepts.
    """
    for command, keys in _KEYS.items():
        for key in keys:
            if key.convert is str:
                continue
            yield pytest.param(command, key.name, "config", id=f"{command}-{key.name}-config")
            if key.convert is not kcli._parse_bool:  # --dump-data is a switch and takes no text
                yield pytest.param(command, key.name, "flag", id=f"{command}-{key.name}-flag")
            if key.default is not None:
                yield pytest.param(command, key.name, "none", id=f"{command}-{key.name}-none")


class TestEveryTypedSetting:
    @pytest.mark.parametrize("command, name, given", list(_typed_settings()))
    def test_bad_text_is_one_line_naming_the_setting(
        self, command, name, given, trained_run, data_csv, tmp_path, capsys
    ):
        out = tmp_path / "out"
        inputs = {"model": trained_run / "model.json", "data": data_csv, "out": out}
        argv = [command]
        for key in _KEYS[command]:
            if key.name in inputs:
                argv += ["--" + key.name, str(inputs[key.name])]
        flag = "--" + name.replace("_", "-")
        if given == "flag":
            argv += [flag, "bad"]
            source = f"{flag} bad"
        else:
            text = "none" if given == "none" else "bad"
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(f"{name}={text}\n")
            argv += ["--config", str(cfg)]
            source = f"{name}={text} in {cfg}"
        rc = main(argv)
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: invalid-config: {source}: ")
        assert not out.exists()

    def test_none_unsets_a_setting_without_a_default(self, trained_run, data_csv, tmp_path):
        cfg = tmp_path / "unset.cfg"
        cfg.write_text("width=none\ngrid=none\nk=none\n")
        out = tmp_path / "out"
        argv = ["eval", "--config", str(cfg), "--model", str(trained_run / "model.json"),
                "--data", str(data_csv), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert {"width=10,1", "grid=5", "k=3", "on=test", "threshold=0.5"} <= set(manifest)


class TestSharedSettings:
    def test_every_setting_has_a_one_line_help(self):
        for command, keys in _KEYS.items():
            for key in keys:
                assert key.help and key.help.strip(), f"{command} --{key.name} has no help"
                assert "\n" not in key.help

    @pytest.mark.parametrize("command", ["train", "eval", "explain", "sweep", "export-dot"])
    def test_split_settings_are_the_one_shared_definition(self, command):
        # identity, not equality: a command with its own copy of a split key
        # could drift from train's default or converter
        assert [k.name for k in kcli._SPLIT] == ["seed", "test_fraction"]
        keys = {k.name: k for k in _KEYS[command]}
        for shared in kcli._SPLIT:
            assert keys[shared.name] is shared

    def test_train_keys_set_each_train_config_field_but_seed_once(self):
        # a TrainConfig field without a train key, or a key whose default
        # drifts from its field's, fails here
        fields = {f.name: f.default for f in dataclasses.fields(TrainConfig)}
        keys = {k.name: k for k in _KEYS["train"]}
        assert sorted(field for _, field, *_ in kcli._TRAIN) == sorted(set(fields) - {"seed"})
        for name, field, *_ in kcli._TRAIN:
            assert keys[name].default == fields[field], name
        defaults = {name: key.default for name, key in keys.items()}
        base = kcli._train_config(defaults)
        assert base == TrainConfig(seed=42)
        others = {"width": (10, 1), "grid": 7, "k": 3, "lr": 0.5, "steps": 9, "batch": 16}
        for name, field, *_ in kcli._TRAIN:  # each key reaches its own field and no other
            cfg = kcli._train_config(defaults | {name: others[name]})
            changed = [f for f in fields if getattr(cfg, f) != getattr(base, f)]
            assert changed == [field], name


class TestUsageErrors:
    def test_no_command_exits_2(self):
        assert main([]) == 2

    def test_unknown_command_exits_2(self):
        assert main(["frobnicate"]) == 2

    def test_missing_required_value_exits_2(self, capsys):
        rc = main(["train"])
        assert rc == 2
        assert "invalid-config" in capsys.readouterr().err

    def test_internal_error_exits_1(self, trained_run, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("unexpected")

        monkeypatch.setattr(kcli, "sample_activation_curves", fail)
        out = tmp_path / "cur"
        rc = main(["curves", "--model", str(trained_run / "model.json"), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: internal-error: unexpected\n"
        assert not out.exists()

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "train" in capsys.readouterr().out

    @pytest.mark.parametrize("command", list(_KEYS))
    def test_subcommand_flags_are_config_plus_its_keys(self, command, capsys):
        assert main([command, "--help"]) == 0
        flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
        assert flags == {"--config"} | {"--" + k.name.replace("_", "-") for k in _KEYS[command]}
