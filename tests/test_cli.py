"""Command-line interface, exercised in process plus one subprocess smoke."""

import csv
import importlib.metadata
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from exitbandit.cli import build_parser, main
from exitbandit.harness import TRACE_HEADER
from exitbandit.reliability import ReliabilityModel

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def _distribution_installed(name):
    try:
        importlib.metadata.distribution(name)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


def write_config(tmp_path, **overrides):
    payload = {"generator": {}, "num_rounds": 150, "out_dir": str(tmp_path / "res")}
    payload.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


def printed_paths(capsys):
    out = capsys.readouterr().out
    return [line for line in out.splitlines() if line.strip()]


class TestParser:
    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in ("simulate", "train-reliability", "sweep", "analyze", "bench"):
            assert name in out

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["replay"])
        assert exc.value.code == 2

    def test_simulate_requires_config(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate"])
        assert exc.value.code == 2

    def test_seed_and_seeds_are_mutually_exclusive(self, capsys, tmp_path):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(cfg), "--seed", "1", "--seeds", "1,2"])
        assert exc.value.code == 2

    def test_build_parser_prog_name(self):
        assert build_parser().prog == "exitbandit"


class TestSimulate:
    def test_writes_and_prints_all_outputs(self, capsys, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg)]) == 0
        paths = printed_paths(capsys)
        assert len(paths) == 3  # trace, summary, aggregate for one seed
        names = [p.rsplit("/", 1)[-1] for p in paths]
        assert names == ["trace_ucb_0.csv", "summary_ucb_0.json", "aggregate_ucb.json"]
        for p in paths:
            assert (tmp_path / "res").joinpath(p.rsplit("/", 1)[-1]).exists()

    def test_seed_override(self, capsys, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg), "--seed", "7"]) == 0
        names = [p.rsplit("/", 1)[-1] for p in printed_paths(capsys)]
        assert "trace_ucb_7.csv" in names
        assert "trace_ucb_0.csv" not in names

    def test_seeds_and_out_overrides(self, capsys, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "elsewhere"
        assert main([
            "simulate", "--config", str(cfg), "--seeds", "1,2", "--out", str(out),
        ]) == 0
        assert (out / "trace_ucb_1.csv").exists()
        assert (out / "trace_ucb_2.csv").exists()
        assert not (tmp_path / "res").exists()


class TestSeedOverrides:
    @pytest.mark.parametrize("command", ["simulate", "train-reliability", "sweep"])
    @pytest.mark.parametrize("seed_args", [
        ["--seeds", "1,1"], ["--seeds", "2,-1"], ["--seed", "-3"],
    ], ids=["repeated", "negative-in-list", "negative"])
    def test_rejected_before_anything_is_written(self, capsys, tmp_path, command,
                                                 seed_args):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg), *seed_args, "--out", str(out)]
        if command == "sweep":
            argv += ["--axis", "lambda", "--values", "0"]
        assert main(argv) == 1
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1
        assert "seeds must be" in json.loads(err_lines[0])["error"]
        assert not out.exists()
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("command", ["simulate", "train-reliability", "sweep"])
    def test_empty_out_rejected_before_anything_is_written(self, capsys, tmp_path,
                                                           monkeypatch, command):
        cfg = write_config(tmp_path)
        monkeypatch.chdir(tmp_path)
        argv = [command, "--config", str(cfg), "--out", ""]
        if command == "sweep":
            argv += ["--axis", "lambda", "--values", "0"]
        assert main(argv) == 1
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1
        assert "out_dir" in json.loads(err_lines[0])["error"]
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


class TestTrainReliability:
    def test_trains_and_persists_model(self, capsys, tmp_path):
        cfg = write_config(tmp_path, num_rounds=100, reliability={"epochs": 40})
        assert main(["train-reliability", "--config", str(cfg)]) == 0
        model_path, metrics_path = printed_paths(capsys)
        model = ReliabilityModel.from_json(
            (tmp_path / "res" / model_path.rsplit("/", 1)[-1]).read_text()
        )
        assert model.num_layers == 12
        metrics = json.loads(
            (tmp_path / "res" / metrics_path.rsplit("/", 1)[-1]).read_text()
        )
        assert metrics["epochs"] == 40

    def test_train_g_alias(self, capsys, tmp_path):
        cfg = write_config(tmp_path, num_rounds=100, reliability={"epochs": 30})
        assert main(["train-g", "--config", str(cfg), "--seed", "3"]) == 0
        names = [p.rsplit("/", 1)[-1] for p in printed_paths(capsys)]
        assert names == ["reliability_3.json", "reliability_metrics_3.json"]

    def test_trains_every_seed_in_config_order(self, capsys, tmp_path):
        cfg = write_config(tmp_path, num_rounds=100, reliability={"epochs": 20})
        both, alone = tmp_path / "both", tmp_path / "alone"
        assert main(["train-reliability", "--config", str(cfg), "--seeds", "7,8",
                     "--out", str(both)]) == 0
        paths = printed_paths(capsys)
        assert [Path(p).name for p in paths] == [
            "reliability_7.json", "reliability_metrics_7.json",
            "reliability_8.json", "reliability_metrics_8.json"]
        assert main(["train-reliability", "--config", str(cfg), "--seed", "8",
                     "--out", str(alone)]) == 0
        assert printed_paths(capsys) == [str(alone / Path(p).name) for p in paths[2:]]
        for name in ("reliability_8.json", "reliability_metrics_8.json"):
            assert (both / name).read_bytes() == (alone / name).read_bytes()


class TestSweep:
    def test_variant_axis_accepts_names(self, capsys, tmp_path):
        cfg = write_config(tmp_path, num_rounds=200)
        assert main([
            "sweep", "--config", str(cfg), "--axis", "variant",
            "--values", "product,product_penalized", "--out", str(tmp_path),
        ]) == 0
        path = printed_paths(capsys)[0]
        assert path.endswith("sweep_variant.csv")
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["value"] for r in rows] == ["product", "product_penalized"]

    def test_numeric_axis_parses_floats(self, capsys, tmp_path):
        cfg = write_config(tmp_path, num_rounds=150)
        assert main([
            "sweep", "--config", str(cfg), "--axis", "lambda",
            "--values", "0,0.001", "--out", str(tmp_path),
        ]) == 0
        with open(printed_paths(capsys)[0], newline="") as fh:
            assert [r["value"] for r in csv.DictReader(fh)] == ["0.0", "0.001"]

    def test_unknown_axis_exits_2(self, capsys, tmp_path):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(cfg), "--axis", "tilt", "--values", "1"])
        assert exc.value.code == 2

    def test_empty_values_fail_cleanly(self, capsys, tmp_path):
        cfg = write_config(tmp_path)
        code = main([
            "sweep", "--config", str(cfg), "--axis", "lambda",
            "--values", ",", "--out", str(tmp_path),
        ])
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert "error" in json.loads(err)


class TestAnalyze:
    def test_regret_curves_from_traces(self, capsys, tmp_path):
        cfg = write_config(tmp_path, seeds=[0, 1])
        assert main(["simulate", "--config", str(cfg)]) == 0
        traces = [p for p in printed_paths(capsys) if "trace_" in p]
        out = tmp_path / "curves"
        assert main(["analyze", *traces, "--out", str(out)]) == 0
        written = printed_paths(capsys)
        assert written == [str(out / "regret_ucb.csv")]
        with open(written[0], newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 150
        assert float(rows[0]["cum_regret"]) >= 0.0

    def test_bad_trace_name_fails_cleanly(self, capsys, tmp_path):
        rogue = tmp_path / "notatrace.csv"
        rogue.write_text("round,arm\n")
        assert main(["analyze", str(rogue), "--out", str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert "trace_<policy>_<seed>" in payload["error"]

    @pytest.mark.parametrize("cut_row", [
        "2,0.77777", "2,0.5,3,0.8,0.79,0.9,1,", "2,0.5,3,0.8,0.79,0.9,1,nan",
        "2,0.5,3,inf,0.79,0.9,1,0", "2,nan,3,0.8,0.79,0.9,1,0",
        "2,0.5,3,0.8,0.79,0.9,2,0", "2,0.5,3,0.8,0.79,0.9,true,0",
        "1,0.5,3,0.8,0.79,0.9,1,0", "3,0.5,3,0.8,0.79,0.9,1,0",
    ], ids=["short-row", "empty-field", "nan-regret", "inf-score", "nan-arm",
            "correct-2", "correct-word", "round-repeated", "round-skipped"])
    def test_trace_cut_mid_row_fails_cleanly(self, capsys, tmp_path, cut_row):
        trace = tmp_path / "trace_ucb_0.csv"
        header = ",".join(TRACE_HEADER)
        trace.write_text(f"{header}\n1,0.5,3,0.8,0.79,0.9,1,0\n{cut_row}\n")
        out = tmp_path / "curves"
        assert main(["analyze", str(trace), "--out", str(out)]) == 1
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1
        error = json.loads(err_lines[0])["error"]
        assert str(trace) in error
        assert "line 3" in error
        assert not out.exists()


class TestBench:
    def test_reports_json_timings(self, capsys):
        assert main(["bench", "--rounds", "2000"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rounds"] == 2000
        assert report["median_us"] > 0.0

    @pytest.mark.parametrize("argv, name", [
        (["--rounds", "0"], "rounds"), (["--rounds", "-3"], "rounds"),
        (["--arms", "0"], "num_arms"),
    ])
    def test_unusable_counts_rejected(self, capsys, argv, name):
        assert main(["bench", *argv]) == 1
        error = json.loads(capsys.readouterr().err.strip())["error"]
        assert error.startswith(f"{name} must be >= 1")


class TestErrorReporting:
    def test_missing_config_file(self, capsys, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 1
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1
        assert "error" in json.loads(err_lines[0])

    def test_invalid_json_config(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        assert main(["simulate", "--config", str(path)]) == 1
        assert "JSON" in json.loads(capsys.readouterr().err.strip())["error"]

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = write_config(tmp_path, turbo=True)
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert "turbo" in json.loads(capsys.readouterr().err.strip())["error"]


class TestEntryPoints:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "exitbandit.cli", "bench", "--rounds", "300"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["rounds"] == 300

    @pytest.mark.skipif(
        not _distribution_installed("exitbandit"),
        reason="exitbandit distribution is not installed "
               "(importlib.metadata.PackageNotFoundError); the console "
               "script exists only after pip install",
    )
    def test_console_script_installed(self):
        exe = shutil.which("exitbandit")
        assert exe is not None
        proc = subprocess.run(
            [exe, "--help"], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0
        assert "simulate" in proc.stdout

    def test_console_script_declared(self, capsys):
        tomllib = pytest.importorskip("tomllib")
        with open(PYPROJECT, "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts["exitbandit"] == "exitbandit.cli:main"
        module_name, func_name = scripts["exitbandit"].split(":")
        entry = getattr(importlib.import_module(module_name), func_name)
        with pytest.raises(SystemExit) as exc:
            entry(["--help"])
        assert exc.value.code == 0
        assert "simulate" in capsys.readouterr().out
