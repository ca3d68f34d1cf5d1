"""Tests for the command-line interface.

Most tests drive ``main(argv)`` in-process; one subprocess test pins the
``python -m balm`` wiring. Determinism tests compare output bytes across
repeated runs, which is what makes the eval pipeline auditable.
"""

import gzip
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import suite_problem

from balm.cli import main, parse_seed_list, read_text
from balm.scene import serialize_bal


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


TINY_TRAIN = (
    "--train-seeds", "0-1", "--num-cameras", "4", "--num-points", "6",
    "--episodes", "3", "--hidden", "16", "--batch-size", "16",
    "--warmup-steps", "10", "--replay-capacity", "500",
    "--max-iterations", "20", "--deterministic-time", "--seed", "7",
)


class TestHelpers:
    def test_parse_seed_list(self):
        assert parse_seed_list("3") == [3]
        assert parse_seed_list("0,2,5") == [0, 2, 5]
        assert parse_seed_list("0-3") == [0, 1, 2, 3]
        assert parse_seed_list("0-2,7") == [0, 1, 2, 7]
        with pytest.raises(ValueError):
            parse_seed_list("")

    def test_read_text_transparent_gzip(self, tmp_path):
        plain = tmp_path / "data.txt"
        plain.write_text("4 6 24\n")
        packed = tmp_path / "data.txt.gz"
        packed.write_bytes(gzip.compress(b"4 6 24\n"))
        assert read_text(plain) == "4 6 24\n"
        assert read_text(packed) == "4 6 24\n"


class TestGenerate:
    def test_writes_suite_scenes_and_manifest(self, tmp_path):
        out = tmp_path / "scenes"
        assert run_cli(
            "generate", "--count", 2, "--num-cameras", 4, "--num-points", 6,
            "--seed", 0, "--out-dir", out,
        ) == 0
        for seed in (0, 1):
            text = (out / f"scene-{seed}.txt").read_text()
            assert text == serialize_bal(suite_problem(seed, 4, 6))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert manifest["outputs"] == ["scene-0.txt", "scene-1.txt"]
        assert "out_dir" not in manifest["config"]
        assert "balm" in manifest["versions"] and "numpy" in manifest["versions"]


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scenes")
    run_cli(
        "generate", "--count", 1, "--num-cameras", 4, "--num-points", 6,
        "--seed", 2, "--out-dir", out,
    )
    packed = out / "scene-2.txt.gz"
    packed.write_bytes(gzip.compress((out / "scene-2.txt").read_bytes()))
    return out


class TestSolve:
    def test_solve_writes_result_and_trace(self, tmp_path, scene_dir):
        out = tmp_path / "solve"
        assert run_cli(
            "solve", "--problem", scene_dir / "scene-2.txt",
            "--pixel-sigma", 250.0, "--policy", "classic",
            "--deterministic-time", "--out-dir", out,
        ) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["outcome"] == "converged"
        trace_lines = (out / "trace.csv").read_text().splitlines()
        assert len(trace_lines) == result["iterations"] + 1

    def test_gzip_problem_gives_identical_result(self, tmp_path, scene_dir):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out, name in ((out_a, "scene-2.txt"), (out_b, "scene-2.txt.gz")):
            run_cli(
                "solve", "--problem", scene_dir / name, "--pixel-sigma", 250.0,
                "--policy", "gn", "--deterministic-time", "--out-dir", out,
            )
        assert (out_a / "result.json").read_bytes() == (out_b / "result.json").read_bytes()
        assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()

    def test_fixed_policy_caps_at_max_iterations(self, tmp_path, scene_dir):
        # 1e-4 moves the error slowly on this scene family, so the relative
        # decrease stays above threshold and the cap is what terminates
        out = tmp_path / "fixed"
        run_cli(
            "solve", "--problem", scene_dir / "scene-2.txt", "--pixel-sigma", 250.0,
            "--policy", "fixed", "--fixed-value", 1e-4, "--max-iterations", 7,
            "--deterministic-time", "--out-dir", out,
        )
        result = json.loads((out / "result.json").read_text())
        assert result["outcome"] == "iteration-cap"
        assert result["iterations"] == 7

    def test_missing_problem_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            run_cli("solve", "--out-dir", tmp_path)

    def test_unknown_policy_exits(self, tmp_path, scene_dir):
        with pytest.raises(SystemExit):
            run_cli(
                "solve", "--problem", scene_dir / "scene-2.txt",
                "--policy", "annealed", "--out-dir", tmp_path,
            )

    def test_config_file_supplies_and_flags_override(self, tmp_path, scene_dir):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "problem": str(scene_dir / "scene-2.txt"),
            "pixel_sigma": 250.0,
            "policy": "fixed",
            "fixed_value": 1e-4,
            "max_iterations": 5,
            "deterministic_time": True,
        }))
        out_a = tmp_path / "from_config"
        run_cli("solve", "--config", config, "--out-dir", out_a)
        assert json.loads((out_a / "result.json").read_text())["iterations"] == 5
        out_b = tmp_path / "flag_override"
        run_cli("solve", "--config", config, "--max-iterations", 9, "--out-dir", out_b)
        assert json.loads((out_b / "result.json").read_text())["iterations"] == 9


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    run_cli("train", "--algo", "sac", *TINY_TRAIN, "--out-dir", out)
    return out


class TestScheduleAutoSolve:
    def test_solve_resolves_schedule_from_checkpoint(self, tmp_path, trained_dir, scene_dir):
        out = tmp_path / "auto"
        assert run_cli(
            "solve", "--problem", scene_dir / "scene-2.txt", "--pixel-sigma", 250.0,
            "--policy", "scheduler", "--schedule", "auto",
            "--checkpoint", trained_dir / "agent.ckpt",
            "--deterministic-time", "--out-dir", out,
        ) == 0
        result = json.loads((out / "result.json").read_text())
        trace_lines = (out / "trace.csv").read_text().splitlines()
        assert len(trace_lines) == result["iterations"] + 1

    def test_solve_auto_schedule_needs_checkpoint(self, tmp_path, scene_dir):
        with pytest.raises(SystemExit):
            run_cli(
                "solve", "--problem", scene_dir / "scene-2.txt",
                "--policy", "scheduler", "--schedule", "auto", "--out-dir", tmp_path,
            )


class TestTrain:
    def test_sac_outputs(self, trained_dir):
        from balm.sac import load_agent_checkpoint

        nets, meta = load_agent_checkpoint(trained_dir / "agent.ckpt")
        assert nets.window == 5
        entries = [
            json.loads(line)
            for line in (trained_dir / "train_log.jsonl").read_text().splitlines()
        ]
        assert [e["episode"] for e in entries] == [0, 1, 2]
        assert all(
            e["outcome"] in ("converged", "iteration-cap", "numerical-failure")
            for e in entries
        )
        manifest = json.loads((trained_dir / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["outputs"] == ["agent.ckpt", "train_log.jsonl"]

    def test_zero_net_outputs(self, tmp_path):
        out = tmp_path / "zn"
        assert run_cli(
            "train", "--algo", "zero-net", "--train-seeds", "0",
            "--num-cameras", 4, "--num-points", 6, "--epochs", 2,
            "--hidden", 8, "--passes-per-epoch", 2, "--max-iterations", 5,
            "--deterministic-time", "--out-dir", out,
        ) == 0
        from balm.baselines import load_zero_net_checkpoint

        net = load_zero_net_checkpoint(out / "zero_net.ckpt")
        assert net.widths == [15, 8, 8, 8, 1]
        entries = [
            json.loads(line)
            for line in (out / "train_log.jsonl").read_text().splitlines()
        ]
        assert [e["epoch"] for e in entries] == [0, 1]


class TestEvalAndProfile:
    EVAL_ARGS = (
        "--eval-seeds", "100-101", "--num-cameras", "4", "--num-points", "6",
        "--max-iterations", "30", "--deterministic-time",
    )

    def test_eval_table_shape(self, tmp_path, trained_dir):
        out = tmp_path / "eval"
        assert run_cli(
            "eval", "--policies", "classic,scheduler,agent",
            "--checkpoint", trained_dir / "agent.ckpt", *self.EVAL_ARGS,
            "--out-dir", out,
        ) == 0
        records = (out / "records.csv").read_text().splitlines()
        assert records[0] == (
            "problem,policy,seed,outcome,iterations,total_time_s,initial_error,final_error"
        )
        assert len(records) == 1 + 2 * 3  # 2 scenes x 3 policies
        aggregates = (out / "aggregates.csv").read_text().splitlines()
        assert len(aggregates) == 1 + 3

    def test_eval_reruns_are_byte_identical(self, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            run_cli("eval", "--policies", "classic,gn", *self.EVAL_ARGS, "--out-dir", out)
            outs.append(out)
        for fname in ("records.csv", "aggregates.csv", "manifest.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_profile_outputs(self, tmp_path):
        out = tmp_path / "profile"
        assert run_cli(
            "profile", "--policies", "classic,gn", "--tolerances", "0.1,0.001",
            *self.EVAL_ARGS, "--out-dir", out,
        ) == 0
        for name in ("profile-0.1.csv", "profile-0.001.csv"):
            lines = (out / name).read_text().splitlines()
            assert lines[0] == "policy,relative_time,solved_fraction"
            for line in lines[1:]:
                _policy, alpha, fraction = line.split(",")
                assert float(alpha) >= 1.0
                assert 0.0 <= float(fraction) <= 1.0

    def test_schedule_auto_uses_checkpoint(self, tmp_path, trained_dir):
        out = tmp_path / "auto"
        assert run_cli(
            "eval", "--policies", "scheduler", "--schedule", "auto",
            "--checkpoint", trained_dir / "agent.ckpt", *self.EVAL_ARGS,
            "--out-dir", out,
        ) == 0
        records = (out / "records.csv").read_text().splitlines()
        assert len(records) == 1 + 2


class TestAblateCli:
    def test_reversed_kind(self, tmp_path):
        out = tmp_path / "ablate"
        config = json.dumps({
            "num_cameras": 4, "num_points": 6, "train_seeds": [0],
            "eval_seeds": [2], "episodes": 2, "hidden": 8, "batch_size": 8,
            "warmup_steps": 5, "replay_capacity": 100, "max_iterations": 8,
        })
        assert run_cli(
            "ablate", "--kind", "reversed", "--ablation-config", config,
            "--deterministic-time", "--out-dir", out,
        ) == 0
        lines = (out / "ablation-reversed.csv").read_text().splitlines()
        assert len(lines) == 3
        payload = json.loads((out / "ablation-reversed.json").read_text())
        assert payload["kind"] == "reversed"

    def test_missing_kind_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            run_cli("ablate", "--out-dir", tmp_path)


def test_module_entry_point(tmp_path):
    # The subprocess does not see pytest's ``pythonpath``; put this checkout first.
    src = str(Path(__file__).resolve().parents[1] / "src")
    inherited = os.environ.get("PYTHONPATH")
    pythonpath = src + os.pathsep + inherited if inherited else src
    proc = subprocess.run(
        [
            sys.executable, "-m", "balm", "generate", "--count", "1",
            "--num-cameras", "4", "--num-points", "6",
            "--out-dir", str(tmp_path),
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0
    assert (tmp_path / "scene-0.txt").exists()
    assert "wrote 1 scenes" in proc.stdout
