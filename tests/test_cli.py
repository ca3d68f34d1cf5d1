"""Tests for the command-line interface.

Most tests drive ``main(argv)`` in-process; one subprocess test pins the
``python -m balm`` wiring. Determinism tests compare output bytes across
repeated runs, which is what makes the eval pipeline auditable.
"""

import dataclasses
import gzip
import json
import os
import re
import shlex
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import suite_problem

from balm import bench, cli
from balm.baselines import ZeroNetConfig, init_zero_net, save_zero_net_checkpoint
from balm.bench import extract_schedule
from balm.cli import _policy, build_parser, main, parse_key_list, parse_seed_list, read_text
from balm.nn import mlp_init, mlp_to_arrays, save_arrays
from balm.policy import (
    DEFAULT_SCHEDULE,
    AgentPolicy,
    ClassicPolicy,
    ConstantSchedulerPolicy,
    FixedPolicy,
    PolicyObservation,
    ZeroNetPolicy,
    agent_state,
)
from balm.sac import TrainConfig, init_agent, load_agent_checkpoint, save_agent_checkpoint
from balm.scene import serialize_bal
from balm.env import solve


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def exit_code(*argv):
    """``run_cli``'s return value, or the code of the ``SystemExit`` it raised."""
    try:
        return run_cli(*argv)
    except SystemExit as exc:
        return exc.code


def usage_error(capsys, out, *argv) -> str:
    """The message ``balm *argv --out-dir out`` rejects its input with: it must
    return 2, print one ``balm <command>: error: ...`` line and not make ``out``."""
    assert run_cli(*argv, "--out-dir", out) == 2
    assert not Path(out).exists()
    err = capsys.readouterr().err
    prefix = f"balm {argv[0]}: error: "
    assert err.startswith(prefix) and err.count("\n") == 1, err
    return err[len(prefix):-1]


def strict_json(text: str):
    """``json.loads`` of ``text``, rejecting the ``Infinity``, ``-Infinity`` and
    ``NaN`` that Python writes but JSON does not have."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


TINY_TRAIN = (
    "--train-seeds", "0-1", "--num-cameras", "4", "--num-points", "6",
    "--episodes", "3", "--hidden", "16", "--batch-size", "16",
    "--warmup-steps", "10", "--replay-capacity", "500",
    "--max-iterations", "20", "--deterministic-time", "--seed", "7",
)
TINY_ZERO_NET = (
    "--algo", "zero-net", "--train-seeds", "0-1", "--num-cameras", "4", "--num-points", "6",
    "--epochs", "1", "--hidden", "16", "--passes-per-epoch", "2",
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
        # a descending range is an error that names it, not an empty range
        with pytest.raises(ValueError, match="'9-5'"):
            parse_seed_list("0,9-5")
        with pytest.raises(ValueError, match="descending seed range '9-5'"):
            parse_seed_list("9-5")
        # each seed names one scene, so a repeated one would solve fewer scenes
        with pytest.raises(ValueError, match="seed 100 repeated in '100,100,101'"):
            parse_seed_list("100,100,101")
        with pytest.raises(ValueError, match="seed 3 repeated in '0-4,3'"):
            parse_seed_list("0-4,3")

    def test_parse_key_list(self):
        assert parse_key_list(" gn, ,classic,", "policy token") == ["gn", "classic"]
        assert parse_key_list("0.1,1e-3", "tolerance", lambda t: [float(t)]) == [0.1, 1e-3]
        with pytest.raises(ValueError, match=r"^no policy tokens in ' , '$"):
            parse_key_list(" , ", "policy token")
        # entries are compared once parsed: 0.1 and 1e-1 name the same profile file
        with pytest.raises(ValueError, match=r"^--tolerances: tolerance 0.1 repeated in '0.1,1e-1'$"):
            parse_key_list("0.1,1e-1", "tolerance", lambda t: [float(t)], "--tolerances")
        with pytest.raises(ValueError, match="^--tolerances: could not convert string to float"):
            parse_key_list("0.1,x", "tolerance", lambda t: [float(t)], "--tolerances")

    def test_read_text_transparent_gzip(self, tmp_path):
        plain = tmp_path / "data.txt"
        plain.write_text("4 6 24\n")
        packed = tmp_path / "data.txt.gz"
        packed.write_bytes(gzip.compress(b"4 6 24\n"))
        assert read_text(plain) == "4 6 24\n"
        assert read_text(packed) == "4 6 24\n"


@pytest.fixture(scope="module")
def policy_checkpoints(tmp_path_factory):
    out = tmp_path_factory.mktemp("policies")
    nets = init_agent(window=5, hidden=16, seed=11)
    save_agent_checkpoint(out / "agent.ckpt", nets)
    net = init_zero_net(window=4, hidden=8, seed=3)
    save_zero_net_checkpoint(out / "zero-net.ckpt", net)
    return out, nets, net


def parse_policy(token, *options, checkpoints=None):
    args = build_parser().parse_args(["eval", "--policies", token, *options])
    if args.checkpoint:
        args.checkpoint = str(checkpoints / args.checkpoint)
    return _policy(token, args, [])


class TestPolicyTokens:
    """``_policy`` is the one place a command-line token becomes a policy."""

    @pytest.mark.parametrize(
        "token, options, cls, attrs",
        [
            ("classic", (), ClassicPolicy, {"mode": "standard"}),
            ("classic-paper", (), ClassicPolicy, {"mode": "paper"}),
            ("gn", (), FixedPolicy, {"value": 1e-15}),
            ("fixed", ("--fixed-value", "0.5"), FixedPolicy, {"value": 0.5}),
            ("scheduler", (), ConstantSchedulerPolicy, {"schedule": DEFAULT_SCHEDULE}),
            ("scheduler", ("--schedule", "0.1,2e-3"), ConstantSchedulerPolicy,
             {"schedule": (0.1, 2e-3)}),
            ("agent", ("--checkpoint", "agent.ckpt"), AgentPolicy, {"window": 5}),
            ("zero-net", ("--checkpoint", "zero-net.ckpt"), ZeroNetPolicy, {"window": 4}),
        ],
        ids=[
            "classic", "classic-paper", "gn", "fixed", "scheduler-default", "scheduler-list",
            "agent", "zero-net",
        ],
    )
    def test_token_builds_policy(self, token, options, cls, attrs, policy_checkpoints):
        checkpoints, nets, net = policy_checkpoints
        policy = parse_policy(token, *options, checkpoints=checkpoints)
        assert type(policy) is cls
        assert {name: getattr(policy, name) for name in attrs} == attrs
        if token == "agent":
            for name in ("policy", "critic1", "critic2", "value", "target_value"):
                saved, loaded = getattr(nets, name), getattr(policy.nets, name)
                np.testing.assert_array_equal(loaded.flat, saved.flat)
        if token == "zero-net":
            np.testing.assert_array_equal(policy.net.flat, net.flat)

    @pytest.mark.parametrize(
        "token, message",
        [
            ("agent", "--checkpoint is required for the agent policy"),
            ("zero-net", "--checkpoint is required for the zero-net policy"),
            ("annealed", "unknown policy 'annealed'"),
        ],
        ids=["agent", "zero-net", "unknown"],
    )
    def test_token_exits_with_message(self, tmp_path, capsys, monkeypatch, token, message):
        monkeypatch.setattr(cli, "run_comparison", None)  # nothing is solved
        out = tmp_path / "out"
        assert usage_error(capsys, out, "eval", "--policies", token, *TINY_EVAL) == message

    def test_reversed_reward_agent_sees_the_state_it_trained_on(self, tmp_path):
        nets = init_agent(window=5, hidden=16, seed=11)
        config = TrainConfig(reward_variant="reversed", hidden=16)
        save_agent_checkpoint(tmp_path / "agent.ckpt", nets, config)
        policy = parse_policy("agent", "--checkpoint", "agent.ckpt", checkpoints=tmp_path)
        obs = PolicyObservation(
            iteration_index=3, errors=(9.0, 8.0, 7.5, 7.0), durations=(0.5, 0.25, 1.0),
        )
        # trained on negated durations, so it must be shown them, not the errors
        durations = agent_state(dataclasses.replace(nets, reversed_state=True), obs)
        plain = AgentPolicy(nets)
        expected = plain.next_lambda(dataclasses.replace(obs, errors=tuple(durations)))
        assert expected != plain.next_lambda(obs)
        assert policy.next_lambda(obs) == expected


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

    def test_config_key_no_subcommand_defines_is_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"episode": 3, "count": 1}))
        message = usage_error(capsys, tmp_path / "scenes", "generate", "--config", config)
        assert message == "--config: balm generate has no flag for key 'episode'"

    @pytest.mark.parametrize("text", [None, "{not json"], ids=["missing", "not-json"])
    def test_unreadable_config_writes_nothing(self, tmp_path, capsys, text):
        config = tmp_path / "config.json"
        if text is not None:
            config.write_text(text)
        message = usage_error(capsys, tmp_path / "scenes", "generate", "--config", config)
        assert message.startswith("--config: ")

    def test_rejected_scene_size_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "scenes"
        assert run_cli("generate", "--num-cameras", 1, "--count", 1, "--out-dir", out) == 2
        assert "balm generate: error: need at least 2 cameras" in capsys.readouterr().err
        assert not out.exists()


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
        result = strict_json((out / "result.json").read_text())
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
        result = strict_json((out / "result.json").read_text())
        assert result["outcome"] == "iteration-cap"
        assert result["iterations"] == 7

    def test_missing_problem_exits(self, tmp_path, capsys):
        message = usage_error(capsys, tmp_path / "out", "solve")
        assert message == "solve needs --problem (flag or config)"

    def test_unknown_policy_exits(self, tmp_path, capsys, scene_dir):
        message = usage_error(
            capsys, tmp_path / "out",
            "solve", "--problem", scene_dir / "scene-2.txt", "--policy", "annealed",
        )
        assert message == "unknown policy 'annealed'"

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
        assert strict_json((out_a / "result.json").read_text())["iterations"] == 5
        out_b = tmp_path / "flag_override"
        run_cli("solve", "--config", config, "--max-iterations", 9, "--out-dir", out_b)
        assert strict_json((out_b / "result.json").read_text())["iterations"] == 9


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
        result = strict_json((out / "result.json").read_text())
        trace_lines = (out / "trace.csv").read_text().splitlines()
        assert len(trace_lines) == result["iterations"] + 1

    def test_auto_schedule_shows_a_reversed_checkpoint_its_training_state(self, tmp_path):
        # ``--schedule auto`` averages the dampings the agent policy picks,
        # so a reversed-reward agent is shown its negated durations there too.
        run_cli("train", "--algo", "sac", *TINY_TRAIN, "--reward-variant", "reversed",
                "--out-dir", tmp_path)
        nets, _ = load_agent_checkpoint(tmp_path / "agent.ckpt")
        agent = parse_policy("agent", "--checkpoint", "agent.ckpt", checkpoints=tmp_path)
        scene = suite_problem(3, 4, 6)
        picked = solve(scene, agent, max_iterations=4, deterministic_time=True)
        assert extract_schedule(nets, [scene]) == [record.lam for record in picked.records]

    def test_solve_auto_schedule_needs_checkpoint(self, tmp_path, capsys, scene_dir):
        message = usage_error(
            capsys, tmp_path / "out", "solve", "--problem", scene_dir / "scene-2.txt",
            "--policy", "scheduler", "--schedule", "auto",
        )
        assert message == "--schedule auto requires --checkpoint"


class TestTrain:
    def test_sac_outputs(self, trained_dir):
        from balm.sac import load_agent_checkpoint

        nets, meta = load_agent_checkpoint(trained_dir / "agent.ckpt")
        assert nets.window == 5
        entries = [
            strict_json(line)
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

    @pytest.mark.parametrize(
        ("flags", "message"),
        [
            (("--episodes", "0"), "episodes must be at least 1, got 0"),
            (("--lr", "-1"), "lr must be finite and positive, got -1.0"),
            (("--alpha", "nan"), "alpha must be finite and non-negative, got nan"),
            (("--algo", "zero-net", "--epochs", "0"), "epochs must be at least 1, got 0"),
            (
                ("--algo", "zero-net", "--passes-per-epoch", "0"),
                "passes_per_epoch must be at least 1, got 0",
            ),
            (("--algo", "zero-net", "--lr", "nan"), "lr must be finite and positive, got nan"),
            (("--hidden", "0"), "hidden must be at least 1, got 0"),
            (("--replay-capacity", "0"), "replay_capacity must be at least 1, got 0"),
            (("--max-iterations", "0"), "max_iterations must be at least 1, got 0"),
            (("--warmup-steps", "-1"), "warmup_steps must be non-negative, got -1"),
            (("--algo", "zero-net", "--hidden", "0"), "hidden must be at least 1, got 0"),
            (
                ("--algo", "zero-net", "--max-iterations", "0"),
                "max_iterations must be at least 1, got 0",
            ),
            (("--algo", "zero-net", "--window", "0"), "window must be at least 1, got 0"),
            (
                ("--algo", "zero-net", "--threshold", "-1"),
                "threshold must be finite and positive, got -1.0",
            ),
            (("--threshold", "-1"), "threshold must be finite and positive, got -1.0"),
            (("--threshold", "nan"), "threshold must be finite and positive, got nan"),
            (("--num-cameras", "1"), "need at least 2 cameras and 1 point"),
            # a flag of the other algorithm would be ignored, so it is rejected
            (
                ("--algo", "zero-net", "--reward-variant", "reversed", "--episodes", "0"),
                "ZeroNetConfig has no field for --episodes, --reward-variant",
            ),
            (("--algo", "sac", "--epochs", "0"), "TrainConfig has no field for --epochs"),
        ],
        ids=[
            "episodes", "lr", "alpha", "zero-net-epochs", "zero-net-passes", "zero-net-lr",
            "hidden", "replay-capacity", "max-iterations", "warmup-steps", "zero-net-hidden",
            "zero-net-max-iterations", "zero-net-window", "zero-net-threshold",
            "threshold", "threshold-nan", "num-cameras", "zero-net-given-sac-flags",
            "sac-given-zero-net-flag",
        ],
    )
    def test_rejected_training_value_is_a_usage_error(self, tmp_path, capsys, flags, message):
        out = tmp_path / "out"
        assert run_cli("train", *flags, "--out-dir", out) == 2
        assert f"balm train: error: {message}" in capsys.readouterr().err
        assert not out.exists()  # and so no checkpoint

    @pytest.mark.parametrize(
        ("command", "config_type"),
        [("train", TrainConfig), ("train", ZeroNetConfig), ("ablate", TrainConfig)],
        ids=["TrainConfig", "ZeroNetConfig", "ablate-TrainConfig"],
    )
    def test_every_config_field_is_a_train_flag(self, command, config_type):
        # cmd_train and cmd_ablate fill the config from the flags named like
        # its fields; a field no flag names would silently keep its default
        parser = build_parser().subcommand_parsers[command]
        dests = {action.dest for action in parser._actions}
        names = {f.name for f in dataclasses.fields(config_type)} - {"target_refresh"}
        assert names <= dests, sorted(names - dests)

    @pytest.mark.parametrize(
        "flags", [("--algo", "sac", *TINY_TRAIN), TINY_ZERO_NET], ids=["sac", "zero-net"]
    )
    def test_a_failing_training_run_is_not_a_usage_error(self, tmp_path, monkeypatch, flags):
        def failing_run(*args, **kwargs):
            raise ValueError("raised by the training run")

        monkeypatch.setattr(cli, "train_agent", failing_run)
        monkeypatch.setattr(cli, "zero_net_train", failing_run)
        with pytest.raises(ValueError, match="raised by the training run"):
            run_cli("train", *flags, "--out-dir", tmp_path)

    @pytest.mark.parametrize(
        ("config", "key"),
        [
            ({"eval_seeds": "1", "policies": "gn", "epochs": 5}, "eval_seeds"),
            ({"episodes": 3, "policies": None}, "policies"),
            ({"kind": False}, "kind"),
        ],
        ids=["eval_seeds", "null-value", "false-value"],
    )
    def test_config_key_train_has_no_flag_for_writes_nothing(self, tmp_path, capsys, config, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        message = usage_error(capsys, tmp_path / "out", "train", "--config", path)
        assert message == f"--config: balm train has no flag for key {key!r}"

    def test_config_epochs_zero_is_not_dropped_as_false(self, tmp_path, capsys):
        # 0 == False in Python; the key still stands for --epochs=0
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"epochs": 0}))
        out = tmp_path / "out"
        assert run_cli("train", "--algo", "sac", "--config", path, "--out-dir", out) == 2
        assert "balm train: error: TrainConfig has no field for --epochs" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_records_the_built_config(self, tmp_path, monkeypatch, trained_dir):
        sac = json.loads((trained_dir / "manifest.json").read_text())["config"]
        assert (sac["target_refresh"], sac["hidden"], sac["episodes"]) == (5, 16, 3)
        assert "epochs" not in sac and "passes_per_epoch" not in sac
        monkeypatch.setattr(
            cli, "zero_net_train", lambda problems, progress, **options: init_zero_net(5, 8, 0)
        )
        out = tmp_path / "zn"
        flags = [flag for flag in TINY_ZERO_NET if flag not in ("--hidden", "16")]
        assert run_cli("train", *flags, "--out-dir", out) == 0
        zero_net = json.loads((out / "manifest.json").read_text())["config"]
        assert (zero_net["hidden"], zero_net["epochs"], zero_net["lr"]) == (1280, 1, 3e-4)
        assert not {"episodes", "gamma", "reward_variant", "target_refresh"} & set(zero_net)

    def test_unknown_reward_variant_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli("train", "--reward-variant", "bogus", "--out-dir", tmp_path)
        assert exit_info.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("key", "value", "flag"),
        [("reward_variant", "bogus", "--reward-variant"), ("algo", "ppo", "--algo")],
        ids=["reward_variant", "algo"],
    )
    def test_config_value_outside_choices_is_a_usage_error(
        self, tmp_path, capsys, key, value, flag
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_info:
            run_cli("train", "--config", config, "--out-dir", out)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        # argparse checks the value the key stands for, as it would the flag
        assert f"argument {flag}: invalid choice: {value!r}" in err
        assert not out.exists()

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
            strict_json(line)
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
            "problem,policy,outcome,iterations,total_time_s,initial_error,final_error"
        )
        assert len(records) == 1 + 2 * 3  # 2 scenes x 3 policies
        aggregates = (out / "aggregates.csv").read_text().splitlines()
        assert len(aggregates) == 1 + 3

    def test_a_new_aggregate_key_is_a_new_last_column(self, tmp_path, monkeypatch):
        # ``aggregate_rows`` is the one statement of the aggregate columns.
        aggregate_rows = bench.aggregate_rows
        monkeypatch.setattr(
            bench, "aggregate_rows", lambda *args: {**aggregate_rows(*args), "probe": 7}
        )
        out = tmp_path / "eval"
        assert run_cli("eval", "--policies", "classic,gn", *self.EVAL_ARGS, "--out-dir", out) == 0
        header, *rows = (out / "aggregates.csv").read_text().splitlines()
        assert header.endswith(",errors,probe")
        assert [row.rsplit(",", 1)[1] for row in rows] == ["7", "7"]

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

    @pytest.mark.parametrize(
        ("tolerances", "message"),
        [("2", "tolerance must be in (0, 1], got 2.0"),
         ("0.1,abc", "could not convert string to float: 'abc'")],
        ids=["out-of-range", "not-a-number"],
    )
    def test_rejected_tolerance_is_a_usage_error(
        self, tmp_path, capsys, monkeypatch, tolerances, message
    ):
        monkeypatch.setattr(cli, "run_comparison", None)  # nothing is solved
        out = tmp_path / "profile"
        assert run_cli(
            "profile", "--tolerances", tolerances, *self.EVAL_ARGS, "--out-dir", out
        ) == 2
        assert f"balm profile: error: --tolerances: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "profile"])
    def test_rejected_scene_size_is_a_usage_error(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(cli, "run_comparison", None)  # nothing is solved
        out = tmp_path / command
        assert run_cli(
            command, "--policies", "classic", "--num-cameras", 1, "--eval-seeds", 0,
            "--out-dir", out,
        ) == 2
        assert f"balm {command}: error: need at least 2 cameras" in capsys.readouterr().err
        assert not out.exists()

    def test_schedule_auto_uses_checkpoint(self, tmp_path, trained_dir):
        out = tmp_path / "auto"
        assert run_cli(
            "eval", "--policies", "scheduler", "--schedule", "auto",
            "--checkpoint", trained_dir / "agent.ckpt", *self.EVAL_ARGS,
            "--out-dir", out,
        ) == 0
        records = (out / "records.csv").read_text().splitlines()
        assert len(records) == 1 + 2


ABLATE_TRAIN = (
    "--num-cameras", "4", "--num-points", "6", "--train-seeds", "0",
    "--episodes", "2", "--hidden", "8", "--batch-size", "8", "--warmup-steps", "5",
    "--replay-capacity", "100", "--max-iterations", "8",
)


def stub_ablation_suite(monkeypatch):
    """Replace the suite ``ablate`` runs; returns its calls' (kind, cfg, train, held_out)."""
    calls = []

    def stub_suite(kind, cfg, train_problems, held_out):  # trains nothing
        calls.append((kind, cfg, train_problems, held_out))
        return {"kind": kind, "rows": []}

    monkeypatch.setattr(cli, "ablation_suite", stub_suite)
    return calls


class TestAblateCli:
    def test_reversed_kind(self, tmp_path):
        out = tmp_path / "ablate"
        assert run_cli(
            "ablate", "--kind", "reversed", *ABLATE_TRAIN, "--eval-seeds", "2",
            "--deterministic-time", "--out-dir", out,
        ) == 0
        lines = (out / "ablation-reversed.csv").read_text().splitlines()
        assert len(lines) == 3
        payload = json.loads((out / "ablation-reversed.json").read_text())
        assert payload["kind"] == "reversed"

    def test_missing_kind_exits(self, tmp_path, capsys):
        message = usage_error(capsys, tmp_path / "out", "ablate")
        assert message == "ablate needs --kind (flag or config)"

    def test_config_file_reaches_the_suite(self, tmp_path, monkeypatch):
        calls = stub_ablation_suite(monkeypatch)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "episodes": 2, "hidden": 8, "num_cameras": 4, "num_points": 6,
            "train_seeds": "0", "eval_seeds": "2", "max_iterations": 8,
        }))
        assert run_cli(
            "ablate", "--kind", "threshold", "--config", config, "--out-dir", tmp_path / "out"
        ) == 0
        ((kind, cfg, train_problems, held_out),) = calls
        assert (kind, cfg.episodes, cfg.hidden, cfg.max_iterations) == ("threshold", 2, 8, 8)
        assert [problem.num_cameras for problem in train_problems] == [4]
        assert set(held_out) == {"scene-2"}

    def test_train_and_ablate_read_the_same_training_flags(self, tmp_path, monkeypatch):
        trained = []

        def stub_train(problems, cfg):  # trains nothing
            trained.append((cfg, problems))
            return init_agent(window=cfg.window, hidden=cfg.hidden, seed=0), []

        monkeypatch.setattr(cli, "train_agent", stub_train)
        calls = stub_ablation_suite(monkeypatch)
        flags = (
            "--train-seeds", "0-1", "--num-cameras", "4", "--num-points", "6",
            "--pixel-sigma", "200", "--episodes", "2", "--hidden", "8", "--lr", "1e-3",
            "--gamma", "0.5", "--reward-variant", "constant", "--max-iterations", "8",
            "--seed", "3", "--deterministic-time",
        )
        assert run_cli("train", *flags, "--out-dir", tmp_path / "train") == 0
        assert run_cli("ablate", "--kind", "scheduler", *flags, "--out-dir", tmp_path / "abl") == 0
        ((train_cfg, train_problems),) = trained
        ((_kind, ablate_cfg, ablate_problems, _held_out),) = calls
        assert ablate_cfg == train_cfg
        assert train_cfg.seed == 3 and train_cfg.lr == 1e-3
        assert [serialize_bal(p) for p in ablate_problems] == [
            serialize_bal(p) for p in train_problems
        ]
        assert [p.pixel_sigma for p in ablate_problems] == [200.0, 200.0]

    @pytest.mark.parametrize(
        ("flags", "message"),
        [
            (("--lr", "-1"), "lr must be finite and positive, got -1.0"),
            (("--num-cameras", "1"), "need at least 2 cameras and 1 point"),
            (("--num-cameras", "4x"), "argument --num-cameras: invalid int value: '4x'"),
            (("--train-seeds", ""), "no seeds in ''"),
            (("--eval-seeds", ""), "no seeds in ''"),
            (("--train-seeds", "0.5"), "invalid literal for int() with base 10: '0.5'"),
        ],
        ids=["lr", "num-cameras", "num-cameras-text", "no-train-seeds", "no-eval-seeds",
             "fractional-seed"],
    )
    def test_rejected_ablation_value_writes_nothing(
        self, tmp_path, capsys, monkeypatch, flags, message
    ):
        monkeypatch.setattr(cli, "ablation_suite", None)  # nothing is trained
        out = tmp_path / "ablate"
        assert exit_code("ablate", "--kind", "reversed", *flags, "--out-dir", out) == 2
        assert f"balm ablate: error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, expected",
        [
            (("--deterministic-time",), True),
            (("--config", "on.json"), True),
            ((), False),
            (("--config", "off.json"), False),
        ],
    )
    def test_timing_mode_that_reaches_the_suite(self, tmp_path, monkeypatch, flags, expected):
        (tmp_path / "on.json").write_text('{"deterministic_time": true}')
        (tmp_path / "off.json").write_text('{"deterministic_time": false}')
        monkeypatch.chdir(tmp_path)
        calls = stub_ablation_suite(monkeypatch)
        assert run_cli("ablate", "--kind", "scheduler", *flags, "--out-dir", "out") == 0
        assert [cfg.deterministic_time for _kind, cfg, _train, _held_out in calls] == [expected]


def test_no_flag_leaves_a_subcommand_with_another_ones_default():
    # Every subcommand shares the ``common`` parent's action objects, so a
    # default set through one subparser would change every command's.
    parser = build_parser()
    train_fields = {f.name for f in dataclasses.fields(TrainConfig)} - {"target_refresh"}
    for command in parser.subcommand_parsers:
        args = parser.parse_args([command])
        assert args.deterministic_time is False, command
        if command == "ablate":
            assert train_fields <= set(vars(args)), sorted(train_fields - set(vars(args)))


TINY_EVAL = ("--eval-seeds", "100", "--num-cameras", "4", "--num-points", "6")
# training scenes whose 1/sigma^2 weight overflows every start's error
UNSCOREABLE_TRAIN = ("--train-seeds", "0", "--num-cameras", "4", "--num-points", "6",
                     "--pixel-sigma", "1e-160")


@pytest.fixture
def rejecting_dir(tmp_path, monkeypatch, scene_dir):
    """A working directory of good and bad input files, where no work can run."""
    text = (scene_dir / "scene-2.txt").read_text()
    (tmp_path / "scene.txt").write_text(text)
    (tmp_path / "truncated.txt").write_text(text[: len(text) // 2])
    (tmp_path / "not-json.json").write_text("{not json")
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "eval-keys.json").write_text('{"policies": "gn"}')
    header, first, *rest = text.splitlines(keepends=True)
    nan_pixel = " ".join(first.split()[:3] + ["nan\n"])
    (tmp_path / "nan-pixel.txt").write_text(header + nan_pixel + "".join(rest))
    # a finite pixel whose squared residual overflows: the start cannot be scored
    big_pixel = " ".join(first.split()[:3] + ["1e200\n"])
    (tmp_path / "big-pixel.txt").write_text(header + big_pixel + "".join(rest))
    save_agent_checkpoint(tmp_path / "agent.ckpt", init_agent(window=5, hidden=4, seed=0))
    # camera 0 at the origin sees the point (1, 1, 0) at depth zero
    cameras = "0 0 0 0 0 0 500 0 0\n0 0 0 0 0 5 500 0 0\n"
    (tmp_path / "zero-depth.txt").write_text(
        "2 1 2\n0 0 10 10\n1 0 100 100\n" + cameras + "1 1 0\n"
    )
    monkeypatch.chdir(tmp_path)
    for work in ("solve", "run_comparison", "train_agent", "zero_net_train", "ablation_suite"):
        monkeypatch.setattr(cli, work, None)  # calling it would raise TypeError
    return tmp_path


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--problem", "truncated.txt"),
        ("solve", "--problem", "missing.txt"),
        ("solve", "--problem", "scene.txt", "--max-iterations", "0"),
        ("eval", "--policies", "agent", *TINY_EVAL),
        ("eval", "--policies", "agent", "--checkpoint", "scene.txt", *TINY_EVAL),
        ("eval", "--policies", "classic,annealed", *TINY_EVAL),
        ("profile", "--policies", "classic", "--max-iterations", "0", *TINY_EVAL),
        ("eval", "--policies", "classic", *TINY_EVAL, "--eval-seeds", "100,100,101"),
        ("generate", "--count", "0"),
    ],
    ids=[
        "solve-truncated-problem", "solve-missing-problem", "solve-max-iterations",
        "eval-no-checkpoint", "eval-not-a-checkpoint", "eval-unknown-policy",
        "profile-max-iterations", "eval-repeated-seed", "generate-no-scene",
    ],
)
def test_bad_input_writes_nothing(rejecting_dir, capsys, argv):
    assert exit_code(*argv, "--out-dir", "out") == 2
    assert f"balm {argv[0]}: error: " in capsys.readouterr().err
    assert not (rejecting_dir / "out").exists()


SOLVE_SCENE = ("solve", "--problem", "scene.txt")


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        ((*SOLVE_SCENE, "--policy", "scheduler", "--schedule", "auto"),
         "--schedule auto requires --checkpoint"),
        ((*SOLVE_SCENE, "--policy", "agent"), "--checkpoint is required for the agent policy"),
        ((*SOLVE_SCENE, "--policy", "zero-net"),
         "--checkpoint is required for the zero-net policy"),
        ((*SOLVE_SCENE, "--policy", "annealed"), "unknown policy 'annealed'"),
        ((*SOLVE_SCENE, "--policy", "scheduler", "--schedule", "nan,1"),
         "schedule [nan, 1.0] has a NaN damping"),
        (("solve", "--problem", "nan-pixel.txt"), "pixel 0 is not finite: ["),
        (("solve", "--problem", "zero-depth.txt"),
         "observation 0: camera-frame depth is numerically zero"),
        (("solve", "--problem", "big-pixel.txt"), "estimation error is non-finite"),
        (("train", "--algo", "sac", *UNSCOREABLE_TRAIN),
         "scene-0: estimation error is non-finite"),
        (("train", "--algo", "zero-net", *UNSCOREABLE_TRAIN),
         "scene-0: estimation error is non-finite"),
        (("ablate", "--kind", "reversed", *UNSCOREABLE_TRAIN),
         "scene-0: estimation error is non-finite"),
        (("train", "--train-seeds", "0-9", "--pixel-sigma", "1e-160"),
         "scene-0: estimation error is non-finite"),
        (("ablate", "--kind", "threshold", "--train-seeds", "0-9", "--pixel-sigma", "1e-160"),
         "scene-0: estimation error is non-finite"),
        (("eval", "--policies", "scheduler,classic", "--schedule", "auto", "--checkpoint",
          "agent.ckpt", *TINY_EVAL, "--pixel-sigma", "1e-160"), "estimation error is non-finite"),
        (("solve", "--policy", "gn"), "solve needs --problem (flag or config)"),
        (("eval", "--policies", " , ", *TINY_EVAL), "--policies: no policy tokens in ' , '"),
        (("ablate", "--train-seeds", "0"), "ablate needs --kind (flag or config)"),
        (("generate", "--config", "missing.json"),
         "--config: [Errno 2] No such file or directory: 'missing.json'"),
        (("generate", "--config", "not-json.json"), "--config: Expecting property name"),
        (("generate", "--config", "list.json"), "--config: need a JSON object, got list"),
        (("train", "--config", "eval-keys.json"),
         "--config: balm train has no flag for key 'policies'"),
        (("profile", "--policies", "classic", *TINY_EVAL),
         "--policies: need two or more for a profile, got 'classic'"),
        (("eval", "--policies", "classic,classic,gn", *TINY_EVAL),
         "--policies: policy token classic repeated in 'classic,classic,gn'"),
        (("profile", "--policies", "classic,gn", "--tolerances", "0.1,0.1", *TINY_EVAL),
         "--tolerances: tolerance 0.1 repeated in '0.1,0.1'"),
        (("profile", "--policies", "classic,gn", "--tolerances", "0.1,0.1000001", *TINY_EVAL),
         "--tolerances: 0.1 and 0.1000001 both name profile-0.1.csv"),
    ],
    ids=[
        "schedule-auto-no-checkpoint", "agent-no-checkpoint", "zero-net-no-checkpoint",
        "unknown-policy", "schedule-nan", "solve-nan-pixel", "solve-zero-depth",
        "solve-overflowing-pixel", "train-sac-unscoreable", "train-zero-net-unscoreable",
        "ablate-unscoreable", "train-ten-scenes-unscoreable", "ablate-threshold-unscoreable",
        "eval-schedule-auto-unscoreable", "no-problem",
        "no-policies",
        "no-kind", "config-missing", "config-not-json", "config-not-an-object",
        "config-unknown-key", "profile-one-policy", "eval-repeated-policy",
        "profile-repeated-tolerance", "profile-tolerances-name-one-file",
    ],
)
def test_every_rejected_input_exits_2_and_writes_nothing(rejecting_dir, capsys, argv, message):
    # ``main`` returns 2 before any work (every work function is stubbed out)
    # and before ``--out-dir`` is made; its one stderr line names the input.
    assert usage_error(capsys, rejecting_dir / "out", *argv).startswith(message)


def checkpoint_bytes(header) -> bytes:
    text = json.dumps(header).encode()
    return b"BALMNET1" + struct.pack("<Q", len(text)) + text


CHECKPOINT_META = {
    "agent": {
        "kind": "sac-agent", "window": 5,
        "widths": {
            "policy": [5, 4, 2], "critic1": [6, 4, 1], "critic2": [6, 4, 1], "value": [5, 4, 1],
            "target_value": [5, 4, 1],
        },
    },
    "zero-net": {"kind": "zero-net", "widths": [15, 4, 1], "window": 5},
}


@pytest.mark.parametrize("token", sorted(CHECKPOINT_META))
@pytest.mark.parametrize(
    ("contents", "message"),
    [
        (lambda meta: checkpoint_bytes({}),
         "checkpoint header is not an object with a meta object"),
        (lambda meta: checkpoint_bytes({"meta": meta}), "checkpoint header is not an object"),
        (lambda meta: checkpoint_bytes([meta, []]), "checkpoint header is not an object"),
        (lambda meta: checkpoint_bytes({"meta": meta, "arrays": []}),
         "checkpoint has no array '"),
        (lambda meta: b"BALMNET1\x00", "bad.ckpt: checkpoint truncated in its header"),
    ],
    ids=["empty-header", "no-arrays", "list-header", "no-first-weights", "cut-after-magic"],
)
def test_malformed_checkpoint_exits_2(rejecting_dir, capsys, token, contents, message):
    (rejecting_dir / "bad.ckpt").write_bytes(contents(CHECKPOINT_META[token]))
    argv = ("eval", "--policies", token, "--checkpoint", "bad.ckpt", *TINY_EVAL)
    assert message in usage_error(capsys, rejecting_dir / "out", *argv)


AGENT_WIDTHS = CHECKPOINT_META["agent"]["widths"]


def agent_arrays(widths) -> dict:
    """The arrays of an agent whose nets have ``widths``."""
    arrays = {}
    for name, net_widths in widths.items():
        arrays.update(mlp_to_arrays(mlp_init(net_widths, 0), prefix=f"{name}."))
    return arrays


@pytest.mark.parametrize(
    ("token", "meta", "message"),
    [
        ("zero-net", {}, "checkpoint widths None are not two or more positive ints"),
        ("zero-net", {"widths": []}, "checkpoint widths [] are not two or more positive ints"),
        ("zero-net", {"widths": [15]}, "checkpoint widths [15] are not two or more positive ints"),
        ("zero-net", {"widths": [15, 0, 1]},
         "checkpoint widths [15, 0, 1] are not two or more positive ints"),
        ("zero-net", {"widths": [15, True, 1]},
         "checkpoint widths [15, True, 1] are not two or more positive ints"),
        ("agent", {}, "bad.ckpt: checkpoint widths None are not a mapping of its nets"),
        ("agent", {"widths": 5}, "bad.ckpt: checkpoint widths 5 are not a mapping of its nets"),
        ("agent", {"widths": {**AGENT_WIDTHS, "value": [5.0, 4, 1]}},
         "checkpoint value.widths [5.0, 4, 1] are not two or more positive ints"),
        ("agent", {"widths": {k: v for k, v in AGENT_WIDTHS.items() if k != "critic2"}},
         "checkpoint critic2.widths None are not two or more positive ints"),
        ("agent", {"widths": AGENT_WIDTHS, "config": [1]},
         "bad.ckpt: checkpoint config [1] is not a mapping"),
    ],
    ids=["zero-net-no-widths", "zero-net-empty", "zero-net-one-width", "zero-net-zero-width",
         "zero-net-bool-width", "agent-no-widths", "agent-int-widths", "agent-float-width",
         "agent-no-critic2-widths", "agent-list-config"],
)
def test_checkpoint_meta_that_makes_no_net_exits_2(rejecting_dir, capsys, token, meta, message):
    # the arrays are those of a good net, so only the meta is wrong
    if token == "agent":
        kind, arrays = "sac-agent", agent_arrays(AGENT_WIDTHS)
    else:
        kind, arrays = "zero-net", mlp_to_arrays(init_zero_net(hidden=4))
    save_arrays(rejecting_dir / "bad.ckpt", {"kind": kind, **meta}, arrays)
    argv = ("eval", "--policies", f"{token},classic", "--checkpoint", "bad.ckpt", *TINY_EVAL)
    assert usage_error(capsys, rejecting_dir / "out", *argv) == message


@pytest.mark.parametrize(
    ("name", "widths"),
    [("policy", [5, 4, 1]), ("critic1", [5, 4, 1]), ("critic2", [6, 4, 2]),
     ("value", [6, 4, 1]), ("target_value", [5, 4, 2])],
)
def test_agent_checkpoint_whose_nets_fit_no_agent_exits_2(rejecting_dir, capsys, name, widths):
    # every net loads on its own, but one of them cannot serve a window-5 agent
    nets = {**AGENT_WIDTHS, name: widths}
    meta = {"kind": "sac-agent", "widths": nets}
    save_arrays(rejecting_dir / "bad.ckpt", meta, agent_arrays(nets))
    argv = ("eval", "--policies", "agent,classic", "--checkpoint", "bad.ckpt", *TINY_EVAL)
    assert usage_error(capsys, rejecting_dir / "out", *argv) == (
        f"bad.ckpt: checkpoint {name} widths {widths} do not fit an agent of window 5"
    )


def checkpoint_command(command, token) -> tuple:
    if command == "solve":
        return (*SOLVE_SCENE, "--policy", token, "--checkpoint", "bad.ckpt")
    return ("eval", "--policies", f"{token},classic", "--checkpoint", "bad.ckpt", *TINY_EVAL)


@pytest.mark.parametrize("command", ["eval", "solve"])
@pytest.mark.parametrize(
    ("token", "name", "value"),
    [("agent", "policy.w1", np.nan), ("agent", "value.b0", np.inf),
     ("zero-net", "w1", np.nan), ("zero-net", "b0", -np.inf)],
    ids=["agent-nan-weight", "agent-inf-bias", "zero-net-nan-weight", "zero-net-inf-bias"],
)
def test_checkpoint_with_a_non_finite_array_exits_2(
    rejecting_dir, capsys, command, token, name, value
):
    meta = CHECKPOINT_META[token]
    if token == "agent":
        arrays = agent_arrays(meta["widths"])
    else:
        arrays = mlp_to_arrays(mlp_init(meta["widths"], 0))
    arrays[name] = arrays[name].copy()
    arrays[name].flat[0] = value
    save_arrays(rejecting_dir / "bad.ckpt", meta, arrays)
    message = usage_error(capsys, rejecting_dir / "out", *checkpoint_command(command, token))
    assert message == f"checkpoint array {name!r} has a non-finite value"


@pytest.mark.parametrize("command", ["eval", "solve"])
def test_zero_net_checkpoint_with_two_outputs_exits_2(rejecting_dir, capsys, command):
    widths = [15, 4, 2]
    meta = {"kind": "zero-net", "widths": widths, "window": 5}
    save_arrays(rejecting_dir / "bad.ckpt", meta, mlp_to_arrays(mlp_init(widths, 0)))
    message = usage_error(capsys, rejecting_dir / "out", *checkpoint_command(command, "zero-net"))
    assert message == "a zero-net has one output, not 2"


# Each float flag with a command line that reads it: ``--fixed-value`` needs
# the ``fixed`` token, and a training flag the algorithm whose config has it.
FLOAT_FLAG_COMMANDS = {
    "generate": (),
    "solve": ("--problem", "scene.txt", "--policy", "fixed"),
    "train": ("--train-seeds", "0", "--num-cameras", "4", "--num-points", "6"),
    "eval": ("--policies", "classic,fixed", *TINY_EVAL),
    "profile": ("--policies", "classic,fixed", *TINY_EVAL),
    "ablate": ("--kind", "threshold", "--train-seeds", "0", *TINY_EVAL),
}
FLOAT_FLAGS = [
    (command, action.option_strings[-1], action.dest)
    for command, parser in build_parser().subcommand_parsers.items()
    for action in parser._actions
    if action.type is float
]


def test_float_flags_are_all_found():
    assert {flag for _, flag, _ in FLOAT_FLAGS} >= {
        "--pixel-sigma", "--noise-std", "--init-noise", "--threshold", "--fixed-value",
        "--gamma", "--alpha", "--lr",
    }
    assert {command for command, _, _ in FLOAT_FLAGS} == set(FLOAT_FLAG_COMMANDS)


@pytest.mark.parametrize(
    ("command", "flag", "dest"), FLOAT_FLAGS, ids=[f"{c}{f}" for c, f, _ in FLOAT_FLAGS]
)
def test_nan_float_flag_exits_2(rejecting_dir, capsys, command, flag, dest):
    argv = (command, *FLOAT_FLAG_COMMANDS[command], flag, "nan")
    if command == "train":  # only a flag that just ZeroNetConfig has needs --algo zero-net
        sac = dest in {f.name for f in dataclasses.fields(TrainConfig)}
        argv += ("--algo", "sac" if sac or dest not in cli.TRAIN_FIELDS else "zero-net")
    assert "nan" in usage_error(capsys, rejecting_dir / "out", *argv).lower()


def test_readme_commands_parse_and_build_their_config():
    # an example that stops parsing, e.g. once a flag is renamed, fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = [
        shlex.split(line)[1:]
        for block in re.findall(r"```bash\n(.*?)```", readme, re.S)
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("balm ")
    ]
    parser = build_parser()
    assert {argv[0] for argv in commands} == set(parser.subcommand_parsers)
    for argv in commands:
        args = parser.parse_args(argv)
        if args.command in ("train", "ablate"):
            algo = getattr(args, "algo", "sac")
            cli._train_inputs(args, TrainConfig if algo == "sac" else ZeroNetConfig)


def run_module(*argv, env=os.environ):
    """``python -m balm`` in a child process with ``env``."""
    # The subprocess does not see pytest's ``pythonpath``; put this checkout first.
    src = str(Path(__file__).resolve().parents[1] / "src")
    inherited = env.get("PYTHONPATH")
    pythonpath = src + os.pathsep + inherited if inherited else src
    return subprocess.run(
        [sys.executable, "-m", "balm", *(str(a) for a in argv)],
        capture_output=True,
        text=True,
        env={**env, "PYTHONPATH": pythonpath},
    )


def test_module_entry_point(tmp_path):
    proc = run_module(
        "generate", "--count", "1", "--num-cameras", "4", "--num-points", "6",
        "--out-dir", tmp_path,
    )
    assert proc.returncode == 0
    assert (tmp_path / "scene-0.txt").exists()
    assert "wrote 1 scenes" in proc.stdout


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one core: BLAS has one thread anyway")
def test_solve_bytes_do_not_depend_on_blas_threads(tmp_path):
    # 24 cameras make a 216-unknown reduced camera system; OpenBLAS splits
    # dpotrf across threads, and moves its bits, from about 192 unknowns up.
    scene = tmp_path / "scene.txt"
    scene.write_text(serialize_bal(suite_problem(0, num_cameras=24, num_points=30)))
    blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    unpinned = {k: v for k, v in os.environ.items() if k not in blas_vars}
    pinned = {**unpinned, **dict.fromkeys(blas_vars, "1")}
    for name, env in (("unpinned", unpinned), ("pinned", pinned)):
        proc = run_module(
            "solve", "--problem", scene, "--pixel-sigma", "250", "--deterministic-time",
            "--out-dir", tmp_path / name, env=env,
        )
        assert proc.returncode == 0, proc.stderr
    result = (tmp_path / "pinned" / "result.json").read_bytes()
    assert (tmp_path / "unpinned" / "result.json").read_bytes() == result
