"""Tests for the experiment harness.

Profile behavior is pinned with hand-built run records whose solve times
are chosen up front, so the expected curves follow from the ratio
definition alone. Sweep bookkeeping is checked by recomputing aggregates
from the raw rows.
"""

from dataclasses import replace

import numpy as np
import pytest
from conftest import suite_problem

from balm.bench import (
    ABLATION_REWARDS,
    ABLATION_WINDOWS,
    ComparisonTable,
    ProfilePoint,
    RunRecord,
    ablation_suite,
    aggregate_rows,
    comparison_rows,
    extract_schedule,
    performance_profile,
    profile_rows,
    rows_to_csv,
    run_comparison,
    suite_scene,
)
from balm.env import BAEnv, EnvConfig
from balm.policy import AgentPolicy, ClassicPolicy, DampingPolicy, FixedPolicy, agent_state
from balm.sac import NonFiniteLossError, TrainConfig, init_agent
from balm.scene import BAProblem, generate_synthetic
from balm.env import solve


class ExplodingPolicy(DampingPolicy):
    def next_lambda(self, obs):
        raise RuntimeError("boom")


def record_with_time(problem_id, kind, initial, final, step_times, step_errors):
    trace = tuple((0.1, e, t) for e, t in zip(step_errors, step_times))
    return RunRecord(
        problem_id=problem_id,
        policy_kind=kind,
        outcome="converged",
        iterations=len(trace),
        total_time_s=float(sum(step_times)),
        initial_error=initial,
        final_error=final,
        trace=trace,
    )


def test_suite_scene_matches_test_fixture_family():
    ours = suite_scene(0, 4, 6)
    fixture = suite_problem(0, 4, 6)
    assert np.array_equal(
        np.array([o.pixel for o in ours.observations]),
        np.array([o.pixel for o in fixture.observations]),
    )
    assert ours.pixel_sigma == fixture.pixel_sigma


def test_run_record_is_consistent_with_solve_result(tiny_problem):
    result = solve(tiny_problem, ClassicPolicy(), deterministic_time=True)
    record = RunRecord.from_result("tiny", "classic", result)
    assert record.iterations == result.iterations == len(record.trace)
    assert record.final_error == result.final_error
    assert record.initial_error == result.initial_error
    assert record.total_time_s == result.total_time_s
    assert record.outcome == result.outcome
    assert record.trace[-1][1] == result.final_error


class TestRunComparison:
    def make_table(self):
        problems = {
            "s2": suite_problem(2, 4, 6),
            "s3": suite_problem(3, 4, 6),
        }
        policies = {
            "classic": ClassicPolicy(),
            "gn": FixedPolicy(1e-15),
        }
        return run_comparison(
            problems,
            policies,
            env_config={"deterministic_time": True, "max_iterations": 50},
        )

    def test_sweep_is_exhaustive(self):
        table = self.make_table()
        assert len(table.records) == 2 * 2
        assert len(table.aggregates) == 2
        cells = {(r.problem_id, r.policy_kind) for r in table.records}
        assert cells == {(p, k) for p in ("s2", "s3") for k in ("classic", "gn")}

    def test_aggregates_recomputable_from_rows(self):
        table = self.make_table()
        for agg in table.aggregates:
            rows = [r for r in table.records if r.policy_kind == agg["policy"]]
            assert agg["runs"] == len(rows)
            assert agg["success_rate"] == np.mean(
                [r.outcome == "converged" for r in rows]
            )
            assert agg["mean_iterations"] == np.mean([r.iterations for r in rows])
            assert agg["median_iterations"] == np.median([r.iterations for r in rows])
            assert agg["mean_time_s"] == np.mean([r.total_time_s for r in rows])
            assert agg["median_final_error"] == np.median([r.final_error for r in rows])

    def test_aggregates_count_failures_by_type(self):
        outcomes = [
            "converged", "iteration-cap", "iteration-cap", "numerical-failure",
            "error: zero depth at observation 3", "converged",
        ]
        records = [
            RunRecord(f"s{i}", "classic", outcome, 5, 0.1, 1.0, 0.5)
            for i, outcome in enumerate(outcomes)
        ]
        agg = aggregate_rows(records, "classic")
        assert (agg["capped"], agg["numerical_failures"], agg["errors"]) == (2, 1, 1)
        assert agg["success_rate"] == 2 / 6
        empty = aggregate_rows([], "classic")
        assert (empty["capped"], empty["numerical_failures"], empty["errors"]) == (0, 0, 0)
        table = ComparisonTable(records=records, aggregates=[agg])
        header, row = rows_to_csv(table.aggregates).splitlines()
        assert header.endswith(",median_final_error,capped,numerical_failures,errors")
        assert row.endswith(",2,1,1")

    def test_failure_becomes_outcome_row_and_sweep_survives(self):
        # Every point at the origin, seen from cameras at the origin: the
        # initial state has zero depths, so solve raises NumericalFailureError.
        good = suite_problem(2, 4, 6)
        cameras = good.camera_blocks.copy()
        cameras[:, 3:6] = 0.0
        flat = BAProblem.from_arrays(
            cameras, np.zeros_like(good.point_blocks), good.cam_idx, good.pt_idx, good.pixels,
            good.pixel_sigma,
        )
        # A 1/sigma^2 weight that overflows the initial error: the start cannot be scored.
        overflowing = generate_synthetic(4, 6, pixel_sigma=1e-160, seed=2)
        problems = {"s2": good, "flat": flat, "overflowing": overflowing}
        policies = {"classic": ClassicPolicy(), "gn": FixedPolicy(1e-15)}
        table = run_comparison(
            problems, policies, env_config={"deterministic_time": True}
        )
        by_cell = {(r.problem_id, r.policy_kind): r for r in table.records}
        for kind in policies:
            assert by_cell["flat", kind].outcome.startswith("error:")
            assert "depth" in by_cell["flat", kind].outcome
            assert np.isnan(by_cell["flat", kind].final_error)
            assert by_cell["overflowing", kind].outcome == "error: estimation error is non-finite"
            assert np.isnan(by_cell["overflowing", kind].initial_error)
            assert by_cell["s2", kind].outcome == "converged"
        assert [a["success_rate"] for a in table.aggregates] == [1 / 3, 1 / 3]
        assert [a["errors"] for a in table.aggregates] == [2, 2]

    def test_a_nan_damping_ends_as_a_numerical_failure_row(self):
        # a net whose output is NaN hands the solver a NaN damping
        class NanAfterTwo(DampingPolicy):
            def next_lambda(self, obs):
                return 0.25 if obs.iteration_index < 2 else float("nan")

        problem = suite_problem(2, 4, 6)
        result = solve(problem, NanAfterTwo(), deterministic_time=True)
        assert (result.outcome, result.iterations, len(result.records)) == (
            "numerical-failure", 2, 3
        )
        assert np.isnan(result.records[-1].lam) and np.isnan(result.records[-1].error)
        table = run_comparison(
            {"s2": problem}, {"nan": NanAfterTwo(), "classic": ClassicPolicy()},
            env_config={"deterministic_time": True},
        )
        by_kind = {r.policy_kind: r for r in table.records}
        assert by_kind["nan"].outcome == "numerical-failure"
        assert by_kind["classic"].outcome == "converged"
        assert [a["numerical_failures"] for a in table.aggregates] == [1, 0]

    def test_a_bug_raises_instead_of_becoming_a_row(self):
        problems = {"s2": suite_problem(2, 4, 6)}
        with pytest.raises(RuntimeError, match="boom"):
            run_comparison(problems, {"broken": ExplodingPolicy()})
        # a policy spec as a dict is not a DampingPolicy
        with pytest.raises(AttributeError, match="next_lambda"):
            run_comparison({"s": suite_scene(0, 4, 6)}, {"classic": {"kind": "classic"}})

    def test_rejects_empty_inputs(self):
        with pytest.raises(ValueError):
            run_comparison({}, {"classic": ClassicPolicy()})
        with pytest.raises(ValueError):
            run_comparison({"p": suite_problem(2, 4, 6)}, {})

    # Each case sets one EnvConfig field (with deterministic timing, so rows compare
    # exactly); the case without that field is the baseline its rows must differ from.
    # With accept-on-improve, the first Newton-like steps on scene 7 raise the error
    # and are rejected.
    SETTINGS_CASES = [
        ("deterministic_time", {"deterministic_time": True}),
        ("max_iterations", {"max_iterations": 3, "deterministic_time": True}),
        ("threshold", {"threshold": 1e-2, "deterministic_time": True}),
        ("accept_only_improving",
         {"accept_only_improving": True, "max_iterations": 3, "deterministic_time": True}),
    ]

    @pytest.mark.parametrize("field, settings", SETTINGS_CASES, ids=[c[0] for c in SETTINGS_CASES])
    def test_every_env_config_field_reaches_each_solve(self, field, settings):
        problems = {"s7": generate_synthetic(10, 10, seed=7)}
        policies = {"classic": ClassicPolicy(), "newton": FixedPolicy(1e-12)}
        expected = [
            RunRecord.from_result("s7", kind, solve(problems["s7"], policy, **settings))
            for kind, policy in policies.items()
        ]
        baseline = {k: v for k, v in settings.items() if k != field}
        # TrainConfig has no accept_only_improving; an EnvConfig stands in for it there
        config_type = TrainConfig if field != "accept_only_improving" else EnvConfig
        for env_config in (settings, config_type(**settings)):
            records = run_comparison(problems, policies, env_config).records
            assert records == expected
            assert records != run_comparison(problems, policies, baseline).records

    def test_csv_output_is_deterministic(self):
        first = self.make_table()
        second = self.make_table()
        assert rows_to_csv(comparison_rows(first)) == rows_to_csv(comparison_rows(second))
        assert rows_to_csv(first.aggregates) == rows_to_csv(second.aggregates)
        header = rows_to_csv(comparison_rows(first)).splitlines()[0]
        assert header == (
            "problem,policy,outcome,iterations,total_time_s,initial_error,final_error"
        )
        assert len(rows_to_csv(comparison_rows(first)).splitlines()) == 1 + len(first.records)


class TestPerformanceProfile:
    def test_two_point_construction(self):
        # one problem, solve times 10 and 20: slower curve steps to 1 at alpha=2
        a = record_with_time("p", "a", 100.0, 0.0, [10.0], [0.0])
        b = record_with_time("p", "b", 100.0, 0.0, [20.0], [0.0])
        curves = performance_profile([a, b], tolerance=0.1)
        assert curves["a"] == [ProfilePoint(1.0, 1.0)]
        assert curves["b"] == [ProfilePoint(2.0, 1.0)]

    def test_fastest_everywhere_reaches_final_fraction_at_alpha_one(self):
        records = []
        for i, slow_time in enumerate([15.0, 30.0, 45.0]):
            records.append(record_with_time(f"p{i}", "fast", 100.0, 0.0, [10.0], [0.0]))
            records.append(
                record_with_time(f"p{i}", "slow", 100.0, 0.0, [slow_time], [0.0])
            )
        curves = performance_profile(records, tolerance=0.1)
        assert curves["fast"] == [ProfilePoint(1.0, 1.0)]
        alphas = [p.relative_time for p in curves["slow"]]
        assert alphas == [1.5, 3.0, 4.5]
        assert [p.solved_fraction for p in curves["slow"]] == pytest.approx(
            [1 / 3, 2 / 3, 1.0]
        )

    def test_unsolved_problem_truncates_curve(self):
        # b's error never reaches the target on p1, so its curve plateaus
        records = [
            record_with_time("p0", "a", 100.0, 0.0, [10.0], [0.0]),
            record_with_time("p0", "b", 100.0, 0.0, [10.0], [0.0]),
            record_with_time("p1", "a", 100.0, 0.0, [10.0], [0.0]),
            record_with_time("p1", "b", 100.0, 90.0, [10.0], [90.0]),
        ]
        curves = performance_profile(records, tolerance=0.1)
        assert [p.solved_fraction for p in curves["a"]] == [1.0]
        assert [p.solved_fraction for p in curves["b"]] == [0.5]

    def test_curves_are_valid_cdfs_on_real_runs(self):
        problems = {f"s{s}": suite_problem(s, 4, 6) for s in (2, 4)}
        policies = {
            "classic": ClassicPolicy(),
            "gn": FixedPolicy(1e-15),
            "half": FixedPolicy(0.5),
        }
        table = run_comparison(
            problems, policies, env_config={"deterministic_time": True}
        )
        for tolerance in (0.1, 0.001):
            curves = performance_profile(table.records, tolerance)
            assert set(curves) == set(policies)
            saw_alpha_one = False
            for points in curves.values():
                fractions = [p.solved_fraction for p in points]
                alphas = [p.relative_time for p in points]
                assert all(0.0 <= f <= 1.0 for f in fractions)
                assert fractions == sorted(fractions)
                assert all(a >= 1.0 for a in alphas)
                assert alphas == sorted(alphas)
                saw_alpha_one = saw_alpha_one or (alphas and alphas[0] == 1.0)
            assert saw_alpha_one

    def test_validation(self):
        a = record_with_time("p", "a", 100.0, 0.0, [10.0], [0.0])
        with pytest.raises(ValueError):
            performance_profile([a], tolerance=0.1)  # single policy
        b = record_with_time("p", "b", 100.0, 0.0, [20.0], [0.0])
        with pytest.raises(ValueError):
            performance_profile([a, b], tolerance=0.0)
        bad_a = record_with_time("p", "a", float("nan"), float("nan"), [10.0], [np.nan])
        bad_b = record_with_time("p", "b", float("nan"), float("nan"), [10.0], [np.nan])
        with pytest.raises(ValueError):
            performance_profile([bad_a, bad_b], tolerance=0.1)

    def test_profile_csv_schema(self):
        a = record_with_time("p", "a", 100.0, 0.0, [10.0], [0.0])
        b = record_with_time("p", "b", 100.0, 0.0, [20.0], [0.0])
        csv = rows_to_csv(profile_rows(performance_profile([a, b], tolerance=0.1)))
        lines = csv.splitlines()
        assert lines[0] == "policy,relative_time,solved_fraction"
        assert lines[1] == "a,1.0,1.0"
        assert lines[2] == "b,2.0,1.0"


class TestExtractSchedule:
    def test_averages_first_choices(self):
        nets = init_agent(window=5, hidden=16, seed=0)
        problems = [suite_problem(s) for s in (0, 1)]
        schedule = extract_schedule(nets, problems, steps=4)
        assert 1 <= len(schedule) <= 4
        assert all(1e-16 <= lam <= 1e2 for lam in schedule)
        # recompute from individual solves
        per_scene = []
        for problem in problems:
            result = solve(problem, AgentPolicy(nets), max_iterations=4, deterministic_time=True)
            per_scene.append([rec.lam for rec in result.records])
        for i, lam in enumerate(schedule):
            samples = [lams[i] for lams in per_scene if len(lams) > i]
            assert lam == pytest.approx(np.mean(samples), rel=1e-12)

    def test_deterministic(self):
        nets = init_agent(window=5, hidden=16, seed=0)
        problems = [suite_problem(0)]
        assert extract_schedule(nets, problems) == extract_schedule(nets, problems)


TINY_CONFIG = TrainConfig(
    episodes=2, hidden=8, batch_size=8, warmup_steps=5, replay_capacity=100,
    max_iterations=8, deterministic_time=True,
)


def tiny_ablation(kind, cfg=TINY_CONFIG, size=(4, 6), eval_seeds=(2,)):
    """``ablation_suite`` trained on suite scene 0 and evaluated on ``eval_seeds``."""
    held_out = {f"scene-{seed}": suite_scene(seed, *size) for seed in eval_seeds}
    return ablation_suite(kind, cfg, [suite_scene(0, *size)], held_out)


class TestAblations:
    def test_state_size_rows(self):
        result = tiny_ablation("state_size")
        assert result["kind"] == "state_size"
        assert [row["window"] for row in result["rows"]] == list(ABLATION_WINDOWS)
        for row in result["rows"]:
            assert "error" in row or "median_iterations" in row

    def test_reward_variant_rows(self):
        result = tiny_ablation("reward_variant")
        assert [row["reward_variant"] for row in result["rows"]] == list(ABLATION_REWARDS)

    def test_reversed_rows_report_success_rate(self):
        result = tiny_ablation("reversed")
        assert [row["reward_variant"] for row in result["rows"]] == ["duration", "reversed"]
        for row in result["rows"]:
            assert "error" in row or "success_rate" in row

    def test_reversed_agent_is_evaluated_on_its_training_state(self, monkeypatch):
        from balm import bench, sac

        evaluations = []  # per run_comparison call, the states the agent was shown
        original_select, original_compare = sac.select_action, bench.run_comparison

        def recording_select(nets, state, deterministic=False, rng=None):
            if deterministic:
                evaluations[-1].append(np.array(state, dtype=float))
            return original_select(nets, state, deterministic=deterministic, rng=rng)

        def marking_compare(*args, **kwargs):
            evaluations.append([])
            return original_compare(*args, **kwargs)

        monkeypatch.setattr(sac, "select_action", recording_select)
        monkeypatch.setattr(bench, "run_comparison", marking_compare)
        result = tiny_ablation("reversed", size=(10, 10), eval_seeds=(100,))
        assert all("error" not in row for row in result["rows"])
        assert len(evaluations) == 2  # the "duration" row, then the "reversed" row

        reversed_nets = init_agent(window=5, hidden=8, seed=0)
        reversed_nets.reversed_state = True
        env = BAEnv(EnvConfig(deterministic_time=True))
        trained_on = agent_state(reversed_nets, env.reset(suite_scene(100)))
        np.testing.assert_array_equal(trained_on, np.zeros(5))
        np.testing.assert_array_equal(evaluations[1][0], trained_on)
        # the duration agent still sees the clipped initial error
        assert np.all(evaluations[0][0] > 0.0)

    def test_scheduler_rows(self):
        result = tiny_ablation("scheduler")
        kinds = [row.get("policy") for row in result["rows"]]
        assert kinds == ["agent", "scheduler", "classic"]
        scheduler_row = result["rows"][1]
        assert len(scheduler_row["schedule"]) >= 1
        csv = rows_to_csv(result["rows"])
        for line in csv.splitlines():
            assert line.count(",") == csv.splitlines()[0].count(",")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            tiny_ablation("optimizer")

    def test_no_held_out_scene_is_rejected_before_training(self, monkeypatch):
        from balm import bench

        monkeypatch.setattr(bench, "train_agent", None)  # nothing is trained
        with pytest.raises(ValueError, match="held_out must hold at least one problem"):
            tiny_ablation("state_size", eval_seeds=())

    @pytest.mark.parametrize("kind", ["state_size", "scheduler"])
    def test_a_typed_training_failure_becomes_an_error_row(self, kind, monkeypatch):
        from balm import bench

        def diverging(problems, cfg):
            raise NonFiniteLossError("non-finite loss at episode 0")

        monkeypatch.setattr(bench, "train_agent", diverging)
        rows = tiny_ablation(kind)["rows"]
        assert rows and all(row["error"] == "non-finite loss at episode 0" for row in rows)

    @pytest.mark.parametrize("kind", ["state_size", "scheduler"])
    def test_a_bug_in_training_raises(self, kind, monkeypatch):
        from balm import bench

        def broken(problems, cfg):
            raise TypeError("boom")

        monkeypatch.setattr(bench, "train_agent", broken)
        with pytest.raises(TypeError, match="boom"):
            tiny_ablation(kind)

    def test_config_fields_reach_train_config(self, monkeypatch):
        from balm import bench

        configs = []

        def stub_train(problems, cfg):
            configs.append(cfg)
            return init_agent(window=cfg.window, hidden=cfg.hidden, seed=0), []

        monkeypatch.setattr(bench, "train_agent", stub_train)
        cfg = replace(TINY_CONFIG, gamma=0.5, alpha=0.1, target_refresh=3, lr=1e-3)
        result = tiny_ablation("scheduler", cfg)
        assert all("error" not in row for row in result["rows"])
        assert configs == [
            TrainConfig(
                episodes=2, hidden=8, batch_size=8, warmup_steps=5, replay_capacity=100,
                max_iterations=8, deterministic_time=True,
                gamma=0.5, alpha=0.1, target_refresh=3, lr=1e-3,
            )
        ]

    def test_each_variant_is_evaluated_with_its_own_value(self, monkeypatch):
        from balm import bench

        trained, solved = [], []

        def stub_train(problems, cfg):
            trained.append(cfg.threshold)
            return init_agent(window=cfg.window, hidden=8, seed=0), []

        def recording_solve(problem, policy, **kwargs):
            solved.append(kwargs["threshold"])
            return solve(problem, policy, **kwargs)

        monkeypatch.setattr(bench, "train_agent", stub_train)
        monkeypatch.setattr(bench, "solve", recording_solve)
        result = tiny_ablation("threshold", eval_seeds=(2, 3))
        assert [row["threshold"] for row in result["rows"]] == [1e-6, 1e-8]
        assert all("error" not in row for row in result["rows"])
        assert trained == [1e-6, 1e-8]
        assert solved == [1e-6, 1e-6, 1e-8, 1e-8]
