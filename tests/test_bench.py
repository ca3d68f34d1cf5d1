"""Tests for the experiment harness.

Profile behavior is pinned with hand-built run records whose solve times
are chosen up front, so the expected curves follow from the ratio
definition alone. Sweep bookkeeping is checked by recomputing aggregates
from the raw rows.
"""

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
    ablation_to_csv,
    aggregates_to_csv,
    comparison_to_csv,
    convergence_trace,
    extract_schedule,
    performance_profile,
    profile_to_csv,
    run_comparison,
    suite_scene,
    trace_to_csv,
)
from balm.env import BAEnv, EnvConfig
from balm.policy import ClassicPolicy, DampingPolicy, FixedPolicy
from balm.sac import init_agent
from balm.solver import solve


class ExplodingPolicy(DampingPolicy):
    kind = "exploding"

    def next_lambda(self, obs):
        raise RuntimeError("boom")


def record_with_time(problem_id, kind, initial, final, step_times, step_errors, seed=0):
    trace = tuple((0.1, e, t) for e, t in zip(step_errors, step_times))
    return RunRecord(
        problem_id=problem_id,
        policy_kind=kind,
        seed=seed,
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
    record = RunRecord.from_result("tiny", "classic", 0, result)
    assert record.iterations == result.iterations == len(record.trace)
    assert record.final_error == result.final_error
    assert record.initial_error == result.initial_error
    assert record.total_time_s == result.total_time_s
    assert record.outcome == result.outcome
    assert record.trace[-1][1] == result.final_error


class TestRunComparison:
    def make_table(self, seeds=(0,)):
        problems = {
            "s2": suite_problem(2, 4, 6),
            "s3": suite_problem(3, 4, 6),
        }
        policies = {
            "classic": {"kind": "classic"},
            "gn": FixedPolicy(1e-15),
        }
        return run_comparison(
            problems,
            policies,
            env_config={"deterministic_time": True, "max_iterations": 50},
            seeds=seeds,
        )

    def test_sweep_is_exhaustive(self):
        table = self.make_table(seeds=(0, 1))
        assert len(table.records) == 2 * 2 * 2
        assert len(table.aggregates) == 2
        cells = {(r.problem_id, r.policy_kind, r.seed) for r in table.records}
        assert len(cells) == 8

    def test_env_config_dataclass_is_accepted(self):
        problems = {"s2": suite_problem(2, 4, 6)}
        policies = {"gn": FixedPolicy(1e-15)}
        from_dataclass = run_comparison(
            problems, policies, env_config=EnvConfig(deterministic_time=True)
        )
        from_mapping = run_comparison(
            problems, policies, env_config={"deterministic_time": True}
        )
        assert from_dataclass.records == from_mapping.records

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

    def test_failure_becomes_outcome_row_and_sweep_survives(self):
        problems = {"s2": suite_problem(2, 4, 6)}
        policies = {"classic": {"kind": "classic"}, "broken": ExplodingPolicy()}
        table = run_comparison(
            problems, policies, env_config={"deterministic_time": True}
        )
        by_kind = {r.policy_kind: r for r in table.records}
        assert by_kind["broken"].outcome.startswith("error:")
        assert np.isnan(by_kind["broken"].final_error)
        assert by_kind["classic"].outcome == "converged"
        broken_agg = next(a for a in table.aggregates if a["policy"] == "broken")
        assert broken_agg["success_rate"] == 0.0

    def test_rejects_empty_inputs(self):
        with pytest.raises(ValueError):
            run_comparison({}, {"classic": {"kind": "classic"}})
        with pytest.raises(ValueError):
            run_comparison({"p": suite_problem(2, 4, 6)}, {})
        with pytest.raises(ValueError):
            run_comparison(
                {"p": suite_problem(2, 4, 6)}, {"classic": {"kind": "classic"}}, seeds=()
            )

    def test_csv_output_is_deterministic(self):
        first = self.make_table()
        second = self.make_table()
        assert comparison_to_csv(first) == comparison_to_csv(second)
        assert aggregates_to_csv(first) == aggregates_to_csv(second)
        header = comparison_to_csv(first).splitlines()[0]
        assert header == (
            "problem,policy,seed,outcome,iterations,total_time_s,initial_error,final_error"
        )
        assert len(comparison_to_csv(first).splitlines()) == 1 + len(first.records)


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
            "classic": {"kind": "classic"},
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
        csv = profile_to_csv(performance_profile([a, b], tolerance=0.1))
        lines = csv.splitlines()
        assert lines[0] == "policy,relative_time,solved_fraction"
        assert lines[1] == "a,1.0,1.0"
        assert lines[2] == "b,2.0,1.0"


class TestConvergenceTrace:
    def test_series_bookkeeping(self, tiny_problem):
        result = solve(tiny_problem, ClassicPolicy(), deterministic_time=True)
        record = RunRecord.from_result("tiny", "classic", 0, result)
        trace = convergence_trace(record)
        assert len(trace["times"]) == record.iterations + 1
        assert len(trace["errors"]) == record.iterations + 1
        assert trace["times"][0] == 0.0
        assert all(b > a for a, b in zip(trace["times"], trace["times"][1:]))
        assert trace["errors"][0] == record.initial_error
        assert trace["errors"][-1] == record.final_error
        for tau, level in trace["thresholds"].items():
            assert level == record.final_error + tau * (
                record.initial_error - record.final_error
            )

    def test_missing_trace_rejected(self):
        record = RunRecord(
            problem_id="p",
            policy_kind="classic",
            seed=0,
            outcome="converged",
            iterations=3,
            total_time_s=3.0,
            initial_error=10.0,
            final_error=1.0,
            trace=(),
        )
        with pytest.raises(ValueError):
            convergence_trace(record)

    def test_trace_csv(self, tiny_problem):
        result = solve(tiny_problem, ClassicPolicy(), deterministic_time=True)
        record = RunRecord.from_result("tiny", "classic", 0, result)
        lines = trace_to_csv(convergence_trace(record)).splitlines()
        assert lines[0] == "cumulative_time_s,error"
        assert len(lines) == record.iterations + 2


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
            from balm.policy import AgentPolicy

            result = solve(problem, AgentPolicy(nets), max_iterations=4, deterministic_time=True)
            per_scene.append([rec.lam for rec in result.records])
        for i, lam in enumerate(schedule):
            samples = [lams[i] for lams in per_scene if len(lams) > i]
            assert lam == pytest.approx(np.mean(samples), rel=1e-12)

    def test_deterministic(self):
        nets = init_agent(window=5, hidden=16, seed=0)
        problems = [suite_problem(0)]
        assert extract_schedule(nets, problems) == extract_schedule(nets, problems)


TINY_ABLATION = {
    "num_cameras": 4,
    "num_points": 6,
    "train_seeds": [0],
    "eval_seeds": [2],
    "episodes": 2,
    "hidden": 8,
    "batch_size": 8,
    "warmup_steps": 5,
    "replay_capacity": 100,
    "max_iterations": 8,
    "deterministic_time": True,
}


class TestAblations:
    def test_state_size_rows(self):
        result = ablation_suite("state_size", TINY_ABLATION)
        assert result["kind"] == "state_size"
        assert [row["window"] for row in result["rows"]] == list(ABLATION_WINDOWS)
        for row in result["rows"]:
            assert "error" in row or "median_iterations" in row

    def test_reward_variant_rows(self):
        result = ablation_suite("reward_variant", TINY_ABLATION)
        assert [row["reward_variant"] for row in result["rows"]] == list(ABLATION_REWARDS)

    def test_reversed_rows_report_success_rate(self):
        result = ablation_suite("reversed", TINY_ABLATION)
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
        config = dict(TINY_ABLATION, num_cameras=10, num_points=10, eval_seeds=[100])
        result = ablation_suite("reversed", config)
        assert all("error" not in row for row in result["rows"])
        assert len(evaluations) == 2  # the "duration" row, then the "reversed" row

        env = BAEnv(EnvConfig(reward_variant="reversed", deterministic_time=True))
        trained_on = env.reset(suite_scene(100)).state_vector
        np.testing.assert_array_equal(trained_on, np.zeros(5))
        np.testing.assert_array_equal(evaluations[1][0], trained_on)
        # the duration agent still sees the clipped initial error
        assert np.all(evaluations[0][0] > 0.0)

    def test_scheduler_rows(self):
        result = ablation_suite("scheduler", TINY_ABLATION)
        kinds = [row.get("policy") for row in result["rows"]]
        assert kinds == ["agent", "scheduler", "classic"]
        scheduler_row = result["rows"][1]
        assert len(scheduler_row["schedule"]) >= 1
        csv = ablation_to_csv(result)
        for line in csv.splitlines():
            assert line.count(",") == csv.splitlines()[0].count(",")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ablation_suite("optimizer", TINY_ABLATION)
