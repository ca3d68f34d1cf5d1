"""Experiment harness: comparison sweeps, performance profiles, ablations.

Everything here reduces to repeated calls into the solver with different
policies, then bookkeeping. Wall-clock rows are reported for information
only; anything gated in tests runs with deterministic timing so iteration
counts stand in for time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .env import (
    OUTCOME_CONVERGED,
    OUTCOME_ITERATION_CAP,
    OUTCOME_NUMERICAL_FAILURE,
    EnvConfig,
    SolveResult,
    solve,
)
from .policy import AgentPolicy, ClassicPolicy, ConstantSchedulerPolicy
from .sac import NonFiniteLossError, TrainConfig, train_agent
from .scene import BAProblem, generate_synthetic
from .solver import NumericalFailureError, csv_text

SUITE_PIXEL_SIGMA = 250.0
SUITE_NOISE_STD = 0.5
DEFAULT_TOLERANCES = (0.1, 0.001)
ABLATION_WINDOWS = (1, 5, 10, 20)
ABLATION_REWARDS = ("duration", "constant", "reduction")
# ablation kind -> (the TrainConfig field it varies, which is also its row column, values)
ABLATION_VARIANTS = {
    "state_size": ("window", ABLATION_WINDOWS),
    "reward_variant": ("reward_variant", ABLATION_REWARDS),
    "reversed": ("reward_variant", ("duration", "reversed")),
    "threshold": ("threshold", (1e-6, 1e-8)),
}


def suite_scene(seed: int, num_cameras: int = 10, num_points: int = 10) -> BAProblem:
    """Canonical benchmark scene family shared by training and held-out sets.

    The heavy pixel normalization (sigma 250 on a focal-500 rig) scales the
    effective damping far down, which separates damping policies sharply:
    aggressive near-Newton steps converge in a handful of iterations while
    the factor-of-two heuristic crawls.
    """
    return generate_synthetic(
        num_cameras,
        num_points,
        pixel_sigma=SUITE_PIXEL_SIGMA,
        noise_std=SUITE_NOISE_STD,
        seed=seed,
    )


@dataclass(frozen=True)
class RunRecord:
    problem_id: str
    policy_kind: str
    outcome: str
    iterations: int
    total_time_s: float
    initial_error: float
    final_error: float
    trace: tuple = ()  # (lambda, error, duration_s) per iteration

    @classmethod
    def from_result(cls, problem_id: str, policy_kind: str, result: SolveResult):
        return cls(
            problem_id=problem_id,
            policy_kind=policy_kind,
            outcome=result.outcome,
            iterations=result.iterations,
            total_time_s=result.total_time_s,
            initial_error=result.initial_error,
            final_error=result.final_error,
            trace=tuple((r.lam, r.error, r.duration_s) for r in result.records),
        )


@dataclass(frozen=True)
class ProfilePoint:
    relative_time: float  # alpha >= 1
    solved_fraction: float  # in [0, 1], nondecreasing along a curve


@dataclass
class ComparisonTable:
    records: list
    aggregates: list


def run_comparison(problems: dict, policies: dict, env_config=None) -> ComparisonTable:
    """Solve every (problem, policy) cell once; aggregate per policy.

    ``problems`` maps id -> problem, ``policies`` maps kind -> ``DampingPolicy``
    and ``env_config``, a mapping or an object such as a ``TrainConfig``, gives
    every solve the settings ``EnvConfig.of`` reads from it (a rejected one
    raises ``ValueError`` before any solve). Solves are deterministic given
    their inputs, so one run per cell is the whole measurement. The one typed
    failure ``solve`` raises, ``NumericalFailureError`` (a zero depth or a
    non-finite error in the initial state), becomes an outcome row and the
    sweep goes on; a failed step is already a "numerical-failure" outcome.
    Any other exception is a bug and propagates.
    """
    if not problems or not policies:
        raise ValueError("problems and policies must both be non-empty")
    settings = vars(EnvConfig.of(env_config or {}))
    records = []
    for problem_id, problem in problems.items():
        for kind, policy in policies.items():
            try:
                result = solve(problem, policy, **settings)
                records.append(RunRecord.from_result(str(problem_id), kind, result))
            except NumericalFailureError as exc:
                records.append(
                    RunRecord(
                        problem_id=str(problem_id),
                        policy_kind=kind,
                        outcome=f"error: {exc}",
                        iterations=0,
                        total_time_s=float("nan"),
                        initial_error=float("nan"),
                        final_error=float("nan"),
                    )
                )
    aggregates = [
        aggregate_rows([r for r in records if r.policy_kind == kind], kind) for kind in policies
    ]
    return ComparisonTable(records=records, aggregates=aggregates)


def aggregate_rows(records, policy_kind: str) -> dict:
    iterations = np.array([r.iterations for r in records], dtype=float)
    times = np.array([r.total_time_s for r in records], dtype=float)
    finals = np.array([r.final_error for r in records], dtype=float)
    outcomes = [r.outcome for r in records]
    converged = np.array([o == OUTCOME_CONVERGED for o in outcomes], dtype=float)
    return {
        "policy": policy_kind,
        "runs": len(records),
        "success_rate": float(np.mean(converged)) if records else float("nan"),
        "mean_iterations": float(np.mean(iterations)) if records else float("nan"),
        "median_iterations": float(np.median(iterations)) if records else float("nan"),
        "mean_time_s": float(np.mean(times)) if records else float("nan"),
        "median_final_error": float(np.median(finals)) if records else float("nan"),
        "capped": outcomes.count(OUTCOME_ITERATION_CAP),
        "numerical_failures": outcomes.count(OUTCOME_NUMERICAL_FAILURE),
        "errors": sum(o.startswith("error:") for o in outcomes),  # run_comparison's error rows
    }


COMPARISON_COLUMNS = (
    "problem", "policy", "outcome",
    "iterations", "total_time_s", "initial_error", "final_error",
)


def comparison_to_csv(table: ComparisonTable) -> str:
    rows = (
        (r.problem_id, r.policy_kind, r.outcome,
         r.iterations, r.total_time_s, r.initial_error, r.final_error)
        for r in table.records
    )
    return csv_text(COMPARISON_COLUMNS, rows)


AGGREGATE_COLUMNS = (
    "policy",
    "runs",
    "success_rate",
    "mean_iterations",
    "median_iterations",
    "mean_time_s",
    "median_final_error",
    "capped",
    "numerical_failures",
    "errors",
)


def aggregates_to_csv(table: ComparisonTable) -> str:
    rows = ([row[c] for c in AGGREGATE_COLUMNS] for row in table.aggregates)
    return csv_text(AGGREGATE_COLUMNS, rows)


def _time_to_target(record: RunRecord, target: float) -> float:
    if record is None:
        return float("inf")
    if np.isfinite(record.initial_error) and record.initial_error <= target:
        return 0.0
    elapsed = 0.0
    for _lam, error, duration in record.trace:
        elapsed += duration
        if np.isfinite(error) and error <= target:
            return elapsed
    return float("inf")


def check_tolerance(tolerance: float) -> float:
    """``tolerance`` if a performance profile accepts it, else ``ValueError``."""
    if not 0.0 < tolerance <= 1.0:
        raise ValueError(f"tolerance must be in (0, 1], got {tolerance}")
    return tolerance


def performance_profile(records, tolerance: float) -> dict:
    """Cumulative solved-fraction curves over relative solve time.

    Per problem instance the target error is
    ``best_final + tolerance * (initial - best_final)`` with ``best_final``
    the minimum final error over policies; a policy's time is the first
    cumulative duration at which its traced error dips below the target,
    and alpha divides that by the fastest policy's time.
    """
    check_tolerance(tolerance)
    kinds = sorted({r.policy_kind for r in records})
    if len(kinds) < 2:
        raise ValueError("performance profiles need at least two policies")
    instances: dict = {}
    for r in records:
        instances.setdefault(r.problem_id, {})[r.policy_kind] = r
    ratios = {kind: [] for kind in kinds}
    solved_instances = 0
    for _key, by_kind in sorted(instances.items()):
        finals = [r.final_error for r in by_kind.values() if np.isfinite(r.final_error)]
        if not finals:
            continue
        best_final = min(finals)
        initial = next(
            r.initial_error for r in by_kind.values() if np.isfinite(r.initial_error)
        )
        target = best_final + tolerance * (initial - best_final)
        times = {kind: _time_to_target(by_kind.get(kind), target) for kind in kinds}
        fastest = min(times.values())
        if not np.isfinite(fastest):
            continue
        solved_instances += 1
        for kind, t in times.items():
            if not np.isfinite(t):
                continue
            if fastest == 0.0:
                ratios[kind].append(1.0 if t == 0.0 else float("inf"))
            else:
                ratios[kind].append(t / fastest)
    if solved_instances == 0:
        raise ValueError("no problem instance was solved by any policy")
    curves = {}
    for kind in kinds:
        finite = sorted(r for r in ratios[kind] if np.isfinite(r))
        points: list[ProfilePoint] = []
        for count, alpha in enumerate(finite, start=1):
            fraction = count / solved_instances
            point = ProfilePoint(relative_time=alpha, solved_fraction=fraction)
            if points and points[-1].relative_time == alpha:
                points[-1] = point
            else:
                points.append(point)
        curves[kind] = points
    return curves


def profile_to_csv(curves: dict) -> str:
    rows = (
        (kind, point.relative_time, point.solved_fraction)
        for kind in sorted(curves)
        for point in curves[kind]
    )
    return csv_text(("policy", "relative_time", "solved_fraction"), rows)


def extract_schedule(nets, problems, steps: int = 4) -> list:
    """Average the agent's first damping choices across scenes.

    Positions only reached on some scenes average over those scenes; a
    position no scene reaches ends the schedule early.
    """
    policy = AgentPolicy(nets)
    sums = np.zeros(steps)
    counts = np.zeros(steps, dtype=int)
    for problem in problems:
        result = solve(problem, policy, max_iterations=steps, deterministic_time=True)
        for i, rec in enumerate(result.records[:steps]):
            sums[i] += rec.lam
            counts[i] += 1
    return [float(s / c) for s, c in zip(sums, counts) if c > 0]


# The typed failures of training and evaluation; an ablation records them as
# an ``error`` row, and anything else (a bug) raises.
ABLATION_FAILURES = (NonFiniteLossError, NumericalFailureError)


def ablation_suite(kind: str, cfg: TrainConfig, train_problems, held_out: dict) -> dict:
    """Train and evaluate one family of variants of ``cfg``.

    A variant is ``cfg`` with the kind's column set to one of its values; it
    trains on ``train_problems`` and solves ``held_out`` (id -> problem) with
    its own solve options. The ``scheduler`` kind trains ``cfg`` once and
    compares its agent, the schedule extracted from it and the classic rule.
    A variant that fails with one of ``ABLATION_FAILURES`` becomes a row with
    an ``error`` column; any other exception raises.
    """
    if not held_out:
        raise ValueError("held_out must hold at least one problem")
    rows = []
    if kind in ABLATION_VARIANTS:
        column, values = ABLATION_VARIANTS[kind]
        for value in values:
            variant = replace(cfg, **{column: value})
            try:
                nets, _logs = train_agent(train_problems, variant)
                table = run_comparison(held_out, {"agent": AgentPolicy(nets)}, variant)
            except ABLATION_FAILURES as exc:  # record, keep sweeping
                rows.append({column: value, "error": str(exc)})
                continue
            row = {column: value, **table.aggregates[0]}
            del row["policy"]
            rows.append(row)
    elif kind == "scheduler":
        try:
            nets, _logs = train_agent(train_problems, cfg)
            schedule = extract_schedule(nets, list(held_out.values()))
            policies = {
                "agent": AgentPolicy(nets),
                "scheduler": ConstantSchedulerPolicy(schedule),
                "classic": ClassicPolicy(),
            }
            table = run_comparison(held_out, policies, cfg)
            for agg in table.aggregates:
                row = dict(agg)
                if row["policy"] == "scheduler":
                    row["schedule"] = schedule
                rows.append(row)
        except ABLATION_FAILURES as exc:
            rows.append({"error": str(exc)})
    else:
        raise ValueError(f"unknown ablation kind {kind!r}")
    return {"kind": kind, "rows": rows}


def ablation_to_csv(result: dict) -> str:
    rows = result["rows"]
    columns: list = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    return csv_text(columns, ([row.get(c, "") for c in columns] for row in rows))
