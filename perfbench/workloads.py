"""The benchmark's four workloads: inputs, warm-up, one measured round, checks.

A round is a fixed amount of work, the same in every round and every run,
so the counts it reports repeat exactly and failures are a fixed share of
the operations attempted. Every call into the package passes
``deterministic_time=True``: iteration, step and label counts then do not
depend on the host's speed, and all timing is done here.

Every workload reports ``lm_iters``, the Levenberg-Marquardt iterations of
its timed work in one round, and ``lm_iters_per_s``, the rate at which it
ran them. The timed work is cut into pieces by ``Meter.lap`` (see
``hostspeed.py``), and the rate divides by the pieces' time corrected for
the host's speed:

- ``suite-solve``: the round's ``run_comparison`` solves and both profiles;
  a piece is one (scene, policy) solve or one profile.
- ``sparse-solve``: the round's two solves; a piece is one LM iteration,
  cut where the solver asks its policy for the next damping.
- ``sac-pipeline``: ``train_agent``, whose environment steps are one
  iteration each (plus one ``sac_update`` after the warm-up steps); a piece
  is one episode, cut by the ``progress`` callback.
- ``zero-net-train``: ``zero_net_train``, with one iteration per labelled
  state plus one oracle trial per grid value; a piece is one labelled state
  or one regression step, cut where the oracle or ``mlp_train_step`` is
  called.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

import numpy as np

from hostspeed import Meter
from reference import ground_truth_error
from scenes import sparse_scene

SUITE_TRAIN = tuple(range(10))
SUITE_HOLDOUT = tuple(range(100, 110))
GN_LAMBDA = 1e-15  # the command line's "gn" policy
AGREEMENT = 1e-3  # per-scene relative gap between policies' final errors (criterion 7)
SAC_TRAIN_SEED = 2  # the criterion-5 pipeline's training seed
ZERO_NET_PASSES = 10
ZERO_NET_SEED = 0


@dataclass
class Round:
    """One measured round: exact counts and the outputs the checks read."""

    lm_iters: int
    attempted: int
    failed: int
    counts: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)


def suite(seeds):
    from balm import suite_scene

    return {f"scene-{s}": suite_scene(s) for s in seeds}


def compare(problems, policies):
    from balm import run_comparison

    return run_comparison(problems, policies, env_config={"deterministic_time": True})


def timed_comparison(problems, policies, meter: Meter) -> list:
    """``run_comparison`` one (scene, policy) cell at a time, each a piece of ``meter``."""
    records = []
    meter.start()
    for pid, problem in problems.items():
        for kind, policy in policies.items():
            records += compare({pid: problem}, {kind: policy}).records
            meter.lap()
    return records


def row_failed(record) -> bool:
    """Rows that did not converge, including ``error:`` rows from caught exceptions."""
    return record.outcome != "converged"


def solve_counts(records) -> dict:
    counts: dict = {}
    for r in records:
        key = f"iterations.{r.policy_kind}"
        counts[key] = counts.get(key, 0) + r.iterations
    return counts


# -- checks shared by the workloads ---------------------------------------


def check_solves(records, problems) -> list[str]:
    """Converged rows end at or below ground truth; policies agree per scene."""
    errors = []
    reference = {pid: ground_truth_error(p) for pid, p in problems.items()}
    finals: dict = {}
    for r in records:
        if row_failed(r):
            continue
        if not r.final_error <= reference[r.problem_id]:
            errors.append(
                f"{r.problem_id}/{r.policy_kind}: final error {r.final_error!r} above "
                f"ground truth {reference[r.problem_id]!r}"
            )
        finals.setdefault(r.problem_id, []).append(r.final_error)
    for pid, values in finals.items():
        gap = (max(values) - min(values)) / min(values)
        if not gap <= AGREEMENT:
            errors.append(f"{pid}: final errors differ by {gap:.2e} relative")
    return errors


def check_profiles(curves_by_tolerance) -> list[str]:
    errors = []
    for tolerance, curves in curves_by_tolerance.items():
        for kind, points in curves.items():
            alphas = [p.relative_time for p in points]
            fractions = [p.solved_fraction for p in points]
            if not all(0.0 <= f <= 1.0 for f in fractions) or fractions != sorted(fractions):
                errors.append(f"profile {kind}@{tolerance}: fractions {fractions}")
            if not all(a >= 1.0 for a in alphas) or alphas != sorted(alphas):
                errors.append(f"profile {kind}@{tolerance}: relative times {alphas}")
    return errors


def check_repeats(rounds) -> list[str]:
    """Every round must reproduce the first one's counts exactly."""
    first = rounds[0]
    return [
        f"round {i}: counts {r.counts} differ from round 0 {first.counts}"
        for i, r in enumerate(rounds[1:], start=1)
        if (r.lm_iters, r.counts) != (first.lm_iters, first.counts)
    ]


# -- workloads --------------------------------------------------------------


class SuiteSolve:
    """The 20 suite scenes under classic, the constant scheduler and gn; both profiles."""

    name = "suite-solve"

    def __init__(self, tiny: bool):
        self.seeds = (0, 100) if tiny else SUITE_TRAIN + SUITE_HOLDOUT

    def setup(self, seed: int) -> dict:
        from balm import ClassicPolicy, ConstantSchedulerPolicy, FixedPolicy

        return {
            "problems": suite(self.seeds),
            "policies": {
                "classic": ClassicPolicy(),
                "scheduler": ConstantSchedulerPolicy(),
                "gn": FixedPolicy(GN_LAMBDA),
            },
        }

    def warmup(self, inputs: dict, meter: Meter) -> None:
        first = dict(list(inputs["problems"].items())[:2])
        self._solve_and_profile(first, inputs["policies"], meter)

    def _solve_and_profile(self, problems, policies, meter: Meter):
        from balm import performance_profile
        from balm.bench import DEFAULT_TOLERANCES

        records = timed_comparison(problems, policies, meter)
        curves, failed = {}, 0
        for tolerance in DEFAULT_TOLERANCES:
            try:
                curves[tolerance] = performance_profile(records, tolerance)
            except ValueError:
                failed += 1
            meter.lap()
        return records, curves, failed

    def round(self, inputs: dict, meter: Meter) -> Round:
        records, curves, profile_failed = self._solve_and_profile(
            inputs["problems"], inputs["policies"], meter
        )
        return Round(
            lm_iters=sum(r.iterations for r in records),
            attempted=len(records) + 2,
            failed=sum(map(row_failed, records)) + profile_failed,
            counts=solve_counts(records),
            outputs={"records": records, "curves": curves},
        )

    def check(self, inputs: dict, rounds: list[Round]) -> list[str]:
        last = rounds[-1].outputs
        return (
            check_repeats(rounds)
            + check_solves(last["records"], inputs["problems"])
            + check_profiles(last["curves"])
        )


class SparseSolve:
    """A partial-visibility scene from ``--seed`` under classic and the constant scheduler."""

    name = "sparse-solve"

    def __init__(self, tiny: bool):
        self.size = (6, 60) if tiny else (40, 1500)

    def setup(self, seed: int) -> dict:
        from balm import ClassicPolicy, ConstantSchedulerPolicy

        cameras, points = self.size
        return {
            "problems": {f"sparse-{cameras}x{points}-{seed}": sparse_scene(cameras, points, seed)},
            "policies": {"classic": ClassicPolicy(), "scheduler": ConstantSchedulerPolicy()},
        }

    def warmup(self, inputs: dict, meter: Meter) -> None:
        from balm import run_comparison

        run_comparison(
            inputs["problems"],
            lapped(inputs["policies"], meter),
            env_config={"deterministic_time": True, "max_iterations": 2},
        )

    def round(self, inputs: dict, meter: Meter) -> Round:
        # A sparse solve lasts seconds, longer than the host keeps one speed,
        # so each iteration is a piece of its own.
        records = timed_comparison(inputs["problems"], lapped(inputs["policies"], meter), meter)
        return Round(
            lm_iters=sum(r.iterations for r in records),
            attempted=len(records),
            failed=sum(map(row_failed, records)),
            counts=solve_counts(records),
            outputs={"records": records},
        )

    def check(self, inputs: dict, rounds: list[Round]) -> list[str]:
        return check_repeats(rounds) + check_solves(rounds[-1].outputs["records"], inputs["problems"])


def lapped(policies: dict, meter: Meter) -> dict:
    """The policies, each ending a piece of ``meter`` whenever it is asked for a damping."""
    from balm.policy import DampingPolicy

    class Lapped(DampingPolicy):
        def __init__(self, policy):
            super().__init__(policy.window)
            self.policy = policy

        def reset(self) -> None:
            self.policy.reset()

        def next_lambda(self, obs):
            meter.lap()
            return self.policy.next_lambda(obs)

    return {kind: Lapped(policy) for kind, policy in policies.items()}


class SacPipeline:
    """Criterion-5 pipeline: train_agent, then classic, scheduler and agent on 100-109."""

    name = "sac-pipeline"

    def __init__(self, tiny: bool):
        self.tiny = tiny
        if tiny:
            self.train_seeds, self.holdout = (0, 1), (100, 101)
            self.config = dict(episodes=12, hidden=16, warmup_steps=20, batch_size=16)
        else:
            self.train_seeds, self.holdout = SUITE_TRAIN, SUITE_HOLDOUT
            self.config = dict(episodes=300)

    def setup(self, seed: int) -> dict:
        return {"train": list(suite(self.train_seeds).values()), "holdout": suite(self.holdout)}

    def warmup(self, inputs: dict, meter: Meter) -> None:
        from balm import TrainConfig, train_agent

        cfg = TrainConfig(
            episodes=2, warmup_steps=8, batch_size=8, seed=SAC_TRAIN_SEED, deterministic_time=True
        )
        meter.start()
        train_agent(inputs["train"][:1], cfg, progress=lambda _: meter.lap())

    def round(self, inputs: dict, meter: Meter) -> Round:
        from balm import (
            AgentPolicy,
            ClassicPolicy,
            ConstantSchedulerPolicy,
            TrainConfig,
            extract_schedule,
            train_agent,
        )

        cfg = TrainConfig(seed=SAC_TRAIN_SEED, deterministic_time=True, **self.config)
        holdout = inputs["holdout"]
        attempted = 1 + 3 * len(holdout)
        meter.start()
        try:
            nets, logs = train_agent(inputs["train"], cfg, progress=lambda _: meter.lap())
        except RuntimeError as exc:  # train_agent raises on a non-finite loss
            return Round(
                lm_iters=0, attempted=attempted, failed=attempted, outputs={"error": str(exc)}
            )
        meter.lap()
        schedule = extract_schedule(nets, list(holdout.values()))
        table = compare(
            holdout,
            {
                "classic": ClassicPolicy(),
                "scheduler": ConstantSchedulerPolicy(schedule),
                "agent": AgentPolicy(nets),
            },
        )
        counts = {"steps": logs[-1]["total_steps"], "updates": logs[-1]["updates"]}
        counts.update(solve_counts(table.records))
        return Round(
            lm_iters=logs[-1]["total_steps"],
            attempted=attempted,
            failed=sum(map(row_failed, table.records)),
            counts=counts,
            outputs={"records": table.records, "schedule": schedule},
        )

    def check(self, inputs: dict, rounds: list[Round]) -> list[str]:
        from balm import TrainConfig

        last = rounds[-1]
        if "error" in last.outputs:
            return []
        records = last.outputs["records"]
        errors = check_repeats(rounds) + check_solves(records, inputs["holdout"])
        # The first update comes with the step that completes the warm-up.
        warmup_steps = TrainConfig(**self.config).warmup_steps
        if last.counts["updates"] != last.counts["steps"] - warmup_steps + 1:
            errors.append(f"{last.counts['updates']} updates for {last.counts['steps']} steps")
        if self.tiny:
            return errors  # a 12-episode agent makes no claim about iterations
        iters: dict = {}
        success: dict = {}
        for r in records:
            iters.setdefault(r.policy_kind, []).append(r.iterations)
            success[r.policy_kind] = success.get(r.policy_kind, 0) + (not row_failed(r))
        agent, classic = statistics.median(iters["agent"]), statistics.median(iters["classic"])
        if not agent <= 0.5 * classic:
            errors.append(f"agent median iterations {agent} above half of classic's {classic}")
        if success["agent"] != success["classic"]:
            errors.append(f"successes: agent {success['agent']}, classic {success['classic']}")
        return errors


def regression_target(lam: float) -> float:
    """Pre-squash target of a damping value under lambda = 10^(9 tanh(x) - 7)."""
    u = (np.log10(lam) + 7.0) / 9.0
    return float(np.arctanh(np.clip(u, -(1.0 - 1e-9), 1.0 - 1e-9)))


class ZeroNetTrain:
    """One classic-driven zero-net epoch on scenes 0-9, then ZeroNetPolicy on 100-109."""

    name = "zero-net-train"

    def __init__(self, tiny: bool):
        if tiny:
            self.train_seeds, self.holdout = (0, 1), (100,)
            self.options = dict(hidden=32, passes_per_epoch=2)
        else:
            self.train_seeds, self.holdout = SUITE_TRAIN, SUITE_HOLDOUT
            self.options = dict(passes_per_epoch=ZERO_NET_PASSES)

    def setup(self, seed: int) -> dict:
        return {"train": list(suite(self.train_seeds).values()), "holdout": suite(self.holdout)}

    def warmup(self, inputs: dict, meter: Meter) -> None:
        from balm import zero_net_train

        zero_net_train(
            inputs["train"][:1], epochs=1, passes_per_epoch=1, max_iterations=2,
            seed=ZERO_NET_SEED, deterministic_time=True,
        )

    def round(self, inputs: dict, meter: Meter) -> Round:
        import balm.nn
        from balm import ClassicPolicy, ZeroNetPolicy, zero_net_train
        from balm.baselines import DEFAULT_ORACLE_GRID, OracleFailureError
        from tracer import rebind

        holdout = inputs["holdout"]
        attempted = 1 + 2 * len(holdout)
        # The regression targets are checked; they are read from the one call
        # that receives them, once per 64-state batch. That call and the
        # oracle's (once per labelled state) cut the epoch into pieces.
        targets = []
        train_step = balm.nn.mlp_train_step
        oracle = balm.baselines.zero_net_oracle

        def recording_train_step(net, adam, x, y, lr=balm.nn.ADAM_LR):
            meter.lap()
            targets.append(np.array(y, dtype=float).ravel())
            return train_step(net, adam, x, y, lr=lr)

        def lapped_oracle(*args, **kwargs):
            meter.lap()
            return oracle(*args, **kwargs)

        rebind(train_step, recording_train_step)
        rebind(oracle, lapped_oracle)
        log = []
        meter.start()
        try:
            net = zero_net_train(
                inputs["train"], epochs=1, seed=ZERO_NET_SEED, deterministic_time=True,
                progress=log.append, **self.options,
            )
        except OracleFailureError as exc:
            return Round(
                lm_iters=0, attempted=attempted, failed=attempted, outputs={"error": str(exc)}
            )
        finally:
            rebind(recording_train_step, train_step)
            rebind(lapped_oracle, oracle)
        meter.lap()
        samples = log[0]["samples"]
        lm_iters = samples * (1 + len(DEFAULT_ORACLE_GRID))
        table = compare(holdout, {"zero_net": ZeroNetPolicy(net), "classic": ClassicPolicy()})
        counts = {"labelled_states": samples, "regression_targets": sum(map(len, targets))}
        counts.update(solve_counts(table.records))
        return Round(
            lm_iters=lm_iters,
            attempted=attempted,
            failed=sum(map(row_failed, table.records)) + (not np.isfinite(log[0]["loss"])),
            counts=counts,
            outputs={"records": table.records, "targets": np.concatenate(targets)},
        )

    def check(self, inputs: dict, rounds: list[Round]) -> list[str]:
        from balm import ClassicPolicy, solve
        from balm.baselines import DEFAULT_ORACLE_GRID

        last = rounds[-1]
        if "error" in last.outputs:
            return []
        errors = check_repeats(rounds) + check_solves(last.outputs["records"], inputs["holdout"])
        classic = sum(
            solve(p, ClassicPolicy(), deterministic_time=True).iterations for p in inputs["train"]
        )
        samples = last.counts["labelled_states"]
        if samples != classic:
            errors.append(f"labelled states {samples} != classic iterations {classic}")
        if last.counts["regression_targets"] != samples * self.options["passes_per_epoch"]:
            errors.append(f"{last.counts['regression_targets']} targets for {samples} states")
        allowed = np.array([regression_target(g) for g in DEFAULT_ORACLE_GRID])
        gaps = np.min(np.abs(last.outputs["targets"][:, None] - allowed[None, :]), axis=1)
        if not np.all(gaps <= 1e-12 * np.max(np.abs(allowed))):
            errors.append(f"{int(np.sum(gaps > 0))} labels are not a grid value's target")
        return errors


WORKLOADS = {w.name: w for w in (SuiteSolve, SparseSolve, SacPipeline, ZeroNetTrain)}
