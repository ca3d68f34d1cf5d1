"""End-to-end acceptance checks.

Eleven numbered criteria cover the package's core claims, bottom-up: Jacobian
correctness, damping-limit behavior, Schur/dense equivalence, classic-baseline
robustness, the trained agent beating the classic schedule at matched accuracy
(with the constant scheduler ordered between them), reward-semantics
identities, performance-profile validity, bit-reproducibility of the training
pipeline, and soft actor-critic internals.

Each test prints exactly one verdict line (``CRITERION n: PASS/FAIL — detail``)
before asserting, so a plain ``pytest -s`` run reads as a checklist. Criteria
5, 6, 7, and 10 share one full-scale train+eval pipeline (a session fixture);
its configuration is frozen: 300 episodes, training seed 2, suite scenes 0-9,
held-out scenes 100-109, deterministic time. Criterion 10 reruns it through
the command line in fresh child processes, alongside the first run when the
host has a core for every BLAS thread of both, and compares the outputs byte
for byte.
"""

import csv
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.integrate

import balm
from balm.cli import main as cli_main
from balm.bench import RunRecord, performance_profile
from balm.env import BAEnv, EnvConfig, compute_reward
from balm.policy import ClassicPolicy
from balm.sac import (
    TrainConfig,
    init_agent,
    init_optimizers,
    sac_update,
    squashed_log_prob,
)
from balm.scene import generate_synthetic
from balm.solver import (
    Linearization,
    ParamVector,
    damped_step,
    linearize,
    solve,
)

from conftest import dense_step, dense_system, flat, residuals, suite_problem


def verdict(num, ok, detail):
    print(f"CRITERION {num:2d}: {'PASS' if ok else 'FAIL'} — {detail}")


# ---------------------------------------------------------------------------
# Local oracles (independent of the package's vectorized paths).


def unflatten(problem, vector):
    split = 9 * problem.num_cameras
    return ParamVector(
        vector[:split].reshape(-1, 9).copy(), vector[split:].reshape(-1, 3).copy()
    )


def fd_jacobian(problem, params, h=1e-6):
    """Central-difference Jacobian of the stacked residual vector."""
    base = flat(params)
    jac = np.zeros((2 * problem.num_observations, base.size))
    for k in range(base.size):
        plus = base.copy()
        plus[k] += h
        minus = base.copy()
        minus[k] -= h
        r_plus = residuals(problem, unflatten(problem, plus)).ravel()
        r_minus = residuals(problem, unflatten(problem, minus)).ravel()
        jac[:, k] = (r_plus - r_minus) / (2.0 * h)
    return jac


def scatter_jacobian(lin):
    n = len(lin.cam_idx)
    dim = 9 * lin.num_cameras + 3 * lin.num_points
    jac = np.zeros((2 * n, dim))
    for k in range(n):
        ci, pj = lin.cam_idx[k], lin.pt_idx[k]
        jac[2 * k : 2 * k + 2, 9 * ci : 9 * ci + 9] = lin.jac_cam[k]
        col = 9 * lin.num_cameras + 3 * pj
        jac[2 * k : 2 * k + 2, col : col + 3] = lin.jac_pt[k]
    return jac


def relative_gap(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return float(np.max(np.abs(a - b) / denom))


def random_linearization(seed=0, nc=4, npts=30):
    """Fully-observed random blocks: no gauge freedom, well conditioned, so
    the undamped Newton step is uniquely defined."""
    rng = np.random.default_rng(seed)
    cam_idx = np.repeat(np.arange(nc), npts)
    pt_idx = np.tile(np.arange(npts), nc)
    n = len(cam_idx)
    residual = rng.normal(0.0, 1.0, (n, 2))
    jac_cam = rng.normal(0.0, 1.0, (n, 2, 9))
    jac_pt = rng.normal(0.0, 1.0, (n, 2, 3))
    grad_cam = np.zeros((nc, 9))
    grad_pt = np.zeros((npts, 3))
    h_cc = np.zeros((nc, 9, 9))
    h_pp = np.zeros((npts, 3, 3))
    h_cp = np.zeros((n, 9, 3))
    for k in range(n):
        ci, pj = cam_idx[k], pt_idx[k]
        grad_cam[ci] += jac_cam[k].T @ residual[k]
        grad_pt[pj] += jac_pt[k].T @ residual[k]
        h_cc[ci] += jac_cam[k].T @ jac_cam[k]
        h_pp[pj] += jac_pt[k].T @ jac_pt[k]
        h_cp[k] = jac_cam[k].T @ jac_pt[k]
    return Linearization(
        cam_idx=cam_idx,
        pt_idx=pt_idx,
        residual=residual,
        jac_cam=jac_cam,
        jac_pt=jac_pt,
        grad_cam=grad_cam,
        grad_pt=grad_pt,
        h_cc=h_cc,
        h_pp=h_pp,
        h_cp=h_cp,
        num_cameras=nc,
        num_points=npts,
    )


def run_episode(env, problem, policy):
    obs = env.reset(problem)
    rewards = []
    infos = []
    done = False
    while not done:
        out = env.step(policy.next_lambda(obs))
        obs = out.observation
        rewards.append(out.reward)
        infos.append({"outcome": out.outcome, "iteration": out.observation.iteration_index})
        done = out.done
    return rewards, infos


# ---------------------------------------------------------------------------
# Shared full-scale pipeline (criteria 5, 6, 7, 10).

TRAIN_ARGS = [
    "train",
    "--algo", "sac",
    "--train-seeds", "0-9",
    "--episodes", "300",
    "--seed", "2",
    "--deterministic-time",
]
EVAL_ARGS = [
    "eval",
    "--policies", "classic,scheduler,agent",
    "--schedule", "auto",
    "--eval-seeds", "100-109",
    "--deterministic-time",
]
PIPELINE_FILES = (
    ("train", "agent.ckpt"),
    ("train", "train_log.jsonl"),
    ("train", "manifest.json"),
    ("eval", "records.csv"),
    ("eval", "aggregates.csv"),
    ("eval", "manifest.json"),
)


def run_pipeline(root):
    train_dir = root / "train"
    eval_dir = root / "eval"
    t0 = time.perf_counter()
    rc = cli_main(TRAIN_ARGS + ["--out-dir", str(train_dir)])
    t1 = time.perf_counter()
    assert rc == 0
    rc = cli_main(
        EVAL_ARGS
        + ["--checkpoint", str(train_dir / "agent.ckpt"), "--out-dir", str(eval_dir)]
    )
    t2 = time.perf_counter()
    assert rc == 0
    with open(eval_dir / "records.csv", newline="") as fh:
        records = list(csv.DictReader(fh))
    return SimpleNamespace(
        train_dir=train_dir,
        eval_dir=eval_dir,
        train_s=t1 - t0,
        eval_s=t2 - t1,
        records=records,
    )


RERUN_TIMEOUT_S = 3600.0
CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def blas_threads() -> int:
    """Threads the BLAS starts in each process: as its variables say, else one per core."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "").split(",")[0]
        if value.isdigit() and int(value) > 0:
            return int(value)
    return CORES


class PipelineRerun:
    """Criterion 10's rerun: ``python -m balm train``, then ``eval``, in child processes.

    The children get this process's environment, BLAS thread variables
    included, and a fresh directory. They share no interpreter state with
    the first run: not the memoized pair plans, not module globals, not the
    allocator's history.
    """

    def __init__(self, root: Path):
        self.root = root
        self.train_dir, self.eval_dir = root / "train", root / "eval"
        package_root = str(Path(balm.__file__).resolve().parents[1])
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (package_root, os.environ.get("PYTHONPATH")))
        )
        self.train = None

    def _start(self, name: str, args: list[str]) -> subprocess.Popen:
        with open(self.root / f"{name}.log", "w") as log:
            return subprocess.Popen(
                [sys.executable, "-m", "balm", *args],
                cwd=self.root,
                env=self.env,
                stdout=log,
                stderr=subprocess.STDOUT,
            )

    def start(self) -> None:
        self.train = self._start("train", TRAIN_ARGS + ["--out-dir", str(self.train_dir)])

    def _finish(self, name: str, child: subprocess.Popen) -> str | None:
        """None once ``child`` exits cleanly, else why it did not, with its output."""
        try:
            child.wait(timeout=RERUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            problem = f"timed out after {RERUN_TIMEOUT_S:.0f}s"
        else:
            if child.returncode == 0:
                return None
            problem = f"exited with status {child.returncode}"
        output = (self.root / f"{name}.log").read_text()
        return f"rerun {name} {problem}:\n{output}"

    def wait(self) -> str | None:
        """Run the rerun to its end; None if both children succeeded, else why not."""
        if self.train is None:
            self.start()
        failure = self._finish("train", self.train)
        if failure:
            return failure
        checkpoint = str(self.train_dir / "agent.ckpt")
        args = EVAL_ARGS + ["--checkpoint", checkpoint, "--out-dir", str(self.eval_dir)]
        return self._finish("eval", self._start("eval", args))

    def stop(self) -> None:
        if self.train is not None and self.train.poll() is None:
            self.train.kill()
            self.train.wait()


@pytest.fixture(scope="session")
def pipeline_rerun(tmp_path_factory):
    rerun = PipelineRerun(tmp_path_factory.mktemp("pipeline-b"))
    yield rerun
    rerun.stop()


@pytest.fixture(scope="session")
def pipeline(request, pipeline_rerun, tmp_path_factory):
    """The first run, in this process. When criterion 10 is selected and the
    host has a core for every BLAS thread of both runs, its rerun starts
    first and runs alongside; otherwise it runs after. (OpenBLAS threads
    spin while they wait: two runs on too few cores each take 4x longer.)"""
    if CORES >= 2 * blas_threads() and any(
        getattr(item, "originalname", None) == "test_criterion_10_pipeline_is_byte_reproducible"
        for item in request.session.items
    ):
        pipeline_rerun.start()
    return run_pipeline(tmp_path_factory.mktemp("pipeline-a"))


def per_policy(records, field, convert=float):
    out = {}
    for row in records:
        out.setdefault(row["policy"], {})[row["problem"]] = convert(row[field])
    return out


# ---------------------------------------------------------------------------


def test_criterion_01_jacobian_matches_finite_differences():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(5):
        problem = generate_synthetic(10, 10, seed=seed)
        params = ParamVector.from_problem(problem)
        lin = linearize(problem, params)
        worst = max(worst, relative_gap(scatter_jacobian(lin), fd_jacobian(problem, params)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 10.0
    verdict(1, ok, f"max Jacobian gap {worst:.2e} over 5 scenes (tol 1e-5), {elapsed:.1f}s")
    assert worst < 1e-5
    assert elapsed < 10.0


def test_criterion_02_damping_limits():
    t0 = time.perf_counter()
    newton_gaps = []
    cosines = []
    for seed in range(3):
        lin = random_linearization(seed=seed)
        hess, grad = dense_system(lin)
        exact = np.linalg.solve(hess, -grad)
        for step_of in (dense_step, damped_step):
            dc, dp = step_of(lin, 1e-12)
            step = np.concatenate([dc.ravel(), dp.ravel()])
            newton_gaps.append(np.linalg.norm(step - exact) / np.linalg.norm(exact))
            dc, dp = step_of(lin, 1e8)
            step = np.concatenate([dc.ravel(), dp.ravel()])
            cosines.append(-(step @ grad) / (np.linalg.norm(step) * np.linalg.norm(grad)))
    elapsed = time.perf_counter() - t0
    ok = max(newton_gaps) < 1e-6 and min(cosines) > 1.0 - 1e-6 and elapsed < 5.0
    verdict(
        2,
        ok,
        f"Newton gap {max(newton_gaps):.2e} (tol 1e-6), "
        f"descent cosine 1-{1.0 - min(cosines):.2e} (tol 1e-6), {elapsed:.1f}s",
    )
    assert max(newton_gaps) < 1e-6
    assert min(cosines) > 1.0 - 1e-6
    assert elapsed < 5.0


def test_criterion_03_schur_matches_dense():
    t0 = time.perf_counter()
    worst = 0.0
    for nc, npts, seed in ((6, 40, 0), (12, 100, 1), (20, 200, 2)):
        problem = generate_synthetic(nc, npts, seed=seed, focal=1.0, noise_std=0.01)
        lin = linearize(problem, ParamVector.from_problem(problem))
        for lam in (1e-6, 1e-2, 1.0, 1e2):
            dc_d, dp_d = dense_step(lin, lam)
            dc_s, dp_s = damped_step(lin, lam)
            dense_delta = np.concatenate([dc_d.ravel(), dp_d.ravel()])
            schur_delta = np.concatenate([dc_s.ravel(), dp_s.ravel()])
            worst = max(
                worst,
                np.linalg.norm(schur_delta - dense_delta) / np.linalg.norm(dense_delta),
            )
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 30.0
    verdict(
        3,
        ok,
        f"max Schur/dense step gap {worst:.2e} (tol 1e-8) up to 20 cams/200 pts, {elapsed:.1f}s",
    )
    assert worst < 1e-8
    assert elapsed < 30.0


def test_criterion_04_classic_solves_whole_suite():
    t0 = time.perf_counter()
    outcomes = []
    for seed in range(20):
        result = solve(suite_problem(seed), ClassicPolicy(), deterministic_time=True)
        outcomes.append(result.converged)
    elapsed = time.perf_counter() - t0
    solved = sum(outcomes)
    ok = solved == 20 and elapsed < 120.0
    verdict(4, ok, f"classic converged on {solved}/20 suite scenes, {elapsed:.1f}s")
    assert solved == 20
    assert elapsed < 120.0


def test_criterion_05_agent_halves_median_iterations(pipeline):
    iters = per_policy(pipeline.records, "iterations", int)
    outcomes = per_policy(pipeline.records, "outcome", str)
    agent_median = statistics.median(iters["agent"].values())
    classic_median = statistics.median(iters["classic"].values())
    agent_success = sum(o == "converged" for o in outcomes["agent"].values())
    classic_success = sum(o == "converged" for o in outcomes["classic"].values())
    ok = (
        agent_median <= 0.5 * classic_median
        and agent_success == classic_success
        and pipeline.train_s < 3600.0
        and pipeline.eval_s < 300.0
    )
    verdict(
        5,
        ok,
        f"median iterations agent {agent_median} vs classic {classic_median} "
        f"(gate ≤50%), success {agent_success}/10 vs {classic_success}/10, "
        f"train {pipeline.train_s:.0f}s, eval {pipeline.eval_s:.0f}s",
    )
    assert agent_median <= 0.5 * classic_median
    assert agent_success == classic_success
    assert pipeline.train_s < 3600.0
    assert pipeline.eval_s < 300.0


def test_criterion_06_scheduler_ordered_between(pipeline):
    iters = per_policy(pipeline.records, "iterations", int)
    medians = {kind: statistics.median(vals.values()) for kind, vals in iters.items()}
    total = pipeline.train_s + pipeline.eval_s
    ok = medians["agent"] <= medians["scheduler"] <= medians["classic"] and total < 600.0
    verdict(
        6,
        ok,
        f"median iterations agent {medians['agent']} ≤ scheduler {medians['scheduler']} "
        f"≤ classic {medians['classic']}, pipeline {total:.0f}s",
    )
    assert medians["agent"] <= medians["scheduler"] <= medians["classic"]
    assert total < 600.0


def test_criterion_07_accuracy_preserved_per_scene(pipeline):
    finals = per_policy(pipeline.records, "final_error")
    gaps = {
        problem: abs(finals["agent"][problem] - classic_final) / classic_final
        for problem, classic_final in finals["classic"].items()
    }
    worst_problem = max(gaps, key=gaps.get)
    ok = len(gaps) == 10 and max(gaps.values()) <= 1e-3
    verdict(
        7,
        ok,
        f"max relative final-error gap {gaps[worst_problem]:.2e} "
        f"({worst_problem}) over {len(gaps)} held-out scenes (tol 1e-3)",
    )
    assert len(gaps) == 10
    assert max(gaps.values()) <= 1e-3


def test_criterion_08_reward_semantics():
    t0 = time.perf_counter()
    problem = suite_problem(0)

    env = BAEnv(EnvConfig())  # wall-clock durations
    rewards, infos = run_episode(env, problem, ClassicPolicy())
    assert infos[-1]["outcome"] == "converged"
    durations = env.solver_state.durations
    expected = 10.0 - sum(durations[:-1])
    duration_gap = abs(sum(rewards) - expected) / max(1.0, abs(expected))

    env = BAEnv(EnvConfig(reward_variant="reduction", deterministic_time=True))
    rewards, infos = run_episode(env, problem, ClassicPolicy())
    assert infos[-1]["outcome"] == "converged"
    iterations = infos[-1]["iteration"]
    terminal_exact = rewards[-1] == 10.0 * 0.99**iterations
    silent_steps = all(r == 0.0 for r in rewards[:-1])

    elapsed = time.perf_counter() - t0
    ok = duration_gap <= 1e-12 and terminal_exact and silent_steps and elapsed < 1.0
    verdict(
        8,
        ok,
        f"duration-return identity gap {duration_gap:.1e} (tol 1e-12), "
        f"reduction terminal reward == 10·0.99^{iterations}: {terminal_exact}, {elapsed:.2f}s",
    )
    assert duration_gap <= 1e-12
    assert terminal_exact
    assert silent_steps
    assert elapsed < 1.0


def test_criterion_09_profile_validity():
    t0 = time.perf_counter()

    def record(problem, kind, reach_time):
        return RunRecord(
            problem_id=problem,
            policy_kind=kind,
            outcome="converged",
            iterations=1,
            total_time_s=reach_time,
            initial_error=100.0,
            final_error=0.0,
            trace=((0.25, 0.0, reach_time),),
        )

    records = [
        record("p1", "a", 10.0),
        record("p1", "b", 20.0),
        record("p2", "a", 30.0),
        record("p2", "b", 15.0),
    ]
    curves = performance_profile(records, tolerance=0.1)
    ok = set(curves) == {"a", "b"}
    for kind, points in curves.items():
        alphas = [p.relative_time for p in points]
        fractions = [p.solved_fraction for p in points]
        ok = ok and all(a >= 1.0 for a in alphas)
        ok = ok and all(0.0 <= f <= 1.0 for f in fractions)
        ok = ok and alphas == sorted(alphas)
        ok = ok and fractions == sorted(fractions)
        # each policy is the fastest on exactly one of the two problems
        ok = ok and alphas[0] == 1.0 and fractions[0] == 0.5
        ok = ok and fractions[-1] == 1.0
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    verdict(
        9,
        ok,
        "profile curves within [0,1], nondecreasing, fastest solver counted "
        f"at α=1, {elapsed:.2f}s",
    )
    assert ok


def test_criterion_10_pipeline_is_byte_reproducible(pipeline, pipeline_rerun):
    failure = pipeline_rerun.wait()
    if failure:
        verdict(10, False, failure)
        pytest.fail(failure)
    first_dirs = {"train": pipeline.train_dir, "eval": pipeline.eval_dir}
    repeat_dirs = {"train": pipeline_rerun.train_dir, "eval": pipeline_rerun.eval_dir}
    mismatched = [
        f"{sub}/{name}"
        for sub, name in PIPELINE_FILES
        if (first_dirs[sub] / name).read_bytes() != (repeat_dirs[sub] / name).read_bytes()
    ]
    ok = not mismatched
    verdict(
        10,
        ok,
        "train+eval outputs byte-identical across an in-process run and a fresh "
        f"child process ({len(PIPELINE_FILES)} files)" if ok else f"mismatched: {mismatched}",
    )
    assert not mismatched


def test_criterion_11_sac_internals():
    t0 = time.perf_counter()

    # squashed log-density integrates to one
    quad_gaps = []
    for mu, sigma in ((0.0, 1.0), (0.5, 0.8), (-1.2, 0.3)):
        log_sigma = np.log(sigma)

        def density(u):
            return np.exp(squashed_log_prob(np.arctanh(u), mu, log_sigma))

        total, _ = scipy.integrate.quad(density, -1.0, 1.0, epsabs=1e-10, limit=200)
        quad_gaps.append(abs(total - 1.0))

    # hard target refresh happens exactly every `target_refresh` updates
    def net_params(net):
        return np.concatenate(
            [w.ravel() for w in net.weights] + [b.ravel() for b in net.biases]
        )

    def constant_batch(state, action, reward, next_state, done, n):
        return (
            np.tile(state, (n, 1)),
            np.full(n, action),
            np.full(n, reward),
            np.tile(next_state, (n, 1)),
            np.full(n, done),
        )

    cfg = TrainConfig(
        episodes=1, seed=0, window=5, hidden=32, batch_size=8,
        warmup_steps=0, target_refresh=5,
    )
    nets = init_agent(window=5, hidden=32, seed=0)
    opt = init_optimizers(nets)
    batch = constant_batch(np.zeros(5), 0.2, -1.0, np.zeros(5), 0.0, 8)
    rng = np.random.default_rng(0)
    refresh_exact = True
    for step in range(1, 11):
        sac_update(nets, opt, batch, cfg, rng)
        same = np.array_equal(net_params(nets.target_value), net_params(nets.value))
        refresh_exact = refresh_exact and (same == (step % 5 == 0))

    # value loss at least halves on a single repeated transition
    cfg = TrainConfig(
        episodes=1, seed=0, window=5, hidden=32, batch_size=8,
        warmup_steps=0, lr=1e-3,
    )
    nets = init_agent(window=5, hidden=32, seed=1)
    opt = init_optimizers(nets)
    batch = constant_batch(np.full(5, 0.3), 0.1, -1.0, np.full(5, 0.2), 1.0, 8)
    rng = np.random.default_rng(2)
    losses = [sac_update(nets, opt, batch, cfg, rng).value_loss for _ in range(200)]
    drop = np.mean(losses[-10:]) / np.mean(losses[:10])

    elapsed = time.perf_counter() - t0
    ok = (
        max(quad_gaps) < 1e-4
        and refresh_exact
        and drop < 0.5
        and elapsed < 60.0
    )
    verdict(
        11,
        ok,
        f"density quadrature gap {max(quad_gaps):.1e} (tol 1e-4), hard refresh "
        f"exact: {refresh_exact}, value loss ratio {drop:.2f} over 200 updates "
        f"(gate <0.5), {elapsed:.1f}s",
    )
    assert max(quad_gaps) < 1e-4
    assert refresh_exact
    assert drop < 0.5
    assert elapsed < 60.0
