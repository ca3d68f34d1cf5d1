"""Command-line entry points for scene generation, solving, and experiments.

Every subcommand accepts ``--config``, ``--seed``, ``--deterministic-time``
and ``--out-dir``. A ``--config`` JSON object stands for the flags its keys
name (long option names with underscores; a key the subcommand has no flag
for is an error), inserted before the typed flags, which so win; one parse
checks them all. ``train``'s and ``ablate``'s training flags are the fields
of the configs they build, and a flag the built config lacks is an error.

Each command first checks every input: a rejected one raises ``ValueError``
(or ``OSError``, or ``NumericalFailureError`` for an unscoreable start) in
``main``'s ``--config`` check or the command's input ``try``, which print
``balm <command>: error: ...`` and return 2 before any work, as argparse's
own checks exit 2. Then the command computes, and a failure there
propagates. Only then does ``_write_outputs`` make ``--out-dir`` and write
the command's files and ``manifest.json``, which records the resolved
configuration (with the built config for the training flags) and library
versions but never timestamps or absolute paths, so reruns with the same
inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import gzip
import json
import sys
from collections import Counter
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .bench import (
    DEFAULT_TOLERANCES,
    SUITE_NOISE_STD,
    SUITE_PIXEL_SIGMA,
    ablation_suite,
    check_tolerance,
    comparison_rows,
    extract_schedule,
    json_safe,
    performance_profile,
    profile_rows,
    records_to_csv,
    result_to_json_dict,
    rows_to_csv,
    run_comparison,
)
from .baselines import (
    ZeroNetConfig,
    load_zero_net_checkpoint,
    save_zero_net_checkpoint,
    zero_net_train,
)
from .env import REWARD_VARIANTS, EnvConfig, solve
from .policy import (
    DEFAULT_SCHEDULE,
    AgentPolicy,
    ClassicPolicy,
    ConstantSchedulerPolicy,
    DampingPolicy,
    FixedPolicy,
    ZeroNetPolicy,
)
from .sac import TrainConfig, load_agent_checkpoint, save_agent_checkpoint, train_agent
from .scene import generate_synthetic, parse_bal, serialize_bal
from .solver import NumericalFailureError, SolverState

# The fields of the configs ``train`` builds, for ``--algo sac`` and ``zero-net``.
TRAIN_FIELDS = {f.name for config in (TrainConfig, ZeroNetConfig) for f in fields(config)}

def read_text(path) -> str:
    """Read a text file, transparently decompressing gzip payloads."""
    raw = Path(path).read_bytes()
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    return raw.decode("utf-8")


def parse_key_list(text: str, noun: str, parse_part=lambda part: [part], flag=None) -> list:
    """The entries ``parse_part`` reads from each non-empty part, stripped, of the
    comma list ``text``. An entry names a scene, a table row or a file, so no
    entry or a repeated one is an error; ``flag``, if given, heads its message."""
    try:
        entries = [
            entry for part in str(text).split(",") if part.strip()
            for entry in parse_part(part.strip())
        ]
        if not entries:
            raise ValueError(f"no {noun}s in {text!r}")
        repeated = [entry for entry, count in Counter(entries).items() if count > 1]
        if repeated:
            raise ValueError(f"{noun} {repeated[0]} repeated in {text!r}")
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}" if flag else str(exc)) from None
    return entries


def parse_seed_list(text: str) -> list:
    """Parse ``"3"``, ``"0,2,5"``, or ``"0-9"`` (inclusive range), no seed twice."""
    def seeds(part):
        if "-" not in part[1:]:
            return [int(part)]
        lo, hi = (int(end) for end in part.split("-", 1))
        if hi < lo:
            raise ValueError(f"descending seed range {part!r} in {text!r}")
        return range(lo, hi + 1)
    return parse_key_list(text, "seed", seeds)


def write_manifest(out_dir: Path, args: argparse.Namespace, outputs, train_config=None):
    entries = vars(args)
    if train_config is not None:  # it stands for the training flags it was built from
        entries = {k: v for k, v in entries.items() if k not in TRAIN_FIELDS} | asdict(train_config)
    config = {}
    for key, value in sorted(entries.items()):
        if key in ("func", "config", "out_dir"):
            continue
        if key in ("problem", "checkpoint") and value is not None:
            value = Path(value).name
        config[key] = json_safe(value)
    manifest = {
        "command": args.command,
        "config": config,
        "outputs": sorted(Path(o).name for o in outputs),
        "versions": {
            "balm": __version__,
            "numpy": np.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
            "scipy": scipy.__version__,
        },
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _write_outputs(args, files: dict, train_config=None) -> Path:
    """Make ``--out-dir``, write ``files`` into it, then ``manifest.json``.

    ``files`` maps a file name to its text, or to a function that writes the
    path it is given (the checkpoints). This is the only code that writes: a
    command calls it once, after every input is checked and its work done.
    """
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        if callable(content):
            content(out_dir / name)
        else:
            (out_dir / name).write_text(content)
    write_manifest(out_dir, args, files, train_config)
    return out_dir


def _usage_error(args, message) -> int:
    print(f"balm {args.command}: error: {message}", file=sys.stderr)
    return 2


def _suite_problems(args, seeds) -> dict:
    return {
        f"scene-{seed}": generate_synthetic(
            args.num_cameras, args.num_points, pixel_sigma=args.pixel_sigma,
            init_noise=args.init_noise, noise_std=args.noise_std, seed=seed,
        )
        for seed in seeds
    }


def _add_scene_options(parser):
    parser.add_argument("--num-cameras", type=int, default=10)
    parser.add_argument("--num-points", type=int, default=10)
    parser.add_argument("--pixel-sigma", type=float, default=SUITE_PIXEL_SIGMA)
    parser.add_argument("--noise-std", type=float, default=SUITE_NOISE_STD)
    parser.add_argument("--init-noise", type=float, default=0.1)


def _add_solve_options(parser):
    parser.add_argument("--max-iterations", type=int, default=EnvConfig.max_iterations)
    parser.add_argument("--threshold", type=float, default=EnvConfig.threshold)


def _add_train_options(parser, *configs):
    """The training scenes' flags, the solve options, and a flag for each field
    of ``configs`` that has none yet but ``target_refresh`` (set only from
    Python). The flag is typed like the field's default; omitted, it is
    ``None``, so the config's own default applies."""
    parser.add_argument("--train-seeds", default="0-9")
    _add_scene_options(parser)
    _add_solve_options(parser)
    for field in [f for config in configs for f in fields(config)]:
        flag = "--" + field.name.replace("_", "-")
        if field.name != "target_refresh" and flag not in parser._option_string_actions:
            choices = REWARD_VARIANTS if field.name == "reward_variant" else None
            parser.add_argument(flag, type=type(field.default), choices=choices)


def _add_policy_options(parser):
    parser.add_argument("--checkpoint", default=None)
    parser.add_argument("--fixed-value", type=float, default=0.25)
    parser.add_argument("--schedule", default=None)


def _policy(token: str, args, problems) -> DampingPolicy:
    """The policy one ``--policy``/``--policies`` token names.

    ``--schedule auto`` averages the checkpointed agent's first dampings
    over ``problems``, the problems the command solves. An agent trained
    with the ``reversed`` reward is shown the state it trained on.
    """
    token = token.strip()
    if token in ("agent", "zero-net") and not args.checkpoint:
        raise ValueError(f"--checkpoint is required for the {token} policy")
    if token == "classic":
        return ClassicPolicy()
    if token == "classic-paper":
        return ClassicPolicy(mode="paper")
    if token == "gn":
        return FixedPolicy(1e-15)
    if token == "fixed":
        return FixedPolicy(args.fixed_value)
    if token == "scheduler":
        if args.schedule == "auto":
            if not args.checkpoint:
                raise ValueError("--schedule auto requires --checkpoint")
            nets, _ = load_agent_checkpoint(args.checkpoint)
            return ConstantSchedulerPolicy(extract_schedule(nets, problems))
        if args.schedule:
            return ConstantSchedulerPolicy([float(v) for v in args.schedule.split(",")])
        return ConstantSchedulerPolicy(DEFAULT_SCHEDULE)
    if token == "agent":
        return AgentPolicy(load_agent_checkpoint(args.checkpoint)[0])
    if token == "zero-net":
        return ZeroNetPolicy(load_zero_net_checkpoint(args.checkpoint))
    raise ValueError(f"unknown policy {token!r}")


def cmd_generate(args) -> int:
    try:
        if args.count < 1:
            raise ValueError(f"--count must be at least 1, got {args.count}")
        problems = _suite_problems(args, range(args.seed, args.seed + args.count))
    except (ValueError, OSError) as exc:
        return _usage_error(args, exc)
    files = {f"{name}.txt": serialize_bal(problem) for name, problem in problems.items()}
    out_dir = _write_outputs(args, files)
    print(f"wrote {len(files)} scenes to {out_dir}")
    return 0


def cmd_solve(args) -> int:
    try:
        if not args.problem:
            raise ValueError("solve needs --problem (flag or config)")
        settings = vars(EnvConfig.of(args))
        problem = parse_bal(read_text(args.problem), pixel_sigma=args.pixel_sigma)
        SolverState.initial(problem)  # a starting point that cannot be scored is rejected
        policy = _policy(args.policy, args, [problem])
    except (ValueError, OSError, NumericalFailureError) as exc:
        return _usage_error(args, exc)
    result = solve(problem, policy, **settings)
    _write_outputs(args, {
        "result.json": json.dumps(result_to_json_dict(result), indent=2, sort_keys=True) + "\n",
        "trace.csv": records_to_csv(result.records),
    })
    print(
        f"{args.policy}: {result.outcome} in {result.iterations} iterations, "
        f"final error {result.final_error:.6e}"
    )
    return 0


def _train_inputs(args, config_type):
    """The ``config_type`` built from the flags given, checked, and the training
    scenes, each scored: the inputs of ``train`` and ``ablate``. No flag given is
    ignored, and a scene that cannot be scored is rejected under its id."""
    given = {name: value for name, value in vars(args).items() if value is not None}
    names = {f.name for f in fields(config_type)}
    unused = [name for name in given if name in TRAIN_FIELDS and name not in names]
    if unused:
        flags = ", ".join("--" + name.replace("_", "-") for name in unused)
        raise ValueError(f"{config_type.__name__} has no field for {flags}")
    cfg = config_type(**{name: value for name, value in given.items() if name in names})
    problems = _suite_problems(args, parse_seed_list(args.train_seeds))
    for scene, problem in problems.items():
        try:
            SolverState.initial(problem)
        except NumericalFailureError as exc:
            raise ValueError(f"{scene}: {exc}") from None
    return cfg, list(problems.values())


def cmd_train(args) -> int:
    try:
        cfg, problems = _train_inputs(args, TrainConfig if args.algo == "sac" else ZeroNetConfig)
    except (ValueError, OSError, NumericalFailureError) as exc:
        return _usage_error(args, exc)
    if args.algo == "sac":
        nets, entries = train_agent(problems, cfg)
        checkpoint, save = "agent.ckpt", lambda path: save_agent_checkpoint(path, nets, cfg)
    else:
        entries = []
        net = zero_net_train(problems, progress=entries.append, **asdict(cfg))
        checkpoint, save = "zero_net.ckpt", lambda path: save_zero_net_checkpoint(path, net)
    log = "".join(json.dumps(entry, sort_keys=True) + "\n" for entry in entries)
    _write_outputs(args, {checkpoint: save, "train_log.jsonl": log}, cfg)
    print(f"trained {args.algo} on {len(problems)} scenes -> {checkpoint}")
    return 0


def _comparison_inputs(args):
    """The scenes, policies and solve settings of ``eval`` and ``profile``."""
    settings = EnvConfig.of(args)
    problems = _suite_problems(args, parse_seed_list(args.eval_seeds))
    tokens = parse_key_list(args.policies, "policy token", flag="--policies")
    policies = {token: _policy(token, args, list(problems.values())) for token in tokens}
    return problems, policies, settings


def cmd_eval(args) -> int:
    try:
        problems, policies, settings = _comparison_inputs(args)
    except (ValueError, OSError, NumericalFailureError) as exc:
        return _usage_error(args, exc)
    table = run_comparison(problems, policies, env_config=settings)
    _write_outputs(args, {
        "records.csv": rows_to_csv(comparison_rows(table)),
        "aggregates.csv": rows_to_csv(table.aggregates),
    })
    for row in table.aggregates:
        print(
            f"{row['policy']}: success {row['success_rate']:.2f}, "
            f"median iterations {row['median_iterations']:.1f}"
        )
    return 0


def cmd_profile(args) -> int:
    try:
        tolerances = {}  # by the file each names
        for tol in parse_key_list(
            args.tolerances, "tolerance", lambda t: [check_tolerance(float(t))], "--tolerances"
        ):
            name = f"profile-{tol:g}.csv"
            if name in tolerances:
                raise ValueError(f"--tolerances: {tolerances[name]} and {tol} both name {name}")
            tolerances[name] = tol
        problems, policies, settings = _comparison_inputs(args)
        if len(policies) < 2:
            raise ValueError(f"--policies: need two or more for a profile, got {args.policies!r}")
    except (ValueError, OSError, NumericalFailureError) as exc:
        return _usage_error(args, exc)
    table = run_comparison(problems, policies, env_config=settings)
    files = {
        name: rows_to_csv(profile_rows(performance_profile(table.records, tolerance)))
        for name, tolerance in tolerances.items()
    }
    out_dir = _write_outputs(args, files)
    print(f"wrote {len(files)} profile tables to {out_dir}")
    return 0


def cmd_ablate(args) -> int:
    try:
        if not args.kind:
            raise ValueError("ablate needs --kind (flag or config)")
        cfg, train_problems = _train_inputs(args, TrainConfig)
        held_out = _suite_problems(args, parse_seed_list(args.eval_seeds))
    except (ValueError, OSError, NumericalFailureError) as exc:
        return _usage_error(args, exc)
    result = ablation_suite(args.kind, cfg, train_problems, held_out)
    out_dir = _write_outputs(args, {
        f"ablation-{args.kind}.csv": rows_to_csv(result["rows"]),
        f"ablation-{args.kind}.json": json.dumps(result, indent=2, sort_keys=True) + "\n",
    }, cfg)
    print(f"wrote ablation tables for {args.kind} to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None, help="JSON config file")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--deterministic-time", action="store_true")
    common.add_argument("--out-dir", type=str, default=".")

    parser = argparse.ArgumentParser(
        prog="balm",
        description="Bundle adjustment with learned and scheduled damping.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", parents=[common], help="write synthetic scenes")
    _add_scene_options(p_gen)
    p_gen.add_argument("--count", type=int, default=10)
    p_gen.set_defaults(func=cmd_generate)

    p_solve = sub.add_parser("solve", parents=[common], help="solve one problem")
    p_solve.add_argument("--problem", default=None, help="BAL text file (.gz ok)")
    p_solve.add_argument("--pixel-sigma", type=float, default=1.0)
    p_solve.add_argument("--policy", default="classic")
    _add_policy_options(p_solve)
    _add_solve_options(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_train = sub.add_parser("train", parents=[common], help="train a damping policy")
    p_train.add_argument("--algo", choices=("sac", "zero-net"), default="sac")
    _add_train_options(p_train, TrainConfig, ZeroNetConfig)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", parents=[common], help="compare policies")
    p_eval.add_argument("--policies", default="classic,agent")
    _add_policy_options(p_eval)
    p_eval.add_argument("--eval-seeds", default="100-109")
    _add_scene_options(p_eval)
    _add_solve_options(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_profile = sub.add_parser("profile", parents=[common], help="performance profiles")
    p_profile.add_argument("--policies", default="classic,gn")
    _add_policy_options(p_profile)
    p_profile.add_argument("--eval-seeds", default="100-109")
    p_profile.add_argument("--tolerances", default=",".join(map(str, DEFAULT_TOLERANCES)))
    _add_scene_options(p_profile)
    _add_solve_options(p_profile)
    p_profile.set_defaults(func=cmd_profile)

    p_ablate = sub.add_parser("ablate", parents=[common], help="run an ablation suite")
    p_ablate.add_argument(
        "--kind",
        default=None,
        choices=("state_size", "reward_variant", "reversed", "threshold", "scheduler"),
    )
    _add_train_options(p_ablate, TrainConfig)
    p_ablate.add_argument("--eval-seeds", default="100-109")
    p_ablate.set_defaults(func=cmd_ablate)

    parser.subcommand_parsers = sub.choices
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args, _ = parser.parse_known_args(argv)
    if args.config:
        actions = parser.subcommand_parsers[args.command]._actions
        flags = {action.dest: action.option_strings[-1] for action in actions}
        try:
            overrides = json.loads(read_text(args.config))
            if not isinstance(overrides, dict):
                raise ValueError(f"need a JSON object, got {type(overrides).__name__}")
            unknown = [key for key in overrides if key not in flags]
            if unknown:
                raise ValueError(f"balm {args.command} has no flag for key {unknown[0]!r}")
        except (OSError, ValueError) as exc:
            return _usage_error(args, f"--config: {exc}")
        at = argv.index(args.command) + 1
        argv[at:at] = [
            flags[key] if value is True else f"{flags[key]}={value}"
            for key, value in overrides.items() if value is not False and value is not None
        ]
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
