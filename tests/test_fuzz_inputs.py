"""Every input ends in exit 0 or 2: a seeded mutation fuzz of ``balm``'s inputs.

Each case mutates one valid input with ``random.Random(case)``: the tokens
of a BAL text (``balm solve``), the values of a ``--config`` JSON object,
or the header and the array values of a checkpoint (``balm eval`` with an
agent or a zero-net next to the classic rule). It runs ``cli.main``
in-process on tiny scenes and must return 0 (the input was valid) or 2
(rejected with a message); argparse's own exit 2 counts as 2. Anything
else, an exception or a warning (Tier-1 makes ``RuntimeWarning`` an error),
escaping is a fault. A case that once failed is a named regression test
below its family.

The mutations stay small: no size, count or seed range a case can make is
large enough to cost more than a tiny solve.
"""

import json
import random
import struct

import numpy as np
import pytest

from balm import cli
from balm.baselines import init_zero_net, save_zero_net_checkpoint
from balm.nn import CHECKPOINT_MAGIC
from balm.sac import init_agent, save_agent_checkpoint
from balm.scene import generate_synthetic, serialize_bal

TINY = ("--num-cameras", "4", "--num-points", "6", "--max-iterations", "5")
NUMBERS = ["0", "-1", "1", "2", "7", "-0", "0.5", "1e-320", "1e200", "-1e200", "1e308",
           "nan", "inf", "-inf", "99999999999", "3.5e+2"]
WORDS = ["", "x", "1,0", "0x10", "1_0", "--", "+", "e5"]
VALUES = [None, True, False, 0, -1, 1, 2, 0.0, -0.5, 1e-160, 1e200, float("nan"),
          float("inf"), "", "x", "nan", "-1", "0-2", "2-0", "0,0", "1e-160", [1], {"a": 1}]
ARRAY_VALUES = [np.nan, np.inf, -np.inf, 1e308, -1e308, 1e150, 0.0, 5e-324]


def status(*argv) -> int:
    """``cli.main``'s exit status for ``argv``, argparse's ``SystemExit`` included."""
    try:
        return cli.main([str(a) for a in argv])
    except SystemExit as exc:
        return exc.code


def faults(cases, run) -> list:
    """``(case, status)`` for each case whose run returns neither 0 nor 2, or
    ``(case, exception)`` where one escapes."""
    found = []
    for case in cases:
        try:
            code = run(case)
        except Exception as exc:  # any escape is the finding
            found.append((case, repr(exc)))
            continue
        if code not in (0, 2):
            found.append((case, code))
    return found


# --- BAL text tokens through ``balm solve`` --------------------------------

BAL_TEXT = serialize_bal(generate_synthetic(3, 4, pixel_sigma=250.0, seed=2))


def mutated_bal(rng: random.Random, text: str = BAL_TEXT) -> str:
    tokens = text.split()
    for _ in range(rng.randint(1, 3)):
        if not tokens:
            break
        at = rng.randrange(len(tokens))
        kind = rng.randrange(5)
        if kind == 0:
            tokens[at] = rng.choice(NUMBERS + WORDS)
        elif kind == 1:
            del tokens[at]
        elif kind == 2:
            tokens.insert(at, rng.choice(NUMBERS))
        elif kind == 3:
            tokens[at] = str(rng.randrange(-2, 8))  # a count or an index nearly in range
        else:
            tokens = tokens[: at + 1]
    return rng.choice([" ", "\n"]).join(tokens) + rng.choice(["", "\n"])


def solve_bal(tmp_path, text: str) -> int:
    path = tmp_path / "scene.txt"
    path.write_text(text)
    return status("solve", "--problem", path, "--max-iterations", "5",
                  "--deterministic-time", "--out-dir", tmp_path / "out")


def test_mutated_bal_texts(tmp_path):
    assert faults(range(400), lambda k: solve_bal(tmp_path, mutated_bal(random.Random(k)))) == []


def bal_with(at: int, token: str) -> str:
    """``BAL_TEXT`` with its token ``at`` replaced: 3 cameras and 4 points
    seen 12 times, so tokens 51-77 are the cameras and 78-89 the points."""
    tokens = BAL_TEXT.split()
    tokens[at] = token
    return " ".join(tokens) + "\n"


def test_a_camera_too_far_to_project_is_rejected(tmp_path, capsys):
    # Case 1: camera 2's x translation at 1e200 overflowed the start's
    # projection, and the warning escaped before the start was rejected.
    assert solve_bal(tmp_path, bal_with(72, "1e200")) == 2
    assert capsys.readouterr().err == "balm solve: error: observation 8: non-finite residual\n"


def test_a_point_too_far_to_linearize_is_solved(tmp_path):
    # Case 903: point 2 at z = -1e200 scores, but its Jacobian overflowed
    # with a warning in the first iteration's step.
    assert solve_bal(tmp_path, bal_with(86, "-1e200")) == 0
    result = json.loads((tmp_path / "out" / "result.json").read_text())
    assert (result["outcome"], result["iterations"]) == ("iteration-cap", 5)


# --- ``--config`` JSON values ----------------------------------------------

CONFIGS = {
    "generate": {"count": 1, "num_cameras": 4, "num_points": 6, "pixel_sigma": 250.0,
                 "noise_std": 0.5, "init_noise": 0.1, "seed": 3},
    "solve": {"problem": "scene.txt", "policy": "classic", "pixel_sigma": 1.0,
              "max_iterations": 5, "threshold": 1e-6, "fixed_value": 0.25},
    "eval": {"policies": "classic,gn", "eval_seeds": "100", "num_cameras": 4,
             "num_points": 6, "max_iterations": 5, "threshold": 1e-6,
             "deterministic_time": True, "schedule": "0.5,0.25"},
    "profile": {"policies": "classic,gn", "eval_seeds": "100", "num_cameras": 4,
                "num_points": 6, "max_iterations": 5, "tolerances": "0.1"},
}


def mutated_config(rng: random.Random) -> tuple[str, dict]:
    command = rng.choice(sorted(CONFIGS))
    config = dict(CONFIGS[command])
    for _ in range(rng.randint(1, 2)):
        key = rng.choice(sorted(config))
        kind = rng.randrange(4)
        if kind == 0:
            del config[key]
        elif kind == 1:
            config["unknown_" + key] = config[key]
        else:
            config[key] = rng.choice(VALUES)
    return command, config


def run_config(tmp_path, command: str, config: dict) -> int:
    (tmp_path / "scene.txt").write_text(BAL_TEXT)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return status(command, "--config", path, "--out-dir", tmp_path / "out")


def test_mutated_config_values(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    found = faults(range(150), lambda k: run_config(tmp_path, *mutated_config(random.Random(k))))
    assert found == []


# --- checkpoint headers and array values through ``balm eval`` -------------


def checkpoint_parts(save, path) -> tuple[dict, bytes]:
    """The JSON header and the array bytes of the checkpoint ``save`` writes to ``path``."""
    save(path)
    data = path.read_bytes()
    start = len(CHECKPOINT_MAGIC) + 8
    (length,) = struct.unpack_from("<Q", data, len(CHECKPOINT_MAGIC))
    return json.loads(data[start : start + length]), data[start + length :]


def header_paths(value, path=()):
    """Every path to a leaf of the nested header ``value``."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from header_paths(item, (*path, key))
    elif isinstance(value, list) and value:
        for index, item in enumerate(value):
            yield from header_paths(item, (*path, index))
    else:
        yield path


def mutated_checkpoint(rng: random.Random, header: dict, blob: bytes) -> bytes:
    header = json.loads(json.dumps(header))
    array = np.frombuffer(blob, dtype="<f8").copy()
    if rng.random() < 0.5:
        paths = list(header_paths(header))
        for _ in range(rng.randint(1, 2)):
            *parent, leaf = rng.choice(paths)
            target = header
            for key in parent:
                target = target[key]
            target[leaf] = rng.choice(VALUES[:10] + [3, 5, 10**12, "zero-net", "sac-agent"])
    else:
        for _ in range(rng.randint(1, 3)):
            array[rng.randrange(len(array))] = rng.choice(ARRAY_VALUES)
    text = json.dumps(header).encode()
    length = len(text) + rng.choice([0, 0, 0, 1, -1])
    tail = array.tobytes()
    tail = rng.choice([tail, tail, tail, tail[:-8], tail + bytes(8)])
    return CHECKPOINT_MAGIC + struct.pack("<Q", length) + text + tail


def save_agent(path):
    save_agent_checkpoint(path, init_agent(window=5, hidden=4, seed=0))


def save_zero_net(path):
    save_zero_net_checkpoint(path, init_zero_net(window=5, hidden=4, seed=0))


def eval_checkpoint(tmp_path, token: str, data: bytes) -> int:
    path = tmp_path / "policy.ckpt"
    path.write_bytes(data)
    return status("eval", "--policies", f"{token},classic", "--checkpoint", path,
                  "--eval-seeds", "100", *TINY, "--deterministic-time",
                  "--out-dir", tmp_path / "out")


@pytest.mark.parametrize("token, save", [("agent", save_agent), ("zero-net", save_zero_net)])
def test_mutated_checkpoints(tmp_path, token, save):
    header, blob = checkpoint_parts(save, tmp_path / "valid.ckpt")
    def run(case):
        data = mutated_checkpoint(random.Random(case), header, blob)
        return eval_checkpoint(tmp_path, token, data)

    assert faults(range(150), run) == []


def test_widths_the_arrays_do_not_fit_allocate_nothing(tmp_path, capsys):
    # Agent case 92: a policy width of 10**12 allocated its 80 TiB flat
    # buffer before the arrays' shapes were checked (MemoryError).
    header, blob = checkpoint_parts(save_agent, tmp_path / "valid.ckpt")
    header["meta"]["widths"]["policy"][1] = 10**12
    text = json.dumps(header).encode()
    data = CHECKPOINT_MAGIC + struct.pack("<Q", len(text)) + text + blob
    assert eval_checkpoint(tmp_path, "agent", data) == 2
    assert capsys.readouterr().err == (
        "balm eval: error: shape (5, 4) where widths [5, 1000000000000, 4, 4, 2] "
        "need (5, 1000000000000)\n"
    )


def huge_agent(path):
    nets = init_agent(window=5, hidden=4, seed=0)
    nets.policy.weights[0][...] = 1e308
    save_agent_checkpoint(path, nets)


def huge_zero_net(path):
    net = init_zero_net(window=5, hidden=4, seed=0)
    net.weights[0][...] = 1e308
    save_zero_net_checkpoint(path, net)


@pytest.mark.parametrize("token, save", [("agent", huge_agent), ("zero-net", huge_zero_net)])
def test_a_net_whose_output_overflows_fails_its_iteration(tmp_path, token, save):
    # Zero-net case 77: finite weights of 1e308 overflowed the forward pass,
    # whose warning escaped instead of the non-finite damping failing the
    # step. The agent's forward pass did the same.
    save(tmp_path / "huge.ckpt")
    assert eval_checkpoint(tmp_path, token, (tmp_path / "huge.ckpt").read_bytes()) == 0
    rows = (tmp_path / "out" / "records.csv").read_text().splitlines()
    assert rows[1].startswith(f"scene-100,{token},numerical-failure,")
