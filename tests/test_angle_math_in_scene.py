"""The rotation's angle math lives in ``scene.py``: ``solver.py`` calls no
``np.sin``, ``np.cos`` or ``np.sqrt``.

A projection carries its cameras' rotation table (``scene._rotation_table``):
t^2, the small-angle mask, the safe angle, its sine and cosine, and the
Rodrigues coefficients. ``linearize`` builds R and the rotation Jacobian
from that table, so the solver needs no trigonometry or square root of its
own. Such a call in the solver would recompute per iteration what the
projection already made, and its bits could drift from the table's.
"""

import ast
from pathlib import Path

import pytest

import balm

FORBIDDEN = {"sin", "cos", "sqrt"}


def angle_calls(source: str) -> list:
    """The names called, sorted, of every ``sin``, ``cos`` or ``sqrt`` call in
    ``source``: a module's (``np.sin``, ``math.sqrt``) or an imported name's."""
    calls = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in FORBIDDEN:
            calls.append(func.id)
        elif isinstance(func, ast.Attribute) and func.attr in FORBIDDEN:
            if isinstance(func.value, ast.Name):
                calls.append(f"{func.value.id}.{func.attr}")
    return sorted(calls)


def test_the_solver_makes_no_angle_math():
    source = (Path(balm.__file__).parent / "solver.py").read_text()
    assert angle_calls(source) == []


def test_the_guard_sees_the_scene_s_angle_math():
    source = (Path(balm.__file__).parent / "scene.py").read_text()
    assert {"np.sin", "np.cos", "np.sqrt"} <= set(angle_calls(source))


@pytest.mark.parametrize(
    "source, calls",
    [
        ("safe = np.where(small, 1.0, np.sqrt(theta2))\n", ["np.sqrt"]),
        ("beta = (safe * numpy.cos(safe) - numpy.sin(safe)) / safe**3\n",
         ["numpy.cos", "numpy.sin"]),
        ("from numpy import sin\nsinc = sin(safe) / safe\n", ["sin"]),
        ("sinc = table.sin / safe\n", []),
        ("rows = np.sort(index)\n", []),
    ],
    ids=["a-square-root", "trigonometry-under-another-name", "an-imported-sine",
         "the-table-s-sine", "another-numpy-call"],
)
def test_guard_finds_angle_math(source, calls):
    assert angle_calls(source) == calls
