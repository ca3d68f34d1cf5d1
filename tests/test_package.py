"""The package's public names: ``balm.__all__`` lists what ``balm/__init__.py`` imports."""

import ast
from pathlib import Path

import balm


def imported_public_names() -> set:
    """The names that ``balm/__init__.py`` binds by importing from its own modules."""
    tree = ast.parse(Path(balm.__file__).read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names.update(alias.asname or alias.name for alias in node.names)
    return {name for name in names if not name.startswith("_")}


def test_all_lists_every_imported_public_name_once():
    assert len(balm.__all__) == len(set(balm.__all__))
    assert set(balm.__all__) == imported_public_names() | {"__version__"}
    for name in balm.__all__:
        assert hasattr(balm, name), name
