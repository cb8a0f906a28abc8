"""Import guard for the demos: every name a demo imports from ctlab exists.

The demos are parsed, not run (running all seven takes seconds), so a
rename or a deletion in the package fails here at once.
"""

import ast
import importlib
import pathlib

import pytest

import ctlab  # noqa: F401 - imported at collection, so each case only looks names up

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _ctlab_imports(tree):
    """(module, name) for each `from ctlab... import name`, and (module, None)
    for each `import ctlab...`, anywhere in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ctlab":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "ctlab")


def test_there_are_demos():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist_in_ctlab(path):
    imports = list(_ctlab_imports(ast.parse(path.read_text(), filename=str(path))))
    assert imports
    missing = [f"{module}.{name}" for module, name in imports
               if name is not None and not hasattr(importlib.import_module(module), name)]
    for module, name in imports:
        if name is None:
            importlib.import_module(module)
    assert not missing, f"{path.name} imports names ctlab does not define: {missing}"
