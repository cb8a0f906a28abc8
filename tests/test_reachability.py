"""Reachability gate: every top-level function or class of ctlab is reached
from the ``ctl`` entry point or from a registered check, or it is on an
allow-list that says what needs it.

The call graph is read from the source.  A definition reaches every
top-level name of the package that its body, decorators, defaults or base
classes mention (its annotations do not count), with ``from .module import
name`` followed to the defining module.  Module-level assignments such as
``CHECKS`` are nodes too, and reaching a class reaches all of its methods.
The roots are the console script ``ctlab.cli:main``, every ``ctl``
subcommand and every value of ``CHECKS``.

Delete what no check, command or allow-list reason needs, together with
the tests that exist only for it.  An entry leaves the allow-list once the
code is reached or gone; record every change to the list in CHANGES.md.

A second gate holds each module's ``__all__`` to the names the module
defines.
"""

import argparse
import ast
import importlib
import pathlib

import ctlab
import ctlab.cli
from ctlab.checks import CHECKS

PACKAGE = pathlib.Path(ctlab.__file__).parent

#: unreached code that stays, with what needs it
ALLOWED = {
    "comparison.psi": "criterion 03, the index-form bound, and demo 01",
    "comparison.psi_upper_bound": "criterion 03 and demo 01",
    "comparison.TimeReparam": "criterion 08: the reparametrization duality_reparam returns",
    "comparison._fd5": "criterion 08: the independent derivative of derivative_residuals",
    "comparison.duality_reparam": "criterion 08, reparametrization constancy",
    "comparison.wc_var_rhs": "ROADMAP item 6's duality check: A^beta W^beta + J^beta "
                             "under duality_reparam",
    "hopflax.local_slope": "criterion 05: the slope of hj_residual",
    "hopflax.HJResidual": "criterion 05: what hj_residual returns",
    "hopflax.hj_residual": "criterion 05, the Hamilton-Jacobi residual, and demo 05",
    "hopflax.LipschitzReport": "demo 05: what lipschitz_properties_check returns",
    "hopflax.lipschitz_properties_check": "demo 05, the regularity of Q_s f",
    "hopflax.kantorovich_gap": "criterion 06, the Kantorovich duality gap, and demo 05",
    "transport.gaussian_w2": "criterion 01's closed-form flat W2 oracle and demo 04",
    "transport.wasserstein": "demo 04, W_p from the exact solver",
    "walk.trajectory_rng": "criterion 09; the reference stream _draw_chunk_noise matches",
    "walk.sample_unit_ball": "criterion 09; the reference sampler _draw_chunk_noise matches",
    "cli.bundled_config": "the CLI tests' path to the packaged suites",
}


def _names(node):
    """The bare names node mentions, outside annotations and assignment targets."""
    for name, value in ast.iter_fields(node):
        if name in ("annotation", "returns") or (
                name == "target" and isinstance(node, ast.AnnAssign)):
            continue
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.Name):
                yield child.id
            elif isinstance(child, ast.AST):
                yield from _names(child)


def _call_graph():
    """(edges, definitions): the qualified names each node mentions, and the
    qualified names of the top-level functions and classes."""
    nodes, defs, edges = {}, set(), {}
    imports = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        if module == "__init__":
            continue
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    imports[module, alias.asname or alias.name] = f"{node.module}.{alias.name}"
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                nodes[f"{module}.{node.name}"] = (module, node)
                defs.add(f"{module}.{node.name}")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        nodes[f"{module}.{target.id}"] = (module, node.value)
    for qualified, (module, node) in nodes.items():
        mentioned = {f"{module}.{n}" if f"{module}.{n}" in nodes else imports.get((module, n))
                     for n in _names(node)}
        edges[qualified] = mentioned & nodes.keys()
    return edges, defs


def _roots():
    parser = ctlab.cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    entry = [ctlab.cli.main, *CHECKS.values(),
             *(sub.get_default("func") for sub in commands.choices.values())]
    return {f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}" for fn in entry}


def _reached(edges, roots):
    seen, stack = set(roots), list(roots)
    while stack:
        for name in edges[stack.pop()] - seen:
            seen.add(name)
            stack.append(name)
    return seen


def test_every_definition_is_reached_or_allowed_with_a_reason():
    edges, defs = _call_graph()
    roots = _roots()
    assert roots <= edges.keys(), f"roots not found in the source: {sorted(roots - edges.keys())}"
    reached = _reached(edges, roots)
    unreached = defs - reached
    assert not unreached - ALLOWED.keys(), (
        f"reached from no check or command: {sorted(unreached - ALLOWED.keys())}; "
        "delete it with its own tests, or allow it with the reason it stays")
    assert not ALLOWED.keys() & reached, (
        f"reached now, drop from ALLOWED: {sorted(ALLOWED.keys() & reached)}")
    assert not ALLOWED.keys() - defs, (
        f"no longer defined, drop from ALLOWED: {sorted(ALLOWED.keys() - defs)}")
    assert all(reason.strip() for reason in ALLOWED.values())


def test_every_exported_name_is_defined():
    # a name left in __all__ after its definition is deleted breaks
    # ``from ctlab.<module> import *``
    undefined = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"ctlab.{path.stem}".removesuffix(".__init__"))
        undefined[path.stem] = [name for name in getattr(module, "__all__", ())
                                if not hasattr(module, name)]
    assert not any(undefined.values()), undefined
