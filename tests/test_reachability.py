"""Every public name of the library is reached from outside ``tests/``.

A name in a ``src/repro`` module's ``__all__`` must be used somewhere
a test does not own: in ``src/`` itself (its own definition, the
``__all__`` lists and the packages' re-export imports do not count),
in ``scripts/``, ``benchmarks/``, ``examples/``, or in an executed
``python`` fence of ``docs/``. A name that only tests call is a second
form of something the program already does, or dead: delete it, or
move it into the tests that use it as an oracle.

Uses are read from the syntax tree: a loaded name, a loaded
attribute, or an imported name. Text in strings and comments is not a
use.
"""

import ast
from pathlib import Path

from tests.test_docs_snippets import PAGES, _python_fences

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: Public names kept although only tests reach them, one reason each.
ALLOWED = {
    "nbm_trap_graph": "repro.graph.generators: the trap of the paper's "
    "Fig. 2, and the fixture of the NBM tests",
    "activate": "repro.serving.chaos: how tests arm a serving fault plan",
    "deactivate": "repro.serving.chaos: how tests disarm a fault plan",
    "STAGES": "repro.serving.chaos: the stages a fault plan may name",
    "RATIO": "repro.obs.histogram: the relative quantile error that the "
    "Histogram doctest and the histogram tests bound estimates by",
}


def _exported(tree: ast.Module) -> list[str]:
    """The string entries of a module's ``__all__`` assignment."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__"
            for t in node.targets
        ):
            return [
                e.value
                for e in node.value.elts
                if isinstance(e, ast.Constant)
            ]
    return []


def _uses(tree: ast.AST, reexported: frozenset = frozenset()) -> set[str]:
    """Names a tree loads, reads as attributes, or imports.

    ``reexported`` holds a package ``__init__``'s own ``__all__``: its
    imports of those names only re-export them.
    """
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(
            node.ctx, ast.Load
        ):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(
                alias.name
                for alias in node.names
                if (alias.asname or alias.name) not in reexported
            )
        elif isinstance(node, ast.Import):
            for alias in node.names:
                found.update(alias.name.split("."))
    return found


def _public_names() -> dict[str, list[str]]:
    """Each ``__all__`` name → the modules that list it."""
    names: dict[str, list[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name in _exported(tree):
            names.setdefault(name, []).append(module)
    return names


def _reached() -> set[str]:
    """Every name used outside ``tests/``."""
    found: set[str] = set()
    for path in SRC.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == "__init__.py":
            found |= _uses(tree, frozenset(_exported(tree)))
        else:
            found |= _uses(tree)
    for directory in ("scripts", "benchmarks", "examples"):
        for path in (ROOT / directory).rglob("*.py"):
            found |= _uses(ast.parse(path.read_text(encoding="utf-8")))
    for page in PAGES:
        for fence in _python_fences(page):
            found |= _uses(ast.parse(fence))
    return found


def test_every_public_name_is_reached_outside_tests():
    reached = _reached()
    unreached = {
        name: modules
        for name, modules in _public_names().items()
        if name not in reached and name not in ALLOWED
    }
    assert not unreached, (
        f"public names only tests reach (delete them, or move them into "
        f"the tests that need them): {unreached}"
    )


def test_allowlist_is_still_needed():
    public = _public_names()
    reached = _reached()
    stale = [
        name for name in ALLOWED if name not in public or name in reached
    ]
    assert not stale, f"drop these from ALLOWED, nothing needs them: {stale}"
