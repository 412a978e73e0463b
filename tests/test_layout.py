"""Every definition in the package is used by the package.

Code that only the tests call lives in ``tests/support.py`` as an oracle, or
nowhere.  A top-level function or class of ``src/dignet``, or a method of
such a class, counts as used when its name is read somewhere in
``src/dignet``, as a name or as an attribute, outside its own definition.
Imports and the strings of ``__all__`` are not reads.  Dunder methods are
called by the language and are not checked.  The few names that only
callers outside the package use are listed with their reason.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dignet"

USED_OUTSIDE = {
    "measures.both_kernel_measures": (
        "perfbench binding: the benchmark tracer wraps it by name in dignet.cli"
    ),
    "sequence.PointSet.points": (
        "perfbench/child.py digests the points CSV read-back through it"
    ),
}


def _definitions(trees: dict[str, ast.Module]) -> dict[str, ast.AST]:
    """Qualified name -> node of every checked definition."""
    found = {}
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            found[f"{module}.{node.name}"] = node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not (
                        member.name.startswith("__") and member.name.endswith("__")
                    ):
                        found[f"{module}.{node.name}.{member.name}"] = member
    return found


def _reads(tree: ast.AST, skip: ast.AST) -> set[str]:
    """Names and attribute names read in the tree, outside the node ``skip``."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _unused() -> tuple[dict[str, ast.AST], list[str]]:
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    defs = _definitions(trees)
    unused = [
        qualified
        for qualified, node in defs.items()
        if not any(node.name in _reads(tree, node) for tree in trees.values())
    ]
    return defs, unused


def test_every_definition_is_used_by_the_package():
    _, unused = _unused()
    stray = [name for name in unused if name not in USED_OUTSIDE]
    assert not stray, (
        f"defined in src/dignet but read nowhere in it: {stray}; move test-only "
        "code to tests/support.py, or list an outside caller in USED_OUTSIDE"
    )


def test_allow_list_is_current():
    defs, unused = _unused()
    assert all(reason for reason in USED_OUTSIDE.values())
    assert sorted(set(USED_OUTSIDE) - set(defs)) == [], "allow-listed names not defined"
    assert sorted(set(USED_OUTSIDE) - set(unused)) == [], (
        "allow-listed names that the package now reads itself"
    )
