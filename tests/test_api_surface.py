"""Guard against test-only public API in the library.

Every public top-level function or class in ``src/drcert``, and every public
method or property of those classes, must be named somewhere else in the
package or in the acceptance gate; otherwise it is dead weight that only unit
tests keep alive.  Naming a class only as the class argument of
``isinstance`` does not count: a dispatch branch on a type that nothing
constructs is dead too.  The exceptions below are library entry points kept
for users, each with its reason.
"""

import argparse
import ast
from pathlib import Path

from drcert.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "drcert"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

KEPT = {
    "gamma_score": "score library for the paper's robust and non-Lipschitz regression losses",
    "margin_loss_score": "score of the paper's classification margin map",
    "is_concave": "concavity test shared by the curve and score test modules",
    "instance_to_json": "writer half of the instance format read by `drcert oracle`",
    "from_json": "reader half of `report.json`, the file `drcert certify` writes",
}


def _names_used(tree, skip=None):
    """Identifiers referenced in ``tree``, not counting the ``skip`` subtree."""
    used = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            stack.extend([node.func, node.args[0]])  # not the class argument
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return used


def _public_defs(tree):
    """(qualified name, node) of each top-level function and class in ``tree``
    and of each method and property of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def unreferenced_public_names():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    gate = _names_used(ast.parse(ACCEPTANCE.read_text(encoding="utf-8")))
    missing = []
    for path, tree in trees.items():
        for qualname, node in _public_defs(tree):
            if node.name.startswith("_") or node.name in KEPT or node.name in gate:
                continue
            if not any(node.name in _names_used(t, skip=node if p == path else None)
                       for p, t in trees.items()):
                missing.append(f"{path.stem}.{qualname}")
    return missing


def test_every_public_name_has_a_library_or_gate_caller():
    missing = unreferenced_public_names()
    assert not missing, f"public names used only by unit tests: {missing}"


def test_kept_names_still_exist():
    defined = {node.name
               for path in SRC.glob("*.py")
               for _, node in _public_defs(ast.parse(path.read_text(encoding="utf-8")))}
    assert set(KEPT) <= defined


# each subcommand's flags: exactly those its driver reads
FLAGS = {
    "certify": {"--data", "--cost-r", "--kappa", "--p", "--eps", "--seed", "--out",
                "--model", "--theta", "--weights", "--out-bound"},
    "regress": {"--data", "--cost-r", "--p", "--eps", "--seed", "--out", "--epochs",
                "--lr", "--adversarial"},
    "classify": {"--data", "--cost-r", "--eps", "--seed", "--out", "--epochs", "--lr",
                 "--sides", "--runs", "--data-side"},
    "complexity": {"--eps", "--seed", "--out"},
    "oracle": {"--data", "--out"},
}


def test_subcommand_flags_snapshot():
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    got = {name: {flag for action in sub._actions for flag in action.option_strings}
           - {"-h", "--help"} for name, sub in subs.choices.items()}
    assert got == FLAGS
