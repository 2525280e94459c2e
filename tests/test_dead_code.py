"""Every public top-level function and class of the package has a user.

A user is a reference outside the definition itself, in the package, the
scripts or the benchmark harness. Tests do not count: a function only tests
call is code that no command runs, yet each CLI call that imports its module
compiles it. The modules are parsed with ``ast``, not imported.

A reference is a name, an attribute or a string constant equal to the
definition's name (the benchmark patches functions by attribute name).
"""

import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "apes_eval"
USER_DIRS = ("src", "scripts", "perfbench")

# Definitions kept without a user, one reason each.
EXEMPT = {
    "nll_loss": "paper kernel: the summary NLL term of the hybrid loss",
    "hybrid_loss": "paper kernel: saliency BCE and NLL weighted by delta",
    "saliency_bce": "paper kernel: the saliency loss attention_gradients differentiates",
    "lcs_length": "test oracle: ROUGE-L's bit-parallel LCS on raw tokens",
    "central_difference": "test oracle: one array's numeric gradient",
}


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _references(node: ast.AST) -> Counter:
    found: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found[sub.value] += 1
    return found


def _public_definitions() -> list[tuple[str, ast.AST]]:
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            is_def = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if is_def and not node.name.startswith("_"):
                found.append((f"{path.name}:{node.lineno}", node))
    return found


def _all_references() -> Counter:
    total: Counter = Counter()
    for directory in USER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            total += _references(_parse(path))
    return total


def test_every_public_definition_has_a_user():
    total = _all_references()
    unused = [
        f"{where} {node.name}"
        for where, node in _public_definitions()
        if node.name not in EXEMPT and total[node.name] - _references(node)[node.name] == 0
    ]
    assert unused == [], "no command, script or benchmark runs these; delete them"


def test_exemptions_are_defined_and_unused():
    total = _all_references()
    defined = {node.name: node for _, node in _public_definitions()}
    for name in EXEMPT:
        assert name in defined, f"exempt {name} is no longer defined"
        assert total[name] == _references(defined[name])[name], f"{name} has a user now"
