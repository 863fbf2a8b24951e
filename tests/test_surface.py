"""Every public name of the package has a caller outside the tests.

Each ``src/qincident/*.py`` module is parsed with ``ast`` for its public
module-level functions, classes and constants and the public methods of its
classes.  A name counts as used when some file under ``src/`` or ``bench/``
(test files aside) loads it as a variable or attribute, imports it, or
spells it inside a string that is not a docstring (the benchmark's tracer
names its targets that way).  A definition is not a use, and neither is a
demo's: a demo shows the public names, it does not keep one alive.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qincident"
CALLER_DIRS = ("src", "bench")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def public_names(tree: ast.Module) -> list[str]:
    """Module-level functions, classes and constants, and class methods."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            names.append(node.name)
        elif isinstance(node, ast.ClassDef):
            names.append(node.name)
            names += [item.name for item in node.body if isinstance(item, ast.FunctionDef)]
        elif isinstance(node, ast.Assign):
            names += [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names if not name.startswith("_")]


def docstrings(tree: ast.Module) -> set[int]:
    """The ids of the string nodes that are docstrings."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                found.add(id(body[0].value))
    return found


def used_names(tree: ast.Module) -> set[str]:
    skip = docstrings(tree)
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in skip:
            used.update(WORD.findall(node.value))
    return used


def caller_files():
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            if not path.name.startswith("test_"):
                yield path


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_public_name_has_a_caller_outside_the_tests():
    used = set()
    for path in caller_files():
        used |= used_names(parse(path))
    unused = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in public_names(parse(path))
        if name not in used
    ]
    assert unused == []


def test_the_scan_sees_the_package_and_its_callers():
    """The scan finds the package's modules and files under ``src/`` and
    ``bench/``, and none under ``demos/`` or ``tests/``: a scan that found
    no files would pass the test above vacuously."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    assert {"cli", "data", "model", "nn", "qsim", "scenario"} <= modules
    callers = {path.relative_to(ROOT).parts[0] for path in caller_files()}
    assert callers == {"src", "bench"}
