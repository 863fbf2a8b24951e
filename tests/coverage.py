"""Line-coverage check: every statement of ``src/qincident/`` is run by a
test, or is on ``ALLOWED`` with its reason.

The script runs pytest in-process over the ``testpaths`` of
``pyproject.toml`` under a ``sys.settrace`` tracer that records line events
only in frames of files under ``src/qincident/``.  A statement counts as
run when any line of the statement itself runs, the statements nested in
its body aside: a multi-line ``if`` counts when any of its condition lines
runs, and says nothing of its body.  Docstrings, ``def``, ``class`` and
import statements are not counted; a function's body says whether it ran.

    OPENBLAS_NUM_THREADS=1 python tests/coverage.py    # about 90 s on a 2-core host

Hypothesis draws with ``--hypothesis-seed=0``, so a statement that only a
lucky draw reaches cannot come and go between runs.  Criterion 6 (the
training regime) is deselected: it takes about 75 s, and the rest of the
suite already runs every statement it runs.

It prints each unrun statement as ``path:line`` with its allowlist reason,
or ``not run``.  It exits 0 when the tests pass and every unrun statement
is allowed, and 1 when a test fails, a statement is neither run nor
allowed, or an allowlist entry names no unrun statement (the statement was
deleted, or a test now runs it: drop the entry).  pytest does not collect
this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qincident"
DESELECTED = "tests/test_acceptance.py::test_criterion_6_training_regime"

# (file under src/qincident/, the statement's first line, stripped) -> why
# no test runs it; each entry must name exactly one statement
ALLOWED = {
    ("__main__.py", 'if __name__ == "__main__":'):
        "the `python -m qincident` entry point: only a subprocess runs it",
    ("__main__.py", "sys.exit(main())"):
        "the `python -m qincident` entry point: only a subprocess runs it",
    ("cli.py", "sys.exit(main())"):
        "the `python -m qincident.cli` entry point: only a subprocess runs it",
    ("data.py", "return None  # np.loadtxt read another row count than pass 1"):
        "a fault check between pass 1 and np.loadtxt: pass 1 admits only lines of three "
        "commas that are neither blank nor quoted, one row each, and no file is known "
        "that reaches it",
}

_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def statements(tree: ast.Module) -> dict[int, set[int]]:
    """Each counted statement's first line -> the lines of the statement
    itself, the lines of the statements nested in it aside."""
    docstrings = {
        node.body[0] for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node) is not None
    }
    found = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, _SKIPPED) or node in docstrings:
            continue
        own = set(range(node.lineno, node.end_lineno + 1))
        for child in ast.walk(node):
            if isinstance(child, ast.stmt) and child is not node:
                own -= set(range(child.lineno, child.end_lineno + 1))
        found[node.lineno] = own
    return found


def traced_lines(args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """pytest's exit code over ``args`` and the (file, line) pairs that ran
    in frames of files under ``PACKAGE``."""
    prefix, hits = str(PACKAGE) + os.sep, set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def start(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(start)  # no test runs package code in another thread
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(status), hits


def main() -> int:
    os.chdir(ROOT)  # pytest's testpaths apply from the rootdir
    sys.path.insert(0, str(ROOT / "src"))
    status, hits = traced_lines(
        ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", "--deselect", DESELECTED]
    )
    counted = []  # (file, first line, its text, whether it ran)
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for first, own in sorted(statements(ast.parse(source)).items()):
            ran = any((str(path), line) in hits for line in own)
            counted.append((path.name, first, lines[first - 1].strip(), ran))
    failed = status != 0
    if failed:
        print(f"the tests failed (pytest exit {status}): their coverage is not the suite's")
    unrun = [(name, first, text) for name, first, text, ran in counted if not ran]
    for name, first, text in unrun:
        reason = ALLOWED.get((name, text))
        failed |= reason is None
        print(f"src/qincident/{name}:{first}  {reason or 'not run'}")
    for key in ALLOWED:
        matches = [ran for name, _, text, ran in counted if (name, text) == key]
        if matches != [False]:
            failed = True
            print(f"allowlist entry {key} names {len(matches)} statements, "
                  f"{sum(matches)} of them run: it must name one unrun statement")
    print(f"{len(unrun)} statements not run")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
