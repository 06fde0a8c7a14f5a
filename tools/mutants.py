"""Comparison-flip mutation probe for named bibench functions and classes.

Each mutant flips one comparison operator (``<``/``<=``, ``>``/``>=``,
``==``/``!=``, ``in``/``not in``, ``is``/``is not``) inside one target, in a
temporary copy of ``src/``, ``tests/``, ``pyproject.toml`` and ``README.md``
(a test runs README's conversion of old reference sets); the working tree is
never written.  The named tests
then run against the mutant in one child ``pytest -x`` process at a time.
A mutant whose tests all pass survives, and is printed with its line.

Usage, from anywhere::

    python tools/mutants.py datalog.Assessment datalog.recalculate \\
        runner._budgeted runner._FrontCollector --tests tests

A target is ``<module>.<qualified name>`` under ``src/bibench``.  The exit
status is 0 when every mutant is killed, 1 when one survives and 2 when the
unmutated copy already fails the tests.  The tool is not part of tier-1.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
         ast.Is: ast.IsNot, ast.IsNot: ast.Is}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
           ast.In: "in", ast.NotIn: "not in", ast.Is: "is", ast.IsNot: "is not"}
# A flip can turn a loop endless; a child run past this many seconds counts
# the mutant as killed.
TIMEOUT_S = 1800


def find(tree: ast.Module, qualname: str) -> ast.AST:
    """The class or function definition named by a dotted ``qualname``."""
    node: ast.AST = tree
    for name in qualname.split("."):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and child.name == name:
                node = child
                break
        else:
            raise SystemExit(f"mutants: no definition {qualname!r}")
    return node


def mutants(source: str, qualname: str) -> list[tuple[int, int, int]]:
    """``(compare number, operator index, line)`` of every flippable
    operator in the target, compares numbered in ``ast.walk`` order of the
    whole module so that a fresh parse finds the same node."""
    tree = ast.parse(source)
    inside = {id(n) for n in ast.walk(find(tree, qualname))}
    found = []
    compares = [n for n in ast.walk(tree) if isinstance(n, ast.Compare)]
    for number, node in enumerate(compares):
        if id(node) in inside:
            found += [(number, k, node.lineno) for k, op in enumerate(node.ops)
                      if type(op) in FLIPS]
    return found


def mutated_source(source: str, number: int, index: int) -> tuple[str, str]:
    """The module with one operator flipped, unparsed, and a note of the flip."""
    tree = ast.parse(source)
    node = [n for n in ast.walk(tree) if isinstance(n, ast.Compare)][number]
    old = type(node.ops[index])
    node.ops[index] = FLIPS[old]()
    return ast.unparse(tree) + "\n", f"{SYMBOLS[old]} -> {SYMBOLS[FLIPS[old]]}"


def run_tests(copy: Path, tests: list[str]) -> str:
    """``passed``, ``failed`` or ``timeout`` of one child pytest run in ``copy``."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(command, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if done.returncode == 0 else "failed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("targets", nargs="+",
                        help="<module>.<qualified name>, e.g. runner._budgeted")
    parser.add_argument("--tests", nargs="+", default=["tests"],
                        help="pytest paths or node ids, relative to the repository root")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bibench-mutants-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis")
        shutil.copytree(ROOT / "src", copy / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=ignore)
        for name in ("pyproject.toml", "README.md"):
            shutil.copy2(ROOT / name, copy / name)
        if run_tests(copy, args.tests) != "passed":
            print("mutants: the unmutated copy fails the tests", file=sys.stderr)
            return 2
        survivors = []
        for target in args.targets:
            module, _, qualname = target.partition(".")
            path = copy / "src" / "bibench" / f"{module}.py"
            source = path.read_text()
            lines = source.splitlines()
            for number, index, line in mutants(source, qualname):
                text, flip = mutated_source(source, number, index)
                path.write_text(text)
                try:
                    verdict = run_tests(copy, args.tests)
                finally:
                    path.write_text(source)
                where = f"src/bibench/{module}.py:{line}"
                print(f"{'SURVIVED' if verdict == 'passed' else 'killed  '} {where} [{target}] "
                      f"{flip}: {lines[line - 1].strip()}", flush=True)
                if verdict == "passed":
                    survivors.append(where)
        print(f"mutants: {len(survivors)} survivor(s)")
        return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
