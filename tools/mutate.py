"""Mutation sweep over one module: which one-node changes do the tests miss?

    python tools/mutate.py src/alsalign/perception.py tests/test_perception.py tests

A mutant swaps one comparison, arithmetic or boolean operator (< and <=,
+ and -, * and /, and and or, ...) or adds 1 to one numeric constant. The
tree is copied to a temporary directory, where the tests must pass first;
each mutant is then written into the copy and the tests run with -x, so
the checkout is never edited. A mutant is killed, survived or timed out.
Run it from the repository root.
"""

import argparse
import ast
import resource
import shutil
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path

PAIRS = [(ast.Lt, ast.LtE), (ast.Gt, ast.GtE), (ast.Eq, ast.NotEq), (ast.Add, ast.Sub), (ast.Mult, ast.Div), (ast.And, ast.Or)]
SWAPS = {**dict(PAIRS), **{b: a for a, b in PAIRS}}
# address space of a test run: a mutant that grows a list without end fails at 2 GiB
CAP_MEMORY = partial(resource.setrlimit, resource.RLIMIT_AS, (2 << 30, 2 << 30))


def sites(tree: ast.AST):
    """(node index in ast.walk order, compare operand index or None, line, description) of each mutant."""
    for i, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare):
            for j, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    yield i, j, node.lineno, f"{type(op).__name__} -> {SWAPS[type(op)].__name__}"
        elif isinstance(node, (ast.BinOp, ast.BoolOp)) and type(node.op) in SWAPS:
            yield i, None, node.lineno, f"{type(node.op).__name__} -> {SWAPS[type(node.op)].__name__}"
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            yield i, None, node.lineno, f"{node.value!r} -> {node.value + 1!r}"


def mutant(source: str, i: int, j: int | None) -> str:
    tree = ast.parse(source)
    node = list(ast.walk(tree))[i]
    if isinstance(node, ast.Compare):
        node.ops[j] = SWAPS[type(node.ops[j])]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    else:
        node.op = SWAPS[type(node.op)]()
    return ast.unparse(tree)


def run(tree: Path, tests: list[str], timeout: float) -> str:
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(cmd, cwd=tree, capture_output=True, timeout=timeout, preexec_fn=CAP_MEMORY)
    except subprocess.TimeoutExpired:
        return "timed out"
    return "survived" if done.returncode == 0 else "killed"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", type=Path, help="module to mutate, relative to the repository root")
    parser.add_argument("tests", nargs="+", help="pytest paths, run in this order")
    parser.add_argument("--timeout", type=float, default=300.0, help="seconds per mutant (default 300)")
    args = parser.parse_args()
    source = args.module.read_text(encoding="utf-8")
    counts = {"killed": 0, "survived": 0, "timed out": 0}
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(".", tree, ignore=shutil.ignore_patterns(".git", ".hypothesis", "__pycache__", ".pytest_cache"))
        if run(tree, args.tests, args.timeout) != "survived":
            sys.exit("the tests do not pass on the unmutated tree")
        for i, j, line, what in sites(ast.parse(source)):
            (tree / args.module).write_text(mutant(source, i, j), encoding="utf-8")
            counts[outcome := run(tree, args.tests, args.timeout)] += 1
            print(f"{outcome:9} {args.module}:{line} {what}", flush=True)
    print(", ".join(f"{n} {k}" for k, n in counts.items()))


if __name__ == "__main__":
    main()
