"""The kill matrix of tier-1: one-edit mutants of the package, each run against the tests.

    python tools/mutants.py

A site is one operator or int constant in one of the eight modules with logic
(every module of src/driftbandit but __init__ and __main__).  Each site has one
edit: < <-> <=, > <-> >=, == <-> !=, + <-> -, * <-> /, and <-> or, or an int
constant n -> n+1 (the 1 of -1 too, so -1 -> -2).  The script draws a fixed
sample of the sites, random.Random(SEED).sample(sites, SAMPLE_SIZE), and runs
tier-1 once per mutant in a throwaway copy of the repository, so the
checkout's src/, .hypothesis/ and .pytest_cache/ are never touched.  Every
module of the copy is the ast.unparse of the checkout's, the null mutant, so a
mutant differs from the code that tier-1 passes on by its one edit.

It prints one CSV row per mutant, the null mutant first:
  site     module file, line and column of the operand after the operator
           (the right-hand side), or of the constant
  edit     the operator or constant before and after
  outcome  killed (some test failed) or survived (tier-1 passed)
  failing  the id of every test that failed, separated by ';'
The null mutant must survive; if it does not, no row means anything and the
script stops with exit 1.  Tier-1 runs without -x, with a fixed hypothesis
seed, and with the three acceptance tests that fail on the unmutated code
deselected.  A run that takes ten times the null mutant's time is stopped and
counts as killed, its failing column "(timeout)".  Standard library only; it
takes no flags.
"""

from __future__ import annotations

import ast
import csv
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

REPO = Path(__file__).resolve().parent.parent
PACKAGE = Path("src", "driftbandit")
MODULES = ("analysis", "cli", "core", "experiment", "lockstep", "mechanism", "policies", "rng")
SEED, SAMPLE_SIZE = 20261020, 60
# the Thompson sub-checks of acceptance criteria 1, 2 and 4 fail on the unmutated code (README)
KNOWN_FAILURES = tuple(f"tests/test_acceptance.py::test_criterion_{name}" for name in (
    "1_policy_ordering", "2_ballpark_magnitudes", "4_compensation_frequency"))
SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Add: ast.Sub, ast.Sub: ast.Add,
         ast.Mult: ast.Div, ast.Div: ast.Mult, ast.And: ast.Or, ast.Or: ast.And}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
           ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.And: "and", ast.Or: "or"}
COPY_IGNORES = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", "__pycache__",
                                      "*.egg-info", "out", ".bench_tmp", ".benchmarks")


@dataclass(frozen=True)
class Site:
    module: str
    index: int  # position among the module's sites, in source order
    line: int
    col: int  # 1-based
    edit: str

    def __str__(self) -> str:
        return f"{self.module}.py:{self.line}:{self.col}"


def _edits(tree: ast.Module) -> list[tuple[ast.expr, str, str, Callable[[], None]]]:
    """(anchor, before, after, make) for each site of `tree`, in source order; make() makes
    the site's edit in place.  The anchor is the operand after the operator, or the constant."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for j, (op, right) in enumerate(zip(node.ops, node.comparators)):
                if type(op) in SWAPS:
                    new = SWAPS[type(op)]()
                    found.append((right, op, new, partial(node.ops.__setitem__, j, new)))
        elif isinstance(node, (ast.BinOp, ast.BoolOp)) and type(node.op) in SWAPS:
            right = node.right if isinstance(node, ast.BinOp) else node.values[1]
            new = SWAPS[type(node.op)]()
            found.append((right, node.op, new, partial(setattr, node, "op", new)))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found.append((node, node.value, node.value + 1,
                          partial(setattr, node, "value", node.value + 1)))
    found.sort(key=lambda e: (e[0].lineno, e[0].col_offset))  # stable: walk order breaks ties
    label = lambda v: SYMBOLS[type(v)] if isinstance(v, ast.AST) else str(v)
    return [(anchor, label(old), label(new), make) for anchor, old, new, make in found]


def _tree(module: str) -> ast.Module:
    return ast.parse((REPO / PACKAGE / f"{module}.py").read_text())


def sites() -> list[Site]:
    """Every site of the eight modules, module by module in MODULES order."""
    return [Site(module, i, anchor.lineno, anchor.col_offset + 1, f"{before} -> {after}")
            for module in MODULES
            for i, (anchor, before, after, *_) in enumerate(_edits(_tree(module)))]


def sample() -> list[Site]:
    return random.Random(SEED).sample(sites(), SAMPLE_SIZE)


def null_source(module: str) -> str:
    return ast.unparse(_tree(module)) + "\n"


def mutate(tree: ast.Module, index: int) -> None:
    """Make the edit of the `index`-th site of `tree`, in place."""
    _edits(tree)[index][-1]()


def mutant_source(site: Site) -> str:
    tree = _tree(site.module)
    mutate(tree, site.index)
    return ast.unparse(tree) + "\n"


def tier1(copy: Path, timeout: float | None = None) -> list[str]:
    """The ids of the tests that fail in `copy`; "(timeout)", or "(exit N)" if pytest names none."""
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)  # no example carries over between runs
    cmd = [sys.executable, "-m", "pytest", "-q", "-rfE", "--continue-on-collection-errors",
           "--hypothesis-seed=0", "-p", "no:cacheprovider",
           *(f"--deselect={test}" for test in KNOWN_FAILURES)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(copy / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    try:
        done = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return ["(timeout)"]
    failing = re.findall(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", done.stdout, re.M)
    return failing or ([f"(exit {done.returncode})"] if done.returncode else [])


def main() -> int:
    out = csv.writer(sys.stdout, lineterminator="\n")
    out.writerow(("site", "edit", "outcome", "failing"))
    chosen = sample()
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp, "repo")
        shutil.copytree(REPO, copy, ignore=COPY_IGNORES)
        for module in MODULES:
            (copy / PACKAGE / f"{module}.py").write_text(null_source(module))
        start = time.perf_counter()
        failing = tier1(copy)
        timeout = 10 * (time.perf_counter() - start)
        out.writerow(("null", "", "killed" if failing else "survived", ";".join(failing)))
        sys.stdout.flush()
        if failing:
            print("the null mutant fails tier-1, so no row means anything", file=sys.stderr)
            return 1
        for n, site in enumerate(chosen, start=1):
            path = copy / PACKAGE / f"{site.module}.py"
            path.write_text(mutant_source(site))
            start = time.perf_counter()
            failing = tier1(copy, timeout)
            path.write_text(null_source(site.module))
            out.writerow((site, site.edit, "killed" if failing else "survived", ";".join(failing)))
            sys.stdout.flush()
            print(f"mutant {n}/{len(chosen)}: {site} {site.edit}, "
                  f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
