"""Guard-deletion sweep: make each ``if ...: raise`` guard false, one at a
time, and run the tests against the mutant.

A guard is an ``if`` statement in one of MODULES whose body raises.  A
mutant replaces that statement's condition with ``False`` in a fresh copy
of the package.  pytest then runs every test file, the module's own first,
in a child process with the copy first on ``PYTHONPATH``, and the mutant
is killed when the child fails.  A guard whose mutant survives is either
missing a test or a check that cannot fire.

    python tests/mutation_sweep.py

It prints one line per mutant (killed or survived, and its seconds), then
the totals.  The unmutated copy runs first and must pass.  The full sweep
takes about 45 minutes on 2 vCPUs.  Each child runs under an address-space
limit, so a mutant that stops refusing a huge input fails instead of taking
the machine's memory, and a mutant that hangs counts as killed after
TIMEOUT_S.  This file is not collected by pytest.
"""

from __future__ import annotations

import ast
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "etf_forge"
MODULES = ("frames", "hadamard", "designs", "qsd_bridge", "constructions")
TIMEOUT_S = 900
MEMORY_MB = 2048


class Guard(NamedTuple):
    module: str
    function: str  # the innermost enclosing def or class
    condition: str  # ast.unparse of the condition
    start: tuple[int, int]  # (line, UTF-8 byte column) of the condition
    end: tuple[int, int]

    def __str__(self):
        return f"{self.module}.{self.function}:{self.start[0]} {self.condition}"


def guards(module: str) -> list[Guard]:
    """The module's ``if`` statements whose body raises, in source order."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.If) and any(isinstance(s, ast.Raise) for s in child.body):
                t = child.test
                found.append(Guard(module, scope, ast.unparse(t), (t.lineno, t.col_offset),
                                   (t.end_lineno, t.end_col_offset)))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, child.name if named else scope)

    visit(ast.parse((PACKAGE / f"{module}.py").read_text()), "<module>")
    return sorted(found, key=lambda g: g.start)


def guard(module: str, function: str, condition: str) -> Guard:
    """The one guard of ``function`` whose condition reads ``condition``."""
    (found,) = [g for g in guards(module) if (g.function, g.condition) == (function, condition)]
    return found


def mutant(source: str, g: Guard) -> str:
    """source with g's condition replaced by False."""
    lines = source.encode().splitlines(keepends=True)
    (l0, c0), (l1, c1) = g.start, g.end
    head = b"".join(lines[: l0 - 1]) + lines[l0 - 1][:c0]
    tail = lines[l1 - 1][c1:] + b"".join(lines[l1:])
    return (head + b"False" + tail).decode()


def run_tests(g: Guard | None, tests) -> tuple[bool, float]:
    """(whether the tests fail, seconds) on a fresh copy of the package with
    g made false; g None runs the unmutated copy."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_MB << 20, MEMORY_MB << 20))

    with tempfile.TemporaryDirectory(prefix="etf-forge-mutant-") as tmp:
        copy = Path(tmp) / "etf_forge"
        shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
        if g is not None:
            path = copy / f"{g.module}.py"
            path.write_text(mutant(path.read_text(), g))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [tmp, os.environ.get("PYTHONPATH")])),
                   PYTHONDONTWRITEBYTECODE="1", PYTEST_DISABLE_PLUGIN_AUTOLOAD="1")  # no test uses a plugin
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *map(str, tests)]
        started = time.monotonic()
        try:
            code = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                  timeout=TIMEOUT_S, preexec_fn=limit).returncode
        except subprocess.TimeoutExpired:
            code = 1
        if code in (4, 5):  # a usage error, or no test collected: no verdict on the mutant
            raise SystemExit(f"pytest exited {code} on {' '.join(map(str, tests))}")
        return code != 0, time.monotonic() - started


def suite(module: str) -> list[Path]:
    """Every test file, the module's own first, so most mutants die early."""
    return sorted(sorted((ROOT / "tests").glob("test_*.py")), key=lambda f: f.name != f"test_{module}.py")


def main() -> int:
    failed, seconds = run_tests(None, [ROOT / "tests"])
    if failed:
        print(f"the unmutated tests fail ({seconds:.1f} s); no mutant can be judged")
        return 1
    killed = survived = 0
    started = time.monotonic()
    for g in (g for module in MODULES for g in guards(module)):
        dead, seconds = run_tests(g, suite(g.module))
        killed, survived = killed + dead, survived + (not dead)
        print(f"{'killed  ' if dead else 'SURVIVED'} {seconds:7.1f} s  {g}", flush=True)
    print(f"killed {killed}, survived {survived}, {time.monotonic() - started:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
