"""Measure the tests' strength by one-token mutations of the program.

    python3 tests/mutate.py --path src/amalgam/modules.py \
        --function _violations --function _split_issues \
        [--seed 0] [--limit N] [--timeout 600] [--list] [-- PYTEST ARGS]

Each mutant changes one token of the file given by --path: ``<`` and
``<=``, ``>`` and ``>=``, ``+`` and ``-``, ``==`` and ``!=``, ``//`` and
``%``, ``and`` and ``or``, ``True`` and ``False``, ``is`` and ``is not``
swap, and the number 0 becomes 1 and 1 becomes 0.  --function keeps the
tokens inside the named functions or methods (repeatable); a name that
matches none exits 2.  Without it the whole file is mutated.  --limit
draws that many mutants, seeded by --seed; without it every mutant runs,
in file order.  --list prints the mutants and runs nothing.

The repository is copied once into a temporary directory.  Each mutant is
written into the copy, one at a time, and ``pytest -x`` runs there on the
arguments after ``--`` (default: the whole suite) under --timeout seconds.
A mutant is killed when pytest fails or times out, and survives when it
passes.  The script prints each verdict, then the survivors and the score.
It uses the standard library only and is not part of the test suite: a
run over a few dozen mutants of the tier-1 suite takes minutes.
"""

import argparse
import ast
import io
import os
import random
import shutil
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWAPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "+": "-", "-": "+",
         "==": "!=", "!=": "==", "//": "%", "%": "//", "and": "or",
         "or": "and", "True": "False", "False": "True", "is": "is not",
         "0": "1", "1": "0"}
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                 ".hypothesis", "out")


def function_lines(source, names):
    """Line ranges (first, last) of the functions or methods named."""
    return [(node.lineno, node.end_lineno) for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name in names]


def mutants(source, names=()):
    """(line, col, token, replacement) for every mutable token, in file
    order; only inside the named functions when names are given."""
    ranges = function_lines(source, names) if names else None
    lines = source.splitlines()
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    out = []
    for tok, after in zip(tokens, tokens[1:]):
        # the keywords and, or, True, False, is are NAME tokens; no
        # identifier is spelt so
        if (tok.type not in (tokenize.OP, tokenize.NUMBER, tokenize.NAME)
                or tok.string not in SWAPS):
            continue
        line, col = tok.start
        token, replacement = tok.string, SWAPS[tok.string]
        if token == "is" and after.string == "not" and after.start[0] == line:
            # `is not` is two tokens; it becomes `is` as one mutant
            token, replacement = lines[line - 1][col:after.end[1]], "is"
        if ranges is None or any(a <= line <= b for a, b in ranges):
            out.append((line, col, token, replacement))
    return out


def apply(source, mutant):
    """source with the mutant's one token replaced."""
    line, col, token, replacement = mutant
    lines = source.splitlines(keepends=True)
    text = lines[line - 1]
    assert text[col:col + len(token)] == token
    lines[line - 1] = text[:col] + replacement + text[col + len(token):]
    return "".join(lines)


def run_tests(copy, args, timeout):
    """'killed', 'killed (timeout)' or 'survived' for the copy as it is."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *args]
    try:
        proc = subprocess.run(cmd, cwd=copy, env=env, timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "killed (timeout)"
    return "survived" if proc.returncode == 0 else "killed"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--path", required=True, help="file to mutate, relative to the repo")
    parser.add_argument("--function", action="append", default=[],
                        help="mutate only inside this function (repeatable)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--limit", type=int, default=None)
    parser.add_argument("--timeout", type=float, default=600.0)
    parser.add_argument("--list", action="store_true")
    parser.add_argument("pytest_args", nargs="*")
    opts = parser.parse_args(argv)

    source = (ROOT / opts.path).read_text()
    missing = [name for name in opts.function
               if not function_lines(source, [name])]
    if missing:
        print(f"no function named {', '.join(missing)} in {opts.path}",
              file=sys.stderr)
        return 2
    todo = mutants(source, opts.function)
    if opts.limit is not None and opts.limit < len(todo):
        todo = sorted(random.Random(opts.seed).sample(todo, opts.limit))
    lines = source.splitlines()
    label = {m: f"{opts.path}:{m[0]}:{m[1]} {m[2]} -> {m[3]} | {lines[m[0] - 1].strip()}"
             for m in todo}
    if opts.list:
        for m in todo:
            print(label[m])
        return 0

    verdicts = {}
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        target = copy / opts.path
        if run_tests(copy, opts.pytest_args, opts.timeout) != "survived":
            print("the unmutated program fails the selected tests", file=sys.stderr)
            return 2
        try:
            for m in todo:
                target.write_text(apply(source, m))
                verdicts[m] = run_tests(copy, opts.pytest_args, opts.timeout)
                print(f"{verdicts[m]:>16}  {label[m]}", flush=True)
        finally:
            target.write_text(source)
    survivors = [m for m in todo if verdicts[m] == "survived"]
    print(f"\nsurvivors ({len(survivors)}):")
    for m in survivors:
        print(f"  {label[m]}")
    print(f"score: {len(todo) - len(survivors)}/{len(todo)} killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
