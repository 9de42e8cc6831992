"""Every name the library defines has a caller or a README entry.

A top-level function or class in src/amalgam, and every public method,
must be named as a word somewhere besides its own def: elsewhere in
src/amalgam, in perfbench/, or in README.md, which lists the public entry
points.  Import statements and __init__.py do not count, since importing
or re-exporting a name does not call it, and neither do the tests: a name
that only tests call is dead code with a test.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "amalgam"


def _without_imports(text):
    """text with its import statements blanked out."""
    lines = text.splitlines()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for i in range(node.lineno - 1, node.end_lineno):
                lines[i] = ""
    return "\n".join(lines)


def _defined(tree):
    """Top-level functions and classes, and the public methods of classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (sub.name for sub in node.body
                        if isinstance(sub, ast.FunctionDef)
                        and not sub.name.startswith("_"))


def test_every_library_name_has_a_caller_or_a_readme_entry():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    sources = modules + sorted((ROOT / "perfbench").glob("*.py"))
    text = "\n".join([_without_imports(p.read_text()) for p in sources]
                     + [(ROOT / "README.md").read_text()])
    words = Counter(re.findall(r"\w+", text))
    defs = Counter(re.findall(r"^\s*(?:def|class) (\w+)", text, re.M))
    callerless = [f"{path.name}: {name}" for path in modules
                  for name in _defined(ast.parse(path.read_text()))
                  if words[name] == defs[name]]
    assert callerless == []
