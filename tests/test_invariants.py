"""Static invariants of the package source: no floats and no dependencies.

Every module under src/pointline is parsed with ast and checked for a
float or complex literal, any use of the names float or complex, a math
function other than the exact integer ones (comb, gcd, lcm, floor), and an
absolute import from outside the standard library. pyproject.toml must
keep its runtime dependency list empty.

A float made at run time by true division of two ints (1 / 2) cannot be
caught statically: whether / divides ints or Fractions is known only when
the code runs. Such a float, or one a caller passes in, is refused when a
record is built: every field annotated Fraction and the eps and tail-width
arguments go through _record.rational, which raises TypeError on anything
but an int, a Fraction or a str (test_records pins this). The oracle,
golden and byte-identity tests guard the values themselves.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "pointline").glob("*.py"))
MATH_NAMES = {"comb", "gcd", "lcm", "floor"}


def _trees():
    assert SOURCES
    for path in SOURCES:
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_no_float_or_complex_literals_or_names():
    found = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append((name, node.lineno, repr(node.value)))
            elif isinstance(node, ast.Name) and node.id in ("float", "complex"):
                found.append((name, node.lineno, node.id))
    assert found == []


def test_only_exact_math_functions():
    found = []
    for name, tree in _trees():
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                aliases |= {a.asname or a.name for a in node.names if a.name == "math"}
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "math":
                found += [(name, node.lineno, a.name) for a in node.names
                          if a.name not in MATH_NAMES]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases and node.attr not in MATH_NAMES):
                found.append((name, node.lineno, f"math.{node.attr}"))
    assert found == []


def test_absolute_imports_are_standard_library():
    found = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [(name, node.lineno, m) for m in modules
                      if m.partition(".")[0] not in sys.stdlib_module_names]
    assert found == []


def test_no_runtime_dependencies():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        assert re.search(r"^dependencies = \[\]$", text, flags=re.M)
    else:
        assert tomllib.loads(text)["project"]["dependencies"] == []
