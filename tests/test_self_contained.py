"""The library writes its own numerics; numpy is storage and arithmetic only.

Reference routines such as numpy.linalg, np.roots and np.poly belong to
the tests. This guard keeps them, and heavier libraries, out of src/, and
keeps src/ from importing the tests' own reference module.
"""

import ast
import re
from pathlib import Path

import cozero

FORBIDDEN = re.compile(r"linalg|scipy|sympy|np\.roots|np\.poly")
SOURCES = sorted(Path(cozero.__file__).parent.glob("*.py"))


def test_library_uses_no_borrowed_numerics():
    assert SOURCES
    hits = [
        f"{path.name}:{number}: {line.strip()}"
        for path in SOURCES
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if FORBIDDEN.search(line)
    ]
    assert hits == []


def test_library_imports_nothing_from_tests():
    test_modules = {path.stem for path in Path(__file__).parent.glob("*.py")} | {"tests"}
    assert "reference" in test_modules
    imported = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert "numpy" in imported
    assert imported.isdisjoint(test_modules)
