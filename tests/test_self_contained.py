"""The library writes its own numerics; numpy is storage and arithmetic only.

Reference routines such as numpy.linalg, np.roots and np.poly belong to
the tests. This guard keeps them, and heavier libraries, out of src/.
"""

import re
from pathlib import Path

import cozero

FORBIDDEN = re.compile(r"linalg|scipy|sympy|np\.roots|np\.poly")


def test_library_uses_no_borrowed_numerics():
    sources = sorted(Path(cozero.__file__).parent.glob("*.py"))
    assert sources
    hits = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sources
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if FORBIDDEN.search(line)
    ]
    assert hits == []
