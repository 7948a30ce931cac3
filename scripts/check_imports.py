#!/usr/bin/env python3
"""Fail on a module-level import in src/rp3link that its module never names.

    python3 scripts/check_imports.py

Every ``import x`` / ``from m import x`` at the top level of
``src/rp3link/*.py`` binds a name; the module must read that name
somewhere (a ``Name`` or the root of an ``Attribute``).  ``__init__.py``
is skipped: its imports are the package's public API.  ``from __future__``
imports bind nothing.  Standard library only.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rp3link"


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each module-level import binding path never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound: list[tuple[int, str]] = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            bound += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


def main() -> int:
    found = [
        (path, line, name)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path)
    ]
    for path, line, name in found:
        print(f"{path.relative_to(SRC.parents[1])}:{line}: unused import {name!r}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
