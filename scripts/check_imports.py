#!/usr/bin/env python3
"""Fail on an import that its src/qcloak module never uses.

    python3 scripts/check_imports.py

Every name a module's import statements bind must appear in that module as
a name (an attribute's base counts; a name inside a string annotation does
not). Two kinds of import are exempt: those in __init__.py, which re-exports
the package's API, and those on a line marked "# noqa: F401". Prints each
unused import as path:line: name and exits 1 if there is one.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qcloak"


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each import in the module at path whose name it never reads."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    imported: list[tuple[int, str]] = []
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            statement = lines[node.lineno - 1 : node.end_lineno]
            if any("# noqa: F401" in line for line in statement):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [(line, name) for line, name in imported if name not in used]


def main() -> int:
    found = 0
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for line, name in unused_imports(path):
            print(f"{path.relative_to(PACKAGE.parent.parent)}:{line}: {name} imported, never used")
            found += 1
    if found:
        return 1
    print(f"no unused imports in {PACKAGE.relative_to(PACKAGE.parent.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
