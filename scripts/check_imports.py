#!/usr/bin/env python3
"""Fail on an import that its src/qcloak module never uses.

    python3 scripts/check_imports.py

Every name a module's import statements bind must appear in that module as
a name (an attribute's base counts; a name inside a string annotation does
not). Two kinds of import are exempt: those in __init__.py, which re-exports
the package's API, and the tracer shims, imports on a line marked
"# noqa: F401" that bind a name the benchmark tracer wraps: a (module,
name) pair of perfbench/tracing.py's TARGETS. A marked import of any other
name is reported too. Prints each finding as path:line: message and exits 1
if there is one.
"""

import ast
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qcloak"
TRACING = ROOT / "perfbench" / "tracing.py"


def tracer_targets() -> set[tuple[str, str]]:
    """The (module, attribute) pairs the benchmark tracer wraps, read from
    perfbench/tracing.py loaded by its path."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {(module, attr) for _span, module, attr, _hook in tracing.TARGETS}


def unused_imports(path: Path, targets: set[tuple[str, str]]) -> list[tuple[int, str]]:
    """(line, message) of each import in the module at path whose name it
    never reads, and of each exempt one that is not a tracer target."""
    module = f"qcloak.{path.stem}"
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    imported: list[tuple[int, str]] = []
    found: list[tuple[int, str]] = []
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            statement = lines[node.lineno - 1 : node.end_lineno]
            exempt = any("# noqa: F401" in line for line in statement)
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if not exempt:
                    imported.append((node.lineno, name))
                elif (module, name) not in targets:
                    found.append((node.lineno, f"{name} exempt, but not a tracer target"))
        elif isinstance(node, ast.Name):
            used.add(node.id)
    found += [(line, f"{name} imported, never used") for line, name in imported if name not in used]
    return sorted(found)


def main() -> int:
    targets = tracer_targets()
    found = 0
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for line, message in unused_imports(path, targets):
            print(f"{path.relative_to(ROOT)}:{line}: {message}")
            found += 1
    if found:
        return 1
    print(f"no unused imports in {PACKAGE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
