"""Import `cmshift.cli` in this fresh interpreter and count the code it
compiles at run time.

    python tests/import_guard.py

Run as a script, it imports whichever `cmshift` comes first on the path
(the installed package, unless PYTHONPATH names `src`).  It first imports
every stdlib module that `cmshift`'s sources import, so only the
package's own work is counted, then counts the `compile` audit events
for `<string>` sources (generated code run through `exec`) while
`cmshift.cli` is imported.  `dataclasses` is not pre-imported, since
the check is that nothing `cmshift` imports loads it.  The script prints
one JSON line and exits 1 unless there is at most one such compile per
record class and `dataclasses` is not loaded.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import sys
from pathlib import Path

MODULES = ("exactval", "shifts", "measures", "asymptotics", "suspension")


def stdlib_imports(package_dir: Path) -> set[str]:
    """Top-level names of the absolute imports in the package's sources."""
    names = set()
    for path in package_dir.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module)
    return names


def record_classes() -> list[type]:
    """Every record class the five library modules define."""
    found = []
    for name in MODULES:
        module = importlib.import_module(f"cmshift.{name}")
        found.extend(
            obj for obj in vars(module).values()
            if isinstance(obj, type) and obj.__module__ == module.__name__
            and "__record_fields__" in vars(obj)
        )
    return found


def main() -> int:
    package_dir = Path(importlib.util.find_spec("cmshift").origin).parent
    for name in sorted(stdlib_imports(package_dir) - {"dataclasses"}):
        importlib.import_module(name)
    compiles = []

    def hook(event, args):
        if event == "compile" and args[1] in ("<string>", b"<string>"):
            compiles.append(args[0])

    sys.addaudithook(hook)
    import cmshift.cli  # noqa: F401

    result = {
        "package": str(package_dir),
        "compiles": len(compiles),
        "records": len(record_classes()),
        "dataclasses": "dataclasses" in sys.modules,
    }
    print(json.dumps(result))
    return 0 if result["compiles"] <= result["records"] and not result["dataclasses"] else 1


if __name__ == "__main__":
    sys.exit(main())
