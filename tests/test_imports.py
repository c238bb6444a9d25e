"""Import hygiene: no module imports a name it never uses, and `import
safereq` stays cheap by leaving `requests` to the HTTP backend.

No linter is a dependency, so the unused-import check walks each
module's syntax tree with the standard library's `ast`.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def unused_imports(source: str) -> list[str]:
    """Names the source imports, at any nesting level, and never reads."""
    tree = ast.parse(source)
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_unused_import_check_flags_only_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "import json\n"
        "from .errors import A, B as C  # noqa: F401\n"
        "def f(x: A) -> None:\n"
        "    import re\n"
        "    return json.dumps(x)\n"
    )
    assert unused_imports(source) == ["C", "os", "osp", "re"]


def test_no_package_module_imports_an_unused_name():
    # __init__.py imports names to re-export them.
    unused = [
        f"{path.stem}.{name}"
        for path in sorted((SRC / "safereq").glob("*.py"))
        if path.name != "__init__.py"
        for name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert unused == []


def test_importing_the_package_leaves_requests_unimported():
    done = subprocess.run(
        [sys.executable, "-c", "import sys, safereq; print('requests' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
