"""Import hygiene: no module, demo or test imports a name it never uses, no
module defines a name nothing reads or exports, and `import safereq` stays
cheap by leaving `requests` to the HTTP backend.

No linter is a dependency, so both name checks walk each module's
syntax tree with the standard library's `ast`.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import safereq

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


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


def test_no_demo_imports_an_unused_name():
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    unused = [
        f"{path.stem}.{name}"
        for path in demos
        for name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert unused == []


def test_no_test_module_imports_an_unused_name():
    tests = sorted((ROOT / "tests").glob("*.py"))
    assert Path(__file__) in tests
    unused = [
        f"{path.stem}.{name}"
        for path in tests
        for name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert unused == []


def module_level_definitions(source: str) -> set[str]:
    """Names a module binds at its top level by def, class or assignment;
    dunder names such as __all__ are left out."""
    names: set[str] = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def read_names(source: str) -> set[str]:
    """Every name the source reads, bare or as an attribute."""
    read: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def test_dead_definition_check_flags_only_unread_names():
    source = (
        "from . import errors\n"
        "from .errors import E\n"
        "__all__ = ['f']\n"
        "LIMIT = 3\n"
        "UNUSED, USED = 1, 2\n"
        "class Gone(E):\n"
        "    pass\n"
        "def f(x: int = LIMIT) -> int:\n"
        "    return x + USED + errors.helper()\n"
        "def helper():\n"
        "    pass\n"
    )
    dead = module_level_definitions(source) - read_names(source) - {"f"}
    assert sorted(dead) == ["Gone", "UNUSED"]


def test_no_package_module_defines_a_name_nothing_reads_or_exports():
    sources = {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted((SRC / "safereq").glob("*.py"))
    }
    read = set().union(*map(read_names, sources.values()))
    dead = [
        f"{stem}.{name}"
        for stem, source in sources.items()
        for name in sorted(module_level_definitions(source) - read - set(safereq.__all__))
    ]
    assert dead == []


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
