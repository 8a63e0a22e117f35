"""Every module of the package imports only the standard library and the package."""

import ast
import sys
from pathlib import Path

import placetime

PACKAGE_DIR = Path(placetime.__file__).resolve().parent


def _imported_top_level_names(path):
    """The top-level package of each absolute import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_package_imports_only_stdlib_and_placetime():
    allowed = sys.stdlib_module_names | {"placetime"}
    modules = sorted(PACKAGE_DIR.rglob("*.py"))
    assert len(modules) > 5
    foreign = [(path.relative_to(PACKAGE_DIR).as_posix(), name) for path in modules
               for name in _imported_top_level_names(path) if name not in allowed]
    assert foreign == []
