"""Every module of the package imports only the standard library and the package."""

import ast
import os
import subprocess
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


def test_cli_import_leaves_out_network_and_xml_modules():
    # ``urllib.parse`` comes in through ``pathlib``; the rest cost start-up time
    # for nothing placetime does.
    code = ("import sys, placetime.cli; print(sorted(m for m in sys.modules if m.split('.')[0] "
            "in ('xml', 'http', 'email') or m == 'urllib.request'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)})
    assert proc.stdout == "[]\n"
