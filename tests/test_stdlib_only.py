"""Every module of the package imports only the standard library and the package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import placetime
from placetime.cli import main

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


def _modules_imported(argv, cwd):
    """The modules that ``python -m placetime *argv`` imports, as ``-X importtime`` lists them."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "placetime", *argv],
                          capture_output=True, text=True, cwd=cwd, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)})
    assert proc.returncode == 0, proc.stderr
    return {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


@pytest.fixture(scope="module")
def command_imports(tmp_path_factory):
    """Command -> the modules a ``python -m placetime`` run of it imports."""
    tmp_path = tmp_path_factory.mktemp("runs")
    (tmp_path / "doc.txt").write_text("Signed 21 March 2001 in Paris.\n", encoding="utf-8")
    (tmp_path / "profiles").mkdir()
    lexicon = str(PACKAGE_DIR / "data" / "lexicons" / "en.lex")
    assert main(["train-profile", str(tmp_path / "doc.txt"), "--lang", "en", "--encoding",
                 "UTF-8", "--out", str(tmp_path / "profiles" / "en.prof")]) == 0
    return {
        "dates": _modules_imported(["dates", "doc.txt", "--lexicon", lexicon], tmp_path),
        "identify": _modules_imported(["identify", "doc.txt", "--profiles", "profiles"],
                                      tmp_path),
        "places": _modules_imported(
            ["places", "doc.txt", "--gazetteer",
             str(PACKAGE_DIR / "data" / "gazetteer" / "world_small.tsv"), "--out", "doc.jsonl"],
            tmp_path),
        "map": _modules_imported(["map", "doc.jsonl", "--out", "doc.svg"], tmp_path),
    }


def test_each_command_imports_only_its_own_modules(command_imports):
    runs = command_imports
    assert "placetime.dates" in runs["dates"]
    assert not runs["dates"] & {"placetime.geotag", "placetime.gazetteer", "placetime.mapviz"}
    assert "placetime.langid" in runs["identify"]
    assert "placetime.dates" not in runs["identify"]
    assert {"placetime.gazetteer", "placetime.geotag"} <= runs["places"]
    assert "placetime.mapviz" in runs["map"]
    assert not runs["map"] & {"placetime.langid", "placetime.dates"}


def test_no_command_imports_dataclasses_or_inspect(command_imports):
    # The record classes are named tuples, so no command pays for these two at start-up.
    assert {command: sorted(run & {"dataclasses", "inspect"})
            for command, run in command_imports.items()} == dict.fromkeys(command_imports, [])
