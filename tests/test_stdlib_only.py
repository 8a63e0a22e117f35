"""Every module of the package imports only the standard library and the package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

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


def _placetime_modules_imported(argv, cwd):
    """The ``placetime.*`` modules that ``python -m placetime *argv`` imports."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "placetime", *argv],
                          capture_output=True, text=True, cwd=cwd, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)})
    assert proc.returncode == 0, proc.stderr
    return {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")} & {
        "placetime." + path.stem for path in PACKAGE_DIR.glob("*.py")}


def test_each_command_imports_only_its_own_modules(tmp_path):
    (tmp_path / "doc.txt").write_text("Signed 21 March 2001 in Paris.\n", encoding="utf-8")
    (tmp_path / "profiles").mkdir()
    lexicon = str(PACKAGE_DIR / "data" / "lexicons" / "en.lex")
    assert main(["train-profile", str(tmp_path / "doc.txt"), "--lang", "en", "--encoding",
                 "UTF-8", "--out", str(tmp_path / "profiles" / "en.prof")]) == 0
    dates_run = _placetime_modules_imported(["dates", "doc.txt", "--lexicon", lexicon], tmp_path)
    assert "placetime.dates" in dates_run
    assert not dates_run & {"placetime.geotag", "placetime.gazetteer", "placetime.mapviz"}
    identify_run = _placetime_modules_imported(["identify", "doc.txt", "--profiles", "profiles"],
                                               tmp_path)
    assert "placetime.langid" in identify_run
    assert "placetime.dates" not in identify_run
    assert main(["places", str(tmp_path / "doc.txt"), "--gazetteer",
                 str(PACKAGE_DIR / "data" / "gazetteer" / "world_small.tsv"),
                 "--out", str(tmp_path / "doc.jsonl")]) == 0
    map_run = _placetime_modules_imported(["map", "doc.jsonl", "--out", "doc.svg"], tmp_path)
    assert "placetime.mapviz" in map_run
    assert not map_run & {"placetime.langid", "placetime.dates"}
