"""Docs are checked, not trusted: README's serving-options reference
lists exactly the flags ``python -m repro serve`` parses, each row agrees
with the options table on flag, key and default, every registered
evaluator is named under *Choosing an algorithm* and offered by ``query
--algorithm``, every one but INS is selectable per request and INS is
refused, every path the *Repo map*
names exists, no docstring or comment under ``src/`` cites a Markdown
file the checkout lacks, and
``setup.py`` — what README's ``pip install -e .`` runs — installs the
``repro`` package at the version it reports about itself."""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro._version import __version__
from repro.cli import build_parser
from repro.core.algorithms import ALGORITHMS
from repro.datasets.toy import figure3_graph
from repro.exceptions import BadRequestError
from repro.service.options import OPTIONS
from repro.service.planner import SERVED_ALGORITHMS, QueryPlanner

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def reference_block() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("<!-- serve-options:begin")[1].split("<!-- serve-options:end")[0]


def subcommand_actions(name: str) -> list[argparse.Action]:
    subcommands = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return subcommands.choices[name]._actions


def serve_flags() -> set[str]:
    return {
        flag
        for action in subcommand_actions("serve")
        for flag in action.option_strings
        if flag.startswith("--") and flag != "--help"
    }


def test_readme_lists_exactly_the_serve_flags():
    assert set(re.findall(r"`(--[a-z-]+)`", reference_block())) == serve_flags()


def test_readme_rows_agree_with_the_options_table():
    rows = {}
    for line in reference_block().splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split(" | ")]
        if len(cells) == 5 and cells[1].startswith("`"):
            rows[cells[1].strip("`")] = cells
    assert list(rows) == [row.name for row in OPTIONS]
    for row in OPTIONS:
        flag, _, default, _, _ = rows[row.name]
        assert flag == (f"`{row.flag}`" if row.flag else "—")
        assert default == f"`{json.dumps(row.default)}`"


def test_every_registered_algorithm_is_documented_and_selectable():
    text = README.read_text(encoding="utf-8")
    section = text.split("### Choosing an algorithm")[1].split("\n## ")[0]
    (option,) = [
        action for action in subcommand_actions("query")
        if "--algorithm" in action.option_strings
    ]
    assert set(option.choices) == set(ALGORITHMS)
    planner = QueryPlanner(figure3_graph())
    constraint = "SELECT ?x WHERE { ?x <likes> ?y . }"
    assert set(SERVED_ALGORITHMS) == set(ALGORITHMS) - {"ins"}
    for name in SERVED_ALGORITHMS:
        plan = planner.plan("v0", "v4", ["likes"], constraint, name)
        assert (plan.algorithm, plan.forced) == (name, True)
    with pytest.raises(BadRequestError, match="repro query --algorithm ins"):
        planner.plan("v0", "v4", ["likes"], constraint, "ins")
    assert [name for name in ALGORITHMS if f"`{name}`" not in section] == []


def test_repo_map_names_only_paths_that_exist():
    section = README.read_text(encoding="utf-8").split("## Repo map")[1]
    table = section.split("\n## ")[0]
    paths = [
        token
        for line in table.splitlines()
        if line.startswith("| `")
        for token in re.findall(r"`([\w./-]+)`", line)
        if "/" in token
    ]
    assert paths
    assert [path for path in paths if not (ROOT / path).exists()] == []


def test_src_cites_only_markdown_files_that_exist():
    dangling = {
        (str(path.relative_to(ROOT)), name)
        for path in (ROOT / "src").rglob("*.py")
        for name in re.findall(r"[\w./-]+\.md\b", path.read_text(encoding="utf-8"))
        if not (ROOT / name).is_file()
    }
    assert not dangling


def test_setup_py_installs_repro_from_src_at_its_own_version():
    """It was a bare ``setup()`` pointing at a ``pyproject.toml`` nobody
    committed: ``pip install -e .`` installed an empty ``UNKNOWN 0.0.0``."""
    answers = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version", "--requires"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.split()
    assert answers == ["repro", __version__]  # and requires nothing
    source = (ROOT / "setup.py").read_text(encoding="utf-8")
    assert 'package_dir={"": "src"}' in source
    assert 'find_packages("src")' in source
