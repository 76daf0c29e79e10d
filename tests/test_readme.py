"""README's configuration, constants and refusals tables match the code and
the hostile-input corpus, so removing or adding a knob, a constant or a
refusal cannot leave them stale."""

import ast
import dataclasses
import importlib
import os
import re

import pytest

from mflow.cli import _COMMANDS, main
from mflow.config import Config, env_var_name, flag_name
from test_hostile import CORPUS

_README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _table(header: str) -> list:
    """The body rows of the README table whose header row starts with
    `header`, as lists of cells with the backticks stripped."""
    with open(_README) as fh:
        lines = fh.read().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(header))
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        cells = re.split(r"(?<!\\)\|", line.strip())[1:-1]
        rows.append([cell.strip().strip("`") for cell in cells])
    return rows


def test_configuration_table_lists_the_config_fields():
    rows = _table("| field ")
    assert [row[0] for row in rows] == [f.name for f in dataclasses.fields(Config)]
    for (name, flag, env, default, _), field in zip(rows, dataclasses.fields(Config)):
        assert (flag, env, default) == (flag_name(name), env_var_name(name), str(field.default))


@pytest.mark.parametrize("row", _table("| field "), ids=lambda row: row[0])
def test_configuration_flag_is_on_its_reader(row, capsys):
    name, flag, _, _, reader = row
    assert main(["--show-config", reader, flag, "1"]) == 0
    assert f"{name} = 1" in capsys.readouterr().out.splitlines()


def test_constants_table_matches_the_modules():
    rows = _table("| constant ")
    assert rows
    for name, module, value, _ in rows:
        assert getattr(importlib.import_module(f"mflow.{module}"), name) == ast.literal_eval(value), name


def test_refusals_table_matches_the_corpus():
    corpus = {}
    for row in CORPUS:
        command = next((a for a in row.argv.split() if a in _COMMANDS), "--show-config")
        key = (row.kind, str(row.code), row.err.split(":")[0] or "none")
        corpus.setdefault(key, set()).add(command)
    readme = {(kind, code, error): {c.strip(" `") for c in commands.split(",")}
              for kind, commands, code, error in _table("| input kind ")}
    assert readme == corpus
