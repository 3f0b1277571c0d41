"""The README's library example runs as written, its command lines parse,
and its `null-model` section names every key of the summary that command
writes."""

import argparse
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from sizebias.cli import build_parser
from sizebias.io import write_reshuffle_summary
from sizebias.nullmodel import NullMarginals, ReshuffleResult

README = Path(__file__).resolve().parents[1] / "README.md"
COMMAND_LINES = [
    line
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    for line in block.splitlines()
    if line.startswith("sizebias ")
]


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "4 3"
    assert len(lines) == 1 + 40


def test_null_model_section_names_every_summary_key(tmp_path):
    result = ReshuffleResult(("a",), np.array([[1]]), np.array([1]), np.array([2]))
    null = NullMarginals(np.array([2]), np.array([[1.0, 0.5]]), np.array([0]), np.array([1]))
    write_reshuffle_summary(result, null, None, None, tmp_path / "summary.json")
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    keys = {*summary, *summary["units"][0]}
    section = README.read_text(encoding="utf-8").split("\n### null-model\n")[1].split("\n### ")[0]
    assert sorted(key for key in keys if f"`{key}`" not in section) == []


def test_command_lines_show_every_subcommand():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert {shlex.split(line)[1] for line in COMMAND_LINES} == set(sub.choices)


@pytest.mark.parametrize("line", COMMAND_LINES)
def test_command_line_parses(line):
    words = shlex.split(line)
    try:
        args = build_parser().parse_args(words[1:])
    except SystemExit:
        pytest.fail(f"README command line does not parse: {line}")
    assert args.command == words[1]
