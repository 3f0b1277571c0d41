"""The README's library example runs as written, its command lines parse,
the slope it states is the one its commands print, and its `null-model`
section names every key of the summary that command writes."""

import argparse
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import sizebias
from sizebias.cli import build_parser, main
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
    write_reshuffle_summary(result, null, tmp_path / "summary.json")
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


def test_slope_commands_print_the_stated_beta(tmp_path, monkeypatch, capsys):
    # the fit section's sh block (synth, then benchmark), run as written from an empty directory
    text = README.read_text(encoding="utf-8")
    section = text.split("\n### fit\n")[1].split("\n### ")[0]
    lines = re.findall(r"```sh\n(.*?)```", section, flags=re.S)[-1].splitlines()
    assert [shlex.split(line)[1] for line in lines] == ["synth", "benchmark"]
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
    stated = re.search(r"prints `(beta=\d\.\d{4})`", section).group(1)
    assert f"{stated}," in capsys.readouterr().out
    assert stated == "beta=0.4210"
    # the library use section gives the same slope as one expression
    expression, rng = re.search(r"is\n`(exact_benchmark\(.*?)`\nwith `rng = (.*?)`", text).groups()
    names = {name: getattr(sizebias, name) for name in sizebias.__all__}
    beta = eval(expression, {**names, "rng": eval(rng, names)})
    fit = json.loads((tmp_path / "synth-bench" / "benchmark_fit.json").read_text(encoding="utf-8"))
    assert beta == fit["beta"]
