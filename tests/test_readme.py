"""The README's library example runs as written, and its `null-model`
section names every key of the summary that command writes."""

import json
import re
from pathlib import Path

import numpy as np

from sizebias.io import write_reshuffle_summary
from sizebias.nullmodel import NullMarginals, ReshuffleResult

README = Path(__file__).resolve().parents[1] / "README.md"


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
