"""The test run's own configuration: pyproject.toml's warning filters let a
failing property test fail alone, with the rest of the run going on."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

TWO_TESTS = """\
from hypothesis import given, strategies as st


@given(st.integers(0, 9))
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


@pytest.mark.skipif(importlib.util.find_spec("libcst") is None, reason="Hypothesis prints no patch without libcst")
def test_failing_hypothesis_example_leaves_the_run_going(tmp_path):
    # On a failing example Hypothesis imports libcst to print a patch; libcst 1.0
    # warns on import, and pyproject turns a DeprecationWarning into an error.
    (tmp_path / "test_two.py").write_text(TWO_TESTS, encoding="utf-8")
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT)]
    argv += ["--rootdir", str(tmp_path), "test_two.py"]
    out = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True)
    assert "INTERNALERROR" not in out.stdout + out.stderr, out.stdout
    assert "1 failed, 1 passed" in out.stdout, out.stdout
