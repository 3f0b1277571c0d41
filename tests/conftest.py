import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import sizebias
from sizebias.model import Dataset

# Property tests draw the same examples on every run, so a failure always
# reproduces.  No per-example deadline: the first examples pay for scipy's
# warm-up, which says nothing about the code under test.
settings.register_profile("sizebias", derandomize=True, deadline=None)
settings.load_profile("sizebias")


# Runs before a probe script so that any import of scipy or scipy.* fails
# and leaves a trace on stderr, even where the import error is caught.
NO_SCIPY = (
    "import sys\n"
    "class NoScipy:\n"
    "    def find_spec(self, name, *args):\n"
    "        if name.partition('.')[0] == 'scipy':\n"
    "            print('tried to import', name, file=sys.stderr)\n"
    "            raise ImportError(name)\n"
    "sys.meta_path.insert(0, NoScipy())\n"
)


@pytest.fixture()
def run_without_scipy():
    """Run a probe script in a fresh interpreter that imports this checkout's
    sizebias with scipy unimportable; assert it exits 0 and never tried scipy."""
    src = os.pathsep.join(filter(None, [str(Path(sizebias.__file__).parents[1]), os.environ.get("PYTHONPATH")]))

    def run(probe, *args):
        argv = [sys.executable, "-c", NO_SCIPY + probe, *map(str, args)]
        out = subprocess.run(argv, env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
        assert out.returncode == 0 and "tried to import" not in out.stderr, out.stderr
        return out

    return run


def make_dataset(units, name="d", names=None):
    """A Dataset from {unit id: citation counts}, in insertion order, each
    unit named by `names` or else by its id in upper case.  Arrays are
    joined as an array and anything else as one list, so the Dataset checks
    each kind as given."""
    blocks = list(units.values())
    if all(isinstance(b, np.ndarray) for b in blocks):
        citations = np.concatenate(blocks)
    else:
        citations = [c for b in blocks for c in b]
    names = [uid.upper() for uid in units] if names is None else names
    return Dataset(name=name, unit_ids=tuple(units), unit_names=names, sizes=[len(b) for b in blocks], citations=citations)


def unit_citations(dataset):
    """Each unit's citation counts, in unit order."""
    return np.split(dataset.citations, np.cumsum(dataset.sizes)[:-1])
