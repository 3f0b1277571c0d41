"""Tests of the benchmark's own generator, output checks and span maths.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import csv
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

SMALL = gen.SizeModel("uniform", 20, 200)


def _generate(tmp_path: Path, name: str, seed: int) -> gen.Generated:
    return gen.generate(tmp_path / name, seed, 12, SMALL)


def test_generator_is_deterministic_for_a_seed(tmp_path):
    a = _generate(tmp_path, "a.csv", 7)
    b = _generate(tmp_path, "b.csv", 7)
    c = _generate(tmp_path, "c.csv", 8)
    assert a.sha256 == b.sha256
    assert a.path.read_bytes() == b.path.read_bytes()
    assert c.sha256 != a.sha256


def test_generator_sizes_follow_the_size_model(tmp_path):
    rng = np.random.default_rng(0)
    uniform = gen.sample_sizes(gen.SizeModel("uniform", 100, 2000), 4000, rng)
    assert uniform.min() >= 100 and uniform.max() <= 2000
    assert abs(uniform.mean() - 1050) < 10
    power = gen.sample_sizes(gen.SizeModel("powerlaw", 20, 2000, 1.5), 4000, rng)
    assert power.min() >= 20 and power.max() <= 2000
    assert np.median(power) < 40


def test_h_index_oracle_matches_definition():
    rng = np.random.default_rng(3)
    sizes = np.array([1, 5, 30, 0, 7])
    citations = gen.sample_citations(int(sizes.sum()), 1.5, rng)
    expected, start = [], 0
    for n in sizes:
        ranked = sorted(citations[start : start + n], reverse=True)
        expected.append(sum(1 for r, c in enumerate(ranked, start=1) if c >= r))
        start += n
    assert checks.h_index_oracle(sizes, citations).tolist() == expected


def test_exact_null_moments_match_brute_force_enumeration():
    citations = np.array([0, 1, 2, 3, 3, 5, 8])
    sizes = np.array([3, 4])
    h_a, h_b = [], []
    for chosen in itertools.combinations(range(citations.size), 3):
        rest = [i for i in range(citations.size) if i not in chosen]
        block = np.concatenate((citations[list(chosen)], citations[rest]))
        h = checks.h_index_oracle(sizes, block)
        h_a.append(h[0])
        h_b.append(h[1])
    mean, sd = checks.exact_null_moments(sizes, citations)
    np.testing.assert_allclose(mean, [np.mean(h_a), np.mean(h_b)], rtol=0, atol=1e-12)
    np.testing.assert_allclose(sd, [np.std(h_a), np.std(h_b)], rtol=0, atol=1e-12)


def test_competition_ranks():
    assert checks.competition_ranks(np.array([3.0, 5.0, 3.0, 1.0])).tolist() == [2, 1, 2, 4]


@pytest.fixture(scope="module")
def program_outputs(tmp_path_factory):
    """Real outputs of `benchmark` and `null-model` on a small generated input."""
    from sizebias import cli

    tmp = tmp_path_factory.mktemp("outputs")
    data = gen.generate(tmp / "publications.csv", 5, 12, SMALL)
    for command, out in (("benchmark", tmp / "bench"), ("null-model", tmp / "null")):
        argv = [command, str(data.path), "--replicates", "30", "--seed", "5", "--out-dir", str(out)]
        assert cli.main(argv) == 0
    return checks.Oracle(data.unit_ids, data.sizes, data.citations), tmp


def _rewrite_csv(src: Path, dst: Path, edit) -> None:
    with open(src, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = edit(rows)
    with open(dst, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def test_checks_accept_the_program_outputs(program_outputs):
    oracle, tmp = program_outputs
    oracle.check_benchmark_csv(tmp / "bench" / "benchmark.csv", 30)
    oracle.check_null_model_dir(tmp / "null", 30)


def test_checks_reject_an_altered_real_h(program_outputs, tmp_path):
    oracle, tmp = program_outputs
    altered = tmp_path / "benchmark.csv"

    def bump_first_real_h(rows):
        rows[1][2] = str(int(rows[1][2]) + 1)
        return rows

    _rewrite_csv(tmp / "bench" / "benchmark.csv", altered, bump_first_real_h)
    with pytest.raises(checks.CheckError, match="oracle"):
        oracle.check_benchmark_csv(altered, 30)


def test_checks_reject_a_samples_file_missing_a_row(program_outputs, tmp_path):
    oracle, tmp = program_outputs
    short = tmp_path / "reshuffle_samples.csv"
    _rewrite_csv(tmp / "null" / "reshuffle_samples.csv", short, lambda rows: rows[:-1])
    with pytest.raises(checks.CheckError, match="rows"):
        oracle.check_samples_csv(short, 30)


def test_checks_reject_a_null_mean_far_from_the_exact_mean(program_outputs):
    oracle, _ = program_outputs
    mean, sd = oracle.moments
    oracle.check_null_means("exact", mean, 30)
    shifted = mean.copy()
    shifted[0] += 7 * sd[0] / np.sqrt(30)
    with pytest.raises(checks.CheckError, match="standard errors"):
        oracle.check_null_means("shifted", shifted, 30)


def test_self_time_subtracts_the_union_of_overlapping_children():
    # Parent 0..10; two worker-thread children overlap on 2..6 and 4..8,
    # and a nested grandchild inside the first must not count twice.
    record = {
        "spans": [
            [1, "cli.main", 0.0, 10.0, None, 1, None],
            [2, "model.h_index", 2.0, 6.0, 1, 2, None],
            [3, "model.h_index", 4.0, 8.0, 1, 3, None],
            [4, "scaling.competition_ranks", 3.0, 4.0, 2, 2, None],
        ],
        "single_worker_s": [],
    }
    metrics = spans.command_metrics(record)
    assert metrics["cli.main.s"] == 10.0
    assert metrics["cli.self_s"] == 4.0
    assert metrics["scaling.competition_ranks.s"] == 1.0
