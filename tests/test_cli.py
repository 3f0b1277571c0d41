"""End-to-end command line tests: outputs, exit codes, determinism."""

import argparse
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sizebias
from sizebias.cli import build_parser, main
from sizebias.io import (
    BENCHMARK_HEADER,
    read_publications,
    read_summary,
    reshuffle_summary_payload,
    write_json,
    write_samples_csv,
)
from sizebias.model import group_h_index
from sizebias.nullmodel import ReshuffleResult
from sizebias.synth import CitationModel, SizeModel, build_synthetic_dataset, generation_stream, sample_sizes


@pytest.fixture(autouse=True)
def clean_thread_env(monkeypatch):
    monkeypatch.delenv("SIZEBIAS_THREADS", raising=False)


@pytest.fixture()
def tiny_pubs(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text(
        "unit_id,unit_name,citations\n"
        "a,Alpha,10\na,Alpha,5\na,Alpha,3\n"
        "b,Beta,1\nb,Beta,1\n"
        "c,Gamma,0\n",
        encoding="utf-8",
    )
    return path


@pytest.fixture(scope="module")
def synth_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = main(
        ["synth", "--alpha", "1.5", "--seed", "5", "--sizes", "10,40,160", "--out-dir", str(out)]
    )
    assert code == 0
    return out / "publications.csv"


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestTopLevel:
    def test_no_args_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert "sizebias" in capsys.readouterr().out

    def test_missing_positional(self, capsys):
        assert main(["hindex"]) == 2
        capsys.readouterr()

    def test_option_sets(self):
        # every knob of every subcommand; a new one must show up here
        expected = {
            "hindex": {"input", "--format", "--out-dir"},
            "null-model": {"input", "--replicates", "--seed", "--out-dir"},
            "fit": {"input", "--source", "--alpha-level", "--format", "--out-dir"},
            "benchmark": {"input", "--replicates", "--seed", "--rank-key", "--out-dir"},
            "toy-balls": {"--pool-size", "--black", "--basket-sizes", "--out-dir"},
            "synth": {
                "--alpha", "--x-min", "--seed", "--units", "--size-model", "--size-exponent",
                "--min-size", "--max-size", "--sizes", "--sizes-from-summary", "--out-dir",
            },
        }
        parser = build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
        options = {
            name: {a.option_strings[-1] if a.option_strings else a.dest for a in sub._actions if a.dest != "help"}
            for name, sub in commands.items()
        }
        assert options == expected

    def test_import_does_not_load_scipy(self):
        # scipy.stats takes about a second to import; commands that never
        # use it (hindex, toy-balls, --help, --version) must not pay for it.
        src = str(Path(sizebias.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        probe = "import sys, sizebias.cli; print('scipy.stats' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_null_model_fit_benchmark_do_not_load_scipy_stats(self, tmp_path):
        # both rankings are computed in numpy, so the commands that rank
        # never pay the scipy.stats import either
        src = str(Path(sizebias.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        probe = (
            "import sys\n"
            "from sizebias.cli import main\n"
            "d = sys.argv[1]\n"
            "assert main(['synth', '--alpha', '1.5', '--seed', '5', '--sizes', '10,40,160', '--out-dir', d]) == 0\n"
            "pubs = d + '/publications.csv'\n"
            "assert main(['null-model', pubs, '--replicates', '5', '--seed', '1', '--out-dir', d + '/null']) == 0\n"
            "assert main(['fit', d + '/null', '--source', 'null-model']) == 0\n"
            "for key in ('ratio', 'z'):\n"
            "    argv = ['benchmark', pubs, '--replicates', '5', '--seed', '1', '--rank-key', key]\n"
            "    assert main(argv + ['--out-dir', d + '/bench-' + key]) == 0\n"
            "print('scipy.stats' in sys.modules, file=sys.stderr)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe, str(tmp_path)], env=env, capture_output=True, text=True, check=True
        )
        assert out.stderr.strip().splitlines()[-1] == "False"

    def test_benchmark_loads_no_scipy_and_runs_no_replicates(self, tmp_path):
        # the exact null needs neither scipy nor the Monte Carlo sampler
        src = str(Path(sizebias.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        probe = (
            "import sys\n"
            "from sizebias import cli, nullmodel\n"
            "def refuse(*args, **kwargs):\n"
            "    raise AssertionError('benchmark ran the Monte Carlo null model')\n"
            "cli.run_null_model = nullmodel.run_null_model = refuse\n"
            "d = sys.argv[1]\n"
            "assert cli.main(['synth', '--alpha', '1.5', '--seed', '5', '--sizes', '10,40,160', '--out-dir', d]) == 0\n"
            "for key in ('ratio', 'z'):\n"
            "    argv = ['benchmark', d + '/publications.csv', '--rank-key', key, '--out-dir', d + '/b']\n"
            "    assert cli.main(argv) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), file=sys.stderr)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe, str(tmp_path)], env=env, capture_output=True, text=True, check=True
        )
        assert out.stderr.strip() == "[]"


class TestHindex:
    def test_csv_format_stdout(self, tiny_pubs, capsys):
        assert main(["hindex", str(tiny_pubs), "--format", "csv"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["unit_id,N,h", "a,3,3", "b,2,1", "c,1,0"]

    def test_table_format_has_all_units(self, tiny_pubs, capsys):
        assert main(["hindex", str(tiny_pubs)]) == 0
        out = capsys.readouterr().out
        for token in ("unit_id", "a", "b", "c"):
            assert token in out

    def test_out_dir_files_match_library(self, tiny_pubs, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["hindex", str(tiny_pubs), "--out-dir", str(out)]) == 0
        capsys.readouterr()
        rows = read_rows(out / "hindex.csv")
        dataset = read_publications(tiny_pubs)
        expected = [["unit_id", "N", "h"]] + [
            [u.id, str(u.productivity), str(group_h_index(u))] for u in dataset.units
        ]
        assert rows == expected
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["command"] == "hindex"
        assert manifest["seed"] is None

    def test_unwritable_out_dir_is_io_error(self, tiny_pubs, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("x", encoding="utf-8")
        assert main(["hindex", str(tiny_pubs), "--out-dir", str(blocker / "run")]) == 5
        assert "error:" in capsys.readouterr().err

    def test_summary_input_is_wrong_format(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        path.write_text("unit_id,unit_name,n_publications,h_index\nx,X,3,1\n", encoding="utf-8")
        assert main(["hindex", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_is_ingest_error(self, tmp_path, capsys):
        assert main(["hindex", str(tmp_path / "nope.csv")]) == 3
        assert "file not found" in capsys.readouterr().err


class TestNullModel:
    def test_outputs_and_manifest(self, synth_run, tmp_path, capsys):
        out = tmp_path / "nm"
        code = main(
            ["null-model", str(synth_run), "--seed", "7", "--replicates", "25", "--out-dir", str(out)]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "mean Spearman vs real ranking over 25 replicates:" in text
        samples = read_rows(out / "reshuffle_samples.csv")
        assert samples[0] == ["replicate", "unit_id", "h"]
        assert len(samples) == 1 + 25 * 3
        summary = json.loads((out / "reshuffle_summary.json").read_text(encoding="utf-8"))
        assert summary["n_replicates"] == 25
        assert summary["n_units"] == 3
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["seed"] == 7
        assert manifest["replicates"] == 25
        assert len(manifest["input_sha256"]) == 64

    def test_same_seed_same_bytes(self, synth_run, tmp_path, capsys):
        outs = []
        for tag in ("x", "y"):
            out = tmp_path / tag
            assert main(
                ["null-model", str(synth_run), "--seed", "3", "--replicates", "10", "--out-dir", str(out)]
            ) == 0
            outs.append(out)
        capsys.readouterr()
        assert (outs[0] / "reshuffle_samples.csv").read_bytes() == (outs[1] / "reshuffle_samples.csv").read_bytes()
        assert (outs[0] / "reshuffle_summary.json").read_bytes() == (outs[1] / "reshuffle_summary.json").read_bytes()

    def test_thread_count_does_not_change_bytes(self, synth_run, tmp_path, monkeypatch, capsys):
        blobs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("SIZEBIAS_THREADS", threads)
            out = tmp_path / f"t{threads}"
            assert main(
                ["null-model", str(synth_run), "--seed", "3", "--replicates", "10", "--out-dir", str(out)]
            ) == 0
            blobs.append((out / "reshuffle_samples.csv").read_bytes())
        capsys.readouterr()
        assert blobs[0] == blobs[1]

    def test_bad_thread_env(self, synth_run, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SIZEBIAS_THREADS", "zero")
        assert main(
            ["null-model", str(synth_run), "--seed", "1", "--out-dir", str(tmp_path / "o")]
        ) == 2
        monkeypatch.setenv("SIZEBIAS_THREADS", "0")
        assert main(
            ["null-model", str(synth_run), "--seed", "1", "--out-dir", str(tmp_path / "o2")]
        ) == 2
        capsys.readouterr()

    def test_seed_is_required(self, synth_run, tmp_path, capsys):
        assert main(["null-model", str(synth_run), "--out-dir", str(tmp_path / "o")]) == 2
        capsys.readouterr()

    def test_zero_replicates_rejected(self, synth_run, tmp_path, capsys):
        code = main(
            ["null-model", str(synth_run), "--seed", "1", "--replicates", "0", "--out-dir", str(tmp_path / "o")]
        )
        assert code == 2
        capsys.readouterr()


class TestFit:
    @staticmethod
    def exact_summary(tmp_path):
        # h = 3 * N**0.5 exactly, on N = k**2
        lines = ["unit_id,unit_name,n_publications,h_index"]
        for k in range(3, 11):
            lines.append(f"u{k},U{k},{k * k},{3 * k}")
        path = tmp_path / "exact.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_exact_power_law_json(self, tmp_path, capsys):
        path = self.exact_summary(tmp_path)
        assert main(["fit", str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["beta"] == pytest.approx(0.5, abs=1e-12)
        assert payload["log10_prefactor"] == pytest.approx(math.log10(3.0), abs=1e-12)
        assert payload["r_squared"] == pytest.approx(1.0, abs=1e-12)
        assert payload["n_points"] == 8
        assert payload["n_excluded_zero_h"] == 0
        assert payload["significant"] is True
        assert payload["alpha_level"] == 0.01
        assert payload["source"] == f"summary:{path}"

    def test_table_output(self, tmp_path, capsys):
        path = self.exact_summary(tmp_path)
        assert main(["fit", str(path)]) == 0
        out = capsys.readouterr().out
        assert "beta            0.500000" in out
        assert "significant at alpha=0.01: yes" in out

    def test_report_files(self, tmp_path, capsys):
        path = self.exact_summary(tmp_path)
        out = tmp_path / "report"
        assert main(["fit", str(path), "--out-dir", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads((out / "fit_report.json").read_text(encoding="utf-8"))
        assert set(payload) == {
            "beta", "log10_prefactor", "r_squared", "n_points", "beta_stderr", "p_value",
            "alpha_level", "significant", "source", "n_excluded_zero_h",
        }
        assert payload["beta"] == pytest.approx(0.5, abs=1e-12)
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["command"] == "fit"
        assert manifest["input_path"] == str(path)

    def test_bundled_input(self, capsys):
        assert main(["fit", "bundled:ukraine_2019", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_points"] == 40
        assert payload["significant"] is True

    def test_unknown_bundled_name(self, capsys):
        assert main(["fit", "bundled:atlantis"]) == 2
        assert "unknown bundled summary" in capsys.readouterr().err

    def test_null_model_source(self, synth_run, tmp_path, capsys):
        run = tmp_path / "nm"
        assert main(
            ["null-model", str(synth_run), "--seed", "11", "--replicates", "20", "--out-dir", str(run)]
        ) == 0
        assert main(["fit", str(run), "--source", "null-model", "--format", "json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["source"].startswith("null-model:")
        assert payload["n_points"] + payload["n_excluded_zero_h"] == 20 * 3
        assert 0.0 < payload["beta"] < 1.0

    def test_null_model_source_ignores_blas_threads(self, tmp_path):
        # 160k points: enough for BLAS to split a dot product over threads
        rng = np.random.default_rng(3)
        sizes = rng.integers(20, 5000, size=40)
        result = ReshuffleResult(
            unit_ids=tuple(f"u{i}" for i in range(40)),
            h_samples=rng.integers(1, 60, size=(4000, 40)),
            real_h=rng.integers(1, 60, size=40),
            productivities=sizes,
        )
        run = tmp_path / "nm"
        run.mkdir()
        write_samples_csv(result, run / "reshuffle_samples.csv")
        write_json(reshuffle_summary_payload(result, None), run / "reshuffle_summary.json")
        src = str(Path(sizebias.__file__).resolve().parents[1])
        reports = []
        for threads in ("1", "2"):
            env = {
                **os.environ,
                "OPENBLAS_NUM_THREADS": threads,
                "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            }
            out = tmp_path / f"fit{threads}"
            argv = ["fit", str(run), "--source", "null-model", "--out-dir", str(out)]
            probe = "import sys; from sizebias.cli import main; sys.exit(main(sys.argv[1:]))"
            subprocess.run([sys.executable, "-c", probe, *argv], env=env, capture_output=True, check=True)
            reports.append((out / "fit_report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_null_model_source_requires_summary_json(self, synth_run, tmp_path, capsys):
        run = tmp_path / "nm"
        assert main(
            ["null-model", str(synth_run), "--seed", "11", "--replicates", "5", "--out-dir", str(run)]
        ) == 0
        (run / "reshuffle_summary.json").unlink()
        assert main(["fit", str(run), "--source", "null-model"]) == 3
        capsys.readouterr()

    def test_too_few_points_is_compute_error(self, tmp_path, capsys):
        path = tmp_path / "two.csv"
        path.write_text(
            "unit_id,unit_name,n_publications,h_index\na,A,10,2\nb,B,100,7\n", encoding="utf-8"
        )
        assert main(["fit", str(path)]) == 4
        assert "error:" in capsys.readouterr().err

    def test_bad_alpha_level(self, tmp_path, capsys):
        path = self.exact_summary(tmp_path)
        assert main(["fit", str(path), "--alpha-level", "1.5"]) == 2
        assert main(["fit", str(path), "--alpha-level", "0"]) == 2
        capsys.readouterr()


# benchmark.csv of TestBenchmark.test_undefined_z_ranks_last's input as
# written by sizebias 0.3.0, less the normalized_rank column.
UNDEFINED_Z_ROWS = (
    "zero,2,0,1.5965909090909092,0.5277774001980188,1.7265749024571797,0.0,-3.0251217814402023,-inf,5",
    "a,3,2,1.8916788856304985,0.31662807787814934,1.78498598189784,1.1204569785324319,0.3421083660533342,"
    "0.04939518586468811,1",
    "a2,3,2,1.8916788856304985,0.31662807787814934,1.78498598189784,1.1204569785324319,0.3421083660533342,"
    "0.04939518586468811,1",
    "c,5,2,1.9960730778305862,0.06260933096030952,1.8613964589273049,1.0744621278330841,0.0627210370911525,"
    "0.03119111227699583,1",
    "b,20,2,2.0,0.0,2.0856511092481167,0.9589331557572953,,-0.018211665089533015,1",
)


class TestBenchmark:
    def test_reports(self, synth_run, tmp_path, capsys):
        out = tmp_path / "bench"
        code = main(
            ["benchmark", str(synth_run), "--seed", "13", "--replicates", "30", "--out-dir", str(out)]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "benchmark from the exact null model: beta=" in captured.out
        assert "replicates" not in captured.out
        assert captured.err.count("note:") == 1
        assert "--seed and --replicates have no effect and will be removed" in captured.err
        rows = read_rows(out / "benchmark.csv")
        assert tuple(rows[0]) == BENCHMARK_HEADER
        assert len(rows) == 1 + 3
        sizes = [int(r[1]) for r in rows[1:]]
        assert sorted(sizes) == [10, 40, 160]
        raw_ranks = {r[0]: int(r[9]) for r in rows[1:]}
        real_h = {r[0]: int(r[2]) for r in rows[1:]}
        best = max(real_h, key=real_h.get)
        assert raw_ranks[best] == 1
        fit = json.loads((out / "benchmark_fit.json").read_text(encoding="utf-8"))
        # the exact null curve has no sampling error, so no t-test
        assert set(fit) == {"beta", "log10_prefactor", "r_squared", "n_points"}
        assert 0.0 < fit["beta"] < 1.0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["command"] == "benchmark"
        assert manifest["seed"] is None
        assert manifest["replicates"] is None

    def test_rank_key_choices(self, synth_run, tmp_path, capsys):
        out = tmp_path / "z"
        code = main(
            [
                "benchmark", str(synth_run), "--seed", "13", "--replicates", "30",
                "--rank-key", "z", "--out-dir", str(out),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert main(
            ["benchmark", str(synth_run), "--seed", "13", "--rank-key", "bogus", "--out-dir", str(out)]
        ) == 2
        capsys.readouterr()

    def test_undefined_z_ranks_last(self, tmp_path, capsys):
        # The pool's h is 2 and 26 of its 33 papers are cited twice, so any 9
        # papers hold two of them: b has h = 2 in every replicate, its null
        # spread is zero and its z is undefined.  zero has h = 0, so its
        # log_residual is -inf, and a and a2 tie on every column.
        units = {"zero": [0, 0], "a": [2, 2, 0], "a2": [2, 2, 0], "c": [1, 2, 0, 2, 1], "b": [2] * 20}
        lines = ["unit_id,unit_name,citations"]
        lines += [f"{uid},{uid.upper()},{c}" for uid, counts in units.items() for c in counts]
        path = tmp_path / "pubs.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        for key, ranks in (("ratio", "51134"), ("z", "41135"), ("log_residual", "51134")):
            out = tmp_path / key
            assert main(["benchmark", str(path), "--rank-key", key, "--out-dir", str(out)]) == 0
            capsys.readouterr()
            expected = ",".join(BENCHMARK_HEADER) + "\n" + "".join(
                f"{row},{rank}\n" for row, rank in zip(UNDEFINED_Z_ROWS, ranks)
            )
            assert (out / "benchmark.csv").read_bytes() == expected.encode("utf-8")

    def test_output_ignores_seed_replicates_and_threads(self, synth_run, tmp_path, monkeypatch, capsys):
        blobs = set()
        for threads in ("1", "2"):
            monkeypatch.setenv("SIZEBIAS_THREADS", threads)
            deprecated = (["--seed", "1", "--replicates", "1"], ["--seed", "2", "--replicates", "30"], [])
            for i, flags in enumerate(deprecated):
                out = tmp_path / f"t{threads}-{i}"
                assert main(["benchmark", str(synth_run), *flags, "--out-dir", str(out)]) == 0
                err = capsys.readouterr().err
                assert ("no effect" in err) == bool(flags)
                blobs.add((out / "benchmark.csv").read_bytes() + (out / "benchmark_fit.json").read_bytes())
        assert len(blobs) == 1

    def test_alpha_level_is_usage_error(self, synth_run, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["benchmark", str(synth_run), "--alpha-level", "0.05", "--out-dir", str(out)]) == 2
        assert "--alpha-level" in capsys.readouterr().err
        assert not out.exists()

    def test_pool_without_h_is_compute_error(self, tmp_path, capsys):
        path = tmp_path / "uncited.csv"
        path.write_text("unit_id,unit_name,citations\na,A,0\na,A,0\nb,B,0\n", encoding="utf-8")
        assert main(["benchmark", str(path), "--out-dir", str(tmp_path / "o")]) == 4
        assert "null h is 0" in capsys.readouterr().err


class TestToyBalls:
    def test_tiny_pool_exact_distribution(self, tmp_path, capsys):
        out = tmp_path / "toy"
        code = main(
            ["toy-balls", "--pool-size", "4", "--black", "2", "--basket-sizes", "2", "--out-dir", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        rows = read_rows(out / "toy_balls_k002.csv")
        assert rows[0] == ["k1", "share", "probability"]
        assert [r[0] for r in rows[1:]] == ["0", "1", "2"]
        assert [float(r[1]) for r in rows[1:]] == [0.0, 0.5, 1.0]
        probs = [float(r[2]) for r in rows[1:]]
        assert probs == pytest.approx([1 / 6, 2 / 3, 1 / 6], rel=1e-12)

    def test_multiple_sizes_sum_to_one(self, tmp_path, capsys):
        out = tmp_path / "toy"
        code = main(
            [
                "toy-balls", "--pool-size", "60", "--black", "25",
                "--basket-sizes", "3,10,41", "--out-dir", str(out),
            ]
        )
        assert code == 0
        capsys.readouterr()
        for k in (3, 10, 41):
            rows = read_rows(out / f"toy_balls_k{k:03d}.csv")
            assert len(rows) == 1 + (k + 1)
            assert sum(float(r[2]) for r in rows[1:]) == pytest.approx(1.0, abs=1e-12)

    def test_basket_larger_than_pool(self, tmp_path, capsys):
        code = main(
            ["toy-balls", "--pool-size", "4", "--black", "2", "--basket-sizes", "5", "--out-dir", str(tmp_path / "o")]
        )
        assert code == 2
        assert "exceeds pool size" in capsys.readouterr().err

    def test_black_exceeding_pool(self, tmp_path, capsys):
        code = main(
            ["toy-balls", "--pool-size", "4", "--black", "5", "--out-dir", str(tmp_path / "o")]
        )
        assert code == 2
        capsys.readouterr()


class TestSynth:
    def test_round_trip_matches_library(self, tmp_path, capsys):
        out = tmp_path / "s"
        code = main(
            ["synth", "--alpha", "2.0", "--seed", "9", "--sizes", "12,30", "--out-dir", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        back = read_publications(out / "publications.csv")

        rng = generation_stream(9)
        model = SizeModel.explicit([12, 30])
        sizes = sample_sizes(model, 2, rng)
        expected = build_synthetic_dataset(sizes, CitationModel(alpha=2.0), rng)
        assert [u.id for u in back.units] == [u.id for u in expected.units]
        assert [u.citations.tolist() for u in back.units] == [u.citations.tolist() for u in expected.units]

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert main(
                ["synth", "--alpha", "1.5", "--seed", "4", "--units", "5",
                 "--size-model", "uniform_floor", "--min-size", "10", "--max-size", "50",
                 "--out-dir", str(out)]
            ) == 0
            blobs.append((out / "publications.csv").read_bytes())
        capsys.readouterr()
        assert blobs[0] == blobs[1]

    def test_sizes_from_summary_mirrors_units(self, tmp_path, capsys):
        summary = tmp_path / "s.csv"
        summary.write_text(
            "unit_id,unit_name,n_publications,h_index\n"
            "inst-a,Inst A,12,3\ninst-b,Inst B,7,2\ninst-c,Inst C,30,5\n",
            encoding="utf-8",
        )
        out = tmp_path / "run"
        code = main(
            ["synth", "--alpha", "1.5", "--seed", "2", "--sizes-from-summary", str(summary), "--out-dir", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        back = read_publications(out / "publications.csv")
        rows = read_summary(summary)
        assert [u.id for u in back.units] == [r.unit_id for r in rows]
        assert [u.name for u in back.units] == [r.unit_name for r in rows]
        assert [u.productivity for u in back.units] == [r.n_publications for r in rows]
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["input_path"] == str(summary)

    def test_units_conflicts(self, tmp_path, capsys):
        assert main(
            ["synth", "--alpha", "1.5", "--seed", "2", "--sizes", "5,6", "--units", "3",
             "--out-dir", str(tmp_path / "o")]
        ) == 2
        summary = tmp_path / "s.csv"
        summary.write_text(
            "unit_id,unit_name,n_publications,h_index\na,A,5,1\n", encoding="utf-8"
        )
        assert main(
            ["synth", "--alpha", "1.5", "--seed", "2", "--sizes-from-summary", str(summary),
             "--units", "2", "--out-dir", str(tmp_path / "o2")]
        ) == 2
        assert main(
            ["synth", "--alpha", "1.5", "--seed", "2", "--sizes", "5,6",
             "--sizes-from-summary", str(summary), "--out-dir", str(tmp_path / "o3")]
        ) == 2
        capsys.readouterr()

    def test_invalid_alpha(self, tmp_path, capsys):
        assert main(
            ["synth", "--alpha", "0", "--seed", "2", "--sizes", "5,6", "--out-dir", str(tmp_path / "o")]
        ) == 2
        assert "error:" in capsys.readouterr().err

    def test_out_dir_collides_with_file(self, tmp_path, capsys):
        target = tmp_path / "blocker"
        target.write_text("x", encoding="utf-8")
        assert main(
            ["synth", "--alpha", "1.5", "--seed", "2", "--sizes", "5,6", "--out-dir", str(target)]
        ) == 2
        assert "not a directory" in capsys.readouterr().err
