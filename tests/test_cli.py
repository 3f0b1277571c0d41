"""End-to-end command line tests: outputs, exit codes, determinism."""

import argparse
import ast
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sizebias
import sizebias.model
import sizebias.nullmodel
from conftest import unit_citations
from sizebias.cli import build_parser, main
from sizebias.io import (
    BENCHMARK_HEADER,
    read_publications,
    read_summary,
    reshuffle_summary_payload,
    write_json,
    write_publications,
    write_samples_csv,
)
from sizebias.model import h_index
from sizebias.nullmodel import NullMarginals, ReshuffleResult
from sizebias.synth import SizeModel, build_synthetic_dataset, generation_stream, sample_sizes


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


# PYTHONPATH for a fresh interpreter that imports this checkout's sizebias
SRC_PATH = os.pathsep.join(filter(None, [str(Path(sizebias.__file__).parents[1]), os.environ.get("PYTHONPATH")]))


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

    def test_project_version_is_the_package_version(self):
        # pyproject.toml reads its version from sizebias.__version__, the one place it is written
        import warnings

        from setuptools.config.pyprojecttoml import read_configuration

        pyproject = Path(sizebias.__file__).parents[2] / "pyproject.toml"
        with warnings.catch_warnings():  # setuptools may call its [tool.setuptools] support beta
            warnings.simplefilter("ignore")
            config = read_configuration(pyproject, expand=True)
        assert config["project"]["version"] == sizebias.__version__ == "0.17.3"

    @pytest.mark.parametrize(
        "argv",
        [
            ["hindex", "{pubs}"],
            ["null-model", "{pubs}", "--replicates", "3", "--seed", "1"],
            ["fit", "bundled:uk_rae2008_physics"],
            ["benchmark", "{pubs}"],
            ["toy-balls", "--pool-size", "40", "--black", "12", "--basket-sizes", "5"],
            ["synth", "--alpha", "1.5", "--seed", "5", "--sizes", "10,40"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_manifest_names_its_subcommand(self, argv, tiny_pubs, tmp_path, capsys):
        argv = [word.format(pubs=tiny_pubs) for word in argv] + ["--out-dir", str(tmp_path / "out")]
        assert main(argv) == 0
        capsys.readouterr()
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
        assert (manifest["command"], manifest["argv"]) == (argv[0], argv)
        assert sorted(manifest) == sorted([
            "command", "argv", "input_path", "input_sha256", "seed", "replicates", "tool_version", "created_utc",
        ])

    def test_missing_positional(self, capsys):
        assert main(["hindex"]) == 2
        capsys.readouterr()

    def test_option_sets(self):
        # every knob of every subcommand; a new one must show up here
        expected = {
            "hindex": {"input", "--format", "--out-dir"},
            "null-model": {"input", "--replicates", "--seed", "--out-dir"},
            "fit": {"input", "--source", "--format", "--out-dir"},
            "benchmark": {"input", "--replicates", "--seed", "--rank-key", "--out-dir"},
            "toy-balls": {"--pool-size", "--black", "--basket-sizes", "--out-dir"},
            "synth": {
                "--alpha", "--seed", "--units", "--size-model", "--size-exponent",
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
        # and every fixed set of values, so a value that goes shows up too
        choices = {
            (name, a.option_strings[-1]): tuple(a.choices)
            for name, sub in commands.items()
            for a in sub._actions
            if a.choices is not None
        }
        assert choices == {
            ("hindex", "--format"): ("table", "csv"),
            ("fit", "--source"): ("summary", "null-model"),
            ("fit", "--format"): ("table", "json"),
            ("benchmark", "--rank-key"): ("ratio", "z"),
            ("synth", "--size-model"): ("powerlaw", "uniform_floor"),
        }

    def test_public_names(self):
        assert sorted(sizebias.__all__) == sorted([
            "__version__", "Benchmark", "Dataset", "FitError", "PoolSpec", "PowerLawFit",
            "ReshuffleResult", "SizeModel", "build_benchmark", "build_synthetic_dataset",
            "competition_ranks", "count_distribution", "exact_benchmark", "fit_power_law", "generation_stream",
            "group_h_indices", "h_index", "hypergeom_pmf", "most_likely_black_count",
            "normalized_scores", "run_null_model", "sample_citations", "sample_sizes",
        ])

    def test_modules_import_no_private_name_of_each_other(self):
        # each decision has one owner, and other modules use only what it makes public
        reached = []
        for path in sorted(Path(sizebias.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("sizebias")):
                    private = [a.name for a in node.names if a.name.startswith("_") and not a.name.startswith("__")]
                    reached += [f"{path.name}:{node.lineno} {name}" for name in private]
        assert reached == []

    def test_import_does_not_load_scipy(self, tmp_path, run_without_scipy):
        # numpy is the only runtime dependency: importing the CLI and the
        # commands that never fit (--version, synth, hindex, toy-balls) run
        # with scipy unimportable and never try to import it
        probe = (
            "from sizebias.cli import main\n"
            "d = sys.argv[1]\n"
            "for argv in (\n"
            "    ['--version'],\n"
            "    ['synth', '--alpha', '1.5', '--seed', '5', '--sizes', '10,40,160', '--out-dir', d],\n"
            "    ['hindex', d + '/publications.csv', '--out-dir', d + '/h'],\n"
            "    ['toy-balls', '--pool-size', '40', '--black', '12', '--basket-sizes', '5', '--out-dir', d + '/toy'],\n"
            "):\n"
            "    assert main(argv) == 0, argv\n"
        )
        run_without_scipy(probe, tmp_path)

    def test_null_model_fit_benchmark_do_not_load_scipy_stats(self, tmp_path, run_without_scipy):
        # ranks, the exact null and fit's t tail are all computed in the
        # package, so the commands that rank and fit never need scipy either
        probe = (
            "from sizebias.cli import main\n"
            "d, summary = sys.argv[1:]\n"
            "pubs = d + '/publications.csv'\n"
            "for argv in (\n"
            "    ['synth', '--alpha', '1.5', '--seed', '5', '--sizes', '10,40,160', '--out-dir', d],\n"
            "    ['null-model', pubs, '--replicates', '5', '--seed', '1', '--out-dir', d + '/null'],\n"
            "    ['fit', summary, '--out-dir', d + '/fit-summary'],\n"
            "    ['fit', 'bundled:uk_rae2008_physics', '--out-dir', d + '/fit-bundled'],\n"
            "    ['fit', d + '/null', '--source', 'null-model', '--out-dir', d + '/fit-null'],\n"
            "    ['benchmark', pubs, '--replicates', '5', '--seed', '1', '--out-dir', d + '/bench'],\n"
            "):\n"
            "    assert main(argv) == 0, argv\n"
        )
        run_without_scipy(probe, tmp_path, TestFit.exact_summary(tmp_path))

    def test_benchmark_loads_no_scipy_and_runs_no_replicates(self, tmp_path, run_without_scipy):
        # the exact null needs neither scipy nor the Monte Carlo sampler
        probe = (
            "from sizebias import cli, nullmodel\n"
            "def refuse(*args, **kwargs):\n"
            "    raise AssertionError('benchmark ran the Monte Carlo null model')\n"
            "cli.run_null_model = nullmodel.run_null_model = refuse\n"
            "d = sys.argv[1]\n"
            "assert cli.main(['synth', '--alpha', '1.5', '--seed', '5', '--sizes', '10,40,160', '--out-dir', d]) == 0\n"
            "for key in ('ratio', 'z'):\n"
            "    argv = ['benchmark', d + '/publications.csv', '--rank-key', key, '--out-dir', d + '/b-' + key]\n"
            "    assert cli.main(argv) == 0, key\n"
        )
        run_without_scipy(probe, tmp_path)


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_probe(probe, **env):
    """Run `probe` in a fresh interpreter with none of the BLAS thread
    variables set except those in `env`; returns its standard output."""
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    argv = [sys.executable, "-c", probe]
    out = subprocess.run(argv, env={**base, **env, "PYTHONPATH": SRC_PATH}, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout


class TestStartUp:
    """What importing the package and the CLI costs a process."""

    def test_cli_gives_blas_one_thread(self):
        probe = "import os, sizebias.cli\nprint(*(os.environ[v] for v in %r))" % (BLAS_THREAD_VARS,)
        assert run_probe(probe).split() == ["1", "1", "1"]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
    def test_cli_import_leaves_one_thread(self):
        # an OpenBLAS pool would add idle threads at numpy's import
        probe = "import os, sizebias.cli\nprint(len(os.listdir('/proc/self/task')))"
        assert run_probe(probe).strip() == "1"

    def test_caller_blas_threads_win(self):
        probe = "import os, sizebias.cli\nprint(os.environ['OPENBLAS_NUM_THREADS'])"
        assert run_probe(probe, OPENBLAS_NUM_THREADS="2").strip() == "2"

    def test_package_import_loads_no_numpy_and_leaves_environ(self):
        probe = (
            "import os, sys\n"
            "before = dict(os.environ)\n"
            "import sizebias\n"
            "print('numpy' in sys.modules, dict(os.environ) == before)\n"
        )
        assert run_probe(probe).split() == ["False", "True"]

    def test_star_import_binds_every_public_name(self):
        probe = (
            "import sizebias\n"
            "names = {}\n"
            "exec('from sizebias import *', names)\n"
            "print(sorted(set(sizebias.__all__) - set(names)), sorted(set(sizebias.__all__) - set(dir(sizebias))))\n"
            "print(names['h_index'] is sizebias.model.h_index, names['SizeModel'] is sizebias.synth.SizeModel)\n"
        )
        assert run_probe(probe).split() == ["[]", "[]", "True", "True"]

    def test_cli_import_freezes_its_heap(self):
        # what the import loaded lives until exit; no collection needs to walk it
        assert run_probe("import gc, sizebias.cli\nprint(gc.get_freeze_count() > 0)").strip() == "True"

    def test_library_import_freezes_nothing(self):
        probe = "import gc, sizebias.io, sizebias.nullmodel, sizebias.scaling\nprint(gc.get_freeze_count())"
        assert run_probe(probe).strip() == "0"

    def test_cli_import_skips_what_only_some_commands_run(self):
        # the thread pool, numpy.typing, and the modules of synth and toy-balls
        # load where they are used, not at every start-up
        lazy = ("concurrent.futures", "numpy.typing", "sizebias.synth", "sizebias.combinatorics")
        probe = "import sys, sizebias.cli\nprint([m for m in %r if m in sys.modules])" % (lazy,)
        assert run_probe(probe).strip() == "[]"

    def test_synth_loads_neither_scaling_nor_nullmodel(self):
        # synth only draws a dataset; the slope of its benchmark is the benchmark command's to compute
        probe = (
            "import sys, sizebias.synth\n"
            "print('sizebias.scaling' in sys.modules, 'sizebias.nullmodel' in sys.modules)\n"
        )
        assert run_probe(probe).split() == ["False", "False"]

    def test_null_model_and_benchmark_do_not_load_numpy_ma(self, tiny_pubs, tmp_path):
        # np.quantile and a bare np.unique import numpy.ma on first use
        probe = (
            "import sys\n"
            "from sizebias.cli import main\n"
            "pubs, out = %r, %r\n"
            "assert main(['null-model', pubs, '--seed', '1', '--replicates', '3', '--out-dir', out + '/null']) == 0\n"
            "assert main(['benchmark', pubs, '--out-dir', out + '/bench']) == 0\n"
            "print('numpy.ma' in sys.modules)\n"
        ) % (str(tiny_pubs), str(tmp_path))
        assert run_probe(probe).splitlines()[-1] == "False"


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

    def test_table_justifies_by_column(self, tmp_path, capsys):
        # ids stay left-justified even when they are all digits, ASCII or not; N and h are right-justified
        path = tmp_path / "digits.csv"
        rows = ["12,A,5", *["abc,B,20"] * 12, "\u0661\u0662,C,3"]
        path.write_text("unit_id,unit_name,citations\n" + "\n".join(rows) + "\n", encoding="utf-8")
        assert main(["hindex", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "unit_id   N   h",
            "12        1   1",
            "abc      12  12",
            "\u0661\u0662        1   1",
        ]

    def test_out_dir_files_match_library(self, tiny_pubs, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["hindex", str(tiny_pubs), "--out-dir", str(out)]) == 0
        capsys.readouterr()
        rows = read_rows(out / "hindex.csv")
        dataset = read_publications(tiny_pubs)
        expected = [["unit_id", "N", "h"]] + [
            [uid, str(c.size), str(h_index(c))] for uid, c in zip(dataset.unit_ids, unit_citations(dataset))
        ]
        assert rows == expected
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["command"] == "hindex"
        assert manifest["seed"] is None

    def test_csv_stdout_quotes_like_the_report_file(self, tmp_path, capsys):
        path = tmp_path / "quoted.csv"
        path.write_text('unit_id,unit_name,citations\n"a,b",AB,5\n"a,b",AB,2\nc,"Gamma ""G""",1\n', encoding="utf-8")
        out = tmp_path / "run"
        assert main(["hindex", str(path), "--format", "csv", "--out-dir", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert stdout.encode("utf-8") == (out / "hindex.csv").read_bytes()
        assert stdout.splitlines()[1] == '"a,b",2,2'

    def test_field_past_csv_limit_is_ingest_error(self, tmp_path, capsys):
        path = tmp_path / "long.csv"
        path.write_text(f'unit_id,unit_name,citations\na,A,3\nb,"{"x" * 200_000}",4\n', encoding="utf-8")
        assert main(["hindex", str(path)]) == 3
        err = capsys.readouterr().err
        assert "line 3: field larger than field limit" in err
        assert "Traceback" not in err

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

    def test_one_replicate_is_singular(self, synth_run, tmp_path, capsys):
        out = tmp_path / "nm"
        assert main(["null-model", str(synth_run), "--seed", "7", "--replicates", "1", "--out-dir", str(out)]) == 0
        assert "mean Spearman vs real ranking over 1 replicate: " in capsys.readouterr().out

    @pytest.mark.parametrize("command", [["benchmark"], ["null-model", "--seed", "7", "--replicates", "5"]])
    def test_tallies_the_pool_once(self, synth_run, tmp_path, monkeypatch, capsys, command):
        # the real h's tally cap and the exact null's K_k share Dataset.cited_at_least
        calls = []
        tally = sizebias.model.cited_at_least
        for module in [m for name, m in sys.modules.items() if name.startswith("sizebias")]:
            if getattr(module, "cited_at_least", None) is tally:  # every module that imported it
                monkeypatch.setattr(module, "cited_at_least", lambda c: calls.append(len(c)) or tally(c))
        assert main([command[0], str(synth_run), *command[1:], "--out-dir", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        assert calls == [10 + 40 + 160]

    def test_ranks_the_replicates_once(self, synth_run, tmp_path, monkeypatch, capsys):
        # mean_spearman_vs_real and mean_spearman_se share one ranking
        calls = []
        rank = sizebias.nullmodel._row_average_ranks
        monkeypatch.setattr(sizebias.nullmodel, "_row_average_ranks", lambda a: calls.append(a.shape) or rank(a))
        out = tmp_path / "nm"
        assert main(["null-model", str(synth_run), "--seed", "7", "--replicates", "5", "--out-dir", str(out)]) == 0
        assert "standard error" in capsys.readouterr().out
        assert calls == [(6, 3)]

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

    def test_out_of_memory_is_compute_error(self, tmp_path, capsys):
        # 1e13 replicates x 2 units of int64 is 146 TiB, past the address
        # space: the sample matrix fails to allocate before any worker starts
        path = tmp_path / "two.csv"
        path.write_text("unit_id,unit_name,citations\na,A,3\nb,B,1\n", encoding="utf-8")
        out = tmp_path / "o"
        argv = ["null-model", str(path), "--seed", "1", "--replicates", "10000000000000", "--out-dir", str(out)]
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("error: Unable to allocate ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()


    def test_summary_marginals_are_the_benchmark_cells(self, synth_run, tmp_path, capsys):
        null, bench = tmp_path / "nm", tmp_path / "bench"
        assert main(["null-model", str(synth_run), "--seed", "2", "--replicates", "3", "--out-dir", str(null)]) == 0
        assert main(["benchmark", str(synth_run), "--out-dir", str(bench)]) == 0
        capsys.readouterr()
        units = json.loads((null / "reshuffle_summary.json").read_text(encoding="utf-8"))["units"]
        rows = read_rows(bench / "benchmark.csv")[1:]
        assert [[u["unit_id"], repr(u["null_mean_h"]), repr(u["null_sd_h"])] for u in units] == [r[:1] + r[3:5] for r in rows]
        for u in units:
            assert isinstance(u["null_q025_h"], int) and isinstance(u["null_q975_h"], int)
            assert u["null_q025_h"] <= u["null_mean_h"] <= u["null_q975_h"]

    def test_sample_means_lie_within_4_standard_errors_of_the_summary(self, synth_run, tmp_path, capsys):
        out = tmp_path / "nm"
        assert main(["null-model", str(synth_run), "--seed", "4", "--replicates", "400", "--out-dir", str(out)]) == 0
        capsys.readouterr()
        summary = json.loads((out / "reshuffle_summary.json").read_text(encoding="utf-8"))
        samples = read_rows(out / "reshuffle_samples.csv")[1:]
        for u in summary["units"]:
            mean = np.mean([int(h) for _, uid, h in samples if uid == u["unit_id"]])
            assert abs(mean - u["null_mean_h"]) <= 4 * u["null_sd_h"] / math.sqrt(400) + 1e-9
        # the one Monte Carlo statistic comes with its standard error
        assert 0.0 < summary["mean_spearman_se"] < 0.1

    def test_uncited_input_has_h_zero_but_no_benchmark(self, tmp_path, capsys):
        path = tmp_path / "uncited.csv"
        path.write_text("unit_id,unit_name,citations\na,A,0\na,A,0\nb,B,0\n", encoding="utf-8")
        out = tmp_path / "nm"
        assert main(["null-model", str(path), "--seed", "1", "--replicates", "3", "--out-dir", str(out)]) == 0
        summary = json.loads((out / "reshuffle_summary.json").read_text(encoding="utf-8"))
        assert summary["mean_spearman_vs_real"] is None and summary["mean_spearman_se"] is None
        for u in summary["units"]:
            assert (u["real_h"], u["null_mean_h"], u["null_sd_h"], u["null_q025_h"], u["null_q975_h"]) == (0, 0, 0, 0, 0)
        assert main(["benchmark", str(path), "--out-dir", str(tmp_path / "bench")]) == 4
        assert "every unit's null h is 0" in capsys.readouterr().err


CLI_PROBE = "import sys; from sizebias.cli import main; sys.exit(main(sys.argv[1:]))"


def run_cli(argv, **env):
    """Run the CLI in a fresh interpreter, standard output a pipe; returns the
    completed process, text decoded as UTF-8."""
    env = {**os.environ, "PYTHONPATH": SRC_PATH, **env}
    return subprocess.run([sys.executable, "-c", CLI_PROBE, *map(str, argv)], env=env, capture_output=True, encoding="utf-8")


class TestStdout:
    """A report that standard output cannot take exits 5, printing no part of it."""

    def test_unencodable_report_prints_nothing(self, tmp_path):
        pubs = tmp_path / "é.csv"
        pubs.write_text("unit_id,unit_name,citations\né,E,3\né,E,1\nb,B,2\n", encoding="utf-8")
        summary = TestFit.exact_summary(tmp_path)
        runs = (
            ["hindex", pubs],
            ["hindex", pubs, "--format", "csv"],
            ["fit", summary.rename(tmp_path / "é-summary.csv"), "--format", "json"],
            ["null-model", pubs, "--seed", "1", "--replicates", "2", "--out-dir", tmp_path / "é"],
            ["benchmark", pubs, "--out-dir", tmp_path / "é"],
        )
        for argv in runs:
            run = run_cli(argv, PYTHONIOENCODING="ascii")
            assert (run.returncode, run.stdout) == (5, ""), argv
            assert run.stderr.startswith("error: 'ascii' codec can't encode") and run.stderr.count("\n") == 1
        run = run_cli(runs[0], PYTHONIOENCODING="utf-8")
        assert run.returncode == 0 and run.stdout.split() == ["unit_id", "N", "h", "é", "2", "1", "b", "1", "1"]

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize("fmt", ["table", "csv"])
    def test_closed_pipe_exits_5(self, tmp_path, fmt, unbuffered):
        # hindex big.csv | head -1, with the report far larger than a pipe holds
        path = tmp_path / "big.csv"
        path.write_text("unit_id,unit_name,citations\n" + "".join(f"u{i},U,{i % 7}\n" for i in range(20_000)))
        env = {**os.environ, "PYTHONPATH": SRC_PATH, "PYTHONUNBUFFERED": unbuffered}
        argv = [sys.executable, "-c", CLI_PROBE, "hindex", str(path), "--format", fmt]
        with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline().startswith(b"unit_id")
            proc.stdout.close()
            err = proc.stderr.read()
        assert (proc.returncode, err) == (5, b"error: [Errno 32] Broken pipe\n")


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
        assert payload["p_value"] < 0.01
        assert payload["source"] == f"summary:{path}"

    def test_table_output(self, tmp_path, capsys):
        path = self.exact_summary(tmp_path)
        assert main(["fit", str(path)]) == 0
        out = capsys.readouterr().out
        assert "beta            0.500000" in out
        assert "p_value" in out
        assert "significant" not in out

    def test_one_excluded_point_is_singular(self, tmp_path, capsys):
        path = self.exact_summary(tmp_path)
        path.write_text(path.read_text(encoding="utf-8") + "z,Z,5,0\n", encoding="utf-8")
        assert main(["fit", str(path)]) == 0
        assert capsys.readouterr().out.endswith("\nexcluded 1 h=0 point\n")

    def test_report_files(self, tmp_path, capsys):
        path = self.exact_summary(tmp_path)
        out = tmp_path / "report"
        assert main(["fit", str(path), "--out-dir", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads((out / "fit_report.json").read_text(encoding="utf-8"))
        assert set(payload) == {
            "beta", "log10_prefactor", "r_squared", "n_points", "beta_stderr", "p_value",
            "source", "n_excluded_zero_h",
        }
        assert payload["beta"] == pytest.approx(0.5, abs=1e-12)
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["command"] == "fit"
        assert manifest["input_path"] == str(path)

    def test_bundled_input(self, capsys):
        # p_value: mpmath's I_x(dof/2, 1/2) at 50 digits for the fit's t statistic
        for name, n_points, p_value in (("ukraine_2019", 40, 2.3162286920160968e-10),
                                        ("uk_rae2008_physics", 41, 2.717250785338885e-23)):
            assert main(["fit", f"bundled:{name}", "--format", "json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["n_points"] == n_points
            assert payload["p_value"] == pytest.approx(p_value, rel=1e-12, abs=0)

    def test_json_stdout_is_the_report_bytes(self, tmp_path, capsysbinary):
        # the source path holds a non-ASCII directory name
        path = tmp_path / "\u00e9" / "s.csv"
        path.parent.mkdir()
        path.write_bytes(self.exact_summary(tmp_path).read_bytes())
        out = tmp_path / "report"
        assert main(["fit", str(path), "--format", "json", "--out-dir", str(out)]) == 0
        report = (out / "fit_report.json").read_bytes()
        assert f"summary:{path}".encode() in report
        assert capsysbinary.readouterr().out == report

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
        # fit reads only the units' sizes from the summary, so any marginals do
        null = NullMarginals(sizes, np.ones((40, 1)), np.arange(40), np.ones(40, dtype=int))
        write_json(reshuffle_summary_payload(result, null), run / "reshuffle_summary.json")
        reports = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": SRC_PATH}
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
        # fit has no --alpha-level since 0.7.0, so every value is a usage error
        path = self.exact_summary(tmp_path)
        out = tmp_path / "o"
        assert main(["fit", str(path), "--alpha-level", "0.05", "--out-dir", str(out)]) == 2
        assert "--alpha-level" in capsys.readouterr().err
        assert not out.exists()


# benchmark.csv of TestBenchmark.test_undefined_z_ranks_last's input as
# written by sizebias 0.10.0, less the normalized_rank column.  Only c's
# null_mean_h and null_sd_h differ from 0.3.0-0.9.0 (...862 and ...0952), in
# their rounding: the exact values are 1.9960730778305861732... and
# 0.0626093309603079627..., within 4e-14 relative of either.
UNDEFINED_Z_ROWS = (
    "zero,2,0,1.5965909090909092,0.5277774001980188,1.7265749024571797,0.0,-3.0251217814402023,-inf,5",
    "a,3,2,1.8916788856304985,0.31662807787814934,1.78498598189784,1.1204569785324319,0.3421083660533342,"
    "0.04939518586468811,1",
    "a2,3,2,1.8916788856304985,0.31662807787814934,1.78498598189784,1.1204569785324319,0.3421083660533342,"
    "0.04939518586468811,1",
    "c,5,2,1.9960730778305864,0.06260933096030598,1.8613964589273049,1.0744621278330841,0.0627210370911525,"
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

    def test_reports_ignore_blas_threads(self, tmp_path):
        rng = generation_stream(4)
        sizes = sample_sizes(SizeModel(20, 2000, 1.5), 4000, rng)
        pubs = tmp_path / "units.csv"
        write_publications(build_synthetic_dataset(sizes, 1.5, rng), pubs)
        reports = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": SRC_PATH}
            out = tmp_path / f"bench{threads}"
            probe = "import sys; from sizebias.cli import main; sys.exit(main(sys.argv[1:]))"
            argv = ["benchmark", str(pubs), "--out-dir", str(out)]
            subprocess.run([sys.executable, "-c", probe, *argv], env=env, capture_output=True, check=True)
            reports.append([(out / name).read_bytes() for name in ("benchmark.csv", "benchmark_fit.json")])
        assert reports[0] == reports[1]

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
        # log10 is increasing, so log_residual ranked as ratio does and is no key
        assert main(["benchmark", str(synth_run), "--rank-key", "log_residual", "--out-dir", str(out)]) == 2
        assert "invalid choice: 'log_residual' (choose from 'ratio', 'z')" in capsys.readouterr().err

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
        for key, ranks in (("ratio", "51134"), ("z", "41135")):
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

    def test_one_table_is_singular(self, tmp_path, capsys):
        out = tmp_path / "toy"
        assert main(["toy-balls", "--basket-sizes", "10", "--out-dir", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote 1 distribution table (pool 4000, black 2120) to {out}\n"

    def test_basket_larger_than_pool(self, tmp_path, capsys):
        code = main(
            ["toy-balls", "--pool-size", "4", "--black", "2", "--basket-sizes", "5", "--out-dir", str(tmp_path / "o")]
        )
        assert code == 2
        assert "exceeds pool size" in capsys.readouterr().err

    def test_repeated_basket_size_is_usage_error(self, tmp_path, capsys):
        # one table per size: a repeat would overwrite its own table and miscount the tables written
        out = tmp_path / "o"
        argv = ["toy-balls", "--pool-size", "50", "--black", "10", "--basket-sizes", "10,10,5", "--out-dir", str(out)]
        assert main(argv) == 2
        assert "repeats a size" in capsys.readouterr().err
        assert not out.exists()

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

        expected = build_synthetic_dataset([12, 30], 2.0, generation_stream(9))
        assert back.unit_ids == expected.unit_ids
        assert (back.sizes.tolist(), back.citations.tolist()) == (expected.sizes.tolist(), expected.citations.tolist())

    @pytest.mark.parametrize(
        "sizes, said", [("1", "1 publication across 1 unit"), ("2,3", "5 publications across 2 units")]
    )
    def test_stdout_counts_agree_in_number(self, tmp_path, capsys, sizes, said):
        out = tmp_path / "s"
        assert main(["synth", "--alpha", "1.5", "--seed", "1", "--sizes", sizes, "--out-dir", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {said} to {out / 'publications.csv'}\n"

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
        assert list(back.unit_ids) == [r.unit_id for r in rows]
        assert list(back.unit_names) == [r.unit_name for r in rows]
        assert back.sizes.tolist() == [r.n_publications for r in rows]
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

    @pytest.mark.parametrize(
        "sizes",
        [
            # 40 is --units' default count, and ukraine_2019 has 40 rows
            ["--units", "40", "--sizes", "5,6"],
            ["--units", "1", "--sizes-from-summary", "bundled:ukraine_2019"],
            # a count that matches the list is refused too
            ["--units", "2", "--sizes", "5,6"],
            ["--units", "40", "--sizes-from-summary", "bundled:ukraine_2019"],
        ],
    )
    def test_one_size_source(self, tmp_path, capsys, sizes):
        out = tmp_path / "o"
        assert main(["synth", "--alpha", "1.5", "--seed", "2", *sizes, "--out-dir", str(out)]) == 2
        assert "not allowed with argument --units" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_summary_path_is_not_ignored(self, tmp_path, capsys):
        # an empty path is a size source given, not one left out
        out = tmp_path / "o"
        assert main(["synth", "--alpha", "1.5", "--seed", "2", "--sizes-from-summary", "", "--out-dir", str(out)]) == 3
        assert "file not found" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, digest",
        [
            (
                ["--alpha", "1.5", "--seed", "7"],
                "0fe12317eeba44eb23aa779629a2ffd09312fa4db76f0c9c0fb700fa4a87be7c",
            ),
            (
                ["--alpha", "1.5", "--seed", "7", "--sizes", "100,400,1600"],
                "6d4d3850232d31dd8e586a86b57d49579468e797e5ade764e74213bd26c3c303",
            ),
            (
                ["--alpha", "1.5", "--seed", "7", "--sizes-from-summary", "bundled:ukraine_2019"],
                "bcc4234ce9c673cc279025fc04cbc327d8234a7c77dd77f9d603b0de27b86cee",
            ),
            (
                ["--alpha", "2.0", "--seed", "4", "--units", "5", "--size-model", "uniform_floor",
                 "--min-size", "10", "--max-size", "50"],
                "c0e2589fc4df3bc96056c1f7c5a5d9f610e9a89fc6c57f6793c17eb427da593c",
            ),
            (
                ["--alpha", "1.5", "--seed", "7", "--size-model", "uniform_floor", "--units", "25"],
                "76631c6fd6c898a25e5b1bf0e97e7e35a24c4f8e475db2a37ba3585515b5819b",
            ),
            (
                ["--alpha", "1.5", "--seed", "1", "--sizes-from-summary", "bundled:ukraine_2019"],
                "6f5ef9e65a7adc399a37cc1b16030347be04fa23b39f89df9a7a96a7d1c8b1a8",
            ),
            (
                ["--alpha", "4", "--seed", "1", "--size-exponent", "1.5", "--min-size", "20", "--max-size", "2000",
                 "--units", "4000"],
                "16b2165f5fabbb8c0b3d46a1e52dbe70b8d13243900e6e2a5d53574fecd41f2b",
            ),
        ],
    )
    def test_publications_bytes_pinned(self, tmp_path, capsys, flags, digest):
        # the sha256 of publications.csv as written by sizebias 0.10.0 (the first four) and 0.12.0
        out = tmp_path / "s"
        assert main(["synth", *flags, "--out-dir", str(out)]) == 0
        capsys.readouterr()
        assert hashlib.sha256((out / "publications.csv").read_bytes()).hexdigest() == digest

    def test_invalid_alpha(self, tmp_path, capsys):
        assert main(
            ["synth", "--alpha", "0", "--seed", "2", "--sizes", "5,6", "--out-dir", str(tmp_path / "o")]
        ) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            # size-law options beside a size list, which draws no sizes
            (["--sizes", "5,6", "--min-size", "500", "--max-size", "100"], "--min-size, --max-size cannot be combined"),
            (["--sizes", "5,6", "--size-model", "powerlaw"], "--size-model cannot be combined"),
            (["--sizes-from-summary", "bundled:ukraine_2019", "--size-exponent", "2"], "--size-exponent cannot be"),
            (["--size-model", "uniform_floor", "--size-exponent", "9"], "does not apply to --size-model uniform_floor"),
            (["--min-size", "500", "--max-size", "100"], "min_size <= max_size"),
            (["--size-exponent", "0"], "must be > 0"),
            (["--alpha", "nan"], "must be > 0"),
        ],
    )
    def test_refuses_size_options_it_would_ignore_or_cannot_use(self, tmp_path, capsys, flags, message):
        out = tmp_path / "o"
        assert main(["synth", "--alpha", "1.5", "--seed", "1", *flags, "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_out_dir_collides_with_file(self, tmp_path, capsys):
        target = tmp_path / "blocker"
        target.write_text("x", encoding="utf-8")
        assert main(
            ["synth", "--alpha", "1.5", "--seed", "2", "--sizes", "5,6", "--out-dir", str(target)]
        ) == 2
        assert "not a directory" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["toy-balls", "--basket-sizes", "0"],
        ["synth", "--alpha", "1.5", "--seed", "2", "--sizes", "0,5"],
    ],
)
def test_size_list_below_one_is_usage_error(tmp_path, capsys, argv):
    # --basket-sizes and --sizes share one argparse type
    out = tmp_path / "o"
    assert main([*argv, "--out-dir", str(out)]) == 2
    assert "every size must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()
