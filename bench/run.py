"""Benchmark of the `sizebias` command line, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The benchmark generates its own
input from --seed (see gen.py), then runs the workload's command sequence
as fresh `sizebias` processes, one at a time, from this one parent
process.  Every command's outputs are checked against an oracle
(checks.py); a command fails when it exits non-zero or its outputs fail a
check.

--trace 0 repeats the sequence (at least three times) until the measured
sequence wall time is as near --seconds as whole repetitions allow, and
reports the median over the repetitions of

  wall_s       spawn of the first process to exit of the last
  setup_s      summed over commands: spawn until `sizebias.cli` is imported
  cpu_s        user + system CPU of the workload's processes
  peak_rss_mb  largest peak resident set of the workload's processes

--trace 0 sets SIZEBIAS_THREADS to 1 (see TIMED_THREADS).  --trace 1 sets
it to the process's affinity CPU count, runs the sequence once untraced
and once with timing shims around the package's public functions
(spans.py), and reports per-layer times and counts plus the tracing
overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The full record, including the
environment and every repetition, goes to .bench_build/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy
import scipy

import checks
import gen
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"

MIN_REPETITIONS = 3
# Start no further repetition once one would end after RUN_DEADLINE_S, and
# kill a command still running KILL_AFTER_S into the run, so that a run
# always ends inside three minutes.
RUN_DEADLINE_S = 150.0
KILL_AFTER_S = 170.0
# Worker threads of the timed (--trace 0) runs.  With one thread per core
# on a shared host of few cores, a neighbour's load stalls the whole null
# model and the wall time measures the scheduler; one thread leaves the
# other cores as slack.  The traced run uses every core the process may
# use, and reports the one-thread time of the same call beside it
# (nullmodel.run_null_model.s_1worker), so the thread pool is still seen.
TIMED_THREADS = 1


@dataclass(frozen=True)
class Step:
    argv: list[str]
    check: Callable  # (Oracle) -> None, raises checks.CheckError


@dataclass(frozen=True)
class Workload:
    units: int
    size_model: gen.SizeModel
    steps: Callable  # (input path, output dir, seed) -> list[Step]


def _replicates_steps(inp: Path, out: Path, seed: int) -> list[Step]:
    r, d = 1000, out / "benchmark"
    argv = ["benchmark", str(inp), "--replicates", str(r), "--seed", str(seed), "--out-dir", str(d)]
    return [Step(argv, lambda o: o.check_benchmark_csv(d / "benchmark.csv", r))]


def _units_steps(inp: Path, out: Path, seed: int) -> list[Step]:
    r, null, fit, bench = 20, out / "null", out / "fit", out / "benchmark"
    return [
        Step(
            ["null-model", str(inp), "--replicates", str(r), "--seed", str(seed), "--out-dir", str(null)],
            lambda o: o.check_null_model_dir(null, r),
        ),
        Step(
            ["fit", str(null), "--source", "null-model", "--out-dir", str(fit)],
            lambda o: o.check_fit_report(fit / "fit_report.json", r),
        ),
        Step(
            ["benchmark", str(inp), "--replicates", str(r), "--seed", str(seed), "--out-dir", str(bench)],
            lambda o: o.check_benchmark_csv(bench / "benchmark.csv", r),
        ),
    ]


# Why each workload exists (BENCHMARK.json repeats this in one line each):
#   replicates-40  a few large units and many replicates: permuting the
#                  whole pool every replicate dominates.
#   units-4000     the analyst flow (null-model, fit, benchmark) on many
#                  small units: per-unit Python work, the O(units^2)
#                  ranking, the samples write and read-back, and three
#                  process start-ups.
WORKLOADS = {
    "replicates-40": Workload(40, gen.SizeModel("uniform", 100, 10000), _replicates_steps),
    "units-4000": Workload(4000, gen.SizeModel("powerlaw", 20, 2000, 1.5), _units_steps),
}


@dataclass
class Command:
    argv: list[str]
    exit_code: int
    wall_s: float
    setup_s: float
    cpu_s: float
    peak_rss_mb: float
    stderr: str


@dataclass
class Sequence:
    commands: list[Command]
    wall_s: float
    failures: list[str]

    def totals(self) -> dict[str, float]:
        return {
            "wall_s": self.wall_s,
            "setup_s": sum(c.setup_s for c in self.commands),
            "cpu_s": sum(c.cpu_s for c in self.commands),
            "peak_rss_mb": max(c.peak_rss_mb for c in self.commands),
        }


@dataclass
class Runner:
    """Runs one workload's commands on one generated input."""

    workload: Workload
    data: gen.Generated
    oracle: checks.Oracle
    seed: int
    work: Path
    env: dict
    kill_at: float  # monotonic time after which a running command is killed

    def spawn(self, argv: list[str], spans_path: Path | None = None) -> Command:
        """Run one `sizebias` command in a fresh interpreter and reap it with wait4."""
        ready = self.work / "ready"
        ready.unlink(missing_ok=True)
        launcher = [sys.executable, "-I"]
        if spans_path is not None:
            launcher += ["-X", "importtime"]
        launcher += [str(BENCH_DIR / "launch.py"), str(SRC), str(ready), str(spans_path or "-")]
        stderr_path = self.work / "stderr"
        with open(self.work / "stdout", "wb") as out, open(stderr_path, "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(launcher + argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            killer = threading.Timer(max(self.kill_at - start, 0.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
                killer.join()
            end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            setup = float(ready.read_text()) - start
        except (OSError, ValueError):
            setup = end - start
        return Command(
            argv=argv,
            exit_code=proc.returncode,
            wall_s=end - start,
            setup_s=setup,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            stderr=stderr_path.read_text(errors="replace"),
        )

    def sequence(self, traced: bool = False) -> Sequence:
        """Run the workload's commands one after another, then check their outputs."""
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        steps = self.workload.steps(self.data.path, out, self.seed)
        commands = []
        start = time.monotonic()
        for i, step in enumerate(steps):
            commands.append(self.spawn(step.argv, out / f"spans-{i}.json" if traced else None))
        wall = time.monotonic() - start
        failures = []
        for step, cmd in zip(steps, commands):
            if cmd.exit_code != 0:
                tail = cmd.stderr.strip().splitlines()[-3:]
                failures.append(f"{step.argv[0]}: exit {cmd.exit_code}: {' | '.join(tail)}")
                continue
            try:
                step.check(self.oracle)
            except (checks.CheckError, OSError, KeyError, TypeError, ValueError) as exc:
                failures.append(f"{step.argv[0]}: {type(exc).__name__}: {exc}")
        return Sequence(commands, wall, failures)

    def layer_metrics(self, traced: Sequence) -> tuple[dict[str, float], float]:
        """Per-layer metrics of a traced sequence, and its wall time without
        the extra single-worker reruns."""
        per_command, import_s, single_worker_s = [], 0.0, 0.0
        for i, cmd in enumerate(traced.commands):
            with open(self.work / "out" / f"spans-{i}.json", encoding="utf-8") as fh:
                record = json.load(fh)
            per_command.append(spans.command_metrics(record))
            single_worker_s += sum(record["single_worker_s"])
            import_s += spans.import_seconds(cmd.stderr, "sizebias.scaling")
        metrics = spans.combine(per_command)
        metrics["scaling.import_s"] = import_s
        return metrics, traced.wall_s - single_worker_s


def git_revision() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(threads: int, inp_digest: str, rows: int) -> dict:
    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "SIZEBIAS_THREADS": threads,
        "input_sha256": inp_digest,
        "input_rows": rows,
    }


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**63:
        raise argparse.ArgumentTypeError(f"seed must be in [0, 2**63), got {value}")
    return value


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    run_start = time.monotonic()
    if not (SRC / "sizebias" / "cli.py").is_file():
        print(f"error: no sizebias source tree at {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        data = gen.generate(work / "publications.csv", args.seed, workload.units, workload.size_model)
        oracle = checks.Oracle(data.unit_ids, data.sizes, data.citations)
        threads = len(os.sched_getaffinity(0)) if args.trace else TIMED_THREADS
        env = {**os.environ, "SIZEBIAS_THREADS": str(threads)}
        runner = Runner(workload, data, oracle, args.seed, work, env, run_start + KILL_AFTER_S)
        # Untimed warm-up: byte-compiles the package and loads the
        # interpreter's and libraries' files into the page cache.
        runner.spawn(["--version"])

        sequences: list[Sequence] = []
        if args.trace:
            sequences.append(runner.sequence())
            sequences.append(runner.sequence(traced=True))
            metrics, traced_wall = runner.layer_metrics(sequences[-1])
            metrics["trace.overhead_s"] = traced_wall - sequences[0].wall_s
        else:
            measured = 0.0
            while len(sequences) < MIN_REPETITIONS or measured + sequences[-1].wall_s / 2 < args.seconds:
                sequences.append(runner.sequence())
                measured += sequences[-1].wall_s
                if time.monotonic() - run_start + sequences[-1].wall_s > RUN_DEADLINE_S:
                    break
            reps = [s.totals() for s in sequences]
            metrics = {name: statistics.median(r[name] for r in reps) for name in reps[0]}

        failures = [f for s in sequences for f in s.failures]
        attempted = sum(len(s.commands) for s in sequences)
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "environment": environment(threads, data.sha256, int(data.sizes.sum())),
            "repetitions": [s.totals() for s in sequences],
            "failures": failures,
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2))
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"environment": record["environment"], "repetitions": len(sequences)}))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {name: {"value": float(v), "unit": _unit(name)} for name, v in metrics.items()},
            }
        )
    )
    return 0


def _unit(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_s", ".s", "s_1worker")):
        return "s"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
