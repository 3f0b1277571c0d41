"""Command line interface.

Subcommands:
  hindex      per-unit group h-index from a publications CSV
  null-model  citation-reshuffling replicates; samples and summary reports
  fit         power-law fit of h against N from a summary file or a null-model run
  benchmark   exact null-model benchmark with normalized scores and rankings
  toy-balls   exact two-color urn distribution tables
  synth       synthetic publications file from a Paretian citation model

Exit codes: 0 success, 2 usage error, 3 ingestion error, 4 computation error,
5 I/O error (cannot read an input or write an output).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Any, Callable

# Before numpy loads: an idle BLAS pool spins, and SIZEBIAS_THREADS is the CLI's only parallelism.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np

from . import __version__, io
from .model import group_h_indices
from .nullmodel import null_marginals, resolve_workers, run_null_model
from .scaling import (
    RANKING_KEYS,
    competition_ranks,
    exact_benchmark,
    fit_power_law,
    normalized_scores,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INGEST = 3
EXIT_COMPUTE = 4
EXIT_IO = 5

DEFAULT_REPLICATES = 200
DEFAULT_POOL_SIZE = 4000
DEFAULT_BLACK = 2120
DEFAULT_BASKET_SIZES = tuple(range(10, 101, 10))
DEFAULT_UNITS = 40
DEFAULT_SIZE_EXPONENT = 2.0
DEFAULT_MIN_SIZE = 100
DEFAULT_MAX_SIZE = 10000

BUNDLED_PREFIX = "bundled:"


class UsageError(Exception):
    """Bad flag combination or parameter value; exits with code 2."""


# A failure exits with the code of the first row it matches, so a row precedes that of any base class:
# WrongFormatError's that of IngestError, and UnicodeEncodeError's (stdout refused a character) ValueError's.
_EXIT_CODES = (
    ((UsageError, io.WrongFormatError), EXIT_USAGE),
    ((io.IngestError,), EXIT_INGEST),
    ((OSError, UnicodeEncodeError), EXIT_IO),
    ((MemoryError, ValueError, ArithmeticError), EXIT_COMPUTE),
)


def _checked(
    convert: Callable[[str], Any], kind: str, ok: Callable[[Any], bool], message: str
) -> Callable[[str], Any]:
    """An argparse type: `convert` the text, then require `ok(value)`.

    `kind` names what the text failed to parse as; `message`, formatted
    with the value, says why a parsed value was refused.
    """

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not {kind}")
        if not ok(value):
            raise argparse.ArgumentTypeError(message.format(value=value))
        return value

    return parse


_positive_int = _checked(int, "an integer", lambda v: v >= 1, "must be >= 1, got {value}")
_nonneg_int = _checked(int, "an integer", lambda v: v >= 0, "must be >= 0, got {value}")
_positive_float = _checked(float, "a number", lambda v: v > 0, "must be > 0, got {value}")
_seed = _checked(int, "an integer", lambda v: 0 <= v < 2**64, "seed must fit in an unsigned 64-bit integer")


def _size_list(text: str) -> tuple[int, ...]:
    """An argparse type: comma-separated sizes, each >= 1."""
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated integer list")
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    if min(values) < 1:
        raise argparse.ArgumentTypeError(f"every size must be >= 1, got {min(values)}")
    return values


def _workers() -> int:
    raw = os.environ.get("SIZEBIAS_THREADS")
    try:
        return resolve_workers(None if raw is None else int(raw))
    except ValueError:
        raise UsageError(f"SIZEBIAS_THREADS must be an integer >= 1, got {raw!r}")


def _ensure_out_dir(path_text: str) -> Path:
    out = Path(path_text)
    if out.exists() and not out.is_dir():
        raise UsageError(f"--out-dir {out} exists and is not a directory")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_summary_spec(spec: str) -> tuple[list[io.SummaryRow], str]:
    """Read a summary from a path or `bundled:NAME`; returns (rows, sha256)."""
    path = spec
    if spec.startswith(BUNDLED_PREFIX):
        try:
            path = io.bundled_summary_path(spec[len(BUNDLED_PREFIX):])
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    return io.read_summary(path), io.file_sha256(path)


def _write_manifest(out: Path, args: argparse.Namespace, **fields: Any) -> None:
    """The run's manifest.json in `out`, after its reports, named by the subcommand the parser chose."""
    io.write_json(io.build_manifest(args.command, args.argv, **fields), out / "manifest.json")


def _write_stdout(text: str) -> None:
    """Print a report, encoded whole first so that an unencodable character prints none of it, then
    a line at a time: on unbuffered output (python -u) a large write cut short by a closed pipe
    drops the rest without an error."""
    text.encode(sys.stdout.encoding or "utf-8", sys.stdout.errors or "strict")
    for line in text.splitlines(keepends=True):
        sys.stdout.write(line)


def _table_text(header: tuple[str, ...], rows: list[tuple]) -> str:
    """The first column (ids) left-justified and the others (counts) right-justified, header included,
    whatever the cells hold."""
    cells = [list(header), *([str(v) for v in row] for row in rows)]
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    return "".join(
        "  ".join([first.ljust(widths[0]), *map(str.rjust, rest, widths[1:])]).rstrip() + "\n" for first, *rest in cells
    )


def cmd_hindex(args: argparse.Namespace) -> int:
    dataset = io.read_publications(args.input)
    h = group_h_indices(dataset).tolist()
    rows = list(zip(dataset.unit_ids, dataset.sizes.tolist(), h))
    if args.out_dir:
        out = _ensure_out_dir(args.out_dir)
        io.write_hindex_csv(rows, out / "hindex.csv")
        _write_manifest(out, args, input_path=args.input)
    text = io.csv_text(io.HINDEX_HEADER, rows) if args.format == "csv" else _table_text(io.HINDEX_HEADER, rows)
    _write_stdout(text)
    return EXIT_OK


def cmd_null_model(args: argparse.Namespace) -> int:
    dataset = io.read_publications(args.input)
    result = run_null_model(dataset, args.seed, args.replicates, workers=_workers())
    rho, rho_se = result.mean_spearman_vs_real, result.mean_spearman_se  # a failure here leaves no run directory
    out = _ensure_out_dir(args.out_dir)
    io.write_samples_csv(result, out / "reshuffle_samples.csv")
    io.write_reshuffle_summary(result, null_marginals(dataset), out / "reshuffle_summary.json")
    _write_manifest(out, args, input_path=args.input, seed=args.seed, replicates=args.replicates)
    se = "" if rho_se is None else f", standard error {rho_se:.4f}"
    shown = "undefined (constant ranking)" if rho is None else f"{rho:.4f}{se}"
    _write_stdout(
        f"mean Spearman vs real ranking over {result.replicates} replicate{'s' * (result.replicates != 1)}: {shown}\n"
        f"wrote reshuffle_samples.csv and reshuffle_summary.json to {out}\n"
    )
    return EXIT_OK


def cmd_fit(args: argparse.Namespace) -> int:
    if args.source == "summary":
        display = args.input
        rows, digest = _load_summary_spec(display)
        kept = [r for r in rows if r.h_index > 0]
        sizes, h = [r.n_publications for r in kept], [r.h_index for r in kept]
        n_excluded = len(rows) - len(kept)
    else:
        sizes, h, n_excluded, samples = io.read_samples(args.input)
        display, digest = str(samples), io.file_sha256(samples)
    fit = fit_power_law(sizes, h)
    # the curve keys plus the t-test of the slope, whose points are samples;
    # the exact benchmark curve carries no test
    payload = {
        **io.fit_payload(fit),
        "beta_stderr": fit.beta_stderr,
        "p_value": fit.p_value,
        "source": f"{args.source}:{display}",
        "n_excluded_zero_h": n_excluded,
    }
    if args.out_dir:
        out = _ensure_out_dir(args.out_dir)
        io.write_json(payload, out / "fit_report.json")
        _write_manifest(out, args, input_path=display, input_sha256=digest)
    if args.format == "json":
        _write_stdout(io.json_text(payload))
    else:
        excluded = f"excluded {n_excluded} h=0 points\n" if n_excluded else ""
        _write_stdout(
            f"beta            {fit.beta:.6f}\n"
            f"beta_stderr     {fit.beta_stderr:.6f}\n"
            f"p_value         {fit.p_value:.3e}\n"
            f"r_squared       {fit.r_squared:.6f}\n"
            f"n_points        {fit.n_points}\n"
            f"log10_prefactor {fit.log10_prefactor:.6f}\n{excluded}"
        )
    return EXIT_OK


def cmd_benchmark(args: argparse.Namespace) -> int:
    if args.seed is not None or args.replicates is not None:
        note = "note: the benchmark null is exact; --seed and --replicates have no effect and will be removed"
        print(note, file=sys.stderr)
    dataset = io.read_publications(args.input)
    benchmark = exact_benchmark(dataset)
    real_h = group_h_indices(dataset)
    scores = normalized_scores(real_h, benchmark)
    z, key = scores["z"], scores[args.rank_key]
    # an undefined z is an empty cell and ranks below every defined value
    rows = list(zip(
        benchmark.unit_ids, benchmark.productivities.tolist(), real_h.tolist(),
        benchmark.null_mean_h.tolist(), benchmark.null_sd_h.tolist(), scores["h_hat"].tolist(),
        scores["ratio"].tolist(), np.where(np.isnan(z), None, z).tolist(), scores["log_residual"].tolist(),
        competition_ranks(real_h), competition_ranks(np.where(np.isnan(key), -np.inf, key)),
    ))
    out = _ensure_out_dir(args.out_dir)
    io.write_benchmark_csv(rows, out / "benchmark.csv")
    io.write_json(io.fit_payload(benchmark.fit), out / "benchmark_fit.json")
    _write_manifest(out, args, input_path=args.input)
    _write_stdout(
        f"benchmark from the exact null model: beta={benchmark.fit.beta:.4f}, ranking key {args.rank_key}\n"
        f"wrote benchmark.csv and benchmark_fit.json to {out}\n"
    )
    return EXIT_OK


def cmd_toy_balls(args: argparse.Namespace) -> int:
    from .combinatorics import PoolSpec, count_distribution

    if args.black > args.pool_size:
        raise UsageError(f"black count {args.black} exceeds pool size {args.pool_size}")
    if max(args.basket_sizes) > args.pool_size:
        raise UsageError(f"basket size {max(args.basket_sizes)} exceeds pool size {args.pool_size}")
    if len(set(args.basket_sizes)) < len(args.basket_sizes):
        raise UsageError(f"--basket-sizes repeats a size: {','.join(map(str, args.basket_sizes))}")
    pool = PoolSpec(black=args.black, white=args.pool_size - args.black)
    out = _ensure_out_dir(args.out_dir)
    for k in args.basket_sizes:
        rows = [(k1, k1 / k, prob) for k1, prob in count_distribution(pool, k)]
        io.write_distribution_csv(rows, out / f"toy_balls_k{k:03d}.csv")
    _write_manifest(out, args)
    print(
        f"wrote {len(args.basket_sizes)} distribution tables "
        f"(pool {pool.total}, black {pool.black}) to {out}"
    )
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    from .synth import SizeModel, build_synthetic_dataset, generation_stream, sample_sizes

    rng = generation_stream(args.seed)
    sizes, ids, names, input_display, digest = args.sizes, None, None, args.sizes_from_summary, None
    # argparse lets at most one of --units, --sizes and --sizes-from-summary through; the size-law
    # options default to None, as --units does, so that one given beside a size list is refused
    if args.sizes is not None or args.sizes_from_summary is not None:
        law = ("size_model", "size_exponent", "min_size", "max_size")
        given = ["--" + name.replace("_", "-") for name in law if getattr(args, name) is not None]
        if given:
            raise UsageError(f"{', '.join(given)} cannot be combined with --sizes or --sizes-from-summary")
        if args.sizes_from_summary is not None:
            rows, digest = _load_summary_spec(args.sizes_from_summary)
            sizes = [r.n_publications for r in rows]
            ids, names = [r.unit_id for r in rows], [r.unit_name for r in rows]
    elif args.size_model == "uniform_floor" and args.size_exponent is not None:
        raise UsageError("--size-exponent does not apply to --size-model uniform_floor")
    else:
        # a given count, size or exponent is positive, so `or` falls back only when it was left out
        exponent = None if args.size_model == "uniform_floor" else args.size_exponent or DEFAULT_SIZE_EXPONENT
        try:
            size_model = SizeModel(args.min_size or DEFAULT_MIN_SIZE, args.max_size or DEFAULT_MAX_SIZE, exponent)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        sizes = sample_sizes(size_model, args.units or DEFAULT_UNITS, rng)
    dataset = build_synthetic_dataset(sizes, args.alpha, rng, ids=ids, names=names)
    out = _ensure_out_dir(args.out_dir)
    path = out / "publications.csv"
    io.write_publications(dataset, path)
    _write_manifest(out, args, input_path=input_display, input_sha256=digest, seed=args.seed)
    print(f"wrote {dataset.pool_size} publications across {len(dataset.unit_ids)} units to {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sizebias",
        description="Quantify and correct the size bias of the group h-index.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hindex", help="per-unit group h-index from a publications CSV")
    p.add_argument("input", help="publications CSV")
    p.add_argument("--format", choices=("table", "csv"), default="table")
    p.add_argument("--out-dir", help="also write hindex.csv and manifest.json here")
    p.set_defaults(func=cmd_hindex)

    p = sub.add_parser("null-model", help="citation-reshuffling null model")
    p.add_argument("input", help="publications CSV")
    p.add_argument("--replicates", type=_positive_int, default=DEFAULT_REPLICATES)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_null_model)

    p = sub.add_parser("fit", help="power-law fit of h against N")
    p.add_argument("input", help="summary CSV, bundled:NAME, or a null-model output directory")
    p.add_argument("--source", choices=("summary", "null-model"), default="summary")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--out-dir", help="also write fit_report.json and manifest.json here")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("benchmark", help="normalized scores and rankings against the exact null model")
    p.add_argument("input", help="publications CSV")
    p.add_argument("--replicates", type=_positive_int, help="deprecated; has no effect")
    p.add_argument("--seed", type=_seed, help="deprecated; has no effect")
    p.add_argument("--rank-key", choices=RANKING_KEYS, default="ratio")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("toy-balls", help="exact two-color urn distribution tables")
    p.add_argument("--pool-size", type=_positive_int, default=DEFAULT_POOL_SIZE)
    p.add_argument("--black", type=_nonneg_int, default=DEFAULT_BLACK)
    p.add_argument(
        "--basket-sizes",
        type=_size_list,
        default=DEFAULT_BASKET_SIZES,
        help="comma-separated draw sizes (default 10,20,...,100)",
    )
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_toy_balls)

    p = sub.add_parser("synth", help="synthetic publications file from a Paretian citation model")
    p.add_argument("--alpha", type=_positive_float, required=True, help="citation tail exponent (> 0)")
    p.add_argument("--seed", type=_seed, required=True)
    # each default is None, so that cmd_synth can tell a given option from one left out
    p.add_argument("--size-model", choices=("powerlaw", "uniform_floor"), help="size law (default powerlaw)")
    p.add_argument("--size-exponent", type=_positive_float, help=f"powerlaw exponent (default {DEFAULT_SIZE_EXPONENT})")
    p.add_argument("--min-size", type=_positive_int, help=f"smallest unit size (default {DEFAULT_MIN_SIZE})")
    p.add_argument("--max-size", type=_positive_int, help=f"largest unit size (default {DEFAULT_MAX_SIZE})")
    # a default of None: argparse counts an option as given when its value is not the default
    sizes = p.add_mutually_exclusive_group()
    sizes.add_argument("--units", type=_positive_int, default=None, help=f"unit count (default {DEFAULT_UNITS})")
    sizes.add_argument("--sizes", type=_size_list, default=None, help="explicit comma-separated unit sizes")
    sizes.add_argument(
        "--sizes-from-summary",
        default=None,
        help="summary CSV path or bundled:NAME; unit ids and names are mirrored",
    )
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if isinstance(exc.code, int):
            return exc.code
        return EXIT_OK if exc.code is None else EXIT_USAGE
    args.argv = argv
    try:
        return args.func(args)
    except tuple(kind for kinds, _ in _EXIT_CODES for kind in kinds) as exc:
        if isinstance(exc, BrokenPipeError):  # the reader is gone: what stdout holds, flushed at exit, goes nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
