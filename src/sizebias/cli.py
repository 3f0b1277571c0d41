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
import json
import os
import sys
from importlib import resources
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import __version__, io
from .combinatorics import PoolSpec, count_distribution
from .model import group_h_indices
from .nullmodel import (
    ReshuffleConfig,
    mean_spearman_vs_real,
    resolve_workers,
    run_null_model,
)
from .scaling import (
    RANKING_KEYS,
    competition_ranks,
    exact_benchmark,
    fit_power_law,
    normalized_scores,
    slope_significance,
)
from .synth import CitationModel, SizeModel, build_synthetic_dataset, generation_stream, sample_sizes

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INGEST = 3
EXIT_COMPUTE = 4
EXIT_IO = 5

DEFAULT_REPLICATES = 200
DEFAULT_ALPHA_LEVEL = 0.01
DEFAULT_POOL_SIZE = 4000
DEFAULT_BLACK = 2120
DEFAULT_BASKET_SIZES = tuple(range(10, 101, 10))

BUNDLED_PREFIX = "bundled:"


class UsageError(Exception):
    """Bad flag combination or parameter value; exits with code 2."""


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
_seed = _checked(int, "an integer", lambda v: 0 <= v < 2**64, "seed must fit in an unsigned 64-bit integer")
_alpha_level = _checked(
    float, "a number", lambda v: 0.0 < v < 1.0, "significance level must be in (0, 1), got {value}"
)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated integer list")
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def _workers() -> int:
    raw = os.environ.get("SIZEBIAS_THREADS")
    if raw is None:
        return resolve_workers(None)
    try:
        cap = int(raw)
    except ValueError:
        raise UsageError(f"SIZEBIAS_THREADS must be an integer, got {raw!r}")
    if cap < 1:
        raise UsageError(f"SIZEBIAS_THREADS must be >= 1, got {cap}")
    return cap


def _ensure_out_dir(path_text: str) -> Path:
    out = Path(path_text)
    if out.exists() and not out.is_dir():
        raise UsageError(f"--out-dir {out} exists and is not a directory")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_summary_spec(spec: str) -> tuple[list[io.SummaryRow], str, str]:
    """Read a summary from a path or `bundled:NAME`; returns (rows, display, sha256)."""
    if spec.startswith(BUNDLED_PREFIX):
        name = spec[len(BUNDLED_PREFIX):]
        try:
            trav = io.bundled_summary_path(name)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        with resources.as_file(trav) as path:
            return io.read_summary(path), spec, io.file_sha256(path)
    rows = io.read_summary(spec)
    return rows, spec, io.file_sha256(spec)


def _print_table(header: tuple[str, ...], rows: list[tuple]) -> None:
    cells = [[str(v) for v in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h) for i, h in enumerate(header)]
    print("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip())
    for row in cells:
        print("  ".join(v.rjust(widths[i]) if v.lstrip("-").isdigit() else v.ljust(widths[i]) for i, v in enumerate(row)).rstrip())


def _fit_report(fit, alpha_level: float) -> dict:
    """The curve keys plus the t-test of the slope, for `fit`, whose points
    are samples; the exact benchmark curve carries no test."""
    payload = io.fit_payload(fit)
    payload["beta_stderr"] = fit.beta_stderr
    payload["p_value"] = fit.p_value
    payload["alpha_level"] = alpha_level
    payload["significant"] = slope_significance(fit, alpha_level)
    return payload


def cmd_hindex(args: argparse.Namespace) -> int:
    dataset = io.read_publications(args.input)
    h = group_h_indices(dataset).tolist()
    rows = [(unit.id, unit.productivity, unit_h) for unit, unit_h in zip(dataset.units, h)]
    if args.out_dir:
        out = _ensure_out_dir(args.out_dir)
        io.write_hindex_csv(rows, out / "hindex.csv")
        io.write_manifest(
            io.build_manifest("hindex", args.argv, input_path=args.input),
            out / "manifest.json",
        )
    if args.format == "csv":
        print(",".join(io.HINDEX_HEADER))
        for row in rows:
            print(",".join(str(v) for v in row))
    else:
        _print_table(io.HINDEX_HEADER, rows)
    return EXIT_OK


def cmd_null_model(args: argparse.Namespace) -> int:
    dataset = io.read_publications(args.input)
    config = ReshuffleConfig(master_seed=args.seed, replicates=args.replicates)
    result = run_null_model(dataset, config, workers=_workers())
    try:
        rho = mean_spearman_vs_real(result)
    except ValueError:
        rho = None
    out = _ensure_out_dir(args.out_dir)
    io.write_samples_csv(result, out / "reshuffle_samples.csv")
    io.write_json(io.reshuffle_summary_payload(result, rho), out / "reshuffle_summary.json")
    io.write_manifest(
        io.build_manifest(
            "null-model", args.argv, input_path=args.input, seed=args.seed, replicates=args.replicates
        ),
        out / "manifest.json",
    )
    if rho is None:
        print(f"mean Spearman vs real ranking over {result.replicates} replicates: undefined (constant ranking)")
    else:
        print(f"mean Spearman vs real ranking over {result.replicates} replicates: {rho:.4f}")
    print(f"wrote reshuffle_samples.csv and reshuffle_summary.json to {out}")
    return EXIT_OK


def cmd_fit(args: argparse.Namespace) -> int:
    if args.source == "summary":
        rows, display, digest = _load_summary_spec(args.input)
        kept = [r for r in rows if r.h_index > 0]
        sizes, h = [r.n_publications for r in kept], [r.h_index for r in kept]
        n_excluded = len(rows) - len(kept)
    else:
        sizes, h, n_excluded, samples = io.read_samples(args.input)
        display, digest = str(samples), io.file_sha256(samples)
    fit = fit_power_law(sizes, h)
    payload = _fit_report(fit, args.alpha_level)
    payload["source"] = f"{args.source}:{display}"
    payload["n_excluded_zero_h"] = n_excluded
    if args.out_dir:
        out = _ensure_out_dir(args.out_dir)
        io.write_json(payload, out / "fit_report.json")
        io.write_manifest(
            io.build_manifest("fit", args.argv, input_path=display, input_sha256=digest),
            out / "manifest.json",
        )
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(f"beta            {fit.beta:.6f}")
        print(f"beta_stderr     {fit.beta_stderr:.6f}")
        print(f"p_value         {fit.p_value:.3e}")
        print(f"r_squared       {fit.r_squared:.6f}")
        print(f"n_points        {fit.n_points}")
        print(f"log10_prefactor {fit.log10_prefactor:.6f}")
        print(f"significant at alpha={args.alpha_level:g}: {'yes' if payload['significant'] else 'no'}")
        if n_excluded:
            print(f"excluded {n_excluded} h=0 points")
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
    io.write_manifest(io.build_manifest("benchmark", args.argv, input_path=args.input), out / "manifest.json")
    print(f"benchmark from the exact null model: beta={benchmark.fit.beta:.4f}, ranking key {args.rank_key}")
    print(f"wrote benchmark.csv and benchmark_fit.json to {out}")
    return EXIT_OK


def cmd_toy_balls(args: argparse.Namespace) -> int:
    if args.black > args.pool_size:
        raise UsageError(f"black count {args.black} exceeds pool size {args.pool_size}")
    try:
        pool = PoolSpec(black=args.black, white=args.pool_size - args.black)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    for k in args.basket_sizes:
        if k < 1:
            raise UsageError(f"basket size must be >= 1, got {k}")
        if k > pool.total:
            raise UsageError(f"basket size {k} exceeds pool size {pool.total}")
    out = _ensure_out_dir(args.out_dir)
    for k in args.basket_sizes:
        rows = [(k1, k1 / k, prob) for k1, prob in count_distribution(pool, k)]
        io.write_distribution_csv(rows, out / f"toy_balls_k{k:03d}.csv")
    io.write_manifest(io.build_manifest("toy-balls", args.argv), out / "manifest.json")
    print(
        f"wrote {len(args.basket_sizes)} distribution tables "
        f"(pool {pool.total}, black {pool.black}) to {out}"
    )
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    try:
        citation_model = CitationModel(alpha=args.alpha, x_min=args.x_min)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.sizes and args.sizes_from_summary:
        raise UsageError("pass either --sizes or --sizes-from-summary, not both")

    ids = names = None
    input_display = digest = None
    if args.sizes_from_summary:
        rows, input_display, digest = _load_summary_spec(args.sizes_from_summary)
        if args.units is not None and args.units != len(rows):
            raise UsageError(f"--units {args.units} conflicts with {len(rows)} summary rows")
        size_model = SizeModel.explicit([r.n_publications for r in rows])
        units = len(rows)
        ids = [r.unit_id for r in rows]
        names = [r.unit_name for r in rows]
    elif args.sizes:
        if args.units is not None and args.units != len(args.sizes):
            raise UsageError(f"--units {args.units} conflicts with {len(args.sizes)} explicit sizes")
        try:
            size_model = SizeModel.explicit(args.sizes)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        units = len(args.sizes)
    else:
        units = 40 if args.units is None else args.units
        try:
            if args.size_model == "powerlaw":
                size_model = SizeModel.power_law(args.size_exponent, args.min_size, args.max_size)
            else:
                size_model = SizeModel.uniform_floor(args.min_size, args.max_size)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc

    rng = generation_stream(args.seed)
    sizes = sample_sizes(size_model, units, rng)
    dataset = build_synthetic_dataset(sizes, citation_model, rng, ids=ids, names=names)
    out = _ensure_out_dir(args.out_dir)
    path = out / "publications.csv"
    io.write_publications(dataset, path)
    io.write_manifest(
        io.build_manifest("synth", args.argv, input_path=input_display, input_sha256=digest, seed=args.seed),
        out / "manifest.json",
    )
    print(f"wrote {dataset.pool_size} publications across {len(dataset.units)} units to {path}")
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
    p.add_argument("--alpha-level", type=_alpha_level, default=DEFAULT_ALPHA_LEVEL)
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
        type=_int_list,
        default=DEFAULT_BASKET_SIZES,
        help="comma-separated draw sizes (default 10,20,...,100)",
    )
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_toy_balls)

    p = sub.add_parser("synth", help="synthetic publications file from a Paretian citation model")
    p.add_argument("--alpha", type=float, required=True, help="citation tail exponent (> 0)")
    p.add_argument("--x-min", type=float, default=1.0)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--units", type=_positive_int, default=None, help="unit count (default 40)")
    p.add_argument("--size-model", choices=("powerlaw", "uniform_floor"), default="powerlaw")
    p.add_argument("--size-exponent", type=float, default=2.0)
    p.add_argument("--min-size", type=_positive_int, default=100)
    p.add_argument("--max-size", type=_positive_int, default=10000)
    p.add_argument("--sizes", type=_int_list, default=None, help="explicit comma-separated unit sizes")
    p.add_argument(
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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except io.WrongFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except io.IngestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INGEST
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
