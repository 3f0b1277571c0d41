"""File formats: ingestion, report writers, run manifests.

All CSV files are UTF-8 with `\\n` line endings and a fixed header; a
leading byte-order mark is accepted on input.  All JSON is written with
sorted keys so repeated runs produce identical bytes (manifests carry the
only timestamp).  Every report is written to a temporary file beside its
target and renamed over it, so a failed write never leaves a partial file.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from . import __version__
from .model import MAX_CITATIONS, Dataset, Unit
from .nullmodel import ReshuffleResult
from .scaling import PowerLawFit

PUBLICATIONS_HEADER = ("unit_id", "unit_name", "citations")
SUMMARY_HEADER = ("unit_id", "unit_name", "n_publications", "h_index")
SAMPLES_HEADER = ("replicate", "unit_id", "h")
HINDEX_HEADER = ("unit_id", "N", "h")
BENCHMARK_HEADER = (
    "unit_id",
    "N",
    "real_h",
    "null_mean_h",
    "null_sd_h",
    "h_hat",
    "ratio",
    "z",
    "log_residual",
    "raw_rank",
    "normalized_rank",
)
DISTRIBUTION_HEADER = ("k1", "share", "probability")

BUNDLED_SUMMARIES = ("ukraine_2019", "uk_rae2008_physics")

_MAX_REPORTED_PROBLEMS = 20


class IngestError(Exception):
    """Input file cannot be used; `problems` lists what is wrong."""

    def __init__(self, path: str | Path, problems: Sequence[str]):
        self.path = str(path)
        self.problems = list(problems)
        shown = self.problems[:_MAX_REPORTED_PROBLEMS]
        if len(self.problems) > len(shown):
            shown.append(f"... and {len(self.problems) - len(shown)} more")
        super().__init__(f"{self.path}: " + "; ".join(shown))


class WrongFormatError(IngestError):
    """The file is valid but in the other recognized format."""


@dataclass(frozen=True)
class SummaryRow:
    """One unit of a per-unit summary: size and group h-index only."""

    unit_id: str
    unit_name: str
    n_publications: int
    h_index: int


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record written next to every report."""

    command: str
    argv: tuple[str, ...]
    input_path: str | None
    input_sha256: str | None
    seed: int | None
    replicates: int | None
    tool_version: str
    created_utc: str


def _csv_rows(
    path: str | Path, expected: tuple[str, ...], other: tuple[str, ...] | None = None
) -> Iterator[tuple[int, list[str]]]:
    """Stream the data rows of a CSV file after checking its header.

    Yields (line number, fields) for every non-blank row, numbered by
    physical line in the file.  A header equal to `other`, the header of
    another recognized format, raises WrongFormatError.
    """
    p = Path(path)
    if not p.is_file():
        raise IngestError(path, ["file not found"])
    try:
        with open(p, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            first = next((row for row in reader if row), None)
            if first is None:
                raise IngestError(path, ["empty file"])
            header = tuple(cell.strip() for cell in first)
            if header == other:
                raise WrongFormatError(
                    path,
                    [f"header {','.join(other)} belongs to the other input format; expected {','.join(expected)}"],
                )
            if header != expected:
                raise IngestError(path, [f"bad header {first!r}; expected {','.join(expected)}"])
            for row in reader:
                if row:
                    yield reader.line_num, row
    except UnicodeDecodeError as exc:
        raise IngestError(path, [f"not valid UTF-8: {exc}"]) from exc


def _parse_count(text: str, lineno: int, field: str, problems: list[str], cap: int = MAX_CITATIONS) -> int | None:
    try:
        value = int(text.strip())
    except ValueError:
        problems.append(f"line {lineno}: {field} {text!r} is not an integer")
        return None
    if value < 0:
        problems.append(f"line {lineno}: {field} {value} is negative")
        return None
    if value > cap:
        problems.append(f"line {lineno}: {field} {value} exceeds the supported maximum {cap}")
        return None
    return value


def read_publications(path: str | Path) -> Dataset:
    """Read a publication-level CSV into a Dataset.

    Rows with the same unit_id are collected into one unit, keeping the
    first occurrence order of ids.  All offending lines are reported at
    once.
    """
    problems: list[str] = []
    names: dict[str, str] = {}
    citations: dict[str, list[int]] = {}
    for lineno, row in _csv_rows(path, PUBLICATIONS_HEADER, SUMMARY_HEADER):
        if len(row) != 3:
            problems.append(f"line {lineno}: expected 3 fields, got {len(row)}")
            continue
        unit_id, unit_name, text = row[0].strip(), row[1], row[2]
        if not unit_id:
            problems.append(f"line {lineno}: empty unit_id")
            continue
        value = _parse_count(text, lineno, "citations", problems)
        if value is None:
            continue
        if unit_id in names:
            if names[unit_id] != unit_name:
                problems.append(
                    f"line {lineno}: unit {unit_id!r} renamed from {names[unit_id]!r} to {unit_name!r}"
                )
                continue
        else:
            names[unit_id] = unit_name
            citations[unit_id] = []
        citations[unit_id].append(value)
    if problems:
        raise IngestError(path, problems)
    if not citations:
        raise IngestError(path, ["no data rows"])
    # every count passed _parse_count, so one exact uint64 array per unit
    # skips Unit's per-value check of Python lists
    units = tuple(
        Unit(id=uid, name=names[uid], citations=np.array(counts, dtype=np.uint64))
        for uid, counts in citations.items()
    )
    return Dataset(name=Path(path).stem, units=units)


def read_summary(path: str | Path) -> list[SummaryRow]:
    """Read a per-unit summary CSV (sizes and h-indices, no publications)."""
    problems: list[str] = []
    out: list[SummaryRow] = []
    seen: set[str] = set()
    for lineno, row in _csv_rows(path, SUMMARY_HEADER, PUBLICATIONS_HEADER):
        if len(row) != 4:
            problems.append(f"line {lineno}: expected 4 fields, got {len(row)}")
            continue
        unit_id = row[0].strip()
        if not unit_id:
            problems.append(f"line {lineno}: empty unit_id")
            continue
        if unit_id in seen:
            problems.append(f"line {lineno}: duplicate unit_id {unit_id!r}")
            continue
        n = _parse_count(row[2], lineno, "n_publications", problems)
        h = _parse_count(row[3], lineno, "h_index", problems)
        if n is None or h is None:
            continue
        if n < 1:
            problems.append(f"line {lineno}: n_publications must be >= 1")
            continue
        if h > n:
            problems.append(f"line {lineno}: h_index {h} exceeds n_publications {n}")
            continue
        seen.add(unit_id)
        out.append(SummaryRow(unit_id=unit_id, unit_name=row[1], n_publications=n, h_index=h))
    if problems:
        raise IngestError(path, problems)
    if not out:
        raise IngestError(path, ["no data rows"])
    return out


def read_samples(path: str | Path) -> tuple[np.ndarray, np.ndarray, int, Path]:
    """Pooled (N, h) points of a null-model run, from its directory or its
    samples CSV; unit sizes come from the run's summary JSON beside it.

    Returns the sizes and the h of the h > 0 points as two float arrays,
    the count of excluded h = 0 points, and the samples CSV path.
    """
    p = Path(path)
    if p.is_dir():
        samples, summary = p / "reshuffle_samples.csv", p / "reshuffle_summary.json"
    else:
        samples, summary = p, p.parent / "reshuffle_summary.json"
    if not samples.is_file():
        raise IngestError(samples, ["file not found"])
    if not summary.is_file():
        raise IngestError(summary, ["file not found; the run's summary JSON supplies unit sizes"])
    try:
        with open(summary, encoding="utf-8") as fh:
            meta = json.load(fh)
        sizes = {u["unit_id"]: int(u["n_publications"]) for u in meta["units"]}
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise IngestError(summary, [f"malformed run summary JSON: {exc}"]) from exc

    kept_n: list[int] = []
    kept_h: list[int] = []
    n_excluded = 0
    problems: list[str] = []
    for lineno, row in _csv_rows(samples, SAMPLES_HEADER):
        if len(row) != 3:
            problems.append(f"line {lineno}: expected 3 fields, got {len(row)}")
            continue
        uid = row[1].strip()
        if uid not in sizes:
            problems.append(f"line {lineno}: unit {uid!r} missing from the run summary")
            continue
        try:
            h = int(row[2])
        except ValueError:
            problems.append(f"line {lineno}: h {row[2]!r} is not an integer")
            continue
        if h < 0:
            problems.append(f"line {lineno}: h {h} is negative")
            continue
        if h > 0:
            kept_n.append(sizes[uid])
            kept_h.append(h)
        else:
            n_excluded += 1
    if problems:
        raise IngestError(samples, problems)
    return np.array(kept_n, dtype=float), np.array(kept_h, dtype=float), n_excluded, samples


def bundled_summary_path(name: str):
    """Traversable for a bundled summary; see BUNDLED_SUMMARIES."""
    if name not in BUNDLED_SUMMARIES:
        raise ValueError(f"unknown bundled summary {name!r}; have {', '.join(BUNDLED_SUMMARIES)}")
    return resources.files("sizebias").joinpath("data", f"{name}.summary.csv")


def load_bundled_summary(name: str) -> list[SummaryRow]:
    with resources.as_file(bundled_summary_path(name)) as p:
        return read_summary(p)


@contextmanager
def _atomic_write(path: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """A text file that replaces `path` only once it is fully written; on any
    error the temporary file is removed and `path` is left as it was."""
    target = Path(path)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    fh = open(tmp, "w", newline=newline, encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_csv(path: str | Path, header: tuple[str, ...], rows: Iterable[Sequence]) -> None:
    """Rows of text and Python numbers, which the csv module writes by `str`
    (a float's shortest round-trip repr), and None, the empty cell."""
    with _atomic_write(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_publications(dataset: Dataset, path: str | Path) -> None:
    """One row per publication.  A unit with no publications would have no
    row and be lost on reading back, so such a dataset is rejected before
    the file is opened."""
    empty = [u.id for u in dataset.units if u.productivity == 0]
    if empty:
        raise ValueError(f"units with no publications cannot be written as publications: {', '.join(empty)}")

    def rows():
        for unit in dataset.units:
            for count in unit.citations.tolist():
                yield unit.id, unit.name, count

    _write_csv(path, PUBLICATIONS_HEADER, rows())


def write_summary(rows: Sequence[SummaryRow], path: str | Path) -> None:
    _write_csv(
        path,
        SUMMARY_HEADER,
        ((r.unit_id, r.unit_name, r.n_publications, r.h_index) for r in rows),
    )


def write_samples_csv(result: ReshuffleResult, path: str | Path) -> None:
    """Replicate-major long format: one row per (replicate, unit), built
    from whole columns."""
    replicate = np.repeat(np.arange(result.replicates), len(result.unit_ids)).tolist()
    unit_ids = result.unit_ids * result.replicates
    _write_csv(path, SAMPLES_HEADER, zip(replicate, unit_ids, result.h_samples.ravel().tolist()))


def write_hindex_csv(rows: Sequence[tuple[str, int, int]], path: str | Path) -> None:
    _write_csv(path, HINDEX_HEADER, rows)


def write_benchmark_csv(rows: Sequence[Sequence], path: str | Path) -> None:
    _write_csv(path, BENCHMARK_HEADER, rows)


def write_distribution_csv(rows: Sequence[tuple[int, float, float]], path: str | Path) -> None:
    _write_csv(path, DISTRIBUTION_HEADER, rows)


def write_json(payload: dict, path: str | Path) -> None:
    with _atomic_write(path) as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, ensure_ascii=False)
        fh.write("\n")


def fit_payload(fit: PowerLawFit) -> dict:
    """The fitted curve: slope, intercept, r^2 and the count of points."""
    return {
        "beta": fit.beta,
        "log10_prefactor": fit.log10_prefactor,
        "r_squared": fit.r_squared,
        "n_points": fit.n_points,
    }


def reshuffle_summary_payload(result: ReshuffleResult, mean_spearman: float | None) -> dict:
    """Per-unit null statistics plus the rank-agreement diagnostic."""
    mean, sd = result.null_mean_h, result.null_sd_h
    q025 = np.quantile(result.h_samples, 0.025, axis=0)
    q975 = np.quantile(result.h_samples, 0.975, axis=0)
    units = [
        {
            "unit_id": uid,
            "n_publications": int(result.productivities[i]),
            "real_h": int(result.real_h[i]),
            "null_mean_h": float(mean[i]),
            "null_sd_h": float(sd[i]),
            "null_q025_h": float(q025[i]),
            "null_q975_h": float(q975[i]),
        }
        for i, uid in enumerate(result.unit_ids)
    ]
    return {
        "n_replicates": result.replicates,
        "n_units": len(result.unit_ids),
        "mean_spearman_vs_real": None if mean_spearman is None else float(mean_spearman),
        "units": units,
    }


def file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def build_manifest(
    command: str,
    argv: Sequence[str],
    input_path: str | Path | None = None,
    input_sha256: str | None = None,
    seed: int | None = None,
    replicates: int | None = None,
    created_utc: str | None = None,
) -> RunManifest:
    if created_utc is None:
        from datetime import datetime, timezone

        created_utc = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    if input_sha256 is None and input_path is not None:
        input_sha256 = file_sha256(input_path)
    return RunManifest(
        command=command,
        argv=tuple(str(a) for a in argv),
        input_path=None if input_path is None else str(input_path),
        input_sha256=input_sha256,
        seed=seed,
        replicates=replicates,
        tool_version=__version__,
        created_utc=created_utc,
    )


def write_manifest(manifest: RunManifest, path: str | Path) -> None:
    payload = dataclasses.asdict(manifest)
    payload["argv"] = list(manifest.argv)
    write_json(payload, path)
