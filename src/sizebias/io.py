"""File formats: ingestion, report writers, run manifests.

A publications file is read straight into the columns of a model.Dataset;
where one unit's lines come in several runs, a stable sort gathers them.
All CSV files are UTF-8 with `\\n` line endings and a fixed header; a
leading byte-order mark is accepted on input.  All JSON is written with
sorted keys so repeated runs produce identical bytes (manifests carry the
only timestamp).  Every report is written to a temporary file beside its
target and renamed over it, so a failed write never leaves a partial file.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from . import __version__
from .model import MAX_CITATIONS, Dataset
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
    except csv.Error as exc:  # such as a field past csv's size limit
        raise IngestError(path, [f"line {reader.line_num}: {exc}"]) from exc


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


def _plain_lines(data: bytes) -> tuple[np.ndarray, list[int], list[int], list[int]] | None:
    """Counts of a header-checked plain publications file (see
    _read_plain_publications), and its runs of lines with one "id,name,"
    prefix: their first lines, then the line count, and where each run's
    prefix starts and ends (its second comma); None if a line is not plain."""
    buf = np.frombuffer(data, dtype=np.uint8)
    newlines = np.flatnonzero(buf == ord("\n"))
    commas = np.flatnonzero(buf == ord(","))[2:]  # the header holds the first two
    starts, ends, second = newlines[:-1] + 1, newlines[1:], commas[1::2]
    # with two commas per line in all, line i holds two iff it holds pair i
    if not (starts.size and commas.size == 2 * starts.size and (commas[0::2] > starts).all() and (second < ends).all()):
        return None
    width = ends - second - 1
    if not 1 <= width.min() <= width.max() <= 19:
        return None
    counts = np.zeros(starts.size, dtype=np.uint64)
    for j in range(int(width.max())):
        live = width > j
        digit = buf[np.minimum(second + (1 + j), ends)] - ord("0")  # above 9 for any other byte
        if (live & (digit > 9)).any():
            return None
        np.multiply(counts, 10, out=counts, where=live)
        np.add(counts, digit, out=counts, where=live)
    # read past its end, a prefix repeats its closing comma; past 32 bytes two
    # prefixes are compared whole, so a long name costs its lines, not a pass
    length = second - starts
    same = length[1:] == length[:-1]
    for j in range(min(int(length.max()), 32)):
        column = buf[np.minimum(starts + j, second)]
        same &= column[1:] == column[:-1]
    for i in np.flatnonzero(same & (length[1:] > 32)).tolist():
        same[i] = data[starts[i + 1] : second[i + 1]] == data[starts[i] : second[i]]
    runs = np.flatnonzero(np.concatenate(([True], ~same)))
    return counts, runs.tolist() + [starts.size], starts[runs].tolist(), second[runs].tolist()


def _read_plain_publications(path: str | Path) -> Dataset | None:
    """The Dataset of a publications file in the plain subset of the format,
    read by whole columns; None for any other file.

    Plain is: the exact header, after at most a byte-order mark, then lines
    that each end in a newline and hold exactly two commas; no quote or
    carriage return anywhere; valid UTF-8; ids that are nonempty and carry
    no surrounding whitespace, with one name each; and counts of 1 to 19
    ASCII digits, so below 2**64.  On such a file the line-by-line reader
    finds no problem and builds the same Dataset.
    """
    try:
        data = Path(path).read_bytes()
    except OSError:
        return None
    header = ",".join(PUBLICATIONS_HEADER).encode() + b"\n"
    plain = data.startswith(header, 3 if data.startswith(b"\xef\xbb\xbf") else 0) and data.endswith(b"\n")
    lines = _plain_lines(data) if plain and b'"' not in data and b"\r" not in data else None
    if lines is None:
        return None
    counts, bounds, prefix_starts, prefix_ends = lines
    units: dict[str, int] = {}  # each id's unit index, in first occurrence order
    names: list[str] = []
    run_unit = []
    for start, end in zip(prefix_starts, prefix_ends):
        try:
            unit_id, _, name = data[start:end].decode("utf-8").partition(",")
        except UnicodeDecodeError:
            return None
        unit = units.setdefault(unit_id, len(names))
        if unit == len(names):
            names.append(name)
        if not unit_id or unit_id != unit_id.strip() or names[unit] != name:
            return None
        run_unit.append(unit)
    sizes = np.diff(bounds)  # lines per run
    if len(run_unit) > len(names):  # some id has several runs: gather each unit's lines in unit order
        line_unit = np.repeat(run_unit, sizes)
        sizes, counts = np.bincount(line_unit, minlength=len(names)), counts[np.argsort(line_unit, kind="stable")]
    return Dataset(name=Path(path).stem, unit_ids=tuple(units), unit_names=tuple(names), sizes=sizes, citations=counts)


def read_publications(path: str | Path) -> Dataset:
    """Read a publication-level CSV into a Dataset.

    Rows with the same unit_id are collected into one unit, keeping the
    first occurrence order of ids.  All offending lines are reported at
    once.  A plain file (see _read_plain_publications) is read by whole
    columns, every other file line by line, to the same Dataset.
    """
    dataset = _read_plain_publications(path)
    return _read_publication_lines(path) if dataset is None else dataset


def _read_publication_lines(path: str | Path) -> Dataset:
    """read_publications one CSV row at a time; the source of every IngestError."""
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
    # every count passed _parse_count: one exact uint64 array, no per-value check
    return Dataset(
        name=Path(path).stem,
        unit_ids=tuple(citations),
        unit_names=tuple(names.values()),
        sizes=[len(counts) for counts in citations.values()],
        citations=np.array([c for counts in citations.values() for c in counts], dtype=np.uint64),
    )


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
        h = _parse_count(row[2], lineno, "h", problems)
        if h is None:
            continue
        if h > 0:
            kept_n.append(sizes[uid])
            kept_h.append(h)
        else:
            n_excluded += 1
    if problems:
        raise IngestError(samples, problems)
    return np.array(kept_n, dtype=float), np.array(kept_h, dtype=float), n_excluded, samples


def bundled_summary_path(name: str) -> Path:
    """Path of a bundled summary, installed as a plain file; see BUNDLED_SUMMARIES."""
    if name not in BUNDLED_SUMMARIES:
        raise ValueError(f"unknown bundled summary {name!r}; have {', '.join(BUNDLED_SUMMARIES)}")
    return Path(__file__).with_name("data") / f"{name}.summary.csv"


def load_bundled_summary(name: str) -> list[SummaryRow]:
    return read_summary(bundled_summary_path(name))


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


def dump_csv(fh: TextIO, header: tuple[str, ...], rows: Iterable[Sequence]) -> None:
    """Every CSV report's bytes, to an open text file: text and Python numbers
    by `str` (a float's shortest round-trip repr), and None as an empty cell."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _write_csv(path: str | Path, header: tuple[str, ...], rows: Iterable[Sequence]) -> None:
    with _atomic_write(path, newline="") as fh:
        dump_csv(fh, header, rows)


def write_publications(dataset: Dataset, path: str | Path) -> None:
    """One row per publication.  A unit with no publications would have no
    row and be lost on reading back, so such a dataset is rejected before
    the file is opened."""
    empty = [dataset.unit_ids[i] for i in np.flatnonzero(dataset.sizes == 0)]
    if empty:
        raise ValueError(f"units with no publications cannot be written as publications: {', '.join(empty)}")
    ids = np.repeat(np.array(dataset.unit_ids, dtype=object), dataset.sizes).tolist()
    names = np.repeat(np.array(dataset.unit_names, dtype=object), dataset.sizes).tolist()
    _write_csv(path, PUBLICATIONS_HEADER, zip(ids, names, dataset.citations.tolist()))


class _Echo:
    """A file whose `write` returns its text, so a csv writer's `writerow`
    returns the row it formats."""

    @staticmethod
    def write(text: str) -> str:
        return text


def write_samples_csv(result: ReshuffleResult, path: str | Path) -> None:
    """Replicate-major long format: one row per (replicate, unit), the
    bytes of csv.writer.  Each unit id is quoted by the csv module once and
    each h level formatted once; every replicate is one joined string."""
    echo = csv.writer(_Echo(), lineterminator="\n")
    # a second, empty cell: a lone empty field would be written as ""
    id_cells = [echo.writerow((uid, ""))[:-1] for uid in result.unit_ids]  # "<id>,"
    levels = [str(h) for h in range(int(result.h_samples.max(initial=0)) + 1)]
    with _atomic_write(path, newline="") as fh:
        fh.write(",".join(SAMPLES_HEADER) + "\n")
        for r, row in enumerate(result.h_samples if id_cells else ()):
            cells = map(str.__add__, id_cells, map(levels.__getitem__, row.tolist()))
            fh.write(f"{r}," + f"\n{r},".join(cells) + "\n")


def write_hindex_csv(rows: Sequence[tuple[str, int, int]], path: str | Path) -> None:
    _write_csv(path, HINDEX_HEADER, rows)


def write_benchmark_csv(rows: Sequence[Sequence], path: str | Path) -> None:
    _write_csv(path, BENCHMARK_HEADER, rows)


def write_distribution_csv(rows: Sequence[tuple[int, float, float]], path: str | Path) -> None:
    _write_csv(path, DISTRIBUTION_HEADER, rows)


def json_text(payload: dict) -> str:
    """The text of every JSON report: sorted keys, indent 2, non-ASCII kept."""
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def write_json(payload: dict, path: str | Path) -> None:
    with _atomic_write(path) as fh:
        fh.write(json_text(payload))


def fit_payload(fit: PowerLawFit) -> dict:
    """The fitted curve: slope, intercept, r^2 and the count of points."""
    return {
        "beta": fit.beta,
        "log10_prefactor": fit.log10_prefactor,
        "r_squared": fit.r_squared,
        "n_points": fit.n_points,
    }


def _null_quantiles(h_samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column's 2.5 and 97.5 percent quantiles, bit-equal to
    np.quantile(h_samples, [0.025, 0.975], axis=0): its default linear rule
    (Hyndman-Fan type 7) on one sort, without the numpy.ma import that
    np.quantile pays on first use."""
    ordered = np.sort(h_samples, axis=0)
    last = ordered.shape[0] - 1
    out = []
    for q in (0.025, 0.975):
        index = last * q  # numpy's virtual index, (R - 1) q, below R - 1
        below = int(index)
        a, b = ordered[below], ordered[min(below + 1, last)]
        t = index - below
        diff = b - a
        out.append(b - diff * (1 - t) if t >= 0.5 else a + diff * t)
    return out[0], out[1]


_UNIT_KEYS = ("unit_id", "n_publications", "real_h", "null_mean_h", "null_sd_h", "null_q025_h", "null_q975_h")


def _unit_columns(result: ReshuffleResult) -> list[list]:
    """The per-unit summary statistics as Python lists, in _UNIT_KEYS order."""
    q025, q975 = _null_quantiles(result.h_samples)
    arrays = (result.productivities, result.real_h, result.null_mean_h, result.null_sd_h, q025, q975)
    return [list(result.unit_ids), *(a.tolist() for a in arrays)]


def reshuffle_summary_payload(result: ReshuffleResult, mean_spearman: float | None) -> dict:
    """Per-unit null statistics plus the rank-agreement diagnostic."""
    return {
        "n_replicates": result.replicates,
        "n_units": len(result.unit_ids),
        "mean_spearman_vs_real": None if mean_spearman is None else float(mean_spearman),
        "units": [dict(zip(_UNIT_KEYS, values)) for values in zip(*_unit_columns(result))],
    }


# one unit of the summary as write_json lays it out: keys sorted, indent 2
_UNIT_TEMPLATE = """    {
      "n_publications": %d,
      "null_mean_h": %r,
      "null_q025_h": %r,
      "null_q975_h": %r,
      "null_sd_h": %r,
      "real_h": %d,
      "unit_id": %s
    }"""


def write_reshuffle_summary(result: ReshuffleResult, mean_spearman: float | None, path: str | Path) -> None:
    """write_json(reshuffle_summary_payload(result, mean_spearman), path),
    byte for byte, filled in from whole columns.  json prints a str through
    encode_basestring, an int through `str` and a finite float, which every
    per-unit statistic is, through float.__repr__."""
    ids, n, real_h, mean, sd, q025, q975 = _unit_columns(result)
    spearman = json.dumps(None if mean_spearman is None else float(mean_spearman))
    with _atomic_write(path) as fh:
        fh.write(
            f'{{\n  "mean_spearman_vs_real": {spearman},\n  "n_replicates": {result.replicates},\n'
            f'  "n_units": {len(ids)},\n  "units": '
        )
        rows = zip(n, mean, q025, q975, sd, real_h, map(json.encoder.encode_basestring, ids))
        units = ",\n".join(map(_UNIT_TEMPLATE.__mod__, rows))
        fh.write(f"[\n{units}\n  ]\n}}\n" if units else "[]\n}\n")


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
) -> dict:
    """Reproducibility record written next to every report, as a JSON object."""
    if created_utc is None:
        from datetime import datetime, timezone

        created_utc = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    if input_sha256 is None and input_path is not None:
        input_sha256 = file_sha256(input_path)
    return {
        "command": command,
        "argv": [str(a) for a in argv],
        "input_path": None if input_path is None else str(input_path),
        "input_sha256": input_sha256,
        "seed": seed,
        "replicates": replicates,
        "tool_version": __version__,
        "created_utc": created_utc,
    }
