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
from .nullmodel import NullMarginals, ReshuffleResult
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
_LINES_PER_WRITE = 4096  # write_publications' rows per write: a bounded string, few calls
_BLOCK_BYTES = 1 << 18  # _read_plain_publications scans whole lines about this many bytes at a time
_LINE_MARKS = np.frombuffer(b",,\n", dtype=np.uint8)  # the commas and newline of each plain line, in order


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
    path: str | Path, expected: tuple[str, ...], other: tuple[str, ...] | None, problems: list[str]
) -> Iterator[tuple[int, list[str]]]:
    """Stream the data rows of a CSV file after checking its header.

    Yields (line number, fields) for every row with one field per header
    column, numbered by physical line in the file; any other non-blank row
    goes into `problems`, which the caller extends with its own.  After the
    last row, raises IngestError with the problems, or with "no data rows"
    if no row had the right width.  A header equal to `other`, the header
    of another recognized format, raises WrongFormatError.
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
            rows = 0
            for row in reader:
                if len(row) == len(expected):
                    rows += 1
                    yield reader.line_num, row
                elif row:
                    problems.append(f"line {reader.line_num}: expected {len(expected)} fields, got {len(row)}")
    except UnicodeDecodeError:  # at an offset into the decoder's buffer: decode the whole file to place the byte
        try:
            p.read_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:  # its line as csv counts lines: \n, \r\n and \r each end one
            line, byte = len((exc.object[: exc.start] + b"?").splitlines()), exc.object[exc.start]
            raise IngestError(path, [f"line {line}: not valid UTF-8 (byte {byte:#04x}: {exc.reason})"]) from exc
        raise
    except csv.Error as exc:  # such as a field past csv's size limit
        raise IngestError(path, [f"line {reader.line_num}: {exc}"]) from exc
    if problems:
        raise IngestError(path, problems)
    if not rows:
        raise IngestError(path, ["no data rows"])


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


def _plain_body(data: bytes, header: tuple[str, ...]) -> int | None:
    """The offset of the first data line in a file that starts with `header`,
    of three fields, after at most a byte-order mark, ends in a newline and
    holds no quote, carriage return or NUL byte (csv rejects a NUL before
    Python 3.11); None for any other file."""
    start = 3 if data.startswith(b"\xef\xbb\xbf") else 0
    head = ",".join(header).encode() + b"\n"
    plain = data.startswith(head, start) and data.endswith(b"\n")
    if not plain or any(byte in data for byte in (b'"', b"\r", b"\0")):
        return None
    return start + len(head)


def _line_fields(data: bytes, lo: int, hi: int) -> tuple[np.ndarray, ...] | None:
    """Each line's start, end (its newline) and two commas in data[lo:hi],
    whole lines that end at hi; None if there is no line or one does not hold
    exactly two commas."""
    buf = np.frombuffer(data, dtype=np.uint8, count=hi - lo, offset=lo)
    marks = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))
    if not marks.size or marks.size % 3 or not (buf[marks].reshape(-1, 3) == _LINE_MARKS).all():
        return None
    marks += lo
    ends = marks[2::3]
    return np.append(lo, ends[:-1] + 1), ends, marks[0::3], marks[1::3]


def _digit_column(data: bytes, lo: np.ndarray, hi: np.ndarray) -> np.ndarray | None:
    """The fields data[lo[i]:hi[i]] as uint64 numbers; None unless every field
    is 1 to 19 ASCII digits, so below 2**64.  data[hi[i]] must exist."""
    buf = np.frombuffer(data, dtype=np.uint8)
    width = hi - lo
    if not 1 <= width.min() <= width.max() <= 19:
        return None
    values = np.zeros(width.size, dtype=np.uint64)
    for j in range(int(width.max())):
        live = width > j
        digit = buf[np.minimum(lo + j, hi)] - ord("0")  # above 9 for any other byte
        if (live & (digit > 9)).any():
            return None
        np.multiply(values, 10, out=values, where=live)
        np.add(values, digit, out=values, where=live)
    return values


def _same_as_earlier(data: bytes, lo: np.ndarray, hi: np.ndarray, lag: int) -> np.ndarray:
    """same[i]: whether field i + lag, data[lo:hi], has the bytes of field i.
    Each field ends before a comma, which it repeats when read past its end;
    past 32 bytes two fields are compared whole, so a long field costs its
    lines, not a pass."""
    buf = np.frombuffer(data, dtype=np.uint8)
    length = hi - lo
    same = length[lag:] == length[:-lag]
    for j in range(min(int(length.max()), 32)):
        column = buf[np.minimum(lo + j, hi)]
        same &= column[lag:] == column[:-lag]
    for i in np.flatnonzero(same & (length[lag:] > 32)).tolist():
        same[i] = data[lo[i + lag] : hi[i + lag]] == data[lo[i] : hi[i]]
    return same


def _read_plain_publications(path: str | Path) -> Dataset | None:
    """The Dataset of a publications file in the plain subset of the format,
    read by whole columns of blocks of lines; None for any other file.  Plain
    is: a file that _plain_body takes, whose lines _line_fields takes; valid
    UTF-8; ids that are nonempty and carry no surrounding whitespace, with one
    name each; and counts of 1 to 19 ASCII digits, so below 2**64.  On such a
    file the line-by-line reader finds no problem and builds the same Dataset."""
    try:
        data = Path(path).read_bytes()
    except OSError:
        return None
    lo = _plain_body(data, PUBLICATIONS_HEADER)
    if lo is None:
        return None
    counts = np.empty((len(data) - lo) // 4, dtype=np.uint64)  # no line is shorter than ",,0\n"
    rows, last = 0, (lo, lo)  # the span of the prefix before a block; empty at first, so no line repeats it
    run_rows, run_starts, run_ends = [], [], []  # each run's first line and the span of its prefix
    while lo < len(data):  # blocks of whole lines, a line longer than _BLOCK_BYTES a block of its own
        hi = data.rfind(b"\n", lo, lo + _BLOCK_BYTES) + 1 or data.find(b"\n", lo) + 1
        lines = _line_fields(data, lo, hi)
        if lines is None:
            return None
        starts, ends, _, second = lines
        values = _digit_column(data, second + 1, ends)
        if values is None:
            return None
        counts[rows : rows + values.size] = values
        # runs of lines with one "id,name" prefix, up to the second comma; a block's
        # first line starts one unless it repeats the previous block's last prefix
        new = ~_same_as_earlier(data, np.append(last[0], starts), np.append(last[1], second), 1)
        run_rows.append(rows + np.flatnonzero(new))
        run_starts.append(starts[new])
        run_ends.append(second[new])
        rows, last, lo = rows + values.size, (starts[-1], second[-1]), hi
    if not rows:
        return None
    runs, counts = np.concatenate(run_rows), counts[:rows]
    units: dict[str, int] = {}  # each id's unit index, in first occurrence order
    names: list[str] = []
    run_unit = []
    for start, end in zip(np.concatenate(run_starts).tolist(), np.concatenate(run_ends).tolist()):
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
    sizes = np.diff(np.append(runs, rows))  # lines per run
    if len(run_unit) > len(names):  # some id has several runs: gather each unit's lines in unit order
        line_unit = np.repeat(run_unit, sizes)
        sizes, counts = np.bincount(line_unit, minlength=len(names)), counts[np.argsort(line_unit, kind="stable")]
    return Dataset(unit_ids=tuple(units), unit_names=tuple(names), sizes=sizes, citations=counts)


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
    for lineno, (unit_id, unit_name, text) in _csv_rows(path, PUBLICATIONS_HEADER, SUMMARY_HEADER, problems):
        unit_id = unit_id.strip()
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
    # every count passed _parse_count: one exact uint64 array, no per-value check
    return Dataset(
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
    for lineno, (unit_id, unit_name, n_text, h_text) in _csv_rows(path, SUMMARY_HEADER, PUBLICATIONS_HEADER, problems):
        unit_id = unit_id.strip()
        if not unit_id:
            problems.append(f"line {lineno}: empty unit_id")
            continue
        if unit_id in seen:
            problems.append(f"line {lineno}: duplicate unit_id {unit_id!r}")
            continue
        n = _parse_count(n_text, lineno, "n_publications", problems)
        h = _parse_count(h_text, lineno, "h_index", problems)
        if n is None or h is None:
            continue
        if n < 1:
            problems.append(f"line {lineno}: n_publications must be >= 1")
            continue
        if h > n:
            problems.append(f"line {lineno}: h_index {h} exceeds n_publications {n}")
            continue
        seen.add(unit_id)
        out.append(SummaryRow(unit_id=unit_id, unit_name=unit_name, n_publications=n, h_index=h))
    return out


def read_samples(path: str | Path) -> tuple[np.ndarray, np.ndarray, Path]:
    """Pooled (N, h) points of a null-model run, from its directory or its
    samples CSV; unit sizes come from the run's summary JSON beside it.

    Returns every point's size and h as two integer arrays, h = 0 points
    included, and the samples CSV path.  A plain samples file (see
    _read_plain_samples) is read by whole columns.
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
    points = _read_plain_samples(samples, sizes)
    return (*(_read_sample_lines(samples, sizes) if points is None else points), samples)


def _read_plain_samples(samples: Path, sizes: dict[str, int]) -> tuple[np.ndarray, np.ndarray] | None:
    """read_samples' points of a samples file in the plain subset of the
    format, read by whole columns; None for any other file.  Plain is what
    null-model writes: a file that _plain_body takes, whose lines _line_fields
    takes in one block; replicate and h fields of 1 to 19 ASCII digits; and a
    positive multiple of U lines whose ids repeat the U ids of `sizes` in
    order, none with surrounding whitespace."""
    data, ids, units = samples.read_bytes(), list(sizes), len(sizes)
    body = _plain_body(data, SAMPLES_HEADER) if units else None
    lines = None if body is None else _line_fields(data, body, len(data))
    if lines is None or lines[0].size % units:
        return None
    starts, ends, first, second = lines
    h, same = _digit_column(data, second + 1, ends), _same_as_earlier(data, first + 1, second, units)
    if h is None or not same.all() or _digit_column(data, starts, first) is None:
        return None
    try:
        head = [data[a + 1 : b].decode("utf-8") for a, b in zip(first[:units].tolist(), second[:units].tolist())]
    except UnicodeDecodeError:  # the line reader raises it
        return None
    if head != ids or any(uid != uid.strip() for uid in ids):
        return None
    return np.tile(np.array(list(sizes.values())), h.size // units), h


def _read_sample_lines(samples: Path, sizes: dict[str, int]) -> tuple[np.ndarray, np.ndarray]:
    """read_samples' points one CSV row at a time; the source of every IngestError."""
    points_n: list[int] = []
    points_h: list[int] = []
    problems: list[str] = []
    for lineno, (_, uid, text) in _csv_rows(samples, SAMPLES_HEADER, None, problems):
        uid = uid.strip()
        if uid not in sizes:
            problems.append(f"line {lineno}: unit {uid!r} missing from the run summary")
            continue
        h = _parse_count(text, lineno, "h", problems)
        if h is not None:
            points_n.append(sizes[uid])
            points_h.append(h)
    return np.array(points_n), np.array(points_h, dtype=np.uint64)


def bundled_summary_path(name: str) -> Path:
    """Path of a bundled summary, installed as a plain file; see BUNDLED_SUMMARIES."""
    if name not in BUNDLED_SUMMARIES:
        raise ValueError(f"unknown bundled summary {name!r}; have {', '.join(BUNDLED_SUMMARIES)}")
    return Path(__file__).with_name("data") / f"{name}.summary.csv"


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


class _Echo:
    """A file whose `write` returns its text, so a csv writer's `writerow`
    returns the row it formats."""

    @staticmethod
    def write(text: str) -> str:
        return text


_ECHO = csv.writer(_Echo(), lineterminator="\n")  # the one writer of every CSV line: writerow returns it


def _csv_lines(header: tuple[str, ...], rows: Iterable[Sequence]) -> Iterator[str]:
    """Every CSV report's lines, one at a time: text and Python numbers by
    `str` (a float's shortest round-trip repr), and None as an empty cell."""
    yield _ECHO.writerow(header)
    yield from map(_ECHO.writerow, rows)


def _write_csv(path: str | Path, header: tuple[str, ...], rows: Iterable[Sequence]) -> None:
    with _atomic_write(path, newline="") as fh:
        fh.writelines(_csv_lines(header, rows))


def csv_text(header: tuple[str, ...], rows: Iterable[Sequence]) -> str:
    """What _write_csv writes, as one string."""
    return "".join(_csv_lines(header, rows))


def write_publications(dataset: Dataset, path: str | Path) -> None:
    """One row per publication, the bytes of csv.writer.  A unit with no
    publications would have no row and be lost on reading back, so such a
    dataset is rejected before the file is opened.  Each unit's id and name
    are quoted once, and its rows are written _LINES_PER_WRITE at a time."""
    empty = [dataset.unit_ids[i] for i in np.flatnonzero(dataset.sizes == 0)]
    if empty:
        raise ValueError(f"units with no publications cannot be written as publications: {', '.join(empty)}")
    # "<id>,<name>," per unit, from a row with a last, empty cell
    prefixes = [_ECHO.writerow(unit + ("",))[:-1] for unit in zip(dataset.unit_ids, dataset.unit_names)]
    ends = np.cumsum(dataset.sizes).tolist()
    with _atomic_write(path, newline="") as fh:
        fh.write(",".join(PUBLICATIONS_HEADER) + "\n")
        for prefix, start, end in zip(prefixes, [0, *ends], ends):
            for lo in range(start, end, _LINES_PER_WRITE):
                counts = map(str, dataset.citations[lo : min(lo + _LINES_PER_WRITE, end)].tolist())
                fh.write(prefix + f"\n{prefix}".join(counts) + "\n")


def write_samples_csv(result: ReshuffleResult, path: str | Path) -> None:
    """Replicate-major long format: one row per (replicate, unit), the
    bytes of csv.writer.  Each unit id is quoted by the csv module once and
    each h level formatted once; every replicate is one joined string."""
    # a second, empty cell: a lone empty field would be written as ""
    id_cells = [_ECHO.writerow((uid, ""))[:-1] for uid in result.unit_ids]  # "<id>,"
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


_UNIT_KEYS = ("unit_id", "n_publications", "real_h", "null_mean_h", "null_sd_h", "null_q025_h", "null_q975_h")


def _unit_columns(result: ReshuffleResult, null: NullMarginals) -> list[list]:
    """The per-unit summary statistics as Python lists, in _UNIT_KEYS order:
    the run's sizes and real h, then the exact null marginals."""
    if null.inverse.size != len(result.unit_ids):
        raise ValueError(f"need the null marginals of each of the {len(result.unit_ids)} units")
    arrays = (
        result.productivities, result.real_h, null.mean_h, null.sd_h, null.quantile_h(0.025), null.quantile_h(0.975)
    )
    return [list(result.unit_ids), *(a.tolist() for a in arrays)]


def _summary_head(result: ReshuffleResult) -> dict:
    """The summary's keys besides `units`: the run and its Monte Carlo rank
    agreement with the real ranking, with that estimate's standard error."""
    return {
        "n_replicates": result.replicates,
        "n_units": len(result.unit_ids),
        "mean_spearman_vs_real": result.mean_spearman_vs_real,
        "mean_spearman_se": result.mean_spearman_se,
    }


def reshuffle_summary_payload(result: ReshuffleResult, null: NullMarginals) -> dict:
    """Per-unit exact null statistics plus the rank-agreement diagnostic."""
    units = [dict(zip(_UNIT_KEYS, values)) for values in zip(*_unit_columns(result, null))]
    return {**_summary_head(result), "units": units}


# one unit of the summary as write_json lays it out, keys sorted, indent 2; `str`
# prints an int as json does, and a finite float, which every statistic is, too
_UNIT_TEMPLATE = "    {\n" + ",\n".join(f'      "{key}": %s' for key in sorted(_UNIT_KEYS)) + "\n    }"


def write_reshuffle_summary(result: ReshuffleResult, null: NullMarginals, path: str | Path) -> None:
    """write_json(reshuffle_summary_payload(result, null), path), byte for byte, from whole
    columns.  `units` sorts last, so the rest is json_text's up to its null `units`."""
    columns = dict(zip(_UNIT_KEYS, _unit_columns(result, null)))
    columns["unit_id"] = map(json.encoder.encode_basestring, columns["unit_id"])
    head = json_text({**_summary_head(result), "units": None})
    with _atomic_write(path) as fh:
        fh.write(head.removesuffix("null\n}\n"))
        units = ",\n".join(map(_UNIT_TEMPLATE.__mod__, zip(*(columns[key] for key in sorted(columns)))))
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
