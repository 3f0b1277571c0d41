"""File ingestion, report writers, manifests."""

import csv
import hashlib
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sizebias
import sizebias.io
from conftest import make_dataset, unit_citations
from sizebias.cli import main
from sizebias.io import (
    BENCHMARK_HEADER,
    BUNDLED_SUMMARIES,
    IngestError,
    SummaryRow,
    WrongFormatError,
    build_manifest,
    bundled_summary_path,
    file_sha256,
    fit_payload,
    read_publications,
    read_samples,
    read_summary,
    reshuffle_summary_payload,
    write_benchmark_csv,
    write_distribution_csv,
    write_hindex_csv,
    write_json,
    write_publications,
    write_reshuffle_summary,
    write_samples_csv,
)
from sizebias.model import MAX_CITATIONS
from sizebias.nullmodel import NullMarginals, ReshuffleResult, null_marginals, run_null_model
from sizebias.scaling import fit_power_law


def small_dataset():
    return make_dataset({"a": [3, 0], "b": [7]}, names=["Alpha", "Beta, Inc."])


# ids that need quoting or escaping in CSV or JSON, or are not ASCII
AWKWARD_IDS = ("a,b", 'say "hi"', "two\nlines", "car\rret", "back\\slash", " leading", "Kyiv — Київ", "plain")


def awkward_result(replicates, units=len(AWKWARD_IDS), seed=0):
    """A null-model result over AWKWARD_IDS (cycled) with random h samples."""
    rng = np.random.default_rng(seed)
    ids = tuple(f"{AWKWARD_IDS[i % len(AWKWARD_IDS)]}{i // len(AWKWARD_IDS) or ''}" for i in range(units))
    sizes = rng.integers(1, 300, size=units)
    return ReshuffleResult(
        unit_ids=ids,
        h_samples=rng.integers(0, 25, size=(replicates, units)),
        real_h=rng.integers(0, 25, size=units),
        productivities=sizes,
    )


def with_agreement(result, mean_spearman):
    """`result` with a real h and rows whose mean Spearman is of the kind
    `mean_spearman` stands for: undefined (None) from a constant real h,
    exactly -1.0 from rows that each reverse the real ranking, and for any
    other value the random rows as they are, whose mean has no short form."""
    if mean_spearman is None:
        return replace(result, real_h=np.zeros_like(result.real_h))
    if mean_spearman == -1.0:
        real = np.arange(result.real_h.size)
        return replace(result, real_h=real, h_samples=np.tile(real[::-1], (result.replicates, 1)))
    return result


def marginals_from_tails(tails):
    """NullMarginals that give unit i the distribution tails[i, k - 1] = P(h >= k)."""
    units = len(tails)
    return NullMarginals(sizes=np.arange(units), tails=tails, inverse=np.arange(units), units=np.ones(units, dtype=int))


def awkward_null(result, seed=0):
    """Null marginals for awkward_result's units: random tails, each row
    nonincreasing, some levels certain (1.0) or impossible (0.0)."""
    rng = np.random.default_rng(seed)
    tails = -np.sort(-rng.random((len(result.unit_ids), 24)), axis=1)
    tails[:, :2] = 1.0
    tails[:, 20:] = 0.0
    return marginals_from_tails(tails)


class TestPublicationsRoundTrip:
    def test_write_then_read(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "pubs.csv"
        write_publications(ds, path)
        back = read_publications(path)
        assert back.unit_ids == ("a", "b")
        assert back.unit_names == ("Alpha", "Beta, Inc.")
        assert [c.tolist() for c in unit_citations(back)] == [[3, 0], [7]]

    @given(
        st.lists(
            st.tuples(
                st.text(alphabet="abcxyz019_-", min_size=1, max_size=6),
                st.text(alphabet=st.characters(blacklist_categories=("Cs", "Cc")), max_size=12),
                st.lists(st.one_of(st.integers(0, 50), st.integers(0, MAX_CITATIONS)), min_size=1, max_size=20),
            ),
            min_size=1,
            max_size=5,
            unique_by=lambda unit: unit[0],
        )
    )
    def test_round_trip_property(self, tmp_path_factory, units):
        ds = make_dataset({i: c for i, _, c in units}, names=[n for _, n, _ in units])
        path = tmp_path_factory.mktemp("rt") / "pubs.csv"
        write_publications(ds, path)
        back = read_publications(path)
        assert list(zip(back.unit_ids, back.unit_names, [c.tolist() for c in unit_citations(back)])) == units

    def test_empty_unit_rejected_before_opening(self, tmp_path):
        ds = make_dataset({"a": [3, 1], "b": [], "c": []})
        path = tmp_path / "pubs.csv"
        with pytest.raises(ValueError, match="b, c"):
            write_publications(ds, path)
        assert not path.exists()

    def test_comma_in_name_survives(self, tmp_path):
        path = tmp_path / "pubs.csv"
        write_publications(small_dataset(), path)
        text = path.read_text(encoding="utf-8")
        assert '"Beta, Inc."' in text

    def test_newlines_are_unix(self, tmp_path):
        path = tmp_path / "pubs.csv"
        write_publications(small_dataset(), path)
        raw = path.read_bytes()
        assert b"\r" not in raw


class TestReadPublications:
    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError):
            read_publications(tmp_path / "absent.csv")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(IngestError):
            read_publications(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("unit_id,unit_name,citations\n", encoding="utf-8")
        with pytest.raises(IngestError, match="no data rows"):
            read_publications(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,name,cites\na,A,1\n", encoding="utf-8")
        with pytest.raises(IngestError, match="bad header"):
            read_publications(path)

    def test_summary_header_detected_as_wrong_format(self, tmp_path):
        path = tmp_path / "sum.csv"
        path.write_text("unit_id,unit_name,n_publications,h_index\na,A,3,1\n", encoding="utf-8")
        with pytest.raises(WrongFormatError):
            read_publications(path)

    def test_problems_list_line_numbers(self, tmp_path):
        path = tmp_path / "probs.csv"
        path.write_text(
            "unit_id,unit_name,citations\n"
            "a,A,1\n"
            "a,A,-2\n"
            "b,B,xyz\n"
            ",C,3\n"
            "a,Renamed,4\n",
            encoding="utf-8",
        )
        with pytest.raises(IngestError) as err:
            read_publications(path)
        problems = err.value.problems
        assert any(p.startswith("line 3:") and "negative" in p for p in problems)
        assert any(p.startswith("line 4:") and "not an integer" in p for p in problems)
        assert any(p.startswith("line 5:") and "empty unit_id" in p for p in problems)
        assert any(p.startswith("line 6:") and "renamed" in p for p in problems)
        assert len(problems) == 4

        # Blank lines are skipped but still counted: numbers are physical lines.
        path.write_text("unit_id,unit_name,citations\n\na,A,1\n\nb,B,x\n", encoding="utf-8")
        with pytest.raises(IngestError) as err:
            read_publications(path)
        assert err.value.problems == ["line 5: citations 'x' is not an integer"]

    def test_byte_order_mark_accepted(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text("\ufeffunit_id,unit_name,citations\na,A,4\na,A,1\n", encoding="utf-8")
        back = read_publications(path)
        assert (back.unit_ids, back.citations.tolist()) == (("a",), [4, 1])

    def test_invalid_utf8(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("unit_id,unit_name,citations\na,Caf\u00e9,1\n".encode("latin-1"))
        with pytest.raises(IngestError, match="not valid UTF-8"):
            read_publications(path)

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_invalid_utf8_reported_at_its_line(self, tmp_path, newline):
        # far past the decoder's first buffer, after a blank line, which counts
        lines = [b"unit_id,unit_name,citations", *(b"u%d,N,%d" % (i % 50, i % 17) for i in range(5000))]
        lines[4861:4863] = [b"", lines[4862] + b"\xff"]
        path = tmp_path / "late.csv"
        path.write_bytes(newline.join(lines) + newline)
        with pytest.raises(IngestError, match="not valid UTF-8") as err:
            read_publications(path)
        assert err.value.problems == ["line 4863: not valid UTF-8 (byte 0xff: invalid start byte)"]

    def test_field_count_mismatch(self, tmp_path):
        path = tmp_path / "width.csv"
        path.write_text("unit_id,unit_name,citations\na,A,1,9\n", encoding="utf-8")
        with pytest.raises(IngestError, match="expected 3 fields"):
            read_publications(path)

    def test_field_past_csv_limit(self, tmp_path):
        # csv refuses a field over 131072 characters; the columnar reader
        # still takes such a name unquoted, so only a quoted one reaches csv
        path = tmp_path / "long.csv"
        path.write_text(f'unit_id,unit_name,citations\na,A,3\nb,"{"x" * 200_000}",4\n', encoding="utf-8")
        with pytest.raises(IngestError, match="line 3: field larger than field limit"):
            read_publications(path)


HEADER = b"unit_id,unit_name,citations\n"
BOM = b"\xef\xbb\xbf"
# Pieces of a publications file: plain ones, which the columnar reader
# accepts, and odd ones, each of which sends a file to the line reader.
PLAIN_IDS = [b"a", b"b", b"u1", "é".encode(), b"v" * 40 + b"1", b"v" * 40 + b"2"]  # long ids differ late
ODD_IDS = [b"", b" a", b"a ", "\xa0a".encode(), b"a,b", b'"a"']
PLAIN_NAMES = [b"A", b"", "Ünï 中".encode(), b" B "]
ODD_NAMES = [b'q"t', b"c,d", b"\xff", b"x\ry", b"x\x00y"]  # csv rejects a NUL before Python 3.11
PLAIN_COUNTS = [b"0", b"3", b"007", b"9" * 19, str(2**63).encode()]
ODD_COUNTS = [
    b"+3", b" 3 ", b"1_000", b"-2", b"x", b"", "٣".encode(), b"3.0", b"3:",
    str(2**64 - 1).encode(), str(2**64).encode(), b"0" * 19 + b"7", b"1" * 25,
]  # fmt: skip
ODD_HEADERS = [b"unit_id, unit_name,citations\n", b"\n" + HEADER, b"unit_id,unit_name,n_publications,h_index\n"]


@st.composite
def publication_files(draw, plain=False):
    """Bytes of a publications file; with odd pieces unless `plain`."""

    def piece(plain_choices, odd_choices):
        odd = not plain and draw(st.integers(0, 14)) == 7  # not an end, which hypothesis favours
        return draw(st.sampled_from(odd_choices if odd else plain_choices))

    units = draw(st.lists(st.tuples(st.sampled_from(PLAIN_IDS), st.sampled_from(PLAIN_NAMES)), min_size=1, max_size=3))
    units = list(dict(units).items())  # one name per id
    lines = []
    for _ in range(draw(st.integers(1, 8))):
        unit_id, name = draw(st.sampled_from(units))
        unit_id, name = piece([unit_id], ODD_IDS), piece([name], ODD_NAMES + [b"Renamed"])
        count = piece(PLAIN_COUNTS + [str(draw(st.integers(0, 10**6))).encode()], ODD_COUNTS)
        lines.append(unit_id + b"," + name + b"," + count + piece([b"\n"], [b"\r\n", b"\n\n", b",\n"]))
    text = piece([b"", BOM], [BOM + BOM]) + piece([HEADER], ODD_HEADERS) + b"".join(lines)
    return text[:-1] if piece([False], [True]) else text


def outcome(read, path):
    """What a reader makes of a file: the Dataset's columns, or the error."""
    try:
        ds = read(path)
    except IngestError as exc:
        return type(exc), str(exc)
    return ds.unit_ids, ds.unit_names, *((a.dtype, a.tolist()) for a in (ds.sizes, ds.citations))


class TestColumnarReader:
    """read_publications reads a plain file by whole columns, and gives the
    line reader's Dataset or IngestError on every file."""

    @staticmethod
    def check_readers_agree(path):
        expected = outcome(sizebias.io._read_publication_lines, path)
        assert outcome(read_publications, path) == expected
        columnar = sizebias.io._read_plain_publications(path)
        if columnar is not None:
            assert outcome(lambda _: columnar, path) == expected
        return columnar

    @given(publication_files() | st.none())
    @example(None)  # a missing file
    @example(BOM + HEADER + b"a,A,1\n")
    @example(HEADER)
    @example(BOM + HEADER)
    @example(HEADER + b"a,A,1\nb,B,2\na,A,3\n")  # one unit in two runs
    @example(HEADER + b"%s1,L,1\n%s2,L,2\n%s2,L,3\n" % (b"v" * 40, b"v" * 40, b"v" * 40))  # prefixes past 32 bytes
    @example(HEADER + b"a,A,1\na,B,2\n")  # a renamed unit
    @example(HEADER + b"a,%s1,1\na,%s2,2\n" % (b"N" * 29, b"N" * 29))  # renamed in a prefix's 32nd byte
    @example(HEADER + "é,Ünï,1\nb,x\x00y,2\n".encode())
    @example(HEADER + b'a,"A",1\n')
    @example(HEADER + b"a,A,1\r\n")
    @example(HEADER + b"a,A,1:\n")  # the byte after "9"
    @example(HEADER + b"a,A,1\n\nb,B,2\n")
    @example(HEADER + b"a,A,1")
    @example(HEADER + b"a,A,1\nx")  # text after the last newline
    @example(HEADER + b"a,x\ry,1\n")  # csv ends a row at a carriage return
    @example(HEADER + b"a,A,1,9\n")
    @example(HEADER + b"a,1\n")
    @example(HEADER + b",A,1\n")
    @example(HEADER + "\xa0a,A,1\n".encode())
    @example(HEADER + b"a,\xff,1\n")
    @example(HEADER + b"a,A,+3\na,A, 3 \na,A,1_000\n")
    @example(HEADER + b"a,A,18446744073709551615\na,A,00000000000000000007\n")
    @example(HEADER + b"a,A,18446744073709551616\n")
    @example(HEADER + b"a,A,9999999999999999999\n")
    def test_both_readers_agree(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("pubs") / "pubs.csv"
        if text is not None:
            path.write_bytes(text)
        self.check_readers_agree(path)

    @given(publication_files(plain=True))
    def test_plain_files_are_read_by_columns(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("pubs") / "pubs.csv"
        path.write_bytes(text)
        assert self.check_readers_agree(path) is not None

    def test_nul_byte_goes_to_the_line_reader(self, tmp_path):
        # Python 3.10's csv raises "line contains NUL"; 3.11's reads the byte
        path = tmp_path / "nul.csv"
        path.write_bytes(HEADER + b"a,x\x00y,1\n")
        assert sizebias.io._read_plain_publications(path) is None
        self.check_readers_agree(path)

    def test_plain_file_never_reaches_the_line_reader(self, tmp_path, monkeypatch):
        def refuse(path):
            raise AssertionError("the line reader ran on a plain file")

        monkeypatch.setattr(sizebias.io, "_read_publication_lines", refuse)
        path = tmp_path / "plain.csv"
        path.write_bytes(HEADER + b"u1,Unit 1,12\nu1,Unit 1,0\nu2,Unit 2,3\nu1,Unit 1,7\n")
        back = read_publications(path)
        assert (back.unit_ids, back.unit_names) == (("u1", "u2"), ("Unit 1", "Unit 2"))
        assert (back.sizes.tolist(), back.citations.tolist()) == ([3, 1], [12, 0, 7, 3])


class TestReadSummary:
    def test_valid(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(
            "unit_id,unit_name,n_publications,h_index\nx,X,10,3\ny,Y,5,5\n",
            encoding="utf-8",
        )
        rows = read_summary(path)
        assert rows == [
            SummaryRow(unit_id="x", unit_name="X", n_publications=10, h_index=3),
            SummaryRow(unit_id="y", unit_name="Y", n_publications=5, h_index=5),
        ]

    def test_h_above_n_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("unit_id,unit_name,n_publications,h_index\nx,X,3,4\n", encoding="utf-8")
        with pytest.raises(IngestError, match="exceeds n_publications"):
            read_summary(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(
            "unit_id,unit_name,n_publications,h_index\nx,X,3,1\nx,X,4,2\n", encoding="utf-8"
        )
        with pytest.raises(IngestError, match="duplicate"):
            read_summary(path)

    def test_field_past_csv_limit(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(
            f'unit_id,unit_name,n_publications,h_index\nx,X,3,1\ny,"{"y" * 200_000}",4,2\n', encoding="utf-8"
        )
        with pytest.raises(IngestError, match="line 3: field larger than field limit"):
            read_summary(path)

    def test_publications_header_detected_as_wrong_format(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("unit_id,unit_name,citations\na,A,1\n", encoding="utf-8")
        with pytest.raises(WrongFormatError):
            read_summary(path)

    def test_round_trip(self, tmp_path):
        rows = [SummaryRow("a", "Alpha", 12, 4), SummaryRow("b", "Beta", 3, 3)]
        path = tmp_path / "s.csv"
        path.write_text(
            "unit_id,unit_name,n_publications,h_index\n"
            + "".join(f"{r.unit_id},{r.unit_name},{r.n_publications},{r.h_index}\n" for r in rows),
            encoding="utf-8",
        )
        assert read_summary(path) == rows

    def test_byte_order_mark_accepted(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("\ufeffunit_id,unit_name,n_publications,h_index\nx,X,10,3\n", encoding="utf-8")
        assert read_summary(path) == [SummaryRow("x", "X", 10, 3)]

    @pytest.mark.parametrize(
        "line,problem",
        [
            ("y,Y,5", "line 4: expected 4 fields, got 3"),
            ("y,Y,5,1,2", "line 4: expected 4 fields, got 5"),
            (" ,Y,5,1", "line 4: empty unit_id"),
            ("y,Y,five,1", "line 4: n_publications 'five' is not an integer"),
            ("y,Y,5,1.0", "line 4: h_index '1.0' is not an integer"),
            ("y,Y,-5,1", "line 4: n_publications -5 is negative"),
            ("y,Y,5,-1", "line 4: h_index -1 is negative"),
            ("y,Y,0,0", "line 4: n_publications must be >= 1"),
        ],
        ids=[
            "too-few-fields", "too-many-fields", "empty-id", "n-not-an-integer", "h-not-an-integer",
            "n-negative", "h-negative", "n-zero",
        ],
    )
    def test_bad_line_rejected_at_its_line(self, tmp_path, line, problem):
        # the bad row follows a good one and a blank line, so line numbers are physical
        path = tmp_path / "s.csv"
        path.write_text(f"unit_id,unit_name,n_publications,h_index\nx,X,10,3\n\n{line}\n", encoding="utf-8")
        with pytest.raises(IngestError) as err:
            read_summary(path)
        assert err.value.problems == [problem]

    @pytest.mark.parametrize("body", ["", "\n\n"], ids=["header-only", "blank-lines"])
    def test_no_data_rows_rejected(self, tmp_path, body):
        path = tmp_path / "s.csv"
        path.write_text(f"unit_id,unit_name,n_publications,h_index\n{body}", encoding="utf-8")
        with pytest.raises(IngestError) as err:
            read_summary(path)
        assert err.value.problems == ["no data rows"]

    def test_problems_past_twenty_are_counted(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("unit_id,unit_name,n_publications,h_index\n" + "x,X,0,0\n" * 23, encoding="utf-8")
        with pytest.raises(IngestError) as err:
            read_summary(path)
        assert len(err.value.problems) == 23
        shown = str(err.value).split("; ")
        assert shown[0] == f"{path}: line 2: n_publications must be >= 1"
        assert shown[19:] == ["line 21: n_publications must be >= 1", "... and 3 more"]


class TestReadSamples:
    @staticmethod
    def run_dir(tmp_path):
        dataset = small_dataset()
        result = run_null_model(dataset, 1, 4, workers=1)
        write_samples_csv(result, tmp_path / "reshuffle_samples.csv")
        payload = reshuffle_summary_payload(result, null_marginals(dataset))
        write_json(payload, tmp_path / "reshuffle_summary.json")
        return result

    @staticmethod
    def assert_same(got, expected):
        (n, h, *rest), (n_exp, h_exp, *rest_exp) = got, expected
        assert n.dtype == h.dtype == np.float64
        assert n.tolist() == n_exp.tolist() and h.tolist() == h_exp.tolist()
        assert rest == rest_exp

    def test_points_from_directory_or_file(self, tmp_path):
        result = self.run_dir(tmp_path)
        sizes, hs, n_excluded, samples = read_samples(tmp_path)
        assert samples == tmp_path / "reshuffle_samples.csv"
        expected = [
            (float(n), float(h))
            for row in result.h_samples
            for n, h in zip(result.productivities, row)
            if h > 0
        ]
        assert list(zip(sizes.tolist(), hs.tolist())) == expected
        assert n_excluded == result.h_samples.size - len(expected)
        self.assert_same(read_samples(samples), (sizes, hs, n_excluded, samples))

    def test_byte_order_mark_accepted(self, tmp_path):
        self.run_dir(tmp_path)
        expected = read_samples(tmp_path)
        samples = tmp_path / "reshuffle_samples.csv"
        samples.write_bytes(b"\xef\xbb\xbf" + samples.read_bytes())
        self.assert_same(read_samples(tmp_path), expected)

    def test_problems_list_line_numbers(self, tmp_path):
        self.run_dir(tmp_path)
        (tmp_path / "reshuffle_samples.csv").write_text(
            f"replicate,unit_id,h\n0,a,1\n\n0,zz,1\n0,a,x\n0,b,-1\n0,b\n0,a,{2**64}\n", encoding="utf-8"
        )
        with pytest.raises(IngestError) as err:
            read_samples(tmp_path)
        assert err.value.problems == [
            "line 4: unit 'zz' missing from the run summary",
            "line 5: h 'x' is not an integer",
            "line 6: h -1 is negative",
            "line 7: expected 3 fields, got 2",
            f"line 8: h {2**64} exceeds the supported maximum {MAX_CITATIONS}",
        ]

    def test_bad_inputs(self, tmp_path):
        with pytest.raises(IngestError, match="file not found"):
            read_samples(tmp_path)
        self.run_dir(tmp_path)
        (tmp_path / "reshuffle_summary.json").write_text("{}", encoding="utf-8")
        with pytest.raises(IngestError, match="malformed run summary"):
            read_samples(tmp_path)
        (tmp_path / "reshuffle_summary.json").unlink()
        with pytest.raises(IngestError, match="supplies unit sizes"):
            read_samples(tmp_path)
        self.run_dir(tmp_path)
        (tmp_path / "reshuffle_samples.csv").write_text("unit_id,unit_name,citations\n", encoding="utf-8")
        with pytest.raises(IngestError, match="bad header"):
            read_samples(tmp_path)


# Unit ids of a samples file: plain ones, and some that take it out of the
# plain subset (csv.writer quotes "a,b"; the line reader strips " lead";
# csv rejects a NUL before Python 3.11).
PLAIN_SAMPLE_IDS = ["a", "u1", "Kyiv — Київ", "v" * 40 + "1", "v" * 40 + "2", ""]
SAMPLE_IDS = PLAIN_SAMPLE_IDS + ["a,b", " lead", "x\0y"]
# changes to one field of a samples line: (replicate, unit_id, h) -> new fields
LINE_CHANGES = {
    "quoted id": lambda r, u, h: (r, b'"%s"' % u, h),
    "space before id": lambda r, u, h: (r, b" " + u, h),
    "space after h": lambda r, u, h: (r, u, h + b" "),
    "+3": lambda r, u, h: (r, u, b"+3"),
    "1_0": lambda r, u, h: (r, u, b"1_0"),
    "20-digit h": lambda r, u, h: (r, u, h.rjust(20, b"0")),
    "h past 2**64": lambda r, u, h: (r, u, b"1" * 20),
    "non-digit replicate": lambda r, u, h: (b"x", u, h),
    "NUL in replicate": lambda r, u, h: (r + b"\0", u, h),
    "non-UTF-8 replicate": lambda r, u, h: (r + b"\xff", u, h),  # ignored by the line reader, but decoded
    "unknown id": lambda r, u, h: (r, b"zz", h),
    "non-UTF-8 id": lambda r, u, h: (r, u + b"\xff", h),
}
SAMPLE_CHANGES = [
    None, "BOM", "CRLF", "blank line", "swapped lines", "dropped line", "duplicated line",
    "summary with a duplicated id", *LINE_CHANGES,
]  # fmt: skip


@st.composite
def null_model_results(draw, ids=SAMPLE_IDS):
    """A ReshuffleResult of 1-4 distinct units and 1-3 replicates, some h = 0."""
    unit_ids = tuple(draw(st.lists(st.sampled_from(ids), min_size=1, max_size=4, unique=True)))
    replicates = draw(st.integers(1, 3))
    h = draw(st.lists(st.integers(0, 12), min_size=replicates * len(unit_ids), max_size=replicates * len(unit_ids)))
    sizes = draw(st.lists(st.integers(1, 300), min_size=len(unit_ids), max_size=len(unit_ids)))
    return ReshuffleResult(
        unit_ids=unit_ids,
        h_samples=np.array(h).reshape(replicates, len(unit_ids)),
        real_h=np.zeros(len(unit_ids), dtype=int),
        productivities=np.array(sizes),
    )


def write_changed_run(run, result, change, i, j):
    """Write null-model's two files for `result` into `run`, then apply
    `change` to data lines i and j (modulo the line count), or to the
    summary's units i and j."""
    samples, summary = run / "reshuffle_samples.csv", run / "reshuffle_summary.json"
    write_samples_csv(result, samples)
    write_reshuffle_summary(result, awkward_null(result), summary)
    head, *lines = samples.read_bytes().split(b"\n")[:-1]
    i, j = i % len(lines), j % len(lines)
    if change == "BOM":
        head = BOM + head
    elif change == "CRLF":
        lines[i] += b"\r"
    elif change == "blank line":
        lines.insert(i, b"")
    elif change == "swapped lines":
        lines[i], lines[j] = lines[j], lines[i]
    elif change == "dropped line":  # i = 0 (hypothesis' favourite) drops the last
        del lines[-1 - i]
    elif change == "duplicated line":  # i = 0 appends line j
        lines.insert(len(lines) - i, lines[j])
    elif change == "summary with a duplicated id":
        meta = json.loads(summary.read_text(encoding="utf-8"))
        units = meta["units"]
        units[i % len(units)]["unit_id"] = units[j % len(units)]["unit_id"]
        write_json(meta, summary)
    elif change is not None:
        replicate, rest = lines[i].split(b",", 1)
        lines[i] = b",".join(LINE_CHANGES[change](replicate, *rest.rsplit(b",", 1)))
    samples.write_bytes(b"\n".join([head, *lines, b""]))


def points_outcome(read, samples, sizes):
    """What a samples reader makes of a file: its points, or the error."""
    try:
        n, h, n_excluded = read(samples, sizes)
    except IngestError as exc:
        return type(exc), str(exc)
    return n.dtype, n.tolist(), h.dtype, h.tolist(), n_excluded


class TestColumnarSamples:
    """read_samples reads a plain samples file by whole columns, and gives the
    line reader's points or IngestError on every file."""

    @staticmethod
    def check_readers_agree(run):
        samples = run / "reshuffle_samples.csv"
        meta = json.loads((run / "reshuffle_summary.json").read_text(encoding="utf-8"))
        sizes = {u["unit_id"]: int(u["n_publications"]) for u in meta["units"]}
        expected = points_outcome(sizebias.io._read_sample_lines, samples, sizes)
        assert points_outcome(lambda *_: read_samples(run)[:3], samples, sizes) == expected
        columnar = sizebias.io._read_plain_samples(samples, sizes)
        if columnar is not None:
            assert points_outcome(lambda *_: columnar, samples, sizes) == expected
        return columnar

    @pytest.mark.parametrize("change", SAMPLE_CHANGES)
    @settings(max_examples=25)
    @given(result=null_model_results(), i=st.integers(0, 11), j=st.integers(0, 11))
    def test_both_readers_agree(self, tmp_path_factory, change, result, i, j):
        run = tmp_path_factory.mktemp("run")
        write_changed_run(run, result, change, i, j)
        self.check_readers_agree(run)

    @given(null_model_results(ids=PLAIN_SAMPLE_IDS))
    def test_plain_runs_are_read_by_columns(self, tmp_path_factory, result):
        run = tmp_path_factory.mktemp("run")
        write_changed_run(run, result, None, 0, 0)
        assert self.check_readers_agree(run) is not None

    def test_nul_byte_goes_to_the_line_reader(self, tmp_path):
        result = ReshuffleResult(("x\0y", "b"), np.array([[1, 0]]), np.zeros(2, dtype=int), np.array([3, 4]))
        write_changed_run(tmp_path, result, None, 0, 0)
        assert self.check_readers_agree(tmp_path) is None

    def test_null_model_output_never_reaches_the_line_reader(self, tmp_path, monkeypatch, capsys):
        pubs, run = tmp_path / "pubs.csv", tmp_path / "run"
        write_publications(make_dataset({"a": [3, 0, 5], "Kyiv — Київ": [7, 2], "c": [1, 1, 0, 4]}), pubs)
        assert main(["null-model", str(pubs), "--seed", "3", "--replicates", "6", "--out-dir", str(run)]) == 0
        meta = json.loads((run / "reshuffle_summary.json").read_text(encoding="utf-8"))
        sizes = {u["unit_id"]: u["n_publications"] for u in meta["units"]}
        expected = points_outcome(sizebias.io._read_sample_lines, run / "reshuffle_samples.csv", sizes)

        def refuse(samples, sizes):
            raise AssertionError("the line reader ran on null-model's samples")

        monkeypatch.setattr(sizebias.io, "_read_sample_lines", refuse)
        assert points_outcome(lambda *_: read_samples(run)[:3], None, None) == expected
        assert main(["fit", str(run), "--source", "null-model"]) == 0
        capsys.readouterr()


class TestBundledData:
    def test_names(self):
        assert BUNDLED_SUMMARIES == ("ukraine_2019", "uk_rae2008_physics")

    def test_first_table_shape_and_first_row(self):
        rows = read_summary(bundled_summary_path("ukraine_2019"))
        assert len(rows) == 40
        assert rows[0].n_publications == 17349
        assert rows[0].h_index == 90
        assert sum(r.n_publications for r in rows) == 92833
        assert sum(r.n_publications for r in rows) > 90000
        assert all(r.h_index <= r.n_publications for r in rows)

    def test_second_table_shape_and_first_row(self):
        rows = read_summary(bundled_summary_path("uk_rae2008_physics"))
        assert len(rows) == 41
        assert rows[0].n_publications == 9602
        assert rows[0].h_index == 250
        assert sum(r.n_publications for r in rows) == 96895
        assert sum(r.n_publications for r in rows) > 95000

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            bundled_summary_path("atlantis_2020")


class TestWriters:
    def test_samples_csv_layout(self, tmp_path):
        ds = small_dataset()
        result = run_null_model(ds, 1, 2, workers=1)
        path = tmp_path / "samples.csv"
        write_samples_csv(result, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "replicate,unit_id,h"
        assert len(lines) == 1 + 2 * 2
        assert lines[1].startswith("0,a,")
        assert lines[3].startswith("1,a,")

    @pytest.mark.parametrize("replicates,units", [(1, 8), (3, 8), (40, 19), (2, 0)])
    def test_samples_csv_matches_csv_writer(self, tmp_path, replicates, units):
        result = awkward_result(replicates, units)
        path, oracle = tmp_path / "samples.csv", tmp_path / "oracle.csv"
        write_samples_csv(result, path)
        with open(oracle, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("replicate", "unit_id", "h"))
            for r, row in enumerate(result.h_samples.tolist()):
                writer.writerows((r, uid, h) for uid, h in zip(result.unit_ids, row))
        assert path.read_bytes() == oracle.read_bytes()

    # each value names the kind of agreement the result's rows give (see with_agreement)
    @pytest.mark.parametrize("mean_spearman", [None, 0.1 + 0.2, -1.0])
    @pytest.mark.parametrize("replicates,units", [(1, 8), (2, 8), (7, 19), (3, 0)])
    def test_summary_matches_write_json_of_payload(self, tmp_path, replicates, units, mean_spearman):
        result = with_agreement(awkward_result(replicates, units, seed=replicates), mean_spearman)
        null = awkward_null(result, seed=replicates)
        path, oracle = tmp_path / "summary.json", tmp_path / "oracle.json"
        sizebias.io.write_reshuffle_summary(result, null, path)
        write_json(reshuffle_summary_payload(result, null), oracle)
        assert path.read_bytes() == oracle.read_bytes()
        summary = json.loads(path.read_text(encoding="utf-8"))
        rho, se = summary["mean_spearman_vs_real"], summary["mean_spearman_se"]
        assert (rho, se) == (result.mean_spearman_vs_real, result.mean_spearman_se)
        if units and mean_spearman is not None:
            assert rho == -1.0 if mean_spearman == -1.0 else round(rho, 6) != rho
            assert (se is None) == (replicates < 2)
        else:
            assert rho is se is None

    def test_summary_of_a_null_model_run_matches_write_json(self, tmp_path):
        dataset = small_dataset()
        result, null = run_null_model(dataset, 1, 5, workers=1), null_marginals(dataset)
        path, oracle = tmp_path / "summary.json", tmp_path / "oracle.json"
        sizebias.io.write_reshuffle_summary(result, null, path)
        write_json(reshuffle_summary_payload(result, null), oracle)
        assert path.read_bytes() == oracle.read_bytes()

    @pytest.mark.parametrize("replicates", range(1, 65))
    def test_quantiles_equal_np_quantile(self, tmp_path, replicates):
        # the summary's q quantile is the smallest k with P(h <= k) >= q: on
        # the empirical distribution of a sample, numpy's inverted_cdf rule
        rng = np.random.default_rng(replicates)
        h = rng.integers(0, 3 + replicates, size=(replicates, 30))
        h[:, :3] = [0, 7, 1000]  # constant columns
        tails = (h[:, :, None] >= np.arange(1, h.max() + 1)).mean(axis=0)
        result = ReshuffleResult(tuple(f"u{i}" for i in range(30)), h, h[0], np.full(30, 1000))
        path = tmp_path / "summary.json"
        sizebias.io.write_reshuffle_summary(result, marginals_from_tails(tails), path)
        units = json.loads(path.read_text(encoding="utf-8"))["units"]
        got = [[u["null_q025_h"] for u in units], [u["null_q975_h"] for u in units]]
        expected = np.quantile(h, [0.025, 0.975], axis=0, method="inverted_cdf")
        assert got == expected.tolist()

    def test_hindex_csv(self, tmp_path):
        path = tmp_path / "h.csv"
        write_hindex_csv([("a", 4, 2), ("b", 1, 1)], path)
        assert path.read_text(encoding="utf-8") == "unit_id,N,h\na,4,2\nb,1,1\n"

    def test_benchmark_csv_header_and_none_cell(self, tmp_path):
        path = tmp_path / "b.csv"
        row = ("a", 10, 5, 4.5, 0.0, 4.4, 1.1364, None, 0.0555, 1, 1)
        write_benchmark_csv([row], path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ",".join(BENCHMARK_HEADER)
        assert lines[0] == "unit_id,N,real_h,null_mean_h,null_sd_h,h_hat,ratio,z,log_residual,raw_rank,normalized_rank"
        cells = lines[1].split(",")
        assert cells[7] == ""
        assert cells[0] == "a"

    def test_csv_reports_are_written_a_line_at_a_time(self, tmp_path):
        # a publications file may run to millions of rows: its text is never held whole
        path = tmp_path / "h.csv"
        tracemalloc.start()
        try:
            write_hindex_csv(((f"u{i}", i, i) for i in range(100_000)), path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 2

    def test_publications_match_csv_writer_and_are_written_in_chunks(self, tmp_path):
        # one unit of 200,000 rows, between units whose id or name needs quoting
        big = np.random.default_rng(0).integers(0, MAX_CITATIONS, size=200_000, dtype=np.uint64, endpoint=True)
        edge = np.array([0, 5], dtype=np.uint64), np.array([MAX_CITATIONS], dtype=np.uint64)
        names = ["two\nlines", "", "Kyiv — Київ"]
        ds = make_dataset({"a,b": edge[0], "big": big, 'say "hi"': edge[1]}, names=names)
        path, oracle = tmp_path / "pubs.csv", tmp_path / "oracle.csv"
        tracemalloc.start()
        try:
            write_publications(ds, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 2
        with open(oracle, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("unit_id", "unit_name", "citations"))
            for uid, name, counts in zip(ds.unit_ids, ds.unit_names, unit_citations(ds)):
                writer.writerows((uid, name, c) for c in counts.tolist())
        assert path.read_bytes() == oracle.read_bytes()

    def test_distribution_csv(self, tmp_path):
        path = tmp_path / "d.csv"
        write_distribution_csv([(0, 0.0, 0.25), (1, 0.5, 0.5)], path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "k1,share,probability"
        assert lines[1] == "0,0.0,0.25"

    def test_float_cells_round_trip(self, tmp_path):
        value = 0.1 + 0.2
        path = tmp_path / "f.csv"
        write_distribution_csv([(1, value, value)], path)
        cell = path.read_text(encoding="utf-8").splitlines()[1].split(",")[1]
        assert float(cell) == value

    def test_write_json_stable_bytes(self, tmp_path):
        payload = {"b": 1, "a": [3, 2], "c": {"z": True, "a": None}}
        p1, p2 = tmp_path / "1.json", tmp_path / "2.json"
        write_json(payload, p1)
        write_json(payload, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text(encoding="utf-8").startswith('{\n  "a"')

    @staticmethod
    def _rows_failing_after(n):
        """n hindex rows, then an error: part of the file is flushed first."""
        yield from [("a", 4, 2)] * n
        raise TypeError("row generation failed")

    def test_failed_csv_write_leaves_no_file(self, tmp_path):
        with pytest.raises(TypeError):
            write_hindex_csv(self._rows_failing_after(5000), tmp_path / "h.csv")
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_previous_report(self, tmp_path):
        path = tmp_path / "h.csv"
        write_hindex_csv([("a", 4, 2)], path)
        with pytest.raises(TypeError):
            write_hindex_csv(self._rows_failing_after(5000), path)
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_text(encoding="utf-8") == "unit_id,N,h\na,4,2\n"

    def test_failed_json_write_leaves_no_file(self, tmp_path):
        with pytest.raises(TypeError):
            write_json({"a": list(range(5000)), "b": object()}, tmp_path / "r.json")
        assert list(tmp_path.iterdir()) == []

    def test_failed_summary_write_leaves_no_file(self, tmp_path):
        # an id that is not text fails after the opening lines are written
        good = awkward_result(3, 5000)
        null = awkward_null(good)
        bad = ReshuffleResult(good.unit_ids[:-1] + (5,), good.h_samples, good.real_h, good.productivities)
        with pytest.raises(TypeError):
            sizebias.io.write_reshuffle_summary(bad, null, tmp_path / "s.json")
        assert list(tmp_path.iterdir()) == []
        path = tmp_path / "s.json"
        sizebias.io.write_reshuffle_summary(good, null, path)
        before = path.read_bytes()
        with pytest.raises(TypeError):
            sizebias.io.write_reshuffle_summary(bad, null, path)
        assert list(tmp_path.iterdir()) == [path] and path.read_bytes() == before


class TestPayloads:
    def test_fit_payload_keys(self):
        fit = fit_power_law([10, 100, 1000], [2.0, 5.0, 12.0])
        payload = fit_payload(fit)
        assert set(payload) == {"beta", "log10_prefactor", "r_squared", "n_points"}
        assert payload["n_points"] == 3

    def test_reshuffle_summary_payload(self):
        ds = small_dataset()
        # rows with rho 1, 1, -1, 1 and 1 against the real ranking
        rows = np.array([[1, 2], [1, 2], [2, 1], [1, 2], [0, 3]])
        result = ReshuffleResult(ds.unit_ids, rows, np.array([1, 2]), ds.sizes)
        payload = reshuffle_summary_payload(result, null_marginals(ds))
        assert payload["n_replicates"] == 5
        assert payload["n_units"] == 2
        assert payload["mean_spearman_vs_real"] == result.mean_spearman_vs_real == pytest.approx(0.6, abs=1e-15)
        assert payload["mean_spearman_se"] == result.mean_spearman_se == pytest.approx(0.4, abs=1e-15)
        assert [u["unit_id"] for u in payload["units"]] == ["a", "b"]
        # a's two papers are two of the pool's 3, 0 and 7 citations: h is 1, 2
        # or 1, each with probability 1/3
        first = payload["units"][0]
        assert first["n_publications"] == 2
        assert first["null_mean_h"] == pytest.approx(4 / 3, abs=1e-15)
        assert first["null_sd_h"] == pytest.approx(math.sqrt(2) / 3, abs=1e-15)
        assert (first["null_q025_h"], first["null_q975_h"]) == (1, 2)

    def test_reshuffle_summary_payload_undefined_spearman(self):
        ds = small_dataset()
        result = run_null_model(ds, 1, 2, workers=1)  # both units have h = 1
        payload = reshuffle_summary_payload(result, null_marginals(ds))
        assert payload["mean_spearman_vs_real"] is None and payload["mean_spearman_se"] is None


class TestManifest:
    def test_fields_and_digest(self, tmp_path):
        data = tmp_path / "input.csv"
        data.write_bytes(b"unit_id,unit_name,citations\na,A,1\n")
        manifest = build_manifest(
            "null-model", ["null-model", str(data)], input_path=data, seed=42, replicates=200
        )
        assert manifest["command"] == "null-model"
        assert manifest["argv"] == ["null-model", str(data)]
        assert manifest["seed"] == 42
        assert manifest["replicates"] == 200
        assert manifest["tool_version"] == sizebias.__version__
        assert manifest["input_sha256"] == hashlib.sha256(data.read_bytes()).hexdigest()
        assert manifest["created_utc"].endswith("Z")

    def test_digest_override(self, tmp_path):
        manifest = build_manifest("fit", [], input_path="bundled:ukraine_2019", input_sha256="f" * 64)
        assert manifest["input_sha256"] == "f" * 64
        assert manifest["input_path"] == "bundled:ukraine_2019"

    def test_no_input(self):
        manifest = build_manifest("toy-balls", ["toy-balls"])
        assert manifest["input_path"] is None
        assert manifest["input_sha256"] is None

    def test_write_manifest_json(self, tmp_path):
        manifest = build_manifest("synth", ["synth"], seed=7, created_utc="2026-01-01T00:00:00Z")
        path = tmp_path / "manifest.json"
        write_json(manifest, path)
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded == {
            "command": "synth", "argv": ["synth"], "input_path": None, "input_sha256": None, "seed": 7,
            "replicates": None, "tool_version": sizebias.__version__, "created_utc": "2026-01-01T00:00:00Z",
        }
        assert list(loaded) == sorted(loaded)

    def test_file_sha256_streams(self, tmp_path):
        blob = tmp_path / "blob.bin"
        payload = np.random.default_rng(1).integers(0, 256, size=3 * 10**6).astype(np.uint8).tobytes()
        blob.write_bytes(payload)
        assert file_sha256(blob) == hashlib.sha256(payload).hexdigest()
