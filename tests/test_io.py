"""File ingestion, report writers, manifests."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import sizebias
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
    load_bundled_summary,
    read_publications,
    read_samples,
    read_summary,
    reshuffle_summary_payload,
    write_benchmark_csv,
    write_distribution_csv,
    write_hindex_csv,
    write_json,
    write_manifest,
    write_publications,
    write_samples_csv,
    write_summary,
)
from sizebias.model import MAX_CITATIONS, Dataset, Unit
from sizebias.nullmodel import ReshuffleConfig, run_null_model
from sizebias.scaling import fit_power_law


def small_dataset():
    return Dataset(
        name="d",
        units=(
            Unit(id="a", name="Alpha", citations=[3, 0]),
            Unit(id="b", name="Beta, Inc.", citations=[7]),
        ),
    )


class TestPublicationsRoundTrip:
    def test_write_then_read(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "pubs.csv"
        write_publications(ds, path)
        back = read_publications(path)
        assert [u.id for u in back.units] == ["a", "b"]
        assert [u.name for u in back.units] == ["Alpha", "Beta, Inc."]
        assert [u.citations.tolist() for u in back.units] == [[3, 0], [7]]

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
        ds = Dataset(name="d", units=tuple(Unit(id=i, name=n, citations=c) for i, n, c in units))
        path = tmp_path_factory.mktemp("rt") / "pubs.csv"
        write_publications(ds, path)
        back = read_publications(path)
        assert [(u.id, u.name, u.citations.tolist()) for u in back.units] == units

    def test_empty_unit_rejected_before_opening(self, tmp_path):
        ds = Dataset(name="d", units=(Unit("a", "A", [3, 1]), Unit("b", "B", []), Unit("c", "C", [])))
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
        assert [(u.id, u.citations.tolist()) for u in back.units] == [("a", [4, 1])]

    def test_invalid_utf8(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("unit_id,unit_name,citations\na,Caf\u00e9,1\n".encode("latin-1"))
        with pytest.raises(IngestError, match="not valid UTF-8"):
            read_publications(path)

    def test_field_count_mismatch(self, tmp_path):
        path = tmp_path / "width.csv"
        path.write_text("unit_id,unit_name,citations\na,A,1,9\n", encoding="utf-8")
        with pytest.raises(IngestError, match="expected 3 fields"):
            read_publications(path)


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

    def test_publications_header_detected_as_wrong_format(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("unit_id,unit_name,citations\na,A,1\n", encoding="utf-8")
        with pytest.raises(WrongFormatError):
            read_summary(path)

    def test_round_trip(self, tmp_path):
        rows = [SummaryRow("a", "Alpha", 12, 4), SummaryRow("b", "Beta", 3, 3)]
        path = tmp_path / "s.csv"
        write_summary(rows, path)
        assert read_summary(path) == rows

    def test_byte_order_mark_accepted(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("\ufeffunit_id,unit_name,n_publications,h_index\nx,X,10,3\n", encoding="utf-8")
        assert read_summary(path) == [SummaryRow("x", "X", 10, 3)]


class TestReadSamples:
    @staticmethod
    def run_dir(tmp_path):
        result = run_null_model(small_dataset(), ReshuffleConfig(master_seed=1, replicates=4), workers=1)
        write_samples_csv(result, tmp_path / "reshuffle_samples.csv")
        write_json(reshuffle_summary_payload(result, None), tmp_path / "reshuffle_summary.json")
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
            "replicate,unit_id,h\n0,a,1\n\n0,zz,1\n0,a,x\n0,b,-1\n0,b\n", encoding="utf-8"
        )
        with pytest.raises(IngestError) as err:
            read_samples(tmp_path)
        assert err.value.problems == [
            "line 4: unit 'zz' missing from the run summary",
            "line 5: h 'x' is not an integer",
            "line 6: h -1 is negative",
            "line 7: expected 3 fields, got 2",
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


class TestBundledData:
    def test_names(self):
        assert BUNDLED_SUMMARIES == ("ukraine_2019", "uk_rae2008_physics")

    def test_first_table_shape_and_first_row(self):
        rows = load_bundled_summary("ukraine_2019")
        assert len(rows) == 40
        assert rows[0].n_publications == 17349
        assert rows[0].h_index == 90
        assert sum(r.n_publications for r in rows) == 92833
        assert sum(r.n_publications for r in rows) > 90000
        assert all(r.h_index <= r.n_publications for r in rows)

    def test_second_table_shape_and_first_row(self):
        rows = load_bundled_summary("uk_rae2008_physics")
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
        result = run_null_model(ds, ReshuffleConfig(master_seed=1, replicates=2), workers=1)
        path = tmp_path / "samples.csv"
        write_samples_csv(result, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "replicate,unit_id,h"
        assert len(lines) == 1 + 2 * 2
        assert lines[1].startswith("0,a,")
        assert lines[3].startswith("1,a,")

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


class TestPayloads:
    def test_fit_payload_keys(self):
        fit = fit_power_law([10, 100, 1000], [2.0, 5.0, 12.0])
        payload = fit_payload(fit)
        assert set(payload) == {"beta", "log10_prefactor", "r_squared", "n_points"}
        assert payload["n_points"] == 3

    def test_reshuffle_summary_payload(self):
        ds = small_dataset()
        result = run_null_model(ds, ReshuffleConfig(master_seed=1, replicates=5), workers=1)
        payload = reshuffle_summary_payload(result, 0.5)
        assert payload["n_replicates"] == 5
        assert payload["n_units"] == 2
        assert payload["mean_spearman_vs_real"] == 0.5
        assert [u["unit_id"] for u in payload["units"]] == ["a", "b"]
        first = payload["units"][0]
        assert first["n_publications"] == 2
        assert first["null_mean_h"] == pytest.approx(float(result.h_samples[:, 0].mean()))
        assert first["null_q025_h"] <= first["null_mean_h"] <= first["null_q975_h"]

    def test_reshuffle_summary_payload_undefined_spearman(self):
        ds = small_dataset()
        result = run_null_model(ds, ReshuffleConfig(master_seed=1, replicates=2), workers=1)
        payload = reshuffle_summary_payload(result, None)
        assert payload["mean_spearman_vs_real"] is None


class TestManifest:
    def test_fields_and_digest(self, tmp_path):
        data = tmp_path / "input.csv"
        data.write_bytes(b"unit_id,unit_name,citations\na,A,1\n")
        manifest = build_manifest(
            "null-model", ["null-model", str(data)], input_path=data, seed=42, replicates=200
        )
        assert manifest.command == "null-model"
        assert manifest.seed == 42
        assert manifest.replicates == 200
        assert manifest.tool_version == sizebias.__version__
        assert manifest.input_sha256 == hashlib.sha256(data.read_bytes()).hexdigest()
        assert manifest.created_utc.endswith("Z")

    def test_digest_override(self, tmp_path):
        manifest = build_manifest("fit", [], input_path="bundled:ukraine_2019", input_sha256="f" * 64)
        assert manifest.input_sha256 == "f" * 64
        assert manifest.input_path == "bundled:ukraine_2019"

    def test_no_input(self):
        manifest = build_manifest("toy-balls", ["toy-balls"])
        assert manifest.input_path is None
        assert manifest.input_sha256 is None

    def test_write_manifest_json(self, tmp_path):
        manifest = build_manifest("synth", ["synth"], seed=7, created_utc="2026-01-01T00:00:00Z")
        path = tmp_path / "manifest.json"
        write_manifest(manifest, path)
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded["command"] == "synth"
        assert loaded["seed"] == 7
        assert loaded["created_utc"] == "2026-01-01T00:00:00Z"
        assert list(loaded) == sorted(loaded)

    def test_file_sha256_streams(self, tmp_path):
        blob = tmp_path / "blob.bin"
        payload = np.random.default_rng(1).integers(0, 256, size=3 * 10**6).astype(np.uint8).tobytes()
        blob.write_bytes(payload)
        assert file_sha256(blob) == hashlib.sha256(payload).hexdigest()
