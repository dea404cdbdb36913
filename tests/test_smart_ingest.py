"""Tests for the chunked, out-of-core Backblaze ingest pipeline.

Golden numbers come from the checked-in miniature dump at
``tests/fixtures/backblaze_mini`` (14 daily CSVs, 17 drives over three
models, 3 failures, 2 malformed rows, one mapped column missing from
the header).  Regenerate it with ``python tools/make_backblaze_fixture.py``
and update the pins together.
"""

import csv
import hashlib
import json
import tempfile
import zipfile
from dataclasses import replace
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smart.backblaze import COLUMN_TO_CHANNEL, write_backblaze_csv
from repro.smart.dataset import SmartDataset
from repro.smart.generator import default_fleet_config
from repro.smart.ingest import (
    STORE_ARRAYS,
    IngestConfig,
    discover_source_files,
    ingest_backblaze,
    load_backblaze,
    load_store,
    read_manifest,
)
from repro.utils.errors import IngestError, IngestInterrupted
from tests import backblaze_oracle

FIXTURE = Path(__file__).parent / "fixtures" / "backblaze_mini"

#: ``_store_digest`` of the fixture's store and its full ledger, both
#: computed before the parse went column-at-a-time; any change to the
#: parse or the merge must leave them as they are.
GOLDEN_DIGEST = "69a5931016b9b42851c0689f4280d362ebf34835e9976637b65d88a7d5d009fc"
GOLDEN_LEDGER = [
    ("2024-01-03.csv", 18, "date",
     "column 'date': bad date '2024-13-99': month must be in 1..12"),
    ("2024-01-06.csv", 19, "smart_9_normalized",
     "column 'smart_9_normalized': bad SMART value 'not-a-number'"),
]

#: Pinned manifest totals of the fixture (see the module docstring).
GOLDEN_TOTALS = {
    "n_files": 14,
    "n_rows": 224,
    "n_filtered_rows": 0,
    "n_skipped_rows": 2,
    "n_drives": 17,
    "n_failed": 3,
    "n_samples": 224,
    "epoch_day": "2024-01-01",
}


def _config(tmp_path, **overrides):
    defaults = dict(
        source=str(FIXTURE), out=str(tmp_path / "store"), chunk_files=3
    )
    defaults.update(overrides)
    return IngestConfig(**defaults)


def _store_digest(store):
    digest = hashlib.sha256()
    for name in STORE_ARRAYS:
        digest.update((Path(store) / f"{name}.npy").read_bytes())
    return digest.hexdigest()


def _assert_same_drives(left, right):
    assert len(left.drives) == len(right.drives)
    for a, b in zip(left.drives, right.drives):
        assert a.serial == b.serial
        assert a.family == b.family
        assert a.failed == b.failed
        assert a.failure_hour == b.failure_hour
        np.testing.assert_array_equal(a.hours, b.hours)
        np.testing.assert_array_equal(a.values, b.values, strict=True)


class TestDiscover:
    def test_directory_sorted(self):
        refs = discover_source_files(FIXTURE)
        assert len(refs) == 14
        assert [kind for kind, _, _ in refs] == ["fs"] * 14
        names = [Path(path).name for _, path, _ in refs]
        assert names == sorted(names)

    def test_single_file(self):
        refs = discover_source_files(FIXTURE / "2024-01-01.csv")
        assert len(refs) == 1

    def test_zip(self, tmp_path):
        archive = tmp_path / "dump.zip"
        with zipfile.ZipFile(archive, "w") as zf:
            for path in sorted(FIXTURE.glob("*.csv")):
                zf.write(path, path.name)
        refs = discover_source_files(archive)
        assert len(refs) == 14
        assert all(kind == "zip" for kind, _, _ in refs)

    def test_missing_source(self, tmp_path):
        with pytest.raises(IngestError, match="not found"):
            discover_source_files(tmp_path / "nope")

    def test_empty_directory(self, tmp_path):
        with pytest.raises(IngestError, match="no CSV files"):
            discover_source_files(tmp_path)


class TestGoldenFixture:
    def test_manifest_totals_pinned(self, tmp_path):
        manifest = ingest_backblaze(_config(tmp_path))
        assert manifest["totals"] == GOLDEN_TOTALS
        assert manifest["n_chunks"] == 5  # ceil(14 / 3)

    def test_failed_drives_and_failure_hours(self, tmp_path):
        ingest_backblaze(_config(tmp_path))
        dataset = load_store(tmp_path / "store")
        failed = {d.serial: d for d in dataset.failed_drives}
        assert sorted(failed) == ["ZA07", "ZA08", "ZB04"]
        # day-end labeling: last reported day 10/14/12 -> hour * 24.
        assert failed["ZA07"].failure_hour == 240.0
        assert failed["ZA08"].failure_hour == 336.0
        assert failed["ZB04"].failure_hour == 288.0

    def test_store_bytes_and_ledger_pinned(self, tmp_path):
        manifest = ingest_backblaze(_config(tmp_path))
        assert _store_digest(tmp_path / "store") == GOLDEN_DIGEST
        assert [
            (Path(e["source"]).name, e["line"], e["column"],
             e["message"].split(": ", 1)[1])
            for e in manifest["errors"]
        ] == GOLDEN_LEDGER

    def test_ledger_carries_row_provenance(self, tmp_path):
        manifest = ingest_backblaze(_config(tmp_path))
        locations = [
            (Path(e["source"]).name, e["line"], e["column"])
            for e in manifest["errors"]
        ]
        assert locations == [
            ("2024-01-03.csv", 18, "date"),
            ("2024-01-06.csv", 19, "smart_9_normalized"),
        ]
        # smart_189_normalized is absent from every day file's header.
        missing = manifest["missing_columns"]
        assert len(missing) == 14
        assert all(v == ["smart_189_normalized"] for v in missing.values())

    def test_store_matches_in_memory_load(self, tmp_path):
        ingest_backblaze(_config(tmp_path))
        _assert_same_drives(
            load_store(tmp_path / "store"), load_backblaze(FIXTURE)
        )

    def test_chunk_boundaries_do_not_change_the_store(self, tmp_path):
        # Drive histories span every chunk boundary at chunk_files=1;
        # reassembly across parts must be invisible in the output.  In
        # the second dump a drive's model changes between day files:
        # every chunking keeps the first model seen, as the in-memory
        # load does.
        renamed = tmp_path / "renamed"
        renamed.mkdir()
        header = "date,serial_number,model,failure,smart_9_normalized\n"
        for day in range(1, 6):
            model = "ST4000A" if day <= 2 else "ST4000B"
            (renamed / f"2024-01-0{day}.csv").write_text(
                header + f"2024-01-0{day},S1,{model},0,9{day}\n"
            )
        for source in (FIXTURE, renamed):
            digests = set()
            for chunk_files in (1, 3, 14):
                out = tmp_path / f"store-{source.name}-{chunk_files}"
                ingest_backblaze(_config(
                    tmp_path, source=str(source), out=str(out),
                    chunk_files=chunk_files,
                ))
                digests.add(_store_digest(out))
            assert len(digests) == 1
        store = load_store(tmp_path / "store-renamed-1")
        assert [d.family for d in store.drives] == ["ST4000A"]
        _assert_same_drives(store, load_backblaze(renamed))

    def test_zip_source_is_byte_identical_to_directory(self, tmp_path):
        archive = tmp_path / "dump.zip"
        with zipfile.ZipFile(archive, "w") as zf:
            for path in sorted(FIXTURE.glob("*.csv")):
                zf.write(path, path.name)
        ingest_backblaze(_config(tmp_path, out=str(tmp_path / "a")))
        ingest_backblaze(
            _config(tmp_path, source=str(archive), out=str(tmp_path / "b"))
        )
        assert _store_digest(tmp_path / "a") == _store_digest(tmp_path / "b")

    def test_parallel_ingest_is_byte_identical_to_serial(self, tmp_path):
        ingest_backblaze(
            _config(tmp_path, out=str(tmp_path / "serial"), n_jobs=1)
        )
        ingest_backblaze(
            _config(tmp_path, out=str(tmp_path / "parallel"), n_jobs=4)
        )
        assert (
            _store_digest(tmp_path / "serial")
            == _store_digest(tmp_path / "parallel")
        )

    def test_chunks_bound_memory_below_full_dataset(self, tmp_path):
        # The out-of-core contract: no parse worker ever holds the whole
        # dump — the manifest's per-chunk row counts prove the granule.
        manifest = ingest_backblaze(_config(tmp_path, chunk_files=3))
        per_chunk = [chunk["n_rows"] for chunk in manifest["chunks"]]
        assert len(per_chunk) > 1
        assert max(per_chunk) < manifest["totals"]["n_rows"]
        assert sum(per_chunk) == manifest["totals"]["n_rows"]


class TestResume:
    def test_interrupt_then_resume_is_bit_identical(self, tmp_path):
        ingest_backblaze(_config(tmp_path, out=str(tmp_path / "baseline")))
        config = _config(tmp_path, out=str(tmp_path / "resumed"))
        with pytest.raises(IngestInterrupted) as excinfo:
            ingest_backblaze(replace(config, stop_after_chunks=2))
        assert excinfo.value.chunks_done == 2
        out = Path(config.out)
        assert not (out / "manifest.json").exists()  # incomplete store
        assert (out / "ingest-checkpoint.json").exists()

        manifest = ingest_backblaze(config)
        assert manifest["totals"] == GOLDEN_TOTALS
        assert _store_digest(out) == _store_digest(tmp_path / "baseline")
        # Completion cleans up the transient state.
        assert not (out / "parts").exists()
        assert not (out / "ingest-checkpoint.json").exists()

    def test_resume_reparses_only_pending_chunks(self, tmp_path, monkeypatch):
        import repro.smart.ingest as ingest_module

        config = _config(tmp_path)
        with pytest.raises(IngestInterrupted):
            ingest_backblaze(replace(config, stop_after_chunks=3))
        calls = []
        real = ingest_module._parse_chunk

        def counting(cfg, task):
            calls.append(task[0])
            return real(cfg, task)

        monkeypatch.setattr(ingest_module, "_parse_chunk", counting)
        ingest_backblaze(config)
        assert calls == [3, 4]  # chunks 0-2 came from the checkpoint

    def test_completed_store_is_an_idempotent_noop(self, tmp_path, monkeypatch):
        import repro.smart.ingest as ingest_module

        config = _config(tmp_path)
        first = ingest_backblaze(config)

        def exploding(cfg, task):
            raise AssertionError("re-ingest of a complete store reparsed")

        monkeypatch.setattr(ingest_module, "_parse_chunk", exploding)
        assert ingest_backblaze(config) == first

    def test_completed_store_rejects_a_different_config(self, tmp_path):
        config = _config(tmp_path)
        ingest_backblaze(config)
        with pytest.raises(ValueError, match="different\\s+config"):
            ingest_backblaze(replace(config, models=("ST4000",)))

    def test_mid_ingest_checkpoint_rejects_a_different_config(self, tmp_path):
        config = _config(tmp_path)
        with pytest.raises(IngestInterrupted):
            ingest_backblaze(replace(config, stop_after_chunks=1))
        with pytest.raises(ValueError, match="different\\s+config"):
            ingest_backblaze(replace(config, failure_label="last-sample"))


    def test_deleted_checkpoint_does_not_reuse_another_configs_parts(
        self, tmp_path
    ):
        config = _config(tmp_path, models=("ST4000",))
        with pytest.raises(IngestInterrupted):
            ingest_backblaze(replace(config, stop_after_chunks=2))
        (Path(config.out) / "ingest-checkpoint.json").unlink()
        fresh = _config(tmp_path, out=str(tmp_path / "fresh"))
        ingest_backblaze(fresh)
        manifest = ingest_backblaze(replace(fresh, out=config.out))
        assert manifest["totals"] == GOLDEN_TOTALS
        assert _store_digest(config.out) == _store_digest(fresh.out)


class TestFilterAndLabeling:
    def test_model_filter_drops_rows_at_the_source(self, tmp_path):
        manifest = ingest_backblaze(_config(tmp_path, models=("ST4000",)))
        totals = manifest["totals"]
        assert totals["n_drives"] == 9  # the ST4000DM000 fleet only
        assert totals["n_failed"] == 2
        assert totals["n_rows"] + totals["n_filtered_rows"] == 224
        dataset = load_store(tmp_path / "store")
        assert {d.family for d in dataset.drives} == {"ST4000DM000"}

    def test_multiple_prefixes(self, tmp_path):
        manifest = ingest_backblaze(
            _config(tmp_path, models=("ST4000", "ST12000"))
        )
        assert manifest["totals"]["n_drives"] == 14

    def test_failure_window_trims_failed_histories(self, tmp_path):
        ingest_backblaze(_config(tmp_path, failure_window_days=5))
        dataset = load_store(tmp_path / "store")
        for drive in dataset.failed_drives:
            assert drive.n_samples <= 5
            assert drive.hours[0] > drive.failure_hour - 5 * 24.0
        # Good drives keep their full fortnight.
        assert max(d.n_samples for d in dataset.good_drives) == 14

    def test_last_sample_failure_label(self, tmp_path):
        ingest_backblaze(_config(tmp_path, failure_label="last-sample"))
        dataset = load_store(tmp_path / "store")
        failed = {d.serial: d for d in dataset.failed_drives}
        # ZA07 last reports on day 10 -> hour 216 under last-sample
        # (vs 240 under day-end).
        assert failed["ZA07"].failure_hour == 216.0
        for drive in failed.values():
            assert drive.failure_hour == drive.hours[-1]

    def test_strict_mode_fails_on_the_first_bad_row(self, tmp_path):
        with pytest.raises(IngestError, match="2024-01-03.csv:18"):
            ingest_backblaze(_config(tmp_path, lenient=False))

    def test_strict_mode_error_is_the_same_in_a_pool(self, tmp_path):
        errors = []
        for n_jobs in (1, 2):
            out = str(tmp_path / f"jobs{n_jobs}")
            with pytest.raises(IngestError) as excinfo:
                ingest_backblaze(
                    _config(tmp_path, out=out, lenient=False, n_jobs=n_jobs)
                )
            error = excinfo.value
            errors.append(
                (str(error), Path(error.source).name, error.line, error.column)
            )
        assert errors[0] == errors[1]
        assert errors[0][1:] == ("2024-01-03.csv", 18, "date")


class TestRoundTrip:
    @given(
        w_good=st.integers(2, 5),
        w_failed=st.integers(1, 3),
        days=st.integers(2, 6),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=8, deadline=None)
    def test_write_then_ingest_round_trips(self, w_good, w_failed, days, seed):
        fleet = SmartDataset.generate(
            default_fleet_config(
                w_good=w_good, w_failed=w_failed, q_good=0, q_failed=0,
                collection_days=days, seed=seed,
            )
        )
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            csv_path = tmp / "export.csv"
            write_backblaze_csv(csv_path, fleet.drives, start=date(2024, 3, 1))
            ingest_backblaze(
                IngestConfig(
                    source=str(csv_path), out=str(tmp / "store"), chunk_files=1
                )
            )
            store = load_store(tmp / "store")
            # The chunked store and the in-memory reader agree exactly.
            _assert_same_drives(store, load_backblaze(csv_path))
            # Drive identity and labels survive the daily downsampling.
            assert len(store.drives) == len(fleet.drives)
            by_serial = {d.serial: d for d in store.drives}
            for original in fleet.drives:
                assert by_serial[original.serial].failed == original.failed

    def test_manifest_schema_is_checked(self, tmp_path):
        config = _config(tmp_path)
        ingest_backblaze(config)
        store = tmp_path / "store"
        manifest = read_manifest(store)
        manifest["schema"] = "repro.ingest-manifest/v999"
        (store / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="expected schema"):
            load_store(store)

    def test_incomplete_store_refuses_to_load(self, tmp_path):
        config = _config(tmp_path)
        with pytest.raises(IngestInterrupted):
            ingest_backblaze(replace(config, stop_after_chunks=1))
        with pytest.raises(ValueError, match="no manifest"):
            load_store(tmp_path / "store")


# -- differential: the block parse and sort merge against the row oracle ------

_DATES = ["2024-01-01", "2024-01-02", "2024-01-03", "20240104", "2024-01-05",
          "2024-13-01", "", "x"]
_CELLS = ["", " ", "nan", "-nan", "inf", "-Infinity", "1e3", "2.5E-1", "1_000",
          "12", " 7 ", "1e400", "-0", "abc", "1__0", "0x10"]
_SERIALS = ["S1", "S2", "s,3", 'q"4', "n\n5"]
_MODELS = ["ST4000A", "ST4000B", "WDC 1"]


@st.composite
def _day_file(draw):
    """One day file: header columns, then rows, blank lines and short rows."""
    mapped = draw(st.lists(
        st.sampled_from(list(COLUMN_TO_CHANNEL)), unique=True, max_size=5
    ))
    header = draw(st.permutations(
        ["date", "serial_number", "model", "failure", "capacity_bytes"] + mapped
    ))
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        if draw(st.integers(0, 9)) == 0:
            rows.append(None)  # a blank line
            continue
        cells = {
            "date": draw(st.sampled_from(_DATES)),
            "serial_number": draw(st.sampled_from(_SERIALS)),
            "model": draw(st.sampled_from(_MODELS)),
            "failure": draw(st.sampled_from(["0", "1", "", "x"])),
            "capacity_bytes": "4000",
        }
        row = [cells.get(name) or draw(st.sampled_from(_CELLS)) for name in header]
        if draw(st.integers(0, 5)) == 0:
            row = row[:draw(st.integers(1, len(row)))]  # a short row
        rows.append(row)
    return header, rows


def _write_day_file(path, header, rows):
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            if row is None:
                handle.write("\r\n")
            else:
                writer.writerow(row)


def _ledger(errors):
    return [(e.source, e.line, e.column, str(e)) for e in errors]


def _assert_same_bytes(left, right):
    assert [(d.serial, d.family, d.failed, d.failure_hour) for d in left] == [
        (d.serial, d.family, d.failed, d.failure_hour) for d in right
    ]
    for a, b in zip(left, right):
        assert a.hours.tobytes() == b.hours.tobytes()
        assert a.values.tobytes() == b.values.tobytes()


class TestAgainstOracle:
    @given(
        files=st.lists(_day_file(), min_size=1, max_size=4),
        models=st.sampled_from([(), ("ST",), ("ST4000B", "WDC")]),
        chunk_files=st.integers(1, 3),
        family_from_model=st.booleans(),
        failure_window_days=st.sampled_from([None, 1, 3]),
        failure_label=st.sampled_from(["day-end", "last-sample"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_store_and_ledger_equal_the_row_oracle(
        self, files, models, chunk_files, family_from_model,
        failure_window_days, failure_label,
    ):
        options = dict(
            family_from_model=family_from_model,
            failure_window_days=failure_window_days,
            failure_label=failure_label,
        )
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            dump = tmp / "dump"
            dump.mkdir()
            paths = [dump / f"2024-01-{i + 1:02d}.csv" for i in range(len(files))]
            for path, (header, rows) in zip(paths, files):
                _write_day_file(path, header, rows)
            drives, errors = backblaze_oracle.load(paths, models=models, **options)

            manifest = ingest_backblaze(IngestConfig(
                source=str(dump), out=str(tmp / "store"), models=models,
                chunk_files=chunk_files, n_jobs=1, **options,
            ))
            _assert_same_bytes(load_store(tmp / "store").drives, drives)
            assert [
                (e["source"], e["line"], e["column"], e["message"])
                for e in manifest["errors"]
            ] == _ledger(errors)
            _assert_same_bytes(
                load_backblaze(dump, models=models, **options).drives, drives
            )

            if errors:
                with pytest.raises(IngestError) as excinfo:
                    load_backblaze(dump, models=models, lenient=False, **options)
                assert _ledger([excinfo.value]) == _ledger(errors[:1])
