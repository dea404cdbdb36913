"""Tests for the Backblaze-schema adapter."""

import csv
from datetime import date

import numpy as np
import pytest

from repro.smart.attributes import channel_index
from repro.smart.backblaze import (
    COLUMN_TO_CHANNEL,
    BackblazeReader,
    DriveLoadResult,
    read_backblaze_csv,
    write_backblaze_csv,
)
from repro.smart.ingest import load_backblaze
from repro.utils.errors import IngestError
from repro.smart.dataset import SmartDataset
from repro.smart.generator import default_fleet_config


def _write_sample(path, rows):
    header = ["date", "serial_number", "model", "capacity_bytes", "failure"] + list(
        COLUMN_TO_CHANNEL
    )
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def _row(day, serial, model="ST4000", failure=0, poh=95.0):
    smart = {column: "" for column in COLUMN_TO_CHANNEL}
    smart["smart_9_normalized"] = str(poh)
    smart["smart_194_normalized"] = "80.0"
    smart["smart_5_raw"] = "3"
    return [day, serial, model, "4000000000000", failure] + list(smart.values())


class TestRead:
    def test_basic_load(self, tmp_path):
        path = tmp_path / "2024-01-01.csv"
        _write_sample(
            path,
            [
                _row("2024-01-01", "S1"),
                _row("2024-01-01", "S2", failure=1),
            ],
        )
        drives = read_backblaze_csv(path)
        assert [d.serial for d in drives] == ["S1", "S2"]
        assert not drives[0].failed and drives[1].failed
        assert drives[1].failure_hour == pytest.approx(24.0)

    def test_multi_day_merge_and_hour_axis(self, tmp_path):
        day1 = tmp_path / "d1.csv"
        day2 = tmp_path / "d2.csv"
        _write_sample(day1, [_row("2024-01-01", "S1", poh=95.0)])
        _write_sample(day2, [_row("2024-01-02", "S1", poh=94.0)])
        (drive,) = read_backblaze_csv([day1, day2])
        np.testing.assert_allclose(drive.hours, [0.0, 24.0])
        poh = drive.values[:, channel_index("POH")]
        np.testing.assert_allclose(poh, [95.0, 94.0])

    def test_unmapped_columns_are_nan(self, tmp_path):
        path = tmp_path / "d.csv"
        _write_sample(path, [_row("2024-01-01", "S1")])
        (drive,) = read_backblaze_csv(path)
        assert np.isnan(drive.values[0, channel_index("RUE")])
        assert drive.values[0, channel_index("RSC_RAW")] == 3.0

    def test_model_becomes_family(self, tmp_path):
        path = tmp_path / "d.csv"
        _write_sample(path, [_row("2024-01-01", "S1", model="WDC-X")])
        (drive,) = read_backblaze_csv(path)
        assert drive.family == "WDC-X"
        (flat,) = read_backblaze_csv(path, family_from_model=False)
        assert flat.family == "BB"

    def test_missing_required_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("date,serial_number\n2024-01-01,S1\n")
        with pytest.raises(ValueError, match="missing required columns"):
            read_backblaze_csv(path)

    def test_bad_date_reported_with_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        _write_sample(path, [_row("not-a-date", "S1")])
        with pytest.raises(ValueError, match="bad.csv:2"):
            read_backblaze_csv(path)

    def test_empty_file_gives_empty_fleet(self, tmp_path):
        path = tmp_path / "empty.csv"
        _write_sample(path, [])
        assert read_backblaze_csv(path) == []

    def test_bad_date_error_carries_structured_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        _write_sample(path, [_row("2024-01-32", "S1")])
        with pytest.raises(IngestError) as excinfo:
            read_backblaze_csv(path)
        assert excinfo.value.source == str(path)
        assert excinfo.value.line == 2
        assert excinfo.value.column == "date"

    def test_bad_smart_cell_blames_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        good = _row("2024-01-01", "S1")
        bad = _row("2024-01-02", "S1")
        bad[5 + list(COLUMN_TO_CHANNEL).index("smart_9_normalized")] = "ninety"
        _write_sample(path, [good, bad])
        with pytest.raises(IngestError, match="bad.csv:3") as excinfo:
            read_backblaze_csv(path)
        assert excinfo.value.line == 3
        assert excinfo.value.column == "smart_9_normalized"
        assert "ninety" in str(excinfo.value)


class TestLenientRead:
    def test_bad_rows_skipped_and_counted(self, tmp_path):
        path = tmp_path / "dirty.csv"
        bad_cell = _row("2024-01-02", "S1")
        bad_cell[5 + list(COLUMN_TO_CHANNEL).index("smart_9_normalized")] = "?"
        _write_sample(
            path,
            [
                _row("2024-01-01", "S1", poh=95.0),
                bad_cell,
                _row("not-a-date", "S2"),
                _row("2024-01-03", "S1", poh=93.0),
            ],
        )
        result = read_backblaze_csv(path, lenient=True)
        assert isinstance(result, DriveLoadResult)
        assert [d.serial for d in result] == ["S1"]
        assert result[0].n_samples == 2  # the bad middle day is gone
        assert result.n_skipped_rows == 2
        assert [(e.line, e.column) for e in result.errors] == [
            (3, "smart_9_normalized"),
            (4, "date"),
        ]

    def test_ledger_lines_count_blank_lines_and_multiline_fields(self, tmp_path):
        # Line 2 holds a model quoted across lines 2-3, line 4 is blank:
        # the bad cell of the next row sits on physical line 5.
        path = tmp_path / "lines.csv"
        bad = _row("2024-01-02", "S1")
        bad[5 + list(COLUMN_TO_CHANNEL).index("smart_9_normalized")] = "?"
        _write_sample(path, [_row("2024-01-01", "S1", model="ST\n4000")])
        with path.open("a", newline="") as handle:
            handle.write("\r\n")
            csv.writer(handle).writerow(bad)
        result = read_backblaze_csv(path, lenient=True)
        assert [(e.line, e.column) for e in result.errors] == [
            (5, "smart_9_normalized")
        ]
        assert [d.family for d in result] == ["ST\n4000"]

    def test_truncated_row_is_ledgered_not_loaded(self, tmp_path):
        # A row that ends before a required field is a bad row, blamed
        # on the first missing field; a row missing only SMART cells at
        # its tail still loads, those channels as NaN.
        dump = tmp_path / "dump"
        dump.mkdir()
        path = dump / "2024-01-02.csv"
        _write_sample(path, [_row("2024-01-01", "S1")])
        with path.open("a", newline="") as handle:
            handle.write("2024-01-02\r\n")
            handle.write("2024-01-02,S2,ST4000,4000,1,100\r\n")
        result = load_backblaze(dump, lenient=True)
        assert [(d.serial, d.family) for d in result.drives] == [
            ("S1", "ST4000"), ("S2", "ST4000"),
        ]
        s2 = result.drives[1]
        assert s2.failed
        assert s2.values[0, channel_index("RRER")] == 100.0
        assert np.isnan(s2.values[0, channel_index("POH")])
        with pytest.raises(IngestError) as excinfo:
            read_backblaze_csv(path)
        assert (excinfo.value.line, excinfo.value.column) == (3, "serial_number")

        # Alone in its dump, the short row makes no drive.
        lone = tmp_path / "lone"
        lone.mkdir()
        (lone / "2024-01-02.csv").write_text(path.read_text().splitlines()[0]
                                             + "\n2024-01-02\n")
        assert load_backblaze(lone, lenient=True).drives == []

    def test_clean_file_has_empty_ledger(self, tmp_path):
        path = tmp_path / "clean.csv"
        _write_sample(path, [_row("2024-01-01", "S1")])
        result = read_backblaze_csv(path, lenient=True)
        assert result.n_skipped_rows == 0
        assert result.errors == ()

    def test_lenient_empty_fleet_still_reports_skips(self, tmp_path):
        path = tmp_path / "all-bad.csv"
        _write_sample(path, [_row("nope", "S1"), _row("also-nope", "S2")])
        result = read_backblaze_csv(path, lenient=True)
        assert list(result) == []
        assert result.n_skipped_rows == 2

    def test_missing_columns_raise_even_when_lenient(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("date,serial_number\n2024-01-01,S1\n")
        with pytest.raises(IngestError, match="missing required columns"):
            read_backblaze_csv(path, lenient=True)


class TestStreamingReader:
    def test_rows_stream_lazily(self, tmp_path):
        # The reader must pull rows on demand, not slurp the source:
        # after taking the first row, most of the lines are unconsumed.
        path = tmp_path / "big.csv"
        _write_sample(path, [_row("2024-01-01", f"S{i:04d}") for i in range(500)])

        class CountingLines:
            def __init__(self, lines):
                self._iter = iter(lines)
                self.consumed = 0

            def __iter__(self):
                return self

            def __next__(self):
                line = next(self._iter)
                self.consumed += 1
                return line

        with path.open(newline="") as handle:
            counter = CountingLines(handle)
            reader = BackblazeReader(counter, source=str(path))
            first = next(iter(reader))
        assert first.serial == "S0000"
        assert counter.consumed <= 5  # header + a row or two of lookahead

    def test_missing_mapped_columns_surface_in_header_ledger(self, tmp_path):
        path = tmp_path / "partial.csv"
        kept = [c for c in COLUMN_TO_CHANNEL if c != "smart_189_normalized"]
        header = ["date", "serial_number", "model", "failure"] + kept
        lines = [",".join(header),
                 ",".join(["2024-01-01", "S1", "ST4000", "0"] + ["1"] * len(kept))]
        path.write_text("\n".join(lines) + "\n")
        with path.open(newline="") as handle:
            reader = BackblazeReader(handle, source=str(path))
            assert reader.missing_columns == ("smart_189_normalized",)
            (block,) = list(reader)
        assert len(block) == 1
        assert np.isnan(block.reading[0, channel_index("HFW")])

    def test_missing_columns_reach_the_lenient_result(self, tmp_path):
        path = tmp_path / "partial.csv"
        path.write_text(
            "date,serial_number,model,failure,smart_9_normalized\n"
            "2024-01-01,S1,ST4000,0,95\n"
        )
        result = read_backblaze_csv(path, lenient=True)
        assert str(path) in result.missing_columns
        absent = result.missing_columns[str(path)]
        assert "smart_1_normalized" in absent
        assert "smart_9_normalized" not in absent


class TestFilterAndLabelParams:
    def test_models_prefix_filter(self, tmp_path):
        path = tmp_path / "mixed.csv"
        _write_sample(
            path,
            [
                _row("2024-01-01", "S1", model="ST4000DM000"),
                _row("2024-01-01", "S2", model="ST12000NM0007"),
                _row("2024-01-01", "S3", model="HGST H540"),
            ],
        )
        drives = read_backblaze_csv(path, models=("ST4000",))
        assert [d.serial for d in drives] == ["S1"]
        both = read_backblaze_csv(path, models=("ST4000", "HGST"))
        assert [d.serial for d in both] == ["S1", "S3"]

    def test_epoch_follows_the_filter(self, tmp_path):
        # S1 starts a day later than the filtered-out S2; after the
        # filter, S1's first day is the epoch (hour 0).
        path = tmp_path / "mixed.csv"
        _write_sample(
            path,
            [
                _row("2024-01-01", "S2", model="WDC"),
                _row("2024-01-02", "S1", model="ST4000"),
            ],
        )
        (drive,) = read_backblaze_csv(path, models=("ST",))
        assert drive.hours[0] == 0.0

    def test_failure_window_trims_history(self, tmp_path):
        path = tmp_path / "fail.csv"
        rows = [_row(f"2024-01-{day:02d}", "S1") for day in range(1, 11)]
        rows[-1] = _row("2024-01-10", "S1", failure=1)
        _write_sample(path, rows)
        (full,) = read_backblaze_csv(path)
        assert full.n_samples == 10
        (trimmed,) = read_backblaze_csv(path, failure_window_days=3)
        assert trimmed.n_samples <= 3
        assert trimmed.failure_hour == full.failure_hour

    def test_last_sample_failure_label(self, tmp_path):
        path = tmp_path / "fail.csv"
        _write_sample(
            path,
            [
                _row("2024-01-01", "S1"),
                _row("2024-01-02", "S1", failure=1),
            ],
        )
        (day_end,) = read_backblaze_csv(path)
        (last_sample,) = read_backblaze_csv(path, failure_label="last-sample")
        assert day_end.failure_hour == 48.0
        assert last_sample.failure_hour == 24.0

    def test_unknown_failure_label_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        _write_sample(path, [_row("2024-01-01", "S1")])
        with pytest.raises(ValueError, match="failure_label"):
            read_backblaze_csv(path, failure_label="whenever")


class TestRoundTrip:
    def test_synthetic_fleet_survives_daily_downsampling(self, tmp_path):
        fleet = SmartDataset.generate(
            default_fleet_config(
                w_good=3, w_failed=2, q_good=0, q_failed=0,
                collection_days=3, seed=21,
            )
        )
        path = tmp_path / "export.csv"
        rows = write_backblaze_csv(path, fleet.drives, start=date(2024, 6, 1))
        assert rows > 0
        reloaded = read_backblaze_csv(path)
        assert len(reloaded) == len(fleet.drives)
        by_serial = {d.serial: d for d in reloaded}
        for original in fleet.drives:
            copy = by_serial[original.serial]
            assert copy.failed == original.failed
            # Daily downsampling: one row per observed day.
            assert copy.n_samples <= original.n_samples
            assert copy.n_samples >= 1

    def test_loaded_fleet_runs_through_the_pipeline(self, tmp_path):
        fleet = SmartDataset.generate(
            default_fleet_config(
                w_good=40, w_failed=10, q_good=0, q_failed=0,
                collection_days=7, seed=22,
            )
        )
        path = tmp_path / "export.csv"
        write_backblaze_csv(path, fleet.drives)
        dataset = SmartDataset(read_backblaze_csv(path, family_from_model=False))
        split = dataset.split(seed=1)

        from repro.core.config import CTConfig, SamplingConfig
        from repro.core.predictor import DriveFailurePredictor

        # Daily cadence: use day-scale change rates and windows.
        config = CTConfig(
            features=[*_daily_features()],
            sampling=SamplingConfig(failed_window_hours=168.0),
            minsplit=4, minbucket=2, cp=0.002,
        )
        predictor = DriveFailurePredictor(config).fit(split)
        result = predictor.evaluate(split, n_voters=1)
        assert 0.0 <= result.fdr <= 1.0


def _daily_features():
    from repro.features.vectorize import Feature
    from repro.smart.attributes import channel_shorts

    features = [Feature(short) for short in channel_shorts()]
    features.append(Feature("RRER", 24.0))
    return features
