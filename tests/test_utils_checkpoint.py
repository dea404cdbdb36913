"""Checkpoint/resume: the JSON store, the grid, and the updating sweep."""

from __future__ import annotations

import json
import sys

import pytest

from repro.core.config import CTConfig
from repro.core.predictor import DriveFailurePredictor
from repro.experiments.common import ExperimentScale, run_experiment_grid
from repro.updating.simulator import simulate_updating
from repro.updating.strategies import FixedStrategy, ReplacingStrategy
from repro.utils.checkpoint import JsonCheckpoint, decode_object, encode_object

#: Names appended by the fake experiment drivers (serial execution, so
#: module globals are visible to the grid).
CALLS: list[str] = []

#: When True, ``_run_crash`` simulates the process dying mid-grid.
_CRASH = False


def _run_a(scale):
    CALLS.append("a")
    return {"cell": "a", "metric": 0.1 + 0.2}


def _run_crash(scale):
    CALLS.append("crash")
    if _CRASH:
        raise RuntimeError("simulated mid-grid crash")
    return {"cell": "crash", "metric": 1.0 / 3.0}


def _run_b(scale):
    CALLS.append("b")
    return {"cell": "b", "metric": 2.5}


GRID = {"a": _run_a, "crash": _run_crash, "b": _run_b}


class TestJsonCheckpoint:
    def test_roundtrip_across_instances(self, tmp_path):
        path = tmp_path / "ckpt.json"
        store = JsonCheckpoint(path, kind="demo")
        store.set("one", {"x": 1})
        store.set("two", [1.5, 2.5])
        reloaded = JsonCheckpoint(path, kind="demo")
        assert len(reloaded) == 2
        assert "one" in reloaded
        assert reloaded.keys() == ["one", "two"]
        assert reloaded.get("one") == {"x": 1}
        assert reloaded.get("missing", "default") == "default"

    def test_missing_file_starts_empty(self, tmp_path):
        assert len(JsonCheckpoint(tmp_path / "absent.json", kind="demo")) == 0

    def test_kind_mismatch_raises(self, tmp_path):
        path = tmp_path / "ckpt.json"
        JsonCheckpoint(path, kind="grid").set("k", 1)
        with pytest.raises(ValueError, match="'grid'"):
            JsonCheckpoint(path, kind="sweep")

    def test_torn_file_raises_rather_than_discarding(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text('{"version": 1, "kind": "demo", "cells": {')
        with pytest.raises(ValueError, match="corrupted 'demo' checkpoint") as err:
            JsonCheckpoint(path, kind="demo")
        assert str(path) in str(err.value)
        assert "delete the file" in str(err.value)

    def test_non_object_document_raises_with_kind_and_path(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="corrupted 'demo' checkpoint"):
            JsonCheckpoint(path, kind="demo")

    def test_no_temp_files_left_behind(self, tmp_path):
        store = JsonCheckpoint(tmp_path / "ckpt.json", kind="demo")
        for i in range(5):
            store.set(str(i), i)
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]

    def test_encode_decode_arbitrary_object(self):
        value = {"floats": (0.1, float("inf")), "nested": [1, "x"]}
        payload = encode_object(value)
        json.dumps(payload)  # must be JSON-able
        assert decode_object(payload) == value


class TestGridCheckpoint:
    def test_interrupted_grid_resumes_bit_identically(self, tmp_path, monkeypatch):
        scale = ExperimentScale.tiny()
        path = tmp_path / "grid.json"
        CALLS.clear()

        baseline = run_experiment_grid(GRID, scale)
        assert CALLS == ["a", "crash", "b"]

        # The grid dies at its second cell; the first is already on disk.
        CALLS.clear()
        monkeypatch.setattr(sys.modules[__name__], "_CRASH", True)
        with pytest.raises(RuntimeError, match="simulated mid-grid crash"):
            run_experiment_grid(GRID, scale, checkpoint_path=path)
        assert CALLS == ["a", "crash"]
        assert JsonCheckpoint(path, kind="experiment-grid").keys() == ["a"]

        # Resume: the finished cell is loaded, not recomputed, and the
        # final results match the uninterrupted run exactly.
        CALLS.clear()
        monkeypatch.setattr(sys.modules[__name__], "_CRASH", False)
        resumed = run_experiment_grid(GRID, scale, checkpoint_path=path)
        assert CALLS == ["crash", "b"]
        assert resumed == baseline
        assert list(resumed) == list(baseline)

        # A third run recomputes nothing at all.
        CALLS.clear()
        rerun = run_experiment_grid(GRID, scale, checkpoint_path=path)
        assert CALLS == []
        assert rerun == baseline


class TestSimulatorCheckpoint:
    def _sweep(self, dataset, factory, *, n_weeks=3, checkpoint_path=None):
        return simulate_updating(
            dataset,
            factory,
            [FixedStrategy(), ReplacingStrategy(1)],
            n_weeks=n_weeks,
            n_voters=5,
            split_seed=2,
            checkpoint_path=checkpoint_path,
        )

    def test_resume_skips_refits_and_is_identical(
        self, aging_fleet_small, tmp_path
    ):
        config = CTConfig(minsplit=4, minbucket=2, cp=0.002)
        fits = []

        def factory():
            fits.append(1)
            return DriveFailurePredictor(config)

        path = tmp_path / "sweep.json"
        baseline = self._sweep(aging_fleet_small, factory)
        first = self._sweep(aging_fleet_small, factory, checkpoint_path=path)
        assert first == baseline
        n_fits = len(fits)

        # Every cell is on disk: the resume fits nothing and reproduces
        # the reports bit-identically (frozen dataclasses compare by
        # value, so == is exact float equality all the way down).
        resumed = self._sweep(aging_fleet_small, factory, checkpoint_path=path)
        assert len(fits) == n_fits
        assert resumed == baseline

    def test_partial_checkpoint_extends_cleanly(self, aging_fleet_small, tmp_path):
        config = CTConfig(minsplit=4, minbucket=2, cp=0.002)

        def factory():
            return DriveFailurePredictor(config)

        path = tmp_path / "sweep.json"
        self._sweep(aging_fleet_small, factory, n_weeks=3, checkpoint_path=path)
        extended = self._sweep(
            aging_fleet_small, factory, n_weeks=4, checkpoint_path=path
        )
        fresh = self._sweep(aging_fleet_small, factory, n_weeks=4)
        assert extended == fresh
