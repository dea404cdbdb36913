"""Tiny-scale smoke test of every benchmark workload, untraced and traced.

The ingest path reads the checked-in ``tests/fixtures/backblaze_mini``
dump (read only).  Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "tests" / "fixtures" / "backblaze_mini"

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import END_TO_END, PER_LAYER, WORKLOAD_NAMES  # noqa: E402

#: The figures each workload must print, with their units.
FIGURES = {"setup_s": "s", "peak_rss_mb": "MB", "error_rate": "ratio"}
SERVING = {"tick_p50_ms": "ms", "tick_p90_ms": "ms", "drive_samples_per_s": "1/s"}
WORKLOAD_FIGURES = {
    "serve-100k": {**FIGURES, **SERVING},
    "supervised-100k": {**FIGURES, **SERVING, "recovery_s": "s"},
    "ingest-train": {
        **FIGURES, "ingest_rows_per_s": "1/s", "train_s": "s",
        "evaluate_s": "s", "pipeline_s": "s",
    },
    "audit-5k": {**FIGURES, **SERVING, "explain_s": "s"},
}


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    """A fresh working directory whose ``src`` is this repository's."""
    path = tmp_path_factory.mktemp("checkout")
    (path / "src").symlink_to(ROOT / "src")
    return path


@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_reports_its_metrics(checkout, trace):
    command = [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "all",
        "--scale", "tiny", "--seconds", "1", "--trace", str(trace),
        "--dump", str(FIXTURE),
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True, timeout=900)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    declared = PER_LAYER if trace else END_TO_END
    for workload in WORKLOAD_NAMES:
        for name, unit in declared.items():
            entry = result["metrics"][f"{workload}.{name}"]
            assert entry["unit"] == unit and entry["value"] > 0, (workload, name)
        record = json.loads(
            (checkout / ".perfbench" / "results"
             / f"{workload}-trace{trace}-seed1.json").read_text()
        )
        for name, unit in WORKLOAD_FIGURES[workload].items():
            assert record["detail"][name]["unit"] == unit, (workload, name)


def processes_in(path: Path) -> list:
    """Command lines of the processes whose working directory is ``path``."""
    found = []
    for proc in Path("/proc").glob("[0-9]*"):
        try:
            if Path(os.readlink(proc / "cwd")) == path:
                found.append((proc / "cmdline").read_bytes())
        except OSError:
            pass
    return found


@pytest.mark.skipif(not Path("/proc/self/cwd").exists(), reason="needs /proc")
def test_no_process_outlives_a_run(checkout):
    # supervised-100k spawns shard workers, kills one, and (with spawned
    # workers) starts multiprocessing's resource tracker.
    command = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", "supervised-100k", "--scale", "tiny", "--seconds", "1",
        "--trace", "0",
    ]
    run = subprocess.Popen(command, cwd=checkout, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, start_new_session=True)
    _, stderr = run.communicate(timeout=600)
    assert run.returncode == 0, stderr
    # Nothing is left in the run's process group, not even an unreaped
    # zombie, and no process still works in the checkout.
    with pytest.raises(ProcessLookupError):
        os.killpg(run.pid, 0)
    assert processes_in(checkout.resolve()) == []


def test_refuses_to_run_without_the_program(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", "serve-100k", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
