"""Streaming deployment: a monitoring daemon over live SMART feeds.

The offline experiments replay whole drive histories; production works
the other way around — records arrive hour by hour, interleaved across
thousands of drives, and the monitor must hold per-drive state (feature
lags, voting windows) itself.  This example wires a fitted CT into the
:class:`~repro.detection.streaming.FleetMonitor` and replays the test
fleet as a single merged, time-ordered event stream, printing alerts as
they fire — exactly what a cron-driven SMART collector would do.

Run:
    python examples/online_monitoring.py
"""

import heapq

import numpy as np

from repro import CTConfig, DriveFailurePredictor, SmartDataset, default_fleet_config
from repro.detection import FleetMonitor, VoterSpec

N_VOTERS = 11


def event_stream(drives):
    """Merge per-drive histories into one (hour, serial, values) feed."""

    def feed(drive):
        for hour, values in zip(drive.hours, drive.values):
            yield hour, drive.serial, values

    yield from heapq.merge(
        *(feed(drive) for drive in drives),
        key=lambda event: (event[0], event[1]),
    )


def main() -> None:
    fleet = SmartDataset.generate(
        default_fleet_config(
            w_good=300, w_failed=25, q_good=0, q_failed=0, collection_days=7, seed=31
        )
    )
    split = fleet.filter_family("W").split(seed=4)
    predictor = DriveFailurePredictor(CTConfig()).fit(split)
    print("Model trained; starting the monitoring daemon...\n")

    monitor = FleetMonitor.from_predictor(
        predictor, VoterSpec("majority", N_VOTERS)
    )

    watched = list(split.test_good) + list(split.test_failed)
    failure_hours = {
        drive.serial: drive.failure_hour for drive in split.test_failed
    }
    n_events = 0
    for hour, serial, values in event_stream(watched):
        n_events += 1
        alert = monitor.observe(serial, hour, values)
        if alert is None:
            continue
        failure = failure_hours.get(serial)
        if failure is None:
            verdict = "drive survives (false alarm)"
        else:
            verdict = f"drive really fails at t+{failure - hour:.0f}h"
        print(f"[t={hour:7.1f}h] ALERT {serial}: {verdict}")
    monitor.finalize()

    alerted = {alert.serial for alert in monitor.alerts}
    detected = alerted & set(failure_hours)
    false_alarms = alerted - set(failure_hours)
    print(
        f"\nProcessed {n_events} SMART records from "
        f"{len(monitor.watched_drives())} drives."
    )
    print(
        f"Detected {len(detected)}/{len(failure_hours)} impending failures "
        f"({100 * len(detected) / max(len(failure_hours), 1):.0f}% FDR) with "
        f"{len(false_alarms)} false alarms "
        f"({100 * len(false_alarms) / max(len(watched) - len(failure_hours), 1):.2f}% FAR)."
    )


if __name__ == "__main__":
    main()
