"""The serving contract across deployments: one pinned digest per scenario.

Each cell runs one scenario on one deployment (a supervised one through
one lifecycle) and asserts that the run's digest
(:func:`tests.serving_digest.run_surfaces`, hashed by
:func:`~tests.serving_digest.digest`) equals the scenario's pinned
digest in :data:`DIGESTS`.  Every cell also asserts that the health
counters replayed from its events equal its live counters.  The
single-monitor cell is the reference: it is checked against the same
pin, and it alone asserts that the scenario means something — it
raises alerts, and the faults it is built to raise (a profile, which
runs on one deployment, asserts that there).

Scenarios (:data:`SCENARIOS`):

* ``records-*`` — record ticks with every fault kind and duplicate
  serials, then outcomes; under the majority-3 and the mean-threshold
  voter;
* ``matrix`` — clean ticks on a registered roster;
* ``matrix-faults-*`` — roster ticks whose rows fault on several
  shards, then a re-registered roster; under both voters;
* ``pinned-feed`` — a feed pinned shard-side (a single monitor is sent
  it each tick);
* ``single-observe`` — one record per ``observe`` call;
* ``tree`` — the records stream with a fitted tiny tree, so alerts
  carry provenance and the explain report is not empty;
* ``profile-*`` — every built-in fault profile at seed 1 on a small
  generated fleet (:data:`MATRIX_FLEET`), replayed record by record
  under majority-5 with a worn-drive scorer.

Deployments (:data:`DEPLOYMENTS`): the single ``FleetMonitor``;
sharded serial at 1, 2 and 7 shards; sharded process at 2; supervised
serial at 2 and 7; supervised process at 2.

Supervised lifecycles (:data:`LIFECYCLES`), each asserting its
recoveries and replayed ticks:

* ``plain`` — snapshots every 4 ticks, no death;
* ``kill`` — shards lost before ticks 3, 7 and 10, across snapshot
  boundaries (3 recoveries, 3 + 3 + 2 ticks replayed);
* ``checkpoint-kill`` — no cadence, a checkpoint before tick 4 and a
  loss before tick 6 (1 recovery, 2 ticks replayed): the recovered
  shard rebuilds from the re-seeded pins;
* ``fresh-kill`` — no snapshot ever; a loss before tick 5 rebuilds the
  shard from its spec (1 recovery, 5 ticks replayed);
* ``mid-dispatch`` — the probe disabled, so deaths are found during a
  dispatch: before tick 6 (the in-flight tick is excluded from replay
  and re-submitted) and before tick 11 under a checkpoint's export
  (2 recoveries, 2 + 3 ticks replayed).

Not the full cross product, which would cost more tier-1 time than
the parity tests it replaced.  The cells (:data:`CELLS`) are chosen so
that every scenario but the profiles meets every deployment kind and
every lifecycle runs on supervised serial shards:

* every scenario but the profiles on single and sharded serial at 1, 2
  and 7, and on supervised serial at 2 through ``kill`` and
  ``mid-dispatch``;
* :data:`FEW` of them on supervised serial at 2 through ``plain``,
  ``checkpoint-kill`` and ``fresh-kill``; ``records-majority`` and
  ``matrix`` on supervised serial at 7 through ``kill``;
* :data:`PROCESS_STREAMS` on sharded process at 2;
* on supervised process at 2: ``records-majority`` through ``kill``,
  ``fresh-kill`` and ``mid-dispatch``, ``pinned-feed`` through
  ``checkpoint-kill``, ``matrix-faults-majority`` through
  ``mid-dispatch``;
* every profile on sharded serial at 7 only, where its reference
  checks run too.  A profile replays about 1,000 records one
  ``observe`` at a time, so a profile cell costs as much as several
  others, and the columnar suite already replays every profile through
  a single monitor against 28 pinned digests.

Every process cell's id contains ``process``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Optional

import pytest

from repro.detection import QuarantinePolicy, SupervisedShardedMonitor, VoterSpec, shard_for
from repro.observability.slo import SLOMonitor
from repro.robustness import BUILTIN_PROFILES
from tests.serving_digest import (
    build_sharded,
    build_single,
    build_supervised,
    digest,
    drive_matrix,
    drive_matrix_faults,
    drive_pinned_feed,
    drive_records,
    drive_single_observe,
    kill,
    profile_driver,
    run_surfaces,
    score_sum_batch,
    score_sum_sample,
    score_worn_batch,
    score_worn_sample,
    tiny_tree,
)


def _alerts(surfaces):
    assert surfaces["alerts"], "a reference that never alerts pins nothing"


def _every_record_fault(surfaces):
    _alerts(surfaces)
    kinds = {kind for _, _, kind, _ in surfaces["faults"]}
    assert {"wrong-shape", "non-finite-time", "duplicate-serial"} <= kinds


def _roster_faults_on_several_shards(surfaces):
    _alerts(surfaces)
    assert {kind for _, _, kind, _ in surfaces["faults"]} == {
        "duplicate-time", "out-of-order",
    }
    faulted = {serial for serial, _, _, _ in surfaces["faults"]}
    for n_shards in (2, 7):
        assert len({shard_for(serial, n_shards) for serial in faulted}) > 1


def _explained(surfaces):
    _every_record_fault(surfaces)
    report = json.loads(surfaces["explain"])
    assert report["alerts_with_path"] >= 1
    assert report["alerts_resolved"] >= 1


def _faults(surfaces):
    _alerts(surfaces)
    assert surfaces["faults"]


def _mean_voter():
    return {
        "detector_factory": VoterSpec("mean", 4, threshold=0.0),
        "score_sample": score_sum_sample,
        "score_batch": score_sum_batch,
    }


def _profile_kwargs():
    return {
        "detector_factory": VoterSpec("majority", 5),
        "quarantine": QuarantinePolicy(fault_limit=3),
        "score_sample": score_worn_sample,
        "score_batch": score_worn_batch,
    }


@dataclass(frozen=True)
class Scenario:
    """A stream, the build kwargs it needs, and what its reference must show.

    ``every_shard_ticks``: each dispatch calls every shard, so a lost
    shard replays every tick since the last snapshot.  When one record
    is one dispatch, it replays only its own records: fewer.
    """

    drive: Callable
    kwargs: Callable[[], dict] = dict
    check: Callable[[dict], None] = _alerts
    every_shard_ticks: bool = True


SCENARIOS = {
    "records-majority": Scenario(drive_records, check=_every_record_fault),
    "records-mean": Scenario(drive_records, _mean_voter, _every_record_fault),
    "matrix": Scenario(drive_matrix),
    "matrix-faults-majority": Scenario(
        drive_matrix_faults, check=_roster_faults_on_several_shards
    ),
    "matrix-faults-mean": Scenario(
        drive_matrix_faults, _mean_voter, _roster_faults_on_several_shards
    ),
    "pinned-feed": Scenario(drive_pinned_feed),
    "single-observe": Scenario(drive_single_observe, every_shard_ticks=False),
    "tree": Scenario(drive_records, lambda: {"tree": tiny_tree()}, _explained),
}
#: The scenarios every deployment runs; the profiles run on fewer.
STREAMS = list(SCENARIOS)

#: The profiles that inject faults the gate must catch; the others
#: corrupt values (NaN, noise, stuck or missing readings) without one.
FAULTING_PROFILES = {"dirty-feed", "everything"}
#: Half the records of the columnar suite's fleet, at a generator seed
#: where, at injection seed 1, the reference alerts under every profile
#: and no profile leaves the clean stream's digest.
MATRIX_FLEET = {
    "w_good": 2, "w_failed": 1, "q_good": 1, "q_failed": 1, "collection_days": 1, "seed": 20,
}
for _profile in sorted(BUILTIN_PROFILES):
    SCENARIOS[f"profile-{_profile}"] = Scenario(
        profile_driver(_profile, 1, MATRIX_FLEET),
        _profile_kwargs,
        _faults if _profile in FAULTING_PROFILES else _alerts,
    )

#: name -> (monitor type, shard count, mode).
DEPLOYMENTS = {
    "single": ("single", None, None),
    "sharded-serial-1": ("sharded", 1, "serial"),
    "sharded-serial-2": ("sharded", 2, "serial"),
    "sharded-serial-7": ("sharded", 7, "serial"),
    "sharded-process-2": ("sharded", 2, "process"),
    "supervised-serial-2": ("supervised", 2, "serial"),
    "supervised-serial-7": ("supervised", 7, "serial"),
    "supervised-process-2": ("supervised", 2, "process"),
}


@dataclass(frozen=True)
class Lifecycle:
    """What befalls a supervised run, and the recovery it must report.

    Before dispatch ``at``: victim ``kills[at]`` (see :data:`VICTIMS`)
    is lost, then a manual checkpoint runs if ``at == checkpoint_at``.
    With ``probe`` off, deaths are found during the next dispatch, not
    by the pre-tick probe.
    """

    snapshot_every: int
    kills: dict = field(default_factory=dict)
    checkpoint_at: Optional[int] = None
    probe: bool = True
    recoveries: int = 0
    replayed_ticks: int = 0

    def before(self, monitor, at):
        if at in self.kills:
            victim = VICTIMS[monitor.n_shards][self.kills[at]]
            kill(monitor, victim, wait=self.probe)
        if at == self.checkpoint_at:
            monitor.checkpoint()
            assert monitor.journal.tick_count == 0
            # The re-journaled pins carry payloads, not references into
            # the sidecars the checkpoint deleted.
            assert all(type(payload) is dict for _, _, payload in monitor._pin_calls or ())

    def check(self, monitor, every_shard_ticks):
        assert monitor.recoveries == self.recoveries
        if every_shard_ticks:
            assert monitor.replayed_ticks == self.replayed_ticks
        else:
            assert monitor.replayed_ticks <= self.replayed_ticks
        assert monitor.quarantined_shards == []


#: Per shard count, two shards that own drives in every scenario, so a
#: lost one always has journaled ticks to replay.
VICTIMS = {2: (0, 1), 7: (2, 5)}

LIFECYCLES = {
    "plain": Lifecycle(snapshot_every=4),
    "kill": Lifecycle(
        snapshot_every=4, kills={3: 0, 7: 1, 10: 0}, recoveries=3, replayed_ticks=8
    ),
    "checkpoint-kill": Lifecycle(
        snapshot_every=0, kills={6: 0}, checkpoint_at=4, recoveries=1, replayed_ticks=2
    ),
    "fresh-kill": Lifecycle(
        snapshot_every=0, kills={5: 1}, recoveries=1, replayed_ticks=5
    ),
    "mid-dispatch": Lifecycle(
        snapshot_every=4, kills={6: 1, 11: 1}, checkpoint_at=11, probe=False,
        recoveries=2, replayed_ticks=5,
    ),
}


#: Scenarios that also run the rarer supervised-serial cells.
FEW = ("records-majority", "matrix", "matrix-faults-mean", "pinned-feed", "single-observe")
#: Scenarios that also run on sharded process shards.
PROCESS_STREAMS = ("records-majority", "matrix-faults-majority", "pinned-feed", "tree")


def _cells():
    serial = ("single", "sharded-serial-1", "sharded-serial-2", "sharded-serial-7")
    cells = [(name, deployment, None) for name in STREAMS for deployment in serial]
    cells += [(name, "sharded-process-2", None) for name in PROCESS_STREAMS]
    cells += [
        (name, "supervised-serial-2", lifecycle)
        for name in STREAMS for lifecycle in ("kill", "mid-dispatch")
    ]
    cells += [
        (name, "supervised-serial-2", lifecycle)
        for name in FEW for lifecycle in ("plain", "checkpoint-kill", "fresh-kill")
    ]
    cells += [(name, "supervised-serial-7", "kill") for name in ("records-majority", "matrix")]
    cells += [
        ("records-majority", "supervised-process-2", lifecycle)
        for lifecycle in ("kill", "fresh-kill", "mid-dispatch")
    ]
    cells += [
        ("pinned-feed", "supervised-process-2", "checkpoint-kill"),
        ("matrix-faults-majority", "supervised-process-2", "mid-dispatch"),
    ]
    cells += [(name, "sharded-serial-7", None) for name in SCENARIOS if name not in STREAMS]
    return cells


CELLS = _cells()


def _cell_id(cell):
    return "-".join(part for part in cell if part is not None)


#: One per scenario, recorded from its single-monitor reference.  A
#: serving change that moves one changes the contract.
DIGESTS = {
    "records-majority":
        "f9656341dccb346b8c1cc16db9f83f0dfb75f926407860a622ebdb8f2e3e748c",
    "records-mean":
        "37da11e80b779e0b16d203519fcee3904b663a9d3f6b260116a0855a96efd4eb",
    "matrix":
        "520883893316118f431d77e494f3b74b69f3ee04efe63d9ccd438f53fdc11605",
    "matrix-faults-majority":
        "afa5a29c34cbfd792f989bae9e7e16b4894d51b6c386aa6979294df3b4cc2cd8",
    "matrix-faults-mean":
        "7c157406ae9012a4f4242c29dabc76fe5b2c145f34c35734cfdff13e0da43c29",
    "pinned-feed":
        "6531d67fb1c77cf4850056ffa704634d25651afddd7d3e31419cf0b23686a38c",
    "single-observe":
        "35e29099e3f5cdb7555d2c8a3cc1d1b4e253f1c655eef700b7e79d915faf25c5",
    "tree":
        "4ad5705b884e6f0a45d99684f0437397bda00e1ab812806457e4afe743a2102e",
    "profile-clean":
        "fbe8d667c248e95664177bc55c8a358fa8b9e531f21472136a0cf7199cf97cab",
    "profile-dirty-feed":
        "909a00d89013a37631c1585b0b5e2d9161ed9a323401741837ec7b58dc22aa8a",
    "profile-dropout":
        "12dda72e8383fe9bb6f3e6e2d24ee8b520f7aa9ac35bf2876284c6dff02cc2fe",
    "profile-everything":
        "edf6e6e78cd09ea9be54765e6e472ed2b5624b56e04fa7b204cdaffeee099668",
    "profile-sensor-noise":
        "0ecafda97223635bdba7ff4550c32b9a70c94e625ae6c721df26d321dc7c9281",
    "profile-stuck-sensor":
        "0bc682868ba393e23346b07a797ff04dc866e88e1524da6fcc01f6a9c24b00c5",
    "profile-truncated":
        "7ac716da3f2c2356fcbc33dab25e11214e64e1086f2172fd73ac77b6c31aac9d",
}


def _build(deployment, kwargs, run_dir, lifecycle):
    kind, n_shards, mode = DEPLOYMENTS[deployment]
    if kind == "single":
        return build_single(**kwargs)
    if kind == "sharded":
        return build_sharded(n_shards, mode=mode, **kwargs)
    return build_supervised(
        n_shards, run_dir, mode=mode, snapshot_every=lifecycle.snapshot_every, **kwargs
    )


@pytest.mark.parametrize("cell", CELLS, ids=_cell_id)
def test_cell_matches_the_pinned_digest(cell, tmp_path, monkeypatch):
    name, deployment, lifecycle_name = cell
    scenario = SCENARIOS[name]
    lifecycle = LIFECYCLES.get(lifecycle_name)
    # Built outside the run, so fitting the tree is not in its metrics.
    kwargs = {"slo": SLOMonitor(), **scenario.kwargs()}
    if lifecycle is None:
        drive = scenario.drive
    else:
        if not lifecycle.probe:
            monkeypatch.setattr(SupervisedShardedMonitor, "probe_shards", lambda self: None)

        def drive(monitor):
            scenario.drive(monitor, lifecycle.before)
            lifecycle.check(monitor, scenario.every_shard_ticks)

    surfaces = run_surfaces(
        lambda: _build(deployment, kwargs, tmp_path / "run", lifecycle), drive
    )
    if deployment == "single" or name not in STREAMS:
        scenario.check(surfaces)
    assert digest(surfaces) == DIGESTS[name]
