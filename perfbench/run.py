"""The repository benchmark: seeded workloads from ingest to audit.

Run from the root of a checkout (the program is imported from ``src``)::

    python3 perfbench/run.py --workload serve-100k --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12

One run measures one workload (``--workload all`` runs each in its own
process) and prints, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` times every public call
the workload makes on a benchmark-owned tracer and reports per-layer
self times; it leaves every other operation untraced to measure its own
overhead.  Above the last line a run prints the workload's own figures
and, when traced, its span table.  Results and spans are written under
``.perfbench/results/``.  ``--workload all`` also holds serve-100k and
supervised-100k to the same alerts.  The workload runs in a session of
its own, and ``run.py`` exits only once every process of that session
has ended.  ``perfbench/README.md`` describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK = Path(".perfbench")
WORKLOAD_NAMES = ("serve-100k", "supervised-100k", "ingest-train", "audit-5k")

#: End-to-end metrics (untraced runs) and per-layer metrics (traced runs),
#: name -> unit; BENCHMARK.json declares the same names.
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "smart.self_s": "s",
    "core.sampling.self_s": "s",
    "tree.self_s": "s",
    "tree.compiled.self_s": "s",
    "detection.self_s": "s",
    "tree.n_leaves": "count",
    "tree.compiled.rows_scored": "count",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--dump", type=Path, default=None,
                        help="ingest this Backblaze dump (read only) instead "
                             "of a generated one")
    parser.add_argument("--in-session", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_one(args) -> dict:
    sys.path.insert(0, str(Path("src").resolve()))
    sys.path.insert(0, str(HERE))
    import numpy as np
    from repro.observability.tracing import Tracer

    from layers import (
        LAYERS,
        Spans,
        format_table,
        layer_self,
        layer_share,
        span_table,
        trace_overhead_ratio,
    )
    from workloads import SCALES, WORKLOADS, Bench, peak_rss_mb

    tracer = Tracer() if args.trace else None
    bench = Bench(
        seed=args.seed, seconds=args.seconds, scale=SCALES[args.scale],
        work=WORK / args.workload, spans=Spans(tracer), dump=args.dump,
    )
    bench.work.mkdir(parents=True, exist_ok=True)
    outcome = WORKLOADS[args.workload](bench)

    correct = all(outcome.checks.values())
    attempted = len(outcome.op_s)
    failed = 0 if correct else attempted
    rss = outcome.peak_rss_mb if outcome.peak_rss_mb is not None else peak_rss_mb()
    detail = {
        "setup_s": (float(np.median(outcome.setup_s)), "s"),
        **outcome.detail,
        "peak_rss_mb": (rss, "MB"),
        "error_rate": (failed / attempted, "ratio"),
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "scale": args.scale, "trace": args.trace, "checks": outcome.checks,
        "digest": outcome.digest,
        "detail": {name: {"value": v, "unit": u} for name, (v, u) in detail.items()},
        "op_ms": [seconds * 1e3 for seconds in outcome.op_s],
    }
    if tracer is None:
        values = {
            "setup_s": detail["setup_s"][0],
            "op_p50_ms": float(np.percentile(outcome.op_s, 50)) * 1e3,
            "samples_per_s": outcome.samples / sum(outcome.op_s),
            "peak_rss_mb": rss,
        }
        units = END_TO_END
    else:
        table = span_table(tracer.spans)
        selfs = layer_self(table)
        values = {f"{layer}.self_s": selfs[layer] for layer in LAYERS}
        values.update({
            "tree.n_leaves": outcome.n_leaves,
            "tree.compiled.rows_scored": outcome.rows_scored,
        })
        outcome.layer.update({
            "bench.trace_overhead_ratio": (
                trace_overhead_ratio(outcome.op_s, outcome.op_traced), "ratio"),
            "bench.layer_share": (
                layer_share(tracer.spans), "ratio"),
        })
        units = PER_LAYER
        record["spans"] = table
        record["layer_detail"] = {
            name: {"value": v, "unit": u} for name, (v, u) in outcome.layer.items()
        }
        print(format_table(table))
        for name, (value, unit) in outcome.layer.items():
            print(f"  {name} = {value:.6g} {unit}")
        write_json(
            WORK / "results" / f"{args.workload}-seed{args.seed}-spans.json",
            [span.__dict__ for span in tracer.spans],
        )
    record["metrics"] = {
        name: {"value": values[name], "unit": units[name]} for name in units
    }
    write_json(
        WORK / "results"
        / f"{args.workload}-trace{args.trace}-seed{args.seed}.json", record,
    )
    for name, (value, unit) in detail.items():
        print(f"{args.workload}: {name} = {value:.6g} {unit}")
    for name, ok in outcome.checks.items():
        print(f"{args.workload}: check {'ok  ' if ok else 'FAIL'} {name}")
    print(f"{args.workload}: output digest {outcome.digest}")
    return {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": record["metrics"],
    }


def write_json(path: Path, value) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(value, indent=1, default=str))


#: Workloads that serve one stream and must raise the same alerts.
SAME_ALERTS = ("serve-100k", "supervised-100k")


def run_all(args) -> dict:
    """Every workload in its own process; a summary of their figures.

    serve-100k and supervised-100k serve the same stream, so their output
    digests (the alert ids, serials and hours) must be equal; if they are
    not, every operation of both counts as failed.
    """
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    digests, attempted = {}, {}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__)), "--workload", name,
                   "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
                   "--trace", str(args.trace), "--scale", args.scale]
        if args.dump is not None:
            command += ["--dump", str(args.dump)]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              check=True)
        lines = done.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = entry
        record = json.loads((
            WORK / "results" / f"{name}-trace{args.trace}-seed{args.seed}.json"
        ).read_text())
        digests[name] = record["digest"]
        attempted[name] = 0 if result["failed"] else result["attempted"]
    same = len({digests[name] for name in SAME_ALERTS}) == 1
    print(f"check {'ok  ' if same else 'FAIL'} "
          f"{' and '.join(SAME_ALERTS)} raise the same alerts")
    if not same:
        summary["correct"] = False
        summary["failed"] += sum(attempted[name] for name in SAME_ALERTS)
    return summary


#: Seconds that processes left behind by a run get to end by themselves
#: (multiprocessing's resource tracker ends once the run has exited)
#: before they are killed.
LINGER_S = 10.0

#: ``prctl`` option that makes orphaned descendants children of the caller.
PR_SET_CHILD_SUBREAPER = 36


def run_in_session(argv) -> int:
    """Run this script on ``argv`` in a session of its own; then wait for
    every process of that session to end before returning its exit code.

    This process becomes a child subreaper where the system allows it, so
    pool workers, the resource tracker and any other descendant orphaned
    by the run become its children and are reaped here.  On SIGTERM, or
    if they linger, the session's processes are killed.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (AttributeError, OSError):
        pass
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__)), *argv, "--in-session"],
        start_new_session=True,
    )
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            kill_group(child.pid)
        end_session(child.pid)


def end_session(group: int) -> None:
    """Wait until process group ``group`` is empty, reaping this process's
    children as they end; kill the group if it outlives ``LINGER_S``."""
    deadline = time.monotonic() + LINGER_S
    killed = False
    while True:
        reap_children()
        try:
            os.killpg(group, 0)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            if killed:
                return
            kill_group(group)
            killed = True
            deadline = time.monotonic() + LINGER_S
        time.sleep(0.01)


def kill_group(group: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(group, signal.SIGKILL)


def reap_children() -> None:
    """Reap every child of this process that has ended."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parse_args(argv)
    if not (Path("src") / "repro").is_dir():
        print("run from the root of a checkout: src/repro not found",
              file=sys.stderr)
        return 2
    if not args.in_session:
        return run_in_session(argv)
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
