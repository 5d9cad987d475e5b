#!/usr/bin/env python3
"""Simulator benchmark: host time per simulated op on four BM-Store workloads.

Run from the repository root::

    python3 simbench/run.py --workload fio-randread-qd128 --seed 7 \\
        --seconds 20 --trace 0

Each run is one process with one simulation at a time and no worker
pool.  It first runs the workload once untimed (warm-up, and the
reference its outputs must reproduce), then repeats set-up + timed
simulation until ``--seconds`` have passed.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and profiled
repetitions and prints the per-layer table.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Results, the environment they were measured in and (with
``--trace 1``) the raw profile are also written under ``.simbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from calibrate import at_reference, calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".simbench_out"

#: every run sees the same environment, whatever its caller exported
#: (the test suite's conftest, for one, arms all checkers by default)
PINNED_ENV = {
    "REPRO_CHECKS": "off",
    "REPRO_SCHED": "wheel",
    "REPRO_TIME_SCALE": "0.25",
    "REPRO_WORKERS": "1",
}

DEFAULT_SEED = 7
#: never used while tuning; a later claim is confirmed on it
HELD_OUT_SEED = 1013


@dataclass
class Rep:
    """One repetition: its timings, outcome and (when captured) counts."""

    setup_s: float
    outcome: object
    #: host seconds of each segment of the timed phase
    segments: list
    #: set-up and timed phase at the reference host speed (see
    #: calibrate.py); traced repetitions are not rescaled
    ref_setup_s: float = 0.0
    ref_run_s: float = 0.0
    counts: Optional[dict] = None
    layers: Optional[dict] = None
    link_transfers: int = 0
    stages: dict = field(default_factory=dict)

    @property
    def run_s(self) -> float:
        return sum(self.segments)

    @property
    def us_per_op(self) -> float:
        return self.run_s * 1e6 / self.outcome.ops

    @property
    def ref_us_per_op(self) -> float:
        return self.ref_run_s * 1e6 / self.outcome.ops


def one_rep(wl, seed: int, capture: bool = False, profile=None) -> Rep:
    """Set up and run the workload once; set-up and run timed apart.

    The collector is paused over set-up and run, as ``run_one`` does,
    and the previous repetition's garbage is collected first, untimed.
    Untraced repetitions also time the calibration loop before set-up,
    before the timed phase and after each of its segments (outside the
    timed stretches), to rescale each stretch to the reference speed.
    """
    from layers import Capture, counters, stage_p50s

    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    cap = Capture() if capture else None
    segments: list[float] = []
    # loop times: before set-up, before the timed phase, after each segment
    speeds: list[float] = []

    def probe() -> None:
        if profile is None:
            speeds.append(calibrate())

    try:
        with cap or nullcontext():
            probe()
            t0 = time.perf_counter()
            state = wl.setup(seed)
            setup_s = time.perf_counter() - t0
            before = counters(cap) if cap else None
            probe()
            start = time.perf_counter()

            def tick() -> None:
                nonlocal start
                segments.append(time.perf_counter() - start)
                probe()
                start = time.perf_counter()

            with profile or nullcontext():
                wl.run(state, tick)
    finally:
        if was_enabled:
            gc.enable()
    rep = Rep(setup_s=setup_s, outcome=wl.result(state), segments=segments)
    if speeds:
        rep.ref_setup_s = at_reference(setup_s, speeds[0], speeds[1])
        rep.ref_run_s = sum(at_reference(seg, speeds[k + 1], speeds[k + 2])
                            for k, seg in enumerate(segments))
    if cap:
        after = counters(cap)
        rep.counts = {k: after[k] - before[k] for k in after}
        rep.stages = stage_p50s(cap)
    if profile:
        rep.layers, rep.link_transfers = profile.layers()
    return rep


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "env": dict(PINNED_ENV),
    }


def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` (no subprocess)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def _check_reps(reps: list[Rep], ref_digest: str) -> list[str]:
    """Every repetition must reproduce the reference outputs exactly."""
    failures = []
    for i, rep in enumerate(reps):
        failures += [f"rep {i}: {f}" for f in rep.outcome.failures]
        if rep.outcome.digest != ref_digest:
            failures.append(f"rep {i}: output digest {rep.outcome.digest} "
                            f"!= reference {ref_digest}")
    return failures


def _failed(reps: list[Rep], failures: list[str]) -> int:
    """Unexpected failures: check failures plus errors no fault explains."""
    unexpected = sum(max(0, r.outcome.io_errors - r.outcome.expected_errors)
                     for r in reps)
    return unexpected + len(failures)


def run_untraced(wl, seed: int, seconds: float, ref_digest: str):
    reps = []
    deadline = time.perf_counter() + seconds
    while not reps or time.perf_counter() < deadline:
        reps.append(one_rep(wl, seed))
    failures = _check_reps(reps, ref_digest)
    attempted = sum(r.outcome.ops for r in reps)
    io_errors = sum(r.outcome.io_errors for r in reps)
    first = reps[0].outcome
    per_op = sorted(r.us_per_op for r in reps)
    metrics = {
        "host_us_per_op": (statistics.median(r.ref_us_per_op for r in reps),
                           "us"),
        "setup_s": (statistics.median(r.ref_setup_s for r in reps), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "sim_iops": (first.sim_iops, "1/s"),
        "sim_p99_us": (first.sim_p99_us, "us"),
        "op_ok_ratio": (1.0 - (io_errors + len(failures)) / attempted, "ratio"),
    }
    notes = [
        f"host_us_per_op and setup_s: medians of n={len(reps)} repetitions "
        "at the reference host speed; wall us/op as measured: min "
        f"{per_op[0]:.2f} median {statistics.median(per_op):.2f} max "
        f"{per_op[-1]:.2f}; wall setup_s median "
        f"{statistics.median(r.setup_s for r in reps):.6f}",
        f"simulated-output digest {first.digest}",
        f"ops per repetition {first.ops}, I/O errors {first.io_errors}"
        f" ({first.expected_errors} caused by the injected fault)",
    ]
    return metrics, attempted, _failed(reps, failures), failures, notes


def run_traced(wl, seed: int, seconds: float, ref_digest: str):
    from layers import LAYERS, LayerProfile

    untraced: list[Rep] = []
    traced: list[Rep] = []
    profile = None
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(one_rep(wl, seed, capture=True))
        profile = LayerProfile(str(ROOT / "src"), str(HERE))
        traced.append(one_rep(wl, seed, capture=True, profile=profile))
    reps = untraced + traced
    failures = _check_reps(reps, ref_digest)

    first = traced[0]
    exact = (first.counts, first.stages, first.outcome.kv_stats,
             first.outcome.ops)
    if any((r.counts, r.stages, r.outcome.kv_stats, r.outcome.ops) != exact
           for r in reps):
        failures.append("exact counters differ between repetitions")
    calls = ({k: v["calls"] for k, v in first.layers.items()},
             first.link_transfers)
    if any(({k: v["calls"] for k, v in r.layers.items()}, r.link_transfers)
           != calls for r in traced):
        failures.append("per-layer call counts differ between traced runs")

    ops = first.outcome.ops
    counts = first.counts
    kv = first.outcome.kv_stats or {}
    user_bytes = first.outcome.user_write_bytes
    if user_bytes is None:
        user_bytes = counts["ns_write_bytes"]
    metrics = {
        "sim.events_per_op": (counts["events"] / ops, "events/op"),
        "host.driver_submitted_per_op": (counts["driver_submitted"] / ops,
                                         "cmds/op"),
        "host.driver_retries": (counts["driver_retries"], "count"),
        "host.driver_timeouts": (counts["driver_timeouts"], "count"),
        "nvme.ssd_write_bytes_per_user_byte": (
            counts["ssd_write_bytes"] / user_bytes if user_bytes else 0.0,
            "B/B"),
        "obs.spans_recorded_per_op": (counts["spans"] / ops, "spans/op"),
        "checks.invariant_checks_per_op": (counts["invariant_checks"] / ops,
                                           "checks/op"),
    }
    for stage, p50 in first.stages.items():
        metrics[f"core.stage.{stage}_ns_p50"] = (p50, "ns")
    metrics["apps.kv.block_reads_per_get"] = (
        kv["block_reads"] / kv["gets"] if kv.get("gets") else 0.0, "reads/get")
    metrics["apps.kv.compacted_bytes"] = (kv.get("compacted_bytes", 0), "B")
    metrics["apps.kv.flushes"] = (kv.get("flushes", 0), "count")
    metrics["pcie.link_transfers_per_op"] = (first.link_transfers / ops,
                                             "calls/op")
    # self times come from the least disturbed traced repetition, so
    # they add up to one measured total
    best = min(traced, key=lambda r: r.run_s)
    for layer in LAYERS:
        metrics[f"{layer}.self_us_per_op"] = (
            best.layers[layer]["self_s"] * 1e6 / ops, "us/op")
        metrics[f"{layer}.calls_per_op"] = (
            first.layers[layer]["calls"] / ops, "calls/op")
    overhead = best.run_s / min(r.run_s for r in untraced)
    metrics["trace.overhead"] = (overhead, "x")
    metrics["trace.self_time_coverage"] = (
        sum(v["self_s"] for v in best.layers.values()) / best.run_s, "ratio")

    OUT_DIR.mkdir(exist_ok=True)
    profile.dump(str(OUT_DIR / f"{wl.name}-seed{seed}.prof"))
    notes = [
        f"{len(traced)} traced and {len(untraced)} untraced repetitions; "
        f"tracing costs {overhead:.2f}x host time",
        "layer            self us/op   calls/op  share",
    ]
    total = sum(metrics[f"{layer}.self_us_per_op"][0] for layer in LAYERS)
    for layer in LAYERS:
        self_us = metrics[f"{layer}.self_us_per_op"][0]
        notes.append(f"{layer:<15} {self_us:>11.2f} "
                     f"{metrics[f'{layer}.calls_per_op'][0]:>10.2f} "
                     f"{self_us / total:>6.1%}")
    attempted = sum(r.outcome.ops for r in reps)
    return metrics, attempted, _failed(reps, failures), failures, notes


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"workload seed (default {DEFAULT_SEED}); seed {HELD_OUT_SEED} "
             "is held out for confirming claims")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"error: no simulator source at {src / 'repro'}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(src))
    from cases import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(known: {', '.join(WORKLOADS)})")

    ref_digest = wl.reference(args.seed)
    runner = run_traced if args.trace else run_untraced
    metrics, attempted, failed, failures, notes = runner(
        wl, args.seed, args.seconds, ref_digest)

    env = environment()
    print(f"{wl.name} seed={args.seed} trace={args.trace}: python "
          f"{env['python']}, nproc {env['nproc']}, git {env['git_sha']}, "
          + " ".join(f"{k}={v}" for k, v in PINNED_ENV.items()))
    for note in notes:
        print(note)
    for failure in failures:
        print(f"FAILED: {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:>16.6g} {unit}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({**result, "environment": env,
                               "failures": failures, "notes": notes},
                              indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
