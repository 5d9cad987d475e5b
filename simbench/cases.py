"""The four benchmark workloads, each split into an untimed set-up and a
timed simulation, driven only through the package's public entry points.

A workload is a class with:

* ``setup(seed)`` -> state: world build, provisioning, app load, fleet
  placement (timed as ``setup_s``);
* ``run(state, tick)``: the measured simulation (timed as host time),
  calling ``tick()`` at the end of each of a fixed number of segments;
* ``result(state)`` -> :class:`Outcome`: simulated outputs, a digest of
  them, and the workload's own correctness checks (untimed);
* ``reference(seed)`` -> digest: the warm-up run, whose digest every
  measured repetition must reproduce.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field, replace
from typing import Any, Optional

from repro.apps.minikv import MiniKV, MiniKVConfig
from repro.baselines import build_bmstore
from repro.checks import resolve_checks
from repro.experiments import BM_NAMESPACE_BYTES, quick_cases
from repro.fleet import FleetRunConfig, build_fleet, make_tenants, place, run_fleet
from repro.obs import MetricsRegistry
from repro.runner import RunSpec, run_one
from repro.sim import Simulator
from repro.sim.units import GIB, KIB, MS
from repro.workloads.fio import FioRun
from repro.workloads.ycsb import YCSB_WORKLOADS, YCSBRun

__all__ = ["Outcome", "WORKLOADS"]


#: equal simulated-time slices of a fio or YCSB timed phase
SEGMENTS = 20


def run_segmented(sim: Simulator, end_ns: int, done, tick) -> None:
    """Run until ``done`` fires, pausing at SEGMENTS equal slices of
    simulated time up to ``end_ns`` and calling ``tick()`` after each.
    Pausing never reorders events, so outputs match an unbroken run."""
    start = sim.now
    for k in range(1, SEGMENTS):
        sim.run(until=start + (end_ns - start) * k // SEGMENTS)
        tick()
    sim.run(done)
    tick()


def digest(payload: Any) -> str:
    """sha256 of the canonical JSON form of a simulated-output payload."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class Outcome:
    """What one repetition simulated, and whether it was right."""

    ops: int                # ops the host time is divided by
    io_errors: int          # ops that completed with an error status
    sim_iops: float         # simulated ops per simulated second
    sim_p99_us: float       # simulated p99 latency
    digest: str             # sha256 of every simulated output
    #: failed correctness checks, one line each
    failures: list[str] = field(default_factory=list)
    #: I/O errors the workload's fault plan causes by design
    expected_errors: int = 0
    #: application bytes written in the timed phase, where the
    #: application sits above the block layer (None: the bytes hosts
    #: wrote to the namespaces are the user's)
    user_write_bytes: Optional[int] = None
    kv_stats: Optional[dict] = None


class _Workload:
    name: str

    def reference(self, seed: int) -> str:
        """One untimed set-up and run; returns its output digest."""
        st = self.setup(seed)
        self.run(st, lambda: None)
        return self.result(st).digest


# ---------------------------------------------------------------- fio
class FioWorkload(_Workload):
    """One Table IV case on bmstore, built exactly as ``run_one`` does."""

    def __init__(self, name: str, case: str, checks: str):
        self.name = name
        self.case = case
        self.checks = checks

    def setup(self, seed: int) -> dict:
        (spec,) = quick_cases([self.case])
        obs = MetricsRegistry(mode="full", span_sample=16)
        ctx = resolve_checks(self.checks, obs)
        rig = build_bmstore(num_ssds=1, seed=seed, obs=obs,
                            checks=ctx if ctx is not None else False)
        fn = rig.provision("ns0", min(BM_NAMESPACE_BYTES, 28 * 64 * GIB))
        driver = rig.baremetal_driver(fn)
        return {"rig": rig, "driver": driver, "spec": spec, "obs": obs,
                "checks": ctx}

    def run(self, st: dict, tick) -> None:
        rig = st["rig"]
        run = FioRun(rig.sim, [st["driver"]], st["spec"], rig.streams)
        run_segmented(rig.sim, run.end_time_ns, run.finished, tick)
        st["fio"] = run.result()

    @staticmethod
    def _payload(fio, sim_events: int, snapshot: dict) -> dict:
        # the fields of repro.runner.run_one's payload that the
        # simulation produces
        return {
            "ios": fio.ios,
            "errors": fio.errors,
            "sim_events": sim_events,
            "iops": fio.iops,
            "bandwidth_mbps": fio.bandwidth_mbps,
            "avg_latency_us": fio.avg_latency_us,
            "p99_us": fio.latency.p99_us if fio.latency else None,
            "snapshot": snapshot,
        }

    def result(self, st: dict) -> Outcome:
        fio = st["fio"]
        payload = self._payload(fio, st["rig"].sim.events_processed,
                                st["obs"].snapshot())
        failures = []
        if fio.errors:
            failures.append(f"{fio.errors} fio I/Os failed")
        ctx = st["checks"]
        if self.checks != "off":
            # qos and push stay idle: no namespace has limits or programs
            idle = sorted(n for n, c in ctx.summary().items() if c == 0
                          and n in ("ring", "prp", "lba", "kernel"))
            if len(ctx.enabled) != 6 or idle:
                failures.append(f"checkers not all armed/exercised: {idle}")
        return Outcome(
            ops=fio.ios, io_errors=fio.errors, sim_iops=fio.iops,
            sim_p99_us=payload["p99_us"], digest=digest(payload),
            failures=failures,
        )

    def reference(self, seed: int) -> str:
        """``run_one`` on the same spec: the path users run."""
        ref = run_one(RunSpec("bmstore", self.case, seed=seed,
                              checks=self.checks))
        return digest({k: ref[k] for k in (
            "ios", "errors", "sim_events", "iops", "bandwidth_mbps",
            "avg_latency_us", "p99_us", "snapshot")})


# ----------------------------------------------------------------- kv
#: YCSB-A over MiniKV; the small memtable makes flushes and an L0
#: compaction run beside the point reads within a short window
KV_SPEC = replace(YCSB_WORKLOADS["A"], record_count=3000, threads=8,
                  runtime_ns=40 * MS, ramp_ns=4 * MS)
KV_CONFIG = MiniKVConfig(carry_data=True, indexed_tables=True,
                         memtable_bytes=48 * KIB,
                         target_table_bytes=48 * KIB)
#: benchmark-owned verification records: enough 1 KiB values to force
#: at least one memtable flush
VERIFY_KEYS = 256
VERIFY_VALUE_BYTES = 1024


class KVWorkload(_Workload):
    """YCSB-A on MiniKV over one bmstore namespace; load is set-up."""

    name = "kv-ycsb-a"

    def setup(self, seed: int) -> dict:
        rig = build_bmstore(num_ssds=1, seed=seed)
        fn = rig.provision("kv", 64 * GIB)
        driver = rig.baremetal_driver(fn)
        db = MiniKV(rig.sim, driver, KV_CONFIG)
        ycsb = YCSBRun(rig.sim, db, KV_SPEC, rig.streams)
        rig.sim.run(rig.sim.process(ycsb.load(), name="load"))
        return {"rig": rig, "db": db, "ycsb": ycsb, "seed": seed,
                "stats0": dict(vars(db.stats))}

    def run(self, st: dict, tick) -> None:
        sim, ycsb = st["rig"].sim, st["ycsb"]
        end = sim.now + KV_SPEC.ramp_ns + KV_SPEC.runtime_ns
        ycsb.start()
        run_segmented(sim, end, ycsb.finished, tick)
        st["res"] = ycsb.result()
        st["stats1"] = dict(vars(st["db"].stats))

    def _verify(self, st: dict) -> dict:
        """Write owned records, flush them, read them back off the device."""
        sim, db = st["rig"].sim, st["db"]
        rng = random.Random(st["seed"])
        records = {}
        out = {"mismatches": 0, "missing": 0}

        def proc():
            flushes = db.stats.flushes
            i = 0
            while db.stats.flushes == flushes:
                if i >= VERIFY_KEYS:
                    raise RuntimeError("verification records never flushed")
                key = b"bench%08d" % i
                records[key] = rng.randbytes(VERIFY_VALUE_BYTES)
                yield from db.put(key, records[key])
                i += 1
            reads = db.stats.block_reads
            for key, value in records.items():
                got = yield from db.get(key)
                if got is None:
                    out["missing"] += 1
                elif got != value:
                    out["mismatches"] += 1
            out["records"] = len(records)
            out["device_block_reads"] = db.stats.block_reads - reads

        sim.run(sim.process(proc(), name="verify"))
        return out

    def result(self, st: dict) -> Outcome:
        res, s0, s1 = st["res"], st["stats0"], st["stats1"]
        verify = self._verify(st)
        failures = []
        if res.failed_reads:
            failures.append(f"{res.failed_reads} YCSB reads found no value")
        if verify["mismatches"] or verify["missing"]:
            failures.append(f"read-back: {verify}")
        if verify["device_block_reads"] < 1:
            failures.append("read-back never reached the device")
        payload = {
            "ops": res.ops, "throughput_ops": res.throughput_ops,
            "per_op": res.per_op, "failed_reads": res.failed_reads,
            "latency": vars(res.latency) if res.latency else None,
            "stats": s1, "verify": verify,
            "sim_events": st["rig"].sim.events_processed,
        }
        puts = s1["puts"] - s0["puts"]
        key_value_bytes = len(b"user%012d" % 0) + KV_SPEC.value_bytes
        return Outcome(
            ops=res.ops, io_errors=0, sim_iops=res.throughput_ops,
            sim_p99_us=res.latency.p99_us, digest=digest(payload),
            failures=failures, user_write_bytes=puts * key_value_bytes,
            kv_stats={k: s1[k] - s0[k] for k in s1},
        )


# -------------------------------------------------------------- fleet
#: the tenant roster is part of the workload, not of the seed: its
#: per-tenant load factors move the offered load by tens of percent
#: between seeds, while the seed drives every simulated random stream
TENANT_SEED = 7


class FleetWorkload(_Workload):
    """Rolling hot-upgrade of a 12-server fleet with a hot-removal."""

    name = "fleet-upgrade-hotremove"

    def setup(self, seed: int) -> dict:
        fleet = build_fleet(num_servers=12, num_racks=3)
        tenants = make_tenants(18, seed=TENANT_SEED)
        place(fleet, tenants, "qos")
        return {"fleet": fleet, "tenants": tenants, "seed": seed}

    def run(self, st: dict, tick) -> None:
        # one segment per server world: tick as each world is built
        original = Simulator.__init__

        def init(sim, *args, **kwargs):
            tick()
            original(sim, *args, **kwargs)

        Simulator.__init__ = init
        try:
            st["report"] = run_fleet(
                st["fleet"], st["tenants"], policy="qos", faults="hot-remove",
                seed=st["seed"], workers=1, config=FleetRunConfig.quick())
        finally:
            Simulator.__init__ = original
        tick()

    def result(self, st: dict) -> Outcome:
        rep = st["report"]
        summary = rep["summary"]
        faulted = [s["server"] for s in rep["servers"]
                   if "hot_remove" in s["fault_kinds"]]
        erring = [s["server"] for s in rep["servers"] if s["errors"]]
        failures = []
        if not summary["upgrades_ok"] or summary["servers_upgraded"] != 12:
            failures.append(f"rolling upgrade incomplete: {summary}")
        if len(faulted) != 1 or not set(erring) <= set(faulted):
            failures.append(f"errors off the faulted server: faulted="
                            f"{faulted} erring={erring}")
        expected = sum(s["errors"] for s in rep["servers"]
                       if s["server"] in faulted)
        return Outcome(
            ops=summary["ios"], io_errors=summary["errors"],
            sim_iops=summary["ios"] / rep["fleet"]["run_s"],
            sim_p99_us=max(t["p99_us"] for t in rep["tenants"]),
            digest=digest(rep), failures=failures, expected_errors=expected,
        )


WORKLOADS = {
    wl.name: wl for wl in (
        FioWorkload("fio-randread-qd128", "rand-r-128", "off"),
        FioWorkload("fio-randwrite-qd16-checked", "rand-w-16", "all"),
        KVWorkload(),
        FleetWorkload(),
    )
}
