"""Feature-composition matrix: every pair of engine features, with and
without a surprise hot-remove, checkers armed, bytes checked.

Each feature was tested alone; this matrix tests them together.  A
world holds a golden volume and a tenant volume ``t``; each cell arms
two of the features below on ``t``, runs host writes (multi-page ones
included, so PRP lists are built), pushdown hops when armed, and
optionally yanks and re-seats the tenant's drive mid-run.  Every
namespace, golden included, carries a byte oracle that is read back at
the end, and all runtime invariant checkers stay armed throughout.

Features:
  clone        ``t`` is a thin clone of golden (its writes CoW-fault)
  push         a cond_write program commits on ``t``, then a chase reads
  cxl          the CXL tier is armed and the on-card pool is exhausted,
               so every PRP list and pushdown buffer lives off-card
  passthrough  ``t``'s I/O queues are mapped straight onto its drive
  migration    a pre-copy round is open: writes must mark ``dirty_chunks``

Refused pairs assert the refusal instead: passthrough needs private
chunks, a passthrough drive rejects the engine's vendor PUSH_EXEC, and
dirty tracking refuses a passthrough namespace, whose writes it cannot
see.
"""

import itertools
import struct

import pytest

from repro.apps.minikv import encode_record
from repro.baselines import build_bmstore
from repro.core.lba_mapping import CHUNK_BYTES
from repro.nvme.spec import LBA_BYTES, StatusCode
from repro.push import chase_program, cond_write_program
from repro.sim import SimulationError
from repro.sim.units import MS, PAGE_SIZE

FEATURES = ("clone", "push", "cxl", "passthrough", "migration")
FAULTS = ("clean", "hot-remove")
CELLS = [(pair, fault) for pair in itertools.combinations(FEATURES, 2)
         for fault in FAULTS]
#: pairs whose second feature the engine refuses -> what World recorded
REFUSED = {
    frozenset({"clone", "passthrough"}): ["passthrough"],
    frozenset({"passthrough", "migration"}): ["migration"],
}


def block(*parts: bytes) -> bytes:
    return b"".join(parts).ljust(LBA_BYTES, b"\0")


def record(seq: int) -> bytes:
    return block(encode_record(b"k", b"v%d" % seq, seq))


class World:
    """Golden + tenant volumes on a two-drive engine, with byte oracles."""

    def __init__(self, features):
        self.features = set(features)
        cxl = "cxl" in self.features
        self.rig = build_bmstore(num_ssds=2, seed=13, checks="all",
                                 chip_memory_bytes=512 * 1024 if cxl else None)
        self.engine = self.rig.engine
        self.sim = self.rig.sim
        self.oracle = {"golden": {}, "t": {}}
        fn = self.rig.provision("golden", CHUNK_BYTES, placement=[0])
        self.drivers = {"golden": self.rig.baremetal_driver(fn)}
        for lba in (4, 5, 40):
            self.write("golden", lba, block(b"golden-%d" % lba))
        if "clone" in self.features:
            self.engine.volume_manager().clone_volume("golden", "t")
            fn = self.engine.bind_namespace("t", 10)
            self.oracle["t"] = dict(self.oracle["golden"])
        else:
            fn = self.rig.provision("t", CHUNK_BYTES, placement=[1])
        self.fn = fn
        self.refused = []
        if "passthrough" in self.features:
            try:
                self.engine.enable_passthrough("t")
            except SimulationError as exc:
                assert "clone" in self.features and "shares chunks" in str(exc)
                self.refused.append("passthrough")
        self.drivers["t"] = self.rig.baremetal_driver(fn)
        if cxl:
            tier = self.engine.cxl_tier()
            self.held = []
            while tier.spills == 0:  # exhaust the on-card budget
                self.held.append(self.engine._prp_pool.get(PAGE_SIZE))
        self.ens = self.engine.namespaces["t"]
        if "migration" in self.features:
            try:
                self.engine.open_dirty_tracking("t")  # a pre-copy round is open
            except SimulationError as exc:
                assert self.passthrough and "passthrough mode" in str(exc)
                self.refused.append("migration")

    @property
    def passthrough(self) -> bool:
        return self.fn.passthrough is not None

    def run(self, gen):
        return self.sim.run(self.sim.process(gen))

    def write(self, key, lba, data):
        def flow():
            info = yield self.drivers[key].write(lba, len(data) // LBA_BYTES,
                                                 payload=data)
            return info

        info = self.run(flow())
        assert info.ok, (key, lba, info.status)
        self._note(key, lba, data)

    def _note(self, key, lba, data):
        for i in range(len(data) // LBA_BYTES):
            self.oracle[key][lba + i] = data[i * LBA_BYTES:(i + 1) * LBA_BYTES]

    def exec_push(self, invocation):
        def flow():
            info = yield self.drivers["t"].push_exec(invocation)
            return info

        return self.run(flow())

    def verify(self):
        for key, expected in self.oracle.items():
            for lba in sorted(expected):
                def flow():
                    info = yield self.drivers[key].read(lba, 1, want_data=True)
                    return info

                info = self.run(flow())
                assert info.ok, (key, lba)
                assert info.data == expected[lba], (key, lba)


def push_phase(world: World) -> None:
    manager = world.engine.push_manager()
    manager.install("t", cond_write_program([[0, 64]]))
    world.write("t", 4, record(1))
    info = world.exec_push({"carry": True, "lba": 4, "expected_seq": 1,
                            "payload": record(2)})
    if world.passthrough:
        # the drive sees the engine's vendor opcode and refuses it
        assert info.status == int(StatusCode.INVALID_OPCODE)
        return
    assert info.ok and info.data.committed
    world._note("t", 4, record(2))
    manager.install("t", chase_program([[0, 64]]))
    world.write("t", 8, block(encode_record(b"k", struct.pack("<Q", 1), 0)))
    world.write("t", 9, record(7))
    info = world.exec_push({"carry": True, "key": b"k",
                            "candidates": [{"index_lba": 8, "data_base": 8}]})
    assert info.ok and info.data.found
    assert info.data.block == world.oracle["t"][9]


def hot_remove_phase(world: World) -> None:
    """Yank the tenant's drive, write during the outage, re-seat it."""
    ssd_id = world.ens.chunks[0][0]
    removed = world.engine.surprise_remove(ssd_id)
    data = block(b"outage")

    def reseat():
        yield world.sim.timeout(2 * MS)
        world.engine.adaptor.slot_for(ssd_id).attach_ssd(removed)

    def flow():
        reseated = world.sim.process(reseat())
        info = yield world.drivers["t"].write(24, 1, payload=data)
        yield reseated
        return info

    if world.run(flow()).ok:
        world._note("t", 24, data)
    world.write("t", 25, block(b"after"))


@pytest.mark.parametrize("pair,fault", CELLS,
                         ids=[f"{a}+{b}-{f}" for (a, b), f in CELLS])
def test_feature_pair_keeps_every_byte(pair, fault):
    world = World(pair)
    if "push" in pair:
        push_phase(world)
    # a PRP-list sized write (8 pages) and a CoW-faulting small write
    world.write("t", 16, b"".join(block(b"multi-%d" % i) for i in range(8)))
    world.write("t", 5, block(b"tenant-5"))
    if fault == "hot-remove":
        hot_remove_phase(world)
    world.verify()
    if "clone" in pair:
        assert world.engine.volumes.cow_faults == 1
    if "migration" in pair and not world.refused:
        assert world.ens.dirty_chunks == {0}
    if "cxl" in pair:
        assert world.engine.cxl.spills > 0
    assert world.refused == REFUSED.get(frozenset(pair), [])


def test_passthrough_refused_while_dirty_tracking_is_armed():
    """The other order of the passthrough + migration pair: a pre-copy
    round already open keeps the namespace on the mediated path."""
    world = World(("migration",))
    with pytest.raises(SimulationError, match="dirty tracking armed"):
        world.engine.enable_passthrough("t")
    assert not world.passthrough
    world.write("t", 5, block(b"tenant-5"))
    assert world.ens.dirty_chunks == {0}
