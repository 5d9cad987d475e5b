"""Engine-side interpreter tests: PUSH_EXEC through the full stack."""

import struct

import pytest

from repro.apps.minikv import decode_records, encode_record
from repro.baselines import build_bmstore
from repro.checks import CheckContext, InvariantViolation
from repro.mgmt.nvme_mi import MIStatus
from repro.nvme.spec import LBA_BYTES, StatusCode
from repro.push import chase_program, cond_write_program, filter_program
from repro.sim.units import MIB


def make_rig(num_ssds=1, seed=11, checks=None):
    rig = build_bmstore(num_ssds=num_ssds, seed=seed, checks=checks)
    fn = rig.provision("t", 8 * MIB)
    driver = rig.baremetal_driver(fn)
    return rig, driver


def drive(rig, gen):
    return rig.sim.run(rig.sim.process(gen))


def block(*records: bytes) -> bytes:
    """Pack records into one zero-padded device block."""
    return b"".join(records).ljust(LBA_BYTES, b"\x00")


def index_block(key: bytes, data_block: int) -> bytes:
    return block(encode_record(key, struct.pack("<Q", data_block), 0))


# ------------------------------------------------------------------ dormancy
def test_dormant_without_a_program():
    """Arming the manager but installing nothing leaves the event
    sequence byte-identical to a world that never heard of pushdown."""
    def world(touch_manager):
        rig, driver = make_rig(seed=23)
        if touch_manager:
            rig.engine.push_manager()

        def flow():
            for i in range(32):
                yield driver.write(i, 1)
            for i in range(32):
                yield driver.read(i, 1)

        drive(rig, flow())
        return rig

    plain = world(False)
    armed = world(True)
    assert plain.engine.push is None
    assert armed.engine.push is not None and not armed.engine.push.programs
    assert plain.sim.now == armed.sim.now
    assert plain.sim.events_processed == armed.sim.events_processed


def test_exec_without_program_is_an_error():
    rig, driver = make_rig()

    def flow():
        # manager never armed: the vendor opcode itself is unknown
        dormant = yield driver.push_exec(
            {"carry": False, "key": b"k", "candidates": []})
        rig.engine.push_manager()
        # armed, but nothing installed on this namespace
        unprogrammed = yield driver.push_exec(
            {"carry": False, "key": b"k", "candidates": []})
        return dormant, unprogrammed

    dormant, unprogrammed = drive(rig, flow())
    assert not dormant.ok
    assert dormant.status == int(StatusCode.INVALID_OPCODE)
    assert not unprogrammed.ok
    assert unprogrammed.status == int(StatusCode.INVALID_FIELD)


# --------------------------------------------------------------------- chase
def test_chase_carry_parses_real_blocks():
    rig, driver = make_rig()

    def flow():
        info = yield driver.install_push_program(chase_program([[0, 64]]))
        assert info.ok
        yield driver.write(0, 1, payload=index_block(b"aa", 1))
        yield driver.write(2, 1, payload=block(encode_record(b"aa", b"hello", 9)))
        info = yield driver.push_exec({
            "carry": True, "key": b"aa",
            "candidates": [{"index_lba": 0, "data_base": 1}],
        })
        return info

    info = drive(rig, flow())
    assert info.ok
    result = info.data
    assert result.found and result.candidate == 0 and result.block_idx == 1
    assert result.hops == 2
    assert (b"aa", b"hello", 9) in list(decode_records(result.block))


def test_chase_shadow_matches_carry_command_count():
    rig, driver = make_rig()

    def flow():
        yield driver.install_push_program(chase_program([[0, 64]]))
        before = driver.stats.submitted
        info = yield driver.push_exec({
            "carry": False, "key": b"aa",
            "candidates": [{"index_lba": 0, "data_base": 1,
                            "shadow_ptr": 1, "hit": True}],
        })
        return info, driver.stats.submitted - before

    info, commands = drive(rig, flow())
    assert info.ok and commands == 1  # the whole lookup is one command
    result = info.data
    assert result.found and result.block_idx == 1 and result.hops == 2
    assert result.block is None  # shadow mode carries no bytes


def test_chase_skips_candidate_without_pointer():
    rig, driver = make_rig()

    def flow():
        yield driver.install_push_program(chase_program([[0, 64]]))
        info = yield driver.push_exec({
            "carry": False, "key": b"zz",
            "candidates": [{"index_lba": 0, "data_base": 1,
                            "shadow_ptr": None}],
        })
        return info

    info = drive(rig, flow())
    assert info.ok
    assert not info.data.found
    assert info.data.hops == 1  # index hop only, no data hop


def test_chase_respects_hop_budget():
    rig, driver = make_rig()

    def flow():
        yield driver.install_push_program(chase_program([[0, 64]], max_hops=2))
        cand = {"index_lba": 0, "data_base": 1, "shadow_ptr": 0, "hit": False}
        info = yield driver.push_exec({
            "carry": False, "key": b"k",
            "candidates": [dict(cand) for _ in range(5)],
        })
        return info

    info = drive(rig, flow())
    assert info.ok
    assert info.data.hops == 2  # a candidate that can't finish never starts
    assert not info.data.found


# -------------------------------------------------------------------- filter
def test_filter_carry_count_and_collect():
    rig, driver = make_rig()
    blob = (encode_record(b"a", b"1", 1) + encode_record(b"b", b"2", 2)
            + encode_record(b"c", b"3", 3))

    def flow():
        yield driver.install_push_program(filter_program([[0, 64]]))
        yield driver.write(3, 1, payload=block(blob))
        counted = yield driver.push_exec({
            "carry": True, "base_lba": 3, "nblocks": 1,
            "lo": b"b", "mode": "count",
        })
        collected = yield driver.push_exec({
            "carry": True, "base_lba": 3, "nblocks": 1,
            "lo": b"b", "hi": b"b", "mode": "collect",
        })
        return counted, collected

    counted, collected = drive(rig, flow())
    assert counted.ok and counted.data.count == 2
    assert collected.ok and collected.data.records == [(b"b", b"2", 2)]


def test_filter_rejects_fanout_above_bound():
    rig, driver = make_rig()

    def flow():
        yield driver.install_push_program(
            filter_program([[0, 64]], max_fanout=4))
        info = yield driver.push_exec(
            {"carry": False, "base_lba": 0, "nblocks": 5})
        return info

    info = drive(rig, flow())
    assert not info.ok
    assert info.status == int(StatusCode.INVALID_FIELD)


# ---------------------------------------------------------------- cond_write
def test_cond_write_commits_on_matching_seq():
    rig, driver = make_rig()

    def flow():
        yield driver.install_push_program(cond_write_program([[0, 64]]))
        yield driver.write(4, 1, payload=block(encode_record(b"k", b"old", 5)))
        stale = yield driver.push_exec({
            "carry": True, "lba": 4, "expected_seq": 7,
            "payload": block(encode_record(b"k", b"new", 8)),
        })
        fresh = yield driver.push_exec({
            "carry": True, "lba": 4, "expected_seq": 5,
            "payload": block(encode_record(b"k", b"new", 6)),
        })
        return stale, fresh

    stale, fresh = drive(rig, flow())
    assert stale.ok and not stale.data.committed  # lost the race, no write
    assert stale.data.stored_seq == 5 and stale.data.hops == 1
    assert fresh.ok and fresh.data.committed and fresh.data.hops == 2


# ------------------------------------------------------------------- sandbox
def test_runtime_sandbox_faults_out_of_window_io():
    rig, driver = make_rig(checks=False)
    manager = rig.engine.push_manager()
    manager.install("t", chase_program([[0, 8]]))

    def flow():
        info = yield driver.push_exec({
            "carry": False, "key": b"k",
            "candidates": [{"index_lba": 32, "data_base": 33,
                            "shadow_ptr": 0, "hit": True}],
        })
        return info

    info = drive(rig, flow())
    assert not info.ok
    assert info.status == int(StatusCode.PUSH_SANDBOX_FAULT)
    assert manager.stat("t")["sandbox_faults"] == 1


def test_push_checker_catches_escape_even_without_inline_gate():
    """The checker sees program I/O before the runtime gate, so an
    escaping access raises InvariantViolation rather than silently
    becoming a vendor error status (mutual revert detection)."""
    ctx = CheckContext(checkers=["push"])
    rig, driver = make_rig(checks=ctx)
    manager = rig.engine.push_manager()
    manager.install("t", chase_program([[0, 8]]))

    def flow():
        yield driver.push_exec({
            "carry": False, "key": b"k",
            "candidates": [{"index_lba": 32, "data_base": 33,
                            "shadow_ptr": 0, "hit": True}],
        })

    with pytest.raises(InvariantViolation, match="outside its declared"):
        drive(rig, flow())


def test_push_checker_rejects_unvalidated_escaping_install():
    ctx = CheckContext(checkers=["push"])
    rig, _driver = make_rig(checks=ctx)
    manager = rig.engine.push_manager()
    escaping = chase_program([[0, 1 << 40]])
    with pytest.raises(InvariantViolation, match="escapes the namespace"):
        manager.install("t", escaping, validate=False)


# ------------------------------------------------------------ install paths
def test_inband_install_rejects_escaping_program():
    rig, driver = make_rig()

    def flow():
        info = yield driver.install_push_program(chase_program([[0, 1 << 40]]))
        return info

    info = drive(rig, flow())
    assert not info.ok
    assert info.status == int(StatusCode.INVALID_FIELD)
    assert rig.engine.push is not None and not rig.engine.push.programs


def test_mi_console_install_stat_uninstall():
    rig, driver = make_rig()

    def flow():
        resp = yield rig.console.install_program("t", chase_program([[0, 64]]))
        assert resp.ok and resp.body["key"] == "t"
        info = yield driver.push_exec({
            "carry": False, "key": b"k",
            "candidates": [{"index_lba": 0, "data_base": 1,
                            "shadow_ptr": 1, "hit": True}],
        })
        assert info.ok
        one = yield rig.console.push_stat("t")
        every = yield rig.console.push_stat()
        gone = yield rig.console.uninstall_program("t")
        rejected = yield rig.console.install_program(
            "t", chase_program([[0, 1 << 40]]))
        return one, every, gone, rejected

    one, every, gone, rejected = drive(rig, flow())
    assert one.ok and one.body["execs"] == 1 and one.body["hops_saved"] == 1
    assert every.ok and [p["key"] for p in every.body["programs"]] == ["t"]
    assert gone.ok
    assert rig.engine.push is not None and not rig.engine.push.programs
    assert not rejected.ok
    assert rejected.status == int(MIStatus.INVALID_PARAMETER)


# ----------------------------------------------------------------- hot-remove
def test_push_exec_fails_cleanly_while_drive_removed():
    rig, driver = make_rig(num_ssds=2, seed=19)
    invocation = {
        "carry": False, "key": b"k",
        "candidates": [{"index_lba": 0, "data_base": 1,
                        "shadow_ptr": 1, "hit": True}],
    }

    def flow():
        yield driver.install_push_program(chase_program([[0, 64]]))
        removed = rig.engine.surprise_remove(0)
        broken = yield driver.push_exec(dict(invocation))
        rig.engine.adaptor.slot_for(0).attach_ssd(removed)
        healed = yield driver.push_exec(dict(invocation))
        return broken, healed

    broken, healed = drive(rig, flow())
    assert not broken.ok  # the host sees a plain error status, no hang
    assert healed.ok and healed.data.found


# ------------------------------------------------- engine write hooks
# Pushdown hops run through the engine's one back-end path, so a
# program's write CoW-faults a thin clone and feeds migration's dirty
# bitmap exactly like a host write.

def clone_rig(checks):
    """Golden ``t`` holding a record at LBA 4, cloned into ``c0`` with a
    cond_write program installed; returns (rig, golden, clone)."""
    rig, golden = make_rig(checks=checks)

    def seed():
        yield golden.write(4, 1, payload=block(encode_record(b"k", b"gold", 5)))

    drive(rig, seed())
    rig.engine.volume_manager().clone_volume("t", "c0")
    clone = rig.baremetal_driver(rig.engine.bind_namespace("c0", 10))
    rig.engine.push_manager().install("c0", cond_write_program([[0, 64]]))
    return rig, golden, clone


def clone_cond_write(rig, clone):
    def flow():
        info = yield clone.push_exec({
            "carry": True, "lba": 4, "expected_seq": 5,
            "payload": block(encode_record(b"k", b"clone", 6)),
        })
        return info

    return drive(rig, flow())


def read_block(rig, driver, lba):
    def flow():
        info = yield driver.read(lba, 1, want_data=True)
        return info.data

    return drive(rig, flow())


def test_cond_write_on_a_clone_cow_faults_and_spares_golden():
    rig, golden, clone = clone_rig("all")
    info = clone_cond_write(rig, clone)
    assert info.ok and info.data.committed
    assert rig.engine.volumes.cow_faults == 1
    assert list(decode_records(read_block(rig, golden, 4))) == [(b"k", b"gold", 5)]
    assert list(decode_records(read_block(rig, clone, 4))) == [(b"k", b"clone", 6)]


def test_cond_write_cow_revert_trips_the_lba_checker(monkeypatch):
    from repro.core.volumes import VolumeManager

    def no_fault(self, ens, slba, nblocks, span=None):
        return
        yield

    rig, _golden, clone = clone_rig("all")
    monkeypatch.setattr(VolumeManager, "on_write", no_fault)
    with pytest.raises(InvariantViolation, match="shared chunk"):
        clone_cond_write(rig, clone)


def test_cond_write_cow_fix_alone_keeps_golden_intact():
    rig, golden, clone = clone_rig(False)
    assert clone_cond_write(rig, clone).data.committed
    assert list(decode_records(read_block(rig, golden, 4))) == [(b"k", b"gold", 5)]


def test_cond_write_during_precopy_marks_its_chunk_dirty():
    rig, driver = make_rig()
    ens = rig.engine.namespaces["t"]

    def flow():
        yield driver.install_push_program(cond_write_program([[0, 64]]))
        yield driver.write(4, 1, payload=block(encode_record(b"k", b"v", 5)))
        rig.engine.open_dirty_tracking("t")  # a pre-copy round just started
        info = yield driver.push_exec({
            "carry": True, "lba": 4, "expected_seq": 5,
            "payload": block(encode_record(b"k", b"w", 6)),
        })
        return info

    assert drive(rig, flow()).data.committed
    assert ens.dirty_chunks == {0}
