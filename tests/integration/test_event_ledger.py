"""Exact per-command event ledger for the BM-Store path.

One QD1 4 KiB read and one 4 KiB write on a warmed-up ``build_bmstore``
world, each run from an idle simulator until it is idle again.  The
dispatched-event count per command is the simulator's cost model: a
change that schedules an event nobody waits on (a tail ``yield`` on a
posted write, a ``process()`` whose handle is dropped) shows up here as
a count that no longer matches.  A deliberate change refreshes the
pinned count and says why.  The simulated latencies must never move
with the event count: they are the modelled system's behaviour.

The call ledger does the same for host cost: one checker-armed,
observed 4 KiB write, profiled with cProfile (whose call counts are
deterministic), pins how many Python calls land in the checker, obs and
kernel modules.  An armed check is one in-place tally and the kernel's
per-event hook is one call, so re-adding a call chain behind either
moves these counts.  List, dict and set comprehensions are left out:
Python 3.12 inlines them (PEP 709), so whether they count as calls
depends on the interpreter; every other count is the same on Python
3.10 through 3.13.
"""

import cProfile
import os
import pstats

import pytest

import repro.checks
import repro.obs
import repro.sim.kernel
from repro.baselines import build_bmstore
from repro.obs import MetricsRegistry
from repro.sim.units import MIB

#: (dispatched events from issue until idle, simulated latency in ns)
LEDGER = {
    "read": (52, 80_704),
    "write": (61, 14_057),
}


def _run_idle(sim, issue):
    """Issue one command on an idle world and run until it completes
    and the world is idle again; returns (completion, events dispatched)."""
    assert sim.peek() is None, "the world must be idle before a ledger command"
    before = sim.events_processed
    info = sim.run(issue())
    sim.run()
    return info, sim.events_processed - before


@pytest.fixture(scope="module")
def ledger():
    rig = build_bmstore(seed=7)
    sim = rig.sim
    driver = rig.baremetal_driver(rig.provision("ledger", 64 * MIB))
    sim.run()
    for i in range(3):  # warm-up: pools, caches and flash buffers settle
        _run_idle(sim, lambda: driver.read(8 * i, 1))
        _run_idle(sim, lambda: driver.write(1000 + 8 * i, 1))
    out = {}
    for op, issue in (("read", lambda: driver.read(4096, 1)),
                      ("write", lambda: driver.write(8192, 1))):
        info, events = _run_idle(sim, issue)
        assert info.ok
        out[op] = (events, info.latency_ns)
    return out


@pytest.mark.parametrize("op", sorted(LEDGER))
def test_qd1_command_event_count_and_latency_are_pinned(ledger, op):
    assert ledger[op] == LEDGER[op]


#: Python calls (generator resumptions included, comprehensions left
#: out) into each module group for one warmed-up, checker-armed,
#: observed QD1 4 KiB write
CALL_LEDGER = {"checks": 90, "obs": 50, "sim.kernel": 141}

#: code objects that are calls before Python 3.12 and inlined after
_INLINED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})

_GROUPS = {
    "checks": os.path.dirname(repro.checks.__file__) + os.sep,
    "obs": os.path.dirname(repro.obs.__file__) + os.sep,
    "sim.kernel": repro.sim.kernel.__file__,
}


def _calls_by_group(profile):
    out = dict.fromkeys(_GROUPS, 0)
    for (filename, _, name), (_, calls, _, _, _) in pstats.Stats(profile).stats.items():
        if name in _INLINED:
            continue
        for group, prefix in _GROUPS.items():
            if filename.startswith(prefix):
                out[group] += calls
    return out


def test_checked_write_call_ledger_is_pinned():
    rig = build_bmstore(seed=7, obs=MetricsRegistry(), checks="all")
    sim = rig.sim
    driver = rig.baremetal_driver(rig.provision("ledger", 64 * MIB))
    sim.run()
    for i in range(3):
        _run_idle(sim, lambda: driver.write(1000 + 8 * i, 1))
    profile = cProfile.Profile()
    profile.enable()
    info, _ = _run_idle(sim, lambda: driver.write(8192, 1))
    profile.disable()
    assert info.ok
    assert _calls_by_group(profile) == CALL_LEDGER
