"""Exact per-command event ledger for the BM-Store path.

One QD1 4 KiB read and one 4 KiB write on a warmed-up ``build_bmstore``
world, each run from an idle simulator until it is idle again.  The
dispatched-event count per command is the simulator's cost model: a
change that schedules an event nobody waits on (a tail ``yield`` on a
posted write, a ``process()`` whose handle is dropped) shows up here as
a count that no longer matches.  A deliberate change refreshes the
pinned count and says why.  The simulated latencies must never move
with the event count: they are the modelled system's behaviour.
"""

import pytest

from repro.baselines import build_bmstore
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
