"""A fixed miniature event loop that measures how fast the host runs now.

The benchmark's host shares its cores with other tenants, whose load
slows everything on it by up to 2x for stretches of seconds to minutes,
so two runs of the same code can differ by 20% in wall time.  Timing
this loop right before and after a measured stretch gives the host's
speed during it; the stretch's wall time scaled by ``REFERENCE_S /
measured`` is what it would have taken at the reference speed.

The loop is the benchmark's own code and never changes with the program
under test, so a faster simulator still reads faster.  It mimics the
simulator's hot path (generator processes resumed through event
callbacks, a (time, sequence) heap, pooled events, bandwidth links,
dictionary updates) so that host load slows it by about as much as it
slows the simulator.
"""

from __future__ import annotations

import heapq
import time

__all__ = ["REFERENCE_S", "calibrate", "at_reference"]

#: the loop's wall time on an unloaded 2-core 2.1 GHz Xeon VM with
#: Python 3.11; it only fixes the unit of the rescaled times
REFERENCE_S = 0.0020

_WORKERS = 32
_STEPS = 24


class _Event:
    __slots__ = ("callbacks", "value")

    def __init__(self) -> None:
        self.callbacks: list = []
        self.value = None


class _Loop:
    def __init__(self) -> None:
        self.now = 0
        self.heap: list = []
        self.seq = 0
        self.pool: list = []

    def timeout(self, delay: int, value=None) -> _Event:
        ev = self.pool.pop() if self.pool else _Event()
        ev.value = value
        self.seq += 1
        heapq.heappush(self.heap, (self.now + delay, self.seq, ev))
        return ev

    def process(self, gen) -> None:
        def resume(ev: _Event) -> None:
            try:
                nxt = gen.send(ev.value)
            except StopIteration:
                return
            nxt.callbacks.append(resume)

        self.timeout(0).callbacks.append(resume)

    def run(self) -> None:
        heap, pool = self.heap, self.pool
        while heap:
            self.now, _, ev = heapq.heappop(heap)
            callbacks, ev.callbacks = ev.callbacks, []
            for cb in callbacks:
                cb(ev)
            pool.append(ev)


class _Link:
    __slots__ = ("loop", "free_at", "moved")

    def __init__(self, loop: _Loop) -> None:
        self.loop = loop
        self.free_at = 0
        self.moved = 0

    def transfer(self, nbytes: int) -> _Event:
        now = self.loop.now
        start = now if now > self.free_at else self.free_at
        self.free_at = start + nbytes // 8
        self.moved += nbytes
        return self.loop.timeout(self.free_at - now + 50, nbytes)


def _worker(loop: _Loop, links: list, table: dict, k: int):
    x = k
    for _ in range(_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        got = yield links[x % len(links)].transfer(4096)
        slot = table.setdefault(x % 4093, [0, 0])
        slot[0] += 1
        slot[1] += got
        yield loop.timeout(x % 700 + 100)


def calibrate() -> float:
    """Run the fixed loop once; returns its wall seconds (~2 ms)."""
    t0 = time.perf_counter()
    loop = _Loop()
    links = [_Link(loop) for _ in range(4)]
    table: dict = {}
    for k in range(_WORKERS):
        loop.process(_worker(loop, links, table, k))
    loop.run()
    return time.perf_counter() - t0


def at_reference(seconds: float, before: float, after: float) -> float:
    """``seconds`` of wall time rescaled to the reference host speed,
    given the loop's times right before and right after them."""
    return seconds * 2 * REFERENCE_S / (before + after)
