"""Unit tests for the DES kernel: events, processes, conditions, run()."""

import pytest

from repro.sim import Interrupt, SimulationError, Simulator
from repro.sim.units import MS


def test_timeout_advances_clock():
    sim = Simulator()

    def proc():
        yield sim.timeout(100)
        assert sim.now == 100
        yield sim.timeout(50)
        return sim.now

    p = sim.process(proc())
    result = sim.run(p)
    assert result == 150
    assert sim.now == 150


def test_timeout_value_passthrough():
    sim = Simulator()

    def proc():
        got = yield sim.timeout(5, value="hello")
        return got

    assert sim.run(sim.process(proc())) == "hello"


def test_zero_delay_events_fire_in_fifo_order():
    sim = Simulator()
    order = []

    def proc(tag):
        yield sim.timeout(0)
        order.append(tag)

    for tag in range(5):
        sim.process(proc(tag))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1)


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    ev = sim.event()
    seen = []

    def waiter():
        val = yield ev
        seen.append((sim.now, val))

    def trigger():
        yield sim.timeout(42)
        ev.succeed("done")

    sim.process(waiter())
    sim.process(trigger())
    sim.run()
    assert seen == [(42, "done")]


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_raises_in_process():
    sim = Simulator()
    ev = sim.event()

    def waiter():
        try:
            yield ev
        except ValueError as exc:
            return f"caught {exc}"

    def trigger():
        yield sim.timeout(1)
        ev.fail(ValueError("boom"))

    p = sim.process(waiter())
    sim.process(trigger())
    assert sim.run(p) == "caught boom"


def test_waiting_on_already_processed_event():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("early")

    def late_waiter():
        yield sim.timeout(10)
        val = yield ev  # already fired at t=0
        assert sim.now == 10
        return val

    assert sim.run(sim.process(late_waiter())) == "early"


def test_process_return_value_propagates():
    sim = Simulator()

    def child():
        yield sim.timeout(7)
        return 99

    def parent():
        val = yield sim.process(child())
        return val + 1

    assert sim.run(sim.process(parent())) == 100


def test_process_exception_propagates_to_waiter():
    sim = Simulator()

    def child():
        yield sim.timeout(1)
        raise RuntimeError("child died")

    def parent():
        try:
            yield sim.process(child())
        except RuntimeError as exc:
            return str(exc)

    assert sim.run(sim.process(parent())) == "child died"


def test_uncaught_process_failure_raises_from_run():
    sim = Simulator()

    def child():
        yield sim.timeout(1)
        raise RuntimeError("unwaited crash")

    p = sim.process(child())
    with pytest.raises(RuntimeError, match="unwaited crash"):
        sim.run(p)


def test_interrupt_mid_wait():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(1000)
            log.append("finished")
        except Interrupt as intr:
            log.append(("interrupted", sim.now, intr.cause))

    def interrupter(target):
        yield sim.timeout(10)
        target.interrupt(cause="urgent")

    target = sim.process(sleeper())
    sim.process(interrupter(target))
    sim.run()
    assert log == [("interrupted", 10, "urgent")]


def test_interrupt_finished_process_rejected():
    sim = Simulator()

    def quick():
        yield sim.timeout(1)

    p = sim.process(quick())
    sim.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_any_of_returns_first():
    sim = Simulator()

    def proc():
        fast = sim.timeout(5, value="fast")
        slow = sim.timeout(50, value="slow")
        results = yield sim.any_of([fast, slow])
        assert sim.now == 5
        return list(results.values())

    assert sim.run(sim.process(proc())) == ["fast"]


def test_all_of_waits_for_all():
    sim = Simulator()

    def proc():
        evs = [sim.timeout(d, value=d) for d in (5, 20, 10)]
        results = yield sim.all_of(evs)
        assert sim.now == 20
        return sorted(results.values())

    assert sim.run(sim.process(proc())) == [5, 10, 20]


def test_all_of_empty_fires_immediately():
    sim = Simulator()

    def proc():
        yield sim.all_of([])
        return sim.now

    assert sim.run(sim.process(proc())) == 0


def test_run_until_time_stops_clock_exactly():
    sim = Simulator()
    ticks = []

    def clock():
        while True:
            yield sim.timeout(10)
            ticks.append(sim.now)

    sim.process(clock())
    sim.run(until=35)
    assert sim.now == 35
    assert ticks == [10, 20, 30]
    sim.run(until=55)
    assert ticks == [10, 20, 30, 40, 50]


def test_run_until_past_time_rejected():
    sim = Simulator()
    sim.run(until=100)
    with pytest.raises(SimulationError):
        sim.run(until=50)


def test_run_until_event_never_fires_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError, match="ran out of events"):
        sim.run(ev)


def test_yielding_non_event_is_an_error():
    sim = Simulator()

    def bad():
        yield 42

    sim.process(bad())
    with pytest.raises(SimulationError, match="must yield Event"):
        sim.run()


def test_determinism_same_seed_same_order():
    def run_once():
        sim = Simulator()
        order = []

        def proc(tag, delay):
            yield sim.timeout(delay)
            order.append(tag)

        for tag, delay in [("a", 30), ("b", 10), ("c", 10), ("d", 20)]:
            sim.process(proc(tag, delay))
        sim.run()
        return order

    assert run_once() == run_once() == ["b", "c", "d", "a"]


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() is None
    sim.timeout(25)
    assert sim.peek() == 25


def test_peek_reports_earliest_across_now_bucket_and_heap():
    sim = Simulator()
    sim.timeout(7 * MS)
    assert sim.peek() == 7 * MS
    sim.timeout(12)
    assert sim.peek() == 12
    sim.timeout(0)  # the now-bucket wins over any heap entry
    assert sim.peek() == 0


# ------------------------------------------------ no listener, no event
def test_spawned_process_schedules_no_completion_event():
    sim = Simulator()
    ran = []

    def job():
        yield sim.timeout(5)
        ran.append(sim.now)

    sim.spawn(job())
    sim.run()
    assert ran == [5]
    # the bootstrap and the timeout; nothing fires when the job returns
    assert sim.events_processed == 2


def test_spawned_process_object_is_reused_by_next_spawn():
    sim = Simulator()
    order = []

    def job(tag):
        yield sim.timeout(1)
        order.append(tag)

    sim.spawn(job("a"))
    sim.run()
    assert len(sim._process_pool) == 1
    retired = sim._process_pool[-1]
    sim.spawn(job("b"), name="second")
    assert sim._process_pool == []
    assert retired.name == "second"
    sim.run()
    assert order == ["a", "b"]
    assert sim._process_pool == [retired]


def test_process_handle_fires_completion_event():
    sim = Simulator()

    def job():
        yield sim.timeout(5)
        return "done"

    p = sim.process(job())
    sim.run()
    assert p.processed and p.value == "done"
    # bootstrap, timeout and the completion nobody listened to yet
    assert sim.events_processed == 3


def test_process_handle_yielded_after_it_finished():
    sim = Simulator()
    got = []

    def job():
        yield sim.timeout(5)
        return "early"

    p = sim.process(job())

    def late_waiter():
        yield sim.timeout(20)
        got.append((sim.now, (yield p)))

    sim.process(late_waiter())
    sim.run()
    assert got == [(20, "early")]


# ------------------------------------------------------- far-future events
def test_far_events_fire_in_time_order_without_delaying_near_ones():
    sim = Simulator()
    fired = []
    times = [3, MS - 1, MS + 1, 2 * MS + 9, 10 * MS, 40, 10 * MS + 1]
    for when in times:
        t = sim.timeout(when)
        t.callbacks.append(lambda ev, w=when: fired.append((sim.now, w)))
    sim.run()
    assert fired == [(w, w) for w in sorted(times)]


def test_far_event_fires_at_exact_time():
    sim = Simulator()
    fired = []
    t = sim.timeout(3 * MS + 17)
    t.callbacks.append(lambda ev: fired.append(sim.now))
    sim.run()
    assert fired == [3 * MS + 17]
    assert sim.now == 3 * MS + 17


def test_callback_insert_between_queued_events_stays_ordered():
    """An event a callback schedules behind an already-queued one must
    not be lost or dispatched ahead of it."""
    sim = Simulator()
    fired = []
    base = 10 * MS

    def first(ev):
        fired.append("first")
        later = sim.timeout((base + 3) - sim.now)
        later.callbacks.append(lambda e: fired.append("injected"))

    t1 = sim.timeout(base + 1)
    t1.callbacks.append(first)
    t2 = sim.timeout(base + 2)
    t2.callbacks.append(lambda ev: fired.append("second"))
    sim.run()
    assert fired == ["first", "second", "injected"]


def test_same_instant_far_events_fire_fifo():
    sim = Simulator()
    fired = []
    for tag in ("first", "second"):
        t = sim.timeout(2 * MS)
        t.callbacks.append(lambda ev, tag=tag: fired.append(tag))
    sim.run()
    assert fired == ["first", "second"]


def test_cancelled_far_event_is_skipped_and_not_counted():
    sim = Simulator()
    fired = []
    doomed = sim.event(name="far-doomed")
    doomed.succeed(delay=MS + 50)
    doomed.callbacks.append(lambda ev: fired.append("BUG"))
    anchor = sim.timeout(MS + 60)
    anchor.pin()
    doomed.cancel()
    sim.run()
    assert fired == []
    assert sim.now == MS + 60
    assert anchor.processed and not doomed.processed
    assert sim.events_processed == 1


def test_cancelled_event_skipped_without_dispatch():
    sim = Simulator()
    fired = []
    doomed = sim.event(name="doomed")
    doomed.succeed("never", delay=5)
    live = sim.event(name="live")
    live.succeed("yes", delay=5)
    live.callbacks.append(lambda ev: fired.append(ev.value))
    doomed.callbacks.append(lambda ev: fired.append("BUG"))
    doomed.cancel()
    processed_before = sim.events_processed
    sim.run()
    assert fired == ["yes"]
    # the defunct event was discarded, never counted as dispatched
    assert sim.events_processed == processed_before + 1


def test_step_with_only_cancelled_events_raises_simulation_error():
    sim = Simulator()
    for delay in (0, MS + 1):
        doomed = sim.event()
        doomed.succeed(delay=delay)
        doomed.cancel()
    with pytest.raises(SimulationError, match="no events are scheduled"):
        sim.step()


def test_step_after_far_event_drains_raises():
    sim = Simulator()
    sim.timeout(MS + 1)
    sim.step()
    assert sim.now == MS + 1
    with pytest.raises(SimulationError, match="no events are scheduled"):
        sim.step()


# ------------------------------------------------------ pinned dispatch order
#: dispatch order of ``_mixed_workload`` as ``(now, tag)``; any change to
#: it changes every seeded simulation output in the repo
MIXED_WORKLOAD_ORDER = [
    (0, "t0"), (0, "t11"), (0, "t22"), (0, "t33"),
    (0, "z0"), (0, "z1"), (0, "z2"), (0, "z3"), (0, "z4"),
    (0, "z5"), (0, "z6"), (0, "z7"), (0, "z8"), (0, "z9"),
    (1, "t8"), (1, "t19"), (1, "t30"),
    (2, "t5"), (2, "t16"), (2, "t27"), (2, "t38"),
    (3, "t2"), (3, "t13"), (3, "t24"), (3, "t35"), (3, "p0"), (3, "c0"),
    (4, "t10"), (4, "t21"), (4, "t32"),
    (5, "t7"), (5, "t18"), (5, "t29"),
    (6, "t4"), (6, "t15"), (6, "t26"), (6, "t37"), (6, "p1"),
    (7, "t1"), (7, "t12"), (7, "t23"), (7, "t34"),
    (8, "t9"), (8, "t20"), (8, "t31"),
    (9, "t6"), (9, "t17"), (9, "t28"), (9, "t39"), (9, "p2"),
    (10, "t3"), (10, "t14"), (10, "t25"), (10, "t36"),
    (11, "c1"), (12, "p3"), (15, "p4"), (16, "c3"), (19, "c2"), (24, "c4"),
]


def _mixed_workload(sim):
    """A deterministic burst of same-tick timeouts, zero-delay events,
    and callback-spawned work; returns the dispatch tags in order."""
    fired = []

    def note(tag):
        return lambda ev: fired.append((sim.now, tag))

    for i in range(40):
        # many collisions: delays repeat so events share ticks
        t = sim.timeout((i * 7) % 11)
        t.callbacks.append(note(f"t{i}"))
    for i in range(10):
        ev = sim.event()
        ev.succeed(delay=0)
        ev.callbacks.append(note(f"z{i}"))

    def proc():
        for i in range(5):
            yield sim.timeout(3)
            fired.append((sim.now, f"p{i}"))
            chained = sim.timeout((i * 5) % 11)
            chained.callbacks.append(note(f"c{i}"))

    sim.process(proc(), name="mixer")
    sim.run()
    return fired


def test_mixed_workload_matches_pinned_dispatch_order():
    """Exact (time, seq) order, FIFO among same-tick events, is what the
    repo's byte-identical seeded outputs rest on."""
    assert _mixed_workload(Simulator()) == MIXED_WORKLOAD_ORDER
