"""Unit tests for Resource, Store, BandwidthLink, TokenBucket."""

import pytest

from repro.sim import BandwidthLink, Resource, SimulationError, Simulator, Store, TokenBucket


# --------------------------------------------------------------------------
# Resource
# --------------------------------------------------------------------------

def test_resource_serializes_beyond_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    done = []

    def worker(tag):
        yield res.acquire()
        yield sim.timeout(100)
        res.release()
        done.append((tag, sim.now))

    for tag in range(4):
        sim.process(worker(tag))
    sim.run()
    # two run [0,100], the next two [100,200]
    assert [t for _, t in done] == [100, 100, 200, 200]


def test_resource_fifo_grant_order():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def worker(tag):
        yield res.acquire()
        order.append(tag)
        yield sim.timeout(10)
        res.release()

    for tag in range(5):
        sim.process(worker(tag))
    sim.run()
    assert order == list(range(5))


def test_resource_release_idle_rejected():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_invalid_capacity():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_resource_utilization_accounting():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def worker():
        yield res.acquire()
        yield sim.timeout(500)
        res.release()

    sim.process(worker())
    sim.run(until=1000)
    assert res.utilization() == pytest.approx(0.5)


def test_resource_counters():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def holder():
        yield res.acquire()
        yield sim.timeout(100)
        res.release()

    def waiter():
        yield res.acquire()
        res.release()

    sim.process(holder())
    sim.process(waiter())
    sim.run(until=50)
    assert res.in_use == 1
    assert res.queued == 1


# --------------------------------------------------------------------------
# Store
# --------------------------------------------------------------------------

def test_store_fifo():
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer():
        for i in range(3):
            yield sim.timeout(10)
            store.put(i)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append((sim.now, item))

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert got == [(10, 0), (20, 1), (30, 2)]


def test_store_get_before_put_blocks():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer():
        item = yield store.get()
        got.append((sim.now, item))

    sim.process(consumer())
    sim.run()
    assert got == []
    store.put("late")
    sim.run()
    assert got == [(0, "late")]


def test_store_bounded_capacity_blocks_put():
    sim = Simulator()
    store = Store(sim, capacity=1)
    times = []

    def producer():
        for i in range(3):
            yield store.put(i)
            times.append(sim.now)

    def consumer():
        while True:
            yield sim.timeout(100)
            yield store.get()

    sim.process(producer())
    sim.process(consumer())
    sim.run(until=1000)
    # first put immediate; each subsequent put unblocks when consumer drains
    assert times == [0, 100, 200]


def test_nonblocking_store_put_dispatches_nothing():
    sim = Simulator()
    store = Store(sim)
    first = store.put("a")
    store.put("b")
    assert first.processed
    assert sim.peek() is None
    sim.run()
    assert sim.events_processed == 0
    assert store.items == ("a", "b")


def test_store_put_to_waiting_getter_fires_only_the_get():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer():
        got.append((yield store.get()))

    sim.process(consumer())
    sim.run()
    before = sim.events_processed
    store.put("x")
    sim.run()
    assert got == ["x"]
    # the getter's event and the consumer's completion; the put is silent
    assert sim.events_processed == before + 2


def test_full_bounded_store_blocks_the_putter():
    sim = Simulator()
    store = Store(sim, capacity=1)
    log = []

    def producer():
        yield store.put("first")
        log.append(("put first", sim.now))
        yield store.put("second")
        log.append(("put second", sim.now))

    def consumer():
        yield sim.timeout(50)
        log.append(("got", (yield store.get()), sim.now))

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert log == [("put first", 0), ("got", "first", 50), ("put second", 50)]
    assert store.items == ("second",)


def test_store_len_and_items():
    sim = Simulator()
    store = Store(sim)
    store.put("a")
    store.put("b")
    assert len(store) == 2
    assert store.items == ("a", "b")


# --------------------------------------------------------------------------
# BandwidthLink
# --------------------------------------------------------------------------

def test_link_serialization_time():
    sim = Simulator()
    # 1 GB/s == 1 byte/ns
    link = BandwidthLink(sim, bytes_per_sec=1e9, propagation_ns=100)
    done = []

    def proc():
        yield link.transfer(4096)
        done.append(sim.now)

    sim.process(proc())
    sim.run()
    assert done == [4096 + 100]


def test_link_back_to_back_transfers_serialize():
    sim = Simulator()
    link = BandwidthLink(sim, bytes_per_sec=1e9, propagation_ns=0)
    done = []

    def proc(tag):
        yield link.transfer(1000)
        done.append((tag, sim.now))

    sim.process(proc("a"))
    sim.process(proc("b"))
    sim.run()
    assert done == [("a", 1000), ("b", 2000)]


def test_link_propagation_is_pipelined():
    sim = Simulator()
    link = BandwidthLink(sim, bytes_per_sec=1e9, propagation_ns=500)
    done = []

    def proc(tag):
        yield link.transfer(1000)
        done.append((tag, sim.now))

    sim.process(proc("a"))
    sim.process(proc("b"))
    sim.run()
    # serialization back to back, but each only pays propagation once
    assert done == [("a", 1500), ("b", 2500)]


def test_link_throughput_accounting():
    sim = Simulator()
    link = BandwidthLink(sim, bytes_per_sec=1e9)

    def proc():
        yield link.transfer(10_000)

    sim.process(proc())
    sim.run()
    assert link.bytes_moved == 10_000
    assert link.throughput() == pytest.approx(1e9)


def test_link_zero_byte_transfer():
    sim = Simulator()
    link = BandwidthLink(sim, bytes_per_sec=1e9, propagation_ns=250)
    done = []

    def proc():
        yield link.transfer(0)
        done.append(sim.now)

    sim.process(proc())
    sim.run()
    assert done == [250]


def test_link_invalid_params():
    sim = Simulator()
    with pytest.raises(SimulationError):
        BandwidthLink(sim, bytes_per_sec=0)
    link = BandwidthLink(sim, bytes_per_sec=1.0)
    with pytest.raises(SimulationError):
        link.transfer(-1)


# --------------------------------------------------------------------------
# TokenBucket
# --------------------------------------------------------------------------

def test_bucket_burst_then_throttle():
    sim = Simulator()
    # 1000 tokens/sec == 1 token per ms; burst of 2
    bucket = TokenBucket(sim, rate_per_sec=1000.0, burst=2)
    times = []

    def proc():
        for _ in range(4):
            yield bucket.consume(1)
            times.append(sim.now)

    sim.process(proc())
    sim.run()
    assert times[0] == 0
    assert times[1] == 0
    # third and fourth wait ~1ms each for refill
    assert times[2] == pytest.approx(1_000_000, rel=0.01)
    assert times[3] == pytest.approx(2_000_000, rel=0.01)


def test_bucket_unlimited_never_blocks():
    sim = Simulator()
    bucket = TokenBucket(sim, rate_per_sec=None, burst=0)
    times = []

    def proc():
        for _ in range(100):
            yield bucket.consume(1000)
            times.append(sim.now)

    sim.process(proc())
    sim.run()
    assert times == [0] * 100
    assert not bucket.would_block(1e12)


def test_bucket_fifo_fairness():
    sim = Simulator()
    bucket = TokenBucket(sim, rate_per_sec=1000.0, burst=1)
    order = []

    def proc(tag):
        yield bucket.consume(1)
        order.append(tag)

    for tag in range(4):
        sim.process(proc(tag))
    sim.run()
    assert order == [0, 1, 2, 3]


def test_bucket_rate_is_respected_longrun():
    sim = Simulator()
    rate = 5000.0  # tokens per second
    bucket = TokenBucket(sim, rate_per_sec=rate, burst=1)
    count = 0

    def proc():
        nonlocal count
        while True:
            yield bucket.consume(1)
            count += 1

    sim.process(proc())
    sim.run(until=1_000_000_000)  # 1 simulated second
    assert count == pytest.approx(rate, rel=0.02)


def test_bucket_would_block_reflects_tokens():
    sim = Simulator()
    bucket = TokenBucket(sim, rate_per_sec=1.0, burst=5)
    assert not bucket.would_block(5)
    assert bucket.would_block(6)
