"""Tests for deterministic random streams, units, and tracing."""

import pytest

from repro.sim import SeriesRecorder, Simulator, StreamFactory
from repro.sim.units import (
    GB,
    MB,
    MS,
    SEC,
    US,
    gb_per_sec,
    mb_per_sec,
    ms,
    sec,
    to_ms,
    to_sec,
    to_us,
    us,
)


# --------------------------------------------------------------------------
# RandomStream / StreamFactory
# --------------------------------------------------------------------------

def test_streams_are_deterministic_by_name():
    f1 = StreamFactory(root_seed=1)
    f2 = StreamFactory(root_seed=1)
    s1 = f1.stream("ssd0")
    s2 = f2.stream("ssd0")
    assert [s1.random() for _ in range(10)] == [s2.random() for _ in range(10)]


def test_different_names_give_different_streams():
    f = StreamFactory(root_seed=1)
    a = f.stream("a")
    b = f.stream("b")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_different_seeds_give_different_streams():
    a = StreamFactory(root_seed=1).stream("x")
    b = StreamFactory(root_seed=2).stream("x")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_jitter_ns_mean_tracks_base():
    s = StreamFactory().stream("jitter")
    samples = [s.jitter_ns(10_000, cv=0.2) for _ in range(4000)]
    mean = sum(samples) / len(samples)
    assert mean == pytest.approx(10_000, rel=0.05)
    assert all(x >= 0 for x in samples)


def test_jitter_ns_zero_cv_is_deterministic():
    s = StreamFactory().stream("nojitter")
    assert s.jitter_ns(5000, cv=0.0) == 5000


def test_zipf_index_is_skewed_and_in_range():
    s = StreamFactory().stream("zipf")
    n = 1000
    draws = [s.zipf_index(n, theta=0.99) for _ in range(5000)]
    assert all(0 <= d < n for d in draws)
    hot = sum(1 for d in draws if d < n // 10)
    assert hot > len(draws) * 0.5  # top 10% of keys gets most traffic


def test_zipf_index_rejects_empty():
    s = StreamFactory().stream("zipf2")
    with pytest.raises(ValueError):
        s.zipf_index(0)


# --------------------------------------------------------------------------
# units
# --------------------------------------------------------------------------

def test_time_unit_roundtrips():
    assert us(3.0) == 3 * US
    assert ms(2.0) == 2 * MS
    assert sec(1.5) == 1.5 * SEC
    assert to_us(us(77.2)) == pytest.approx(77.2)
    assert to_ms(ms(5)) == 5
    assert to_sec(sec(9)) == 9


def test_bandwidth_units():
    assert mb_per_sec(3200) == 3200 * MB
    assert gb_per_sec(3.2) == pytest.approx(3.2 * GB)


# --------------------------------------------------------------------------
# SeriesRecorder
# --------------------------------------------------------------------------

def test_series_recorder_bins_rates():
    sim = Simulator()
    rec = SeriesRecorder(sim, window_ns=1000)

    def proc():
        for _ in range(10):
            rec.tick()
            yield sim.timeout(100)

    sim.process(proc())
    sim.run()
    series = rec.series(0, 1000)
    # 10 ticks in the first 1000ns window -> 10e6 per second... one tick lands at t=1000
    assert series[0][1] == pytest.approx(10 * 1e9 / 1000, rel=0.2)
    assert rec.total() == 10


def test_series_recorder_covers_empty_windows():
    sim = Simulator()
    rec = SeriesRecorder(sim, window_ns=100)

    def proc():
        rec.tick()
        yield sim.timeout(500)
        rec.tick()

    sim.process(proc())
    sim.run()
    series = rec.series(0, 600)
    assert len(series) == 6
    assert series[1][1] == 0.0
