"""Parallel experiment runner: multiprocess fan-out must be a pure
wall-clock optimisation — payloads byte-identical to sequential runs,
clean and under fault injection alike."""

import json

import pytest

from repro.runner import RunSpec, default_workers, parallel_map, run_grid, run_one


@pytest.fixture(autouse=True)
def _tiny_windows(monkeypatch):
    """Shrink simulated windows so each grid cell runs in ~0.1 s."""
    monkeypatch.setenv("REPRO_TIME_SCALE", "0.1")


def _canon(payloads):
    return json.dumps(payloads, sort_keys=True)


def test_parallel_grid_matches_sequential_bytes():
    kwargs = dict(schemes=["native", "bmstore"], cases=["rand-r-1", "rand-w-1"])
    seq = run_grid(**kwargs, workers=1)
    par = run_grid(**kwargs, workers=4)
    assert _canon(par) == _canon(seq)
    assert len(seq) == 4
    assert all(p["ios"] > 0 for p in seq)


def test_parallel_grid_matches_sequential_with_fault_preset(monkeypatch):
    # windows long enough for the preset's 8 ms fault time to land
    monkeypatch.setenv("REPRO_TIME_SCALE", "0.4")
    kwargs = dict(schemes=["bmstore"], cases=["rand-r-1"],
                  faults="media-burst")
    seq = run_grid(**kwargs, workers=1)
    par = run_grid(**kwargs, workers=2)
    assert _canon(par) == _canon(seq)
    [payload] = seq
    injected = sum(
        v for k, v in payload["snapshot"]["counters"].items()
        if k.startswith("faults_injected")
    )
    assert injected >= 1


def test_grid_order_is_input_order_not_completion_order():
    # rand-r-128 is much slower than rand-r-1: with 4 workers the fast
    # cells finish first, but the payload list must follow grid order
    payloads = run_grid(["native"], ["rand-r-128", "rand-r-1"], workers=4)
    assert [p["case"] for p in payloads] == ["rand-r-128", "rand-r-1"]


def test_run_one_payload_shape():
    payload = run_one(RunSpec(scheme="native", case="rand-w-1", seed=11))
    assert payload["scheme"] == "native"
    assert payload["case"] == "rand-w-1"
    assert payload["seed"] == 11
    assert payload["sim_events"] > 0
    assert payload["iops"] > 0
    assert "counters" in payload["snapshot"]


def test_seed_changes_results():
    a = run_one(RunSpec(scheme="native", case="rand-r-1", seed=1))
    b = run_one(RunSpec(scheme="native", case="rand-r-1", seed=2))
    assert a["avg_latency_us"] != b["avg_latency_us"]


def test_counters_obs_mode_drops_spans_but_keeps_measurement():
    full = run_one(RunSpec(scheme="native", case="rand-w-1"))
    lite = run_one(RunSpec(scheme="native", case="rand-w-1",
                           obs_mode="counters"))
    # identical simulated outcome, cheaper bookkeeping
    assert lite["ios"] == full["ios"]
    assert lite["iops"] == full["iops"]
    assert lite["sim_events"] == full["sim_events"]
    assert lite["snapshot"]["spans"]["recorded"] == 0
    assert full["snapshot"]["spans"]["recorded"] > 0


def test_sampled_registry_via_obs_keeps_measurement():
    """A non-default sample rate goes through ``obs=``, not a kwarg."""
    from repro.experiments import quick_cases, run_case
    from repro.obs import MetricsRegistry

    (spec,) = quick_cases(["rand-r-1"])
    full = run_case("bmstore", spec)
    sampled = run_case("bmstore", spec,
                       obs=MetricsRegistry(mode="sampled", span_sample=4))
    assert sampled.fio.ios == full.fio.ios
    assert sampled.iops == full.iops
    assert sampled.avg_latency_us == full.avg_latency_us
    assert sampled.latency.p99_us == full.latency.p99_us
    assert sampled.fio.sim_events == full.fio.sim_events
    assert sampled.snapshot["span_sample"] == 4
    # one span per four commands: ticks 1, 5, 9, ... of the full count
    every = full.snapshot["spans"]["recorded"]
    assert every > 0
    assert sampled.snapshot["spans"]["recorded"] == -(-every // 4)


def test_parallel_map_inline_for_one_worker():
    assert parallel_map(len, ["ab", "c"], workers=1) == [2, 1]


def test_default_workers_env(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    assert default_workers() == 1
    monkeypatch.setenv("REPRO_WORKERS", "6")
    assert default_workers() == 6
    monkeypatch.setenv("REPRO_WORKERS", "banana")
    with pytest.raises(ValueError, match="REPRO_WORKERS"):
        default_workers()


def test_experiment_grid_wiring_parallel_equals_sequential():
    from repro.experiments import fig8_table5

    seq = fig8_table5.run(cases=["rand-w-1"], workers=1)
    par = fig8_table5.run(cases=["rand-w-1"], workers=2)
    assert seq.rows == par.rows
