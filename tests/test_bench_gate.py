"""The bench regression gate as a unit: compare()/compare_meta() failure
and warning modes on synthetic snapshots, best-of-N repeats, and the CI
step-summary trend table."""

import json

from repro import bench, bench_summary
from repro.cli import main


def _snapshot(events_per_sec=100_000, sim_events=50_000, *,
              scheme="bmstore", case="rand-r-128", time_scale=0.3,
              python="3.12.0", machine="x86_64", git_sha="a" * 40):
    return {
        "kind": "repro-bench",
        "obs_mode": "counters",
        "time_scale": time_scale,
        "python": python,
        "machine": machine,
        "repeats": 1,
        "git_sha": git_sha,
        "runs": [{
            "scheme": scheme, "case": case, "seed": 7,
            "wall_s": round(sim_events / events_per_sec, 4),
            "sim_events": sim_events,
            "events_per_sec": events_per_sec,
            "ios": 1000, "iops": 123.4,
        }],
        "totals": {
            "wall_s": round(sim_events / events_per_sec, 4),
            "sim_events": sim_events,
            "events_per_sec": events_per_sec,
        },
    }


# ------------------------------------------------------------- compare()
def test_compare_passes_identical_snapshots():
    snap = _snapshot()
    assert bench.compare(snap, snap) == []


def test_compare_flags_event_count_drift_even_when_faster():
    """sim_events drift is behaviour drift: a hard failure regardless of
    throughput direction."""
    baseline = _snapshot(sim_events=50_000)
    current = _snapshot(events_per_sec=500_000, sim_events=50_001)
    failures = bench.compare(current, baseline)
    assert any("event count changed" in f for f in failures)


def test_compare_flags_throughput_regression_past_tolerance():
    baseline = _snapshot(events_per_sec=100_000)
    current = _snapshot(events_per_sec=74_000)
    failures = bench.compare(current, baseline, tolerance=0.25)
    assert any("events/s" in f for f in failures)
    # just inside the cliff passes
    assert bench.compare(_snapshot(events_per_sec=76_000), baseline,
                         tolerance=0.25) == []


def test_compare_flags_scale_mismatch_before_anything_else():
    baseline = _snapshot(time_scale=1.0)
    current = _snapshot(time_scale=0.3, sim_events=1)
    failures = bench.compare(current, baseline)
    assert failures == [failures[0]]
    assert "time_scale mismatch" in failures[0]


def test_compare_flags_cells_missing_on_either_side():
    baseline = _snapshot(case="rand-r-128")
    current = _snapshot(case="rand-r-1")
    failures = bench.compare(current, baseline)
    assert any("no baseline entry" in f for f in failures)
    assert any("in baseline but not run" in f for f in failures)


# -------------------------------------------------------- compare_meta()
def test_compare_meta_warns_on_python_and_machine_mismatch():
    baseline = _snapshot(python="3.11.7", machine="x86_64")
    current = _snapshot(python="3.12.0", machine="aarch64")
    warnings = bench.compare_meta(current, baseline)
    assert len(warnings) == 2
    assert any("python mismatch" in w for w in warnings)
    assert any("machine mismatch" in w for w in warnings)


def test_compare_meta_is_advisory_not_a_compare_failure():
    baseline = _snapshot(python="3.11.7")
    current = _snapshot(python="3.12.0")
    assert bench.compare_meta(current, baseline)
    assert bench.compare(current, baseline) == []


def test_cli_meta_mismatch_warns_but_exits_zero(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_TIME_SCALE", "0.05")
    out = tmp_path / "bench.json"
    assert main(["bench", "--cases", "rand-w-1", "--schemes", "native",
                 "--out", str(out)]) == 0
    snap = json.loads(out.read_text())
    snap["python"] = "2.7.18"
    # pin the wall figures so only ``python`` differs: two back-to-back
    # wall-clock runs can spread past the throughput tolerance, and that
    # gate has its own test; the exact sim_events comparison still runs
    for entry in snap["runs"] + [snap["totals"]]:
        entry["wall_s"] = 1.0
        entry["events_per_sec"] = 1
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(snap))
    out2 = tmp_path / "bench2.json"
    assert main(["bench", "--cases", "rand-w-1", "--schemes", "native",
                 "--out", str(out2), "--check", str(baseline)]) == 0
    err = capsys.readouterr().err
    assert "warning: python mismatch" in err


# --------------------------------------------------------------- repeats
def test_repeats_keeps_best_wall_and_identical_payload(monkeypatch):
    monkeypatch.setenv("REPRO_TIME_SCALE", "0.05")
    once = bench.run_bench(("native",), ("rand-w-1",), repeats=1)
    best = bench.run_bench(("native",), ("rand-w-1",), repeats=3)
    assert best["repeats"] == 3
    # determinism: repeating never changes the simulated results
    for key in ("sim_events", "ios", "iops"):
        assert best["runs"][0][key] == once["runs"][0][key]


def test_repeats_floor_is_one():
    snap_meta = bench.run_bench((), (), repeats=0)
    assert snap_meta["repeats"] == 1 and snap_meta["runs"] == []


def test_snapshot_embeds_git_sha(monkeypatch):
    monkeypatch.setenv("GITHUB_SHA", "f" * 40)
    assert bench.run_bench((), ())["git_sha"] == "f" * 40


# ---------------------------------------------------------- trend table
def test_trend_table_reports_delta_per_cell():
    baseline = _snapshot(events_per_sec=100_000)
    current = _snapshot(events_per_sec=120_000, git_sha="b" * 40)
    table = bench_summary.trend_table(current, baseline)
    assert "| bmstore | rand-r-128 | 100,000 | 120,000 | +20.0% |" in table
    assert "`bbbbbbbbbbbb`" in table and "`aaaaaaaaaaaa`" in table
    assert "**total**" in table


def test_trend_table_handles_missing_baseline_cell_and_warns():
    baseline = _snapshot(case="rand-r-1", python="3.11.7")
    current = _snapshot(case="rand-r-128")
    table = bench_summary.trend_table(current, baseline)
    assert "| n/a | 100,000 | n/a |" in table
    assert ":warning: python mismatch" in table


def test_trend_table_cli_entry_point(tmp_path, capsys):
    path = tmp_path / "snap.json"
    path.write_text(json.dumps(_snapshot()))
    assert bench_summary.main([str(path), str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("### Kernel bench trend")
    assert "+0.0%" in out
    assert bench_summary.main([str(path)]) == 2
