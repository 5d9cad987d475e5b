"""Pushdown ablation: the >=2x command reduction, pinned as a test."""

import json

from repro.cli import main
from repro.experiments.pushdown_ablation import PushdownCell, run, run_cell


def small_cell(hot_remove=False, seed=901):
    # default key count (enough puts to flush SSTables), few lookups
    return PushdownCell(name="c", seed=seed, lookups=12,
                        hot_remove=hot_remove)


def test_cell_halves_commands_with_identical_results():
    payload = run_cell(small_cell())
    assert payload["command_ratio"] >= 2.0
    med, push = payload["mediated"], payload["pushdown"]
    assert med["values_digest"] == push["values_digest"]  # same answers
    assert med["found"] == push["found"] > 0
    assert push["program"]["sandbox_faults"] == 0
    assert push["fallbacks"] == 0
    # the json-encoded payload is what CI byte-compares across workers
    assert json.loads(payload["payload"])["cell"] == "c"


def test_hot_remove_cell_records_the_failure_deterministically():
    first = run_cell(small_cell(hot_remove=True))
    again = run_cell(small_cell(hot_remove=True))
    assert first["payload"] == again["payload"]
    assert not first["pushdown"]["remove_ok"]  # vendor cmd failed mid-remove
    assert not first["mediated"]["remove_ok"]
    assert first["command_ratio"] >= 2.0


def test_run_is_worker_count_invariant():
    seq = run(seed=31, cells=2, workers=1)
    par = run(seed=31, cells=2, workers=2)
    assert seq.rows == par.rows
    assert all(row["ratio"] >= 2.0 for row in seq.rows)


def test_push_command_cli(capsys):
    assert main(["push", "--cells", "1", "--seed", "3", "--workers", "1",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["experiment_id"] == "pushdown"
    assert payload["rows"][0]["ratio"] >= 2.0
    assert main(["push", "--cells", "1", "--seed", "3", "--workers", "1"]) == 0
    assert "ratio" in capsys.readouterr().out


#: the whole JSON, ``sim_events`` (the simulator's own cost) included
PUSH_GOLDEN_SHA = "3744b0344b22fc19ff143aae093840c082b1588b01786de41421ced9316034e8"
#: the JSON without ``sim_events``: the modelled system's behaviour,
#: which no simulator optimisation may move
PUSH_BEHAVIOUR_SHA = "2d5c20bb31f032351142f9d53568089ae0264d952d2a6776e41ed003f007f995"


def test_push_json_matches_golden(capsys, behaviour_sha):
    """Hops run through the engine's shared back-end path; with no clone
    or migration in play that adds no event and moves no byte — the
    digest pins the JSON this command printed before the merge."""
    import hashlib

    assert main(["push", "--cells", "4", "--seed", "7", "--workers", "1",
                 "--json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["rows"]
    assert behaviour_sha(out) == PUSH_BEHAVIOUR_SHA
    assert hashlib.sha256(out.encode()).hexdigest() == PUSH_GOLDEN_SHA
