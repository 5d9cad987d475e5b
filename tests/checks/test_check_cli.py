"""`python -m repro check` command tests."""

import json

from repro.checks import CheckContext
from repro.cli import main


def test_check_static_only_clean(capsys):
    assert main(["check", "--static"]) == 0
    out = capsys.readouterr().out
    assert "clean" in out


def test_check_static_json(capsys):
    assert main(["check", "--static", "--json"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    payload = json.loads(lines[-1])
    assert payload == {"static_findings": []}


def test_check_runtime_reports_full_coverage(capsys, monkeypatch):
    write_side = []
    hook = CheckContext.on_backend_write

    def counted(self, ssd, slba, nblocks, span=None):
        before = self.counts.get("lba", 0)
        hook(self, ssd, slba, nblocks, span=span)
        write_side.append(self.counts["lba"] - before)

    monkeypatch.setattr(CheckContext, "on_backend_write", counted)
    assert main(["check", "--case", "rand-r-1", "--seed", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["violation"] is None
    coverage = payload["coverage"]
    # every named checker must have actually executed
    assert set(coverage) == {"ring", "prp", "lba", "qos", "kernel", "push"}
    assert all(count > 0 for count in coverage.values())
    # lba coverage includes the drive-side "no write into a shared
    # chunk" check, not only translation and refcount hooks
    assert sum(write_side) > 0


def test_check_runtime_subset(capsys):
    assert main(["check", "--checks", "ring,qos", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(payload["coverage"]) == {"ring", "qos"}
