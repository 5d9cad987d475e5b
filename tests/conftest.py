"""Suite-wide defaults.

The tier-1 suite runs with every runtime invariant checker armed unless
the environment says otherwise: any world built through the rig builders
or ``run_case`` self-audits while the tests exercise it.  ``setdefault``
keeps CI free to pin an explicit value (``REPRO_CHECKS=1`` / ``=off``)
without this file fighting it.
"""

import hashlib
import json
import os

import pytest

os.environ.setdefault("REPRO_CHECKS", "all")


def _drop_sim_events(node):
    if isinstance(node, dict):
        return {k: _drop_sim_events(v) for k, v in node.items() if k != "sim_events"}
    if isinstance(node, list):
        return [_drop_sim_events(v) for v in node]
    return node


@pytest.fixture
def behaviour_sha():
    """sha256 of a JSON document with every ``sim_events`` field
    dropped (keys sorted): the digest of what the modelled system did,
    which a change to the simulator's own event count must not move."""

    def digest(text: str) -> str:
        canon = json.dumps(_drop_sim_events(json.loads(text)), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()

    return digest
