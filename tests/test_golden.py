"""The acceptance suite's records against their committed golden numbers.

The records come from the session-scoped ``records`` fixture, so this
module adds no experiment runs of its own.  ``golden.py`` says how the
file is made and compared.
"""

import copy
import json

import pytest

from golden import GOLDEN_PATH, RECORDS, key, mismatches, snapshot


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_the_acceptance_records(golden):
    assert list(golden) == [key(name, overrides) for name, overrides in RECORDS]


@pytest.mark.parametrize(
    "name, overrides", RECORDS, ids=[key(name, overrides) for name, overrides in RECORDS]
)
def test_record_matches_golden(records, golden, name, overrides):
    found = mismatches(golden[key(name, overrides)], snapshot(records(name, **overrides)))
    assert not found, "\n".join(found[:20])


def test_comparison_rule(golden):
    entry = golden[key("ns-unique", {})]
    assert mismatches(entry, copy.deepcopy(entry)) == []
    for perturb, caught in (
        (lambda m: m.update(C_used=m["C_used"] * (1 + 1e-8)), True),
        (lambda m: m.update(C_used=m["C_used"] * (1 + 1e-13)), False),
        (lambda m: m.update(segments=m["segments"] + 1), True),
        (lambda m: m.update(status="inconclusive"), True),
        (lambda m: m.update(dimension_restriction_met=not m["dimension_restriction_met"]), True),
        (lambda m: m.update(max_separation=m["max_separation"] * 2), False),  # below the floor
    ):
        changed = copy.deepcopy(entry)
        perturb(changed["metrics"])
        assert bool(mismatches(entry, changed)) is caught
    shorter = copy.deepcopy(entry)
    shorter["series"]["segments"]["rows"].pop()
    assert mismatches(entry, shorter)
