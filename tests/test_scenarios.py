from __future__ import annotations

import pytest

from conftest import SMALL

from sealkit.scenarios import SCENARIOS, run_scenario


def test_scenario_registry_is_complete():
    assert set(SCENARIOS) == {
        "theft-reboot",
        "header-restore-single",
        "header-restore-dual",
        "tamper-binary",
        "skip-erase",
        "leftover-user",
        "tampered-ldap",
    }


def test_unknown_scenario_rejected():
    with pytest.raises(KeyError):
        run_scenario("no-such-attack", 0)


def test_scenario_reports_are_deterministic_per_seed():
    a = run_scenario("theft-reboot", 17, SMALL)
    b = run_scenario("theft-reboot", 17, SMALL)
    assert a.to_dict() == b.to_dict()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_scenario_matches_expected_over_20_seeds(name):
    expected = SCENARIOS[name].expected
    for seed in range(20):
        report = run_scenario(name, seed, SMALL)
        assert report.observed == expected, (
            f"{name} seed {seed}: observed {report.observed}, "
            f"expected {expected}: {report.details}"
        )
