"""``repro supervise``: the market study fault-free, with a contained
crash, and with a transient fault retried to ok."""

import re

import pytest

pytestmark = pytest.mark.smoke

EPHONE = "com.market.ephone"


def test_fault_free_study_completes_every_app(cli):
    code, text = cli("supervise")
    assert code == 0
    assert "8/8 apps completed" in text


def test_contained_crash_produces_a_report(cli):
    code, text = cli("supervise", "--faults", "decode@100",
                     "--fault-target", EPHONE, "--report")
    assert code == 0
    assert f"crash report: {EPHONE}" in text
    assert "7/8 apps completed (1 contained)" in text


def test_transient_fault_retries_to_ok(cli):
    code, text = cli("supervise", "--faults", "eintr:sendto",
                     "--fault-target", EPHONE)
    assert code == 0
    assert "8/8 apps completed" in text
    assert re.search(rf"{re.escape(EPHONE)} +ok +2", text)
