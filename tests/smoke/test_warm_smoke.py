"""``repro farm --warm`` matches a cold farm row for row."""

import json

import pytest

pytestmark = pytest.mark.smoke


def rows(out):
    farm = json.loads((out / "farm.json").read_text())
    assert farm["outcomes"] == {"ok": farm["jobs"]}
    return sorted((r["id"], r["status"], r["leaks"], r["sinks"],
                   sorted(r["destinations"])) for r in farm["rows"])


def test_warm_farm_matches_cold_row_for_row(cli, tmp_path):
    cold, warm = tmp_path / "repro-cold", tmp_path / "repro-warm"
    code, __ = cli("farm", "builtin", "-j", 2, "--out", cold)
    assert code == 0
    code, text = cli("farm", "builtin", "-j", 2, "--warm", "--out", warm)
    assert code == 0
    assert "== farm ==" in text
    # Warm forks must not perturb analysis: identical per-app
    # leak/sink/destination rows vs cold.
    assert rows(warm) == rows(cold)
