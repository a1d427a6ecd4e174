"""Build ``reference.json``: the verdict every benchmark job is checked against.

One row per farm target (``scenario:<name>`` / ``market:<package>``):
the status the job must end in, whether the leak is detected, and the
exact set of leak destinations.  The rows come from the hand-written
ground truth — each scenario's ``expected_taint``/``expected_destination``
and the paper's Section VI finding for the market apps (exactly one
app, the ePhone analogue, sends contacts out, to comwave) — and are
cross-checked against the single-step ARM + Dalvik interpreter oracle
(``make_platform(use_tb=False)``) over several Monkey seeds.  Any
disagreement aborts without writing.

Run from the repository root::

    PYTHONPATH=src python3 farmbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# Section VI: "One app (i.e., ephone3.3) further sends out the contact
# information through native code."
MARKET_LEAKS = {"com.market.ephone": "softphone.comwave.net"}
ORACLE_SEEDS = (0, 1, 7, 2014)
EVENTS = 12


def _destinations(platform) -> list:
    return sorted({record.destination for record in platform.leaks.records})


def _scenario_verdict(name: str) -> dict:
    from repro.apps import ALL_SCENARIOS
    from repro.apps.base import run_scenario
    from repro.bench.harness import make_platform

    scenario = ALL_SCENARIOS[name]()
    platform = make_platform("ndroid", use_tb=False)
    run_scenario(scenario, platform)
    records = platform.leaks.records
    if scenario.expected_taint:
        detected = any(r.taint & scenario.expected_taint for r in records)
    else:
        detected = bool(records)
    expected_detected = bool(scenario.expected_destination)
    destinations = _destinations(platform)
    if detected != expected_detected or any(
            scenario.expected_destination not in d for d in destinations):
        raise SystemExit(f"oracle disagrees with ground truth on {name}: "
                         f"detected={detected} destinations={destinations} "
                         f"expected={scenario.expected_destination!r}")
    return {"status": "ok", "detected": detected,
            "destinations": destinations}


def _market_verdict(package: str) -> dict:
    from repro.apps.market import MARKET_APPS
    from repro.bench.harness import make_platform
    from repro.framework.monkey import MonkeyRunner

    verdicts = set()
    for seed in ORACLE_SEEDS:
        apk = MARKET_APPS[package]()
        platform = make_platform("ndroid", use_tb=False)
        platform.install(apk)
        MonkeyRunner(platform, seed=seed).run(apk, events=EVENTS)
        destinations = _destinations(platform)
        verdicts.add((bool(platform.leaks.records), tuple(destinations)))
    if len(verdicts) != 1:
        raise SystemExit(f"{package}: verdict depends on the Monkey seed: "
                         f"{sorted(verdicts)}")
    detected, destinations = verdicts.pop()
    expected = MARKET_LEAKS.get(package)
    if detected != (expected is not None) or any(
            expected not in d for d in destinations):
        raise SystemExit(f"oracle disagrees with Section VI on {package}: "
                         f"detected={detected} destinations={destinations}")
    return {"status": "ok", "detected": detected,
            "destinations": list(destinations)}


def build_reference() -> dict:
    from repro.apps import ALL_SCENARIOS
    from repro.apps.market import MARKET_APPS

    targets = {f"scenario:{name}": _scenario_verdict(name)
               for name in ALL_SCENARIOS}
    targets.update({f"market:{package}": _market_verdict(package)
                    for package in MARKET_APPS})
    return {"oracle": "make_platform('ndroid', use_tb=False)",
            "monkey_seeds": list(ORACLE_SEEDS), "targets": targets}


def main() -> int:
    reference = build_reference()
    with open(REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {REFERENCE_PATH}: {len(reference['targets'])} targets")
    return 0


if __name__ == "__main__":
    sys.exit(main())
