"""The fleet flight recorder: a traced 2-worker farm writes a valid
Chrome trace whose spans cover every layer, correlated across the
fork, and merges the counters of all three caches."""

import json

import pytest

from repro.farm import merge_spans
from repro.observability.flight import validate_chrome_trace

pytestmark = pytest.mark.smoke


@pytest.fixture(scope="module")
def traced(cli, tmp_path_factory):
    root = tmp_path_factory.mktemp("trace")
    out, flight = root / "repro-farm", root / "repro-flight"
    code, text = cli("farm", "builtin", "-j", 2, "--out", out,
                     "--trace-dir", flight)
    assert code == 0
    assert f"wrote {flight}/trace.json" in text
    return out, flight


def test_merged_chrome_trace_validates(traced):
    __, flight = traced
    trace = json.loads((flight / "trace.json").read_text())
    assert validate_chrome_trace(trace) == []


def test_spans_from_every_layer_correlated_by_trace_id(traced):
    __, flight = traced
    timeline = merge_spans(str(flight))
    cats = {s["cat"] for s in timeline["spans"]}
    assert {"scheduler", "worker", "engine"} <= cats
    names = {s["name"] for s in timeline["spans"]}
    for required in ("job", "platform_boot", "scenario_run",
                     "store_commit", "tbc_compile", "jni_crossing"):
        assert required in names, required
    traces = {s["trace"] for s in timeline["spans"]
              if s["cat"] == "scheduler" and s["trace"]}
    crossed = {s["trace"] for s in timeline["spans"]
               if s["cat"] in ("worker", "engine")}
    assert traces and traces <= crossed, \
        "scheduler trace ids missing on the worker side"
    assert timeline["open_spans"] == 0


def test_cache_counters_reach_the_merged_metrics(traced):
    out, __ = traced
    merged = json.loads((out / "merged" / "metrics.json").read_text())
    for family in ("emulator.tb.hits", "dalvik.tbc.hits",
                   "jni.trampoline.hits"):
        assert family in merged, family
    # The Dalvik block cache and JNI trampolines do real work on the
    # builtin corpus; the native TB cache stays idle under the
    # supervisor's per-instruction tracers.
    assert merged["dalvik.tbc.hits"] > 0
    assert merged["jni.trampoline.hits"] > 0
    assert "jni.crossing_us.p95" in merged
