"""Self-tests of the benchmark.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import json
import os
import subprocess
import sys

import pytest

import layers
import replay
import run
from layers import LayerTracer, SpanStore, layer_self_times, self_times
from workloads import REFERENCE_PROBE_S, WORKLOADS

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _stream(seed, triggers=300):
    ids = [f"c{i}" for i in range(1, 8)]
    return replay.generate(seed, triggers=triggers, rate_per_ms=10.0,
                           controller_ids=ids, k=6, switches=12,
                           master_of=lambda dpid: ids[dpid % 7])


def _fingerprint(stream):
    return [(at, r.controller_id, r.trigger_id, r.kind, r.entry, r.tainted,
             r.state_digest, r.trigger_received_at, r.origin)
            for at, _, r in stream.records]


def test_replay_stream_is_a_function_of_the_seed():
    first, again, other = _stream(3), _stream(3), _stream(4)
    assert _fingerprint(first) == _fingerprint(again)
    assert first.expected_alarms == again.expected_alarms
    assert _fingerprint(first) != _fingerprint(other)


def test_replay_stream_mix_and_order():
    stream = _stream(0, triggers=3000)
    times = [at for at, _, _ in stream.records]
    assert times == sorted(times)
    sizes = {}
    for _, _, response in stream.records:
        sizes[response.trigger_id] = sizes.get(response.trigger_id, 0) + 1
    assert len(sizes) == 3000
    full = sum(1 for n in sizes.values() if n == 14) / 3000
    timer_bound = sum(1 for n in sizes.values() if n == 7) / 3000
    assert abs(full - replay.FULL_SHARE) < 0.03
    assert abs(timer_bound - (1 - replay.FULL_SHARE - replay.LONE_SHARE)) \
        < 0.03
    assert 0.01 < len(stream.expected_alarms) / 3000 < 0.03


def _result(outputs, digest="d1", checks=None, trace=False):
    return {"trace": trace, "digest": digest, "outputs": outputs,
            "checks": checks or {}, "completed": 10, "measured_s": 1.0,
            "setup_s": 0.1, "peak_rss_mb": 50.0}


def test_output_check_fails_on_a_wrong_digest():
    pinned = {"decided": 5, "alarm_digest": "aa", "detection_median_ms": 1.5}
    checked = run.Run(expected=pinned)
    checked.add(_result(dict(pinned)), "")
    assert checked.failed == 0 and not checked.problems
    checked.add(_result(dict(pinned, alarm_digest="bb")), "")
    assert checked.failed == 1
    assert "alarm_digest" in checked.problems[0]


def test_output_check_fails_when_repetitions_disagree():
    checked = run.Run(expected=None)
    checked.add(_result({"decided": 5}, digest="d1"), "")
    checked.add(_result({"decided": 6}, digest="d2"), "")
    assert checked.failed == 1 and len(checked.plain) == 1
    assert "differ between repetitions" in checked.problems[0]


def test_failed_internal_check_and_crash_count_as_failures():
    checked = run.Run(expected=None)
    checked.add(_result({}, checks={"replay_alarms_match": False}), "")
    checked.add(None, "exit 1: boom")
    assert checked.attempted == 2 and checked.failed == 2
    assert checked.problems == ["check replay_alarms_match failed",
                                "exit 1: boom"]


def test_end_to_end_times_do_not_follow_host_speed():
    ref = REFERENCE_PROBE_S

    def rep(slowdown):
        return dict(_result({}), chunk_s=[0.2 * slowdown, 0.3 * slowdown],
                    probe_s=[0.8 * ref * slowdown, 1.2 * ref * slowdown,
                             0.8 * ref * slowdown],
                    setup_s=0.5 * slowdown,
                    setup_probe_s=[ref * slowdown, ref * slowdown])
    fast, slow = run.Run(expected=None), run.Run(expected=None)
    fast.add(rep(1.0), "")
    slow.add(rep(1.7), "")
    assert slow.end_to_end() == pytest.approx(fast.end_to_end())
    # Probes 20% either side of the reference: host seconds are kept.
    assert run.reference_chunks(rep(1.0))[0] == pytest.approx(0.2)
    assert slow.host_figures()[0] == pytest.approx(
        fast.host_figures()[0] / 1.7)


def test_self_time_arithmetic_on_nested_spans():
    spans = SpanStore()
    root = spans.add("sim.run", 0.0, 10.0)
    event = spans.add("net.event", 1.0, 9.0, parent=root, event=0)
    send = spans.add("net.channel_send", 2.0, 6.0, parent=event, event=0)
    spans.add("openflow.match_canonical", 3.0, 4.0, parent=send, event=0)
    spans.add("openflow.match_canonical", 4.5, 5.0, parent=send, event=0)
    spans.add("datastore.put", 7.0, 8.5, parent=event, event=0)
    assert self_times(spans) == pytest.approx({
        "sim.run": 2.0, "net.event": 2.5, "net.channel_send": 2.5,
        "openflow.match_canonical": 1.5, "datastore.put": 1.5})
    per_layer = layer_self_times(spans)
    assert per_layer["net"] == pytest.approx(5.0)
    assert sum(per_layer.values()) == pytest.approx(10.0)
    assert spans.counts()["openflow.match_canonical"] == 2


def test_inclusive_time_counts_recursion_once():
    spans = SpanStore()
    outer = spans.add("datastore.canonical", 0.0, 4.0)
    spans.add("datastore.canonical", 1.0, 2.0, parent=outer)
    assert layers.inclusive_times(spans)["datastore.canonical"] == \
        pytest.approx(4.0)


def test_wrappers_nest_spans_and_account_for_the_root():
    tracer = LayerTracer()

    def leaf(x):
        return x + 1

    wrapped_leaf = tracer.span("openflow.leaf", leaf)

    def middle(x):
        return wrapped_leaf(x) + wrapped_leaf(x)

    root = tracer.span("sim.run", tracer.span("net.middle", middle))
    assert root(1) == 4
    spans = tracer.spans
    assert [spans.names[i] for i in spans.name] == [
        "sim.run", "net.middle", "openflow.leaf", "openflow.leaf"]
    assert list(spans.parent) == [-1, 0, 1, 1]
    total = spans.end[0] - spans.start[0]
    assert sum(self_times(spans).values()) == pytest.approx(total)


def test_layer_of_module_uses_the_longest_prefix():
    assert layers.layer_of_module("repro.core.module") == "module"
    assert layers.layer_of_module("repro.core.validator") == "validator"
    assert layers.layer_of_module("repro.sim.station") == "sim"
    assert layers.layer_of_module("repro.simx") == "other"
    assert layers.layer_of_module("replay") == "other"


def test_benchmark_json_names_what_the_code_reports():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    per_layer = {m["name"] for m in spec["per_layer"]}
    names = set(layers.COUNT_SPANS)
    names |= {f"{layer}.self_s" for layer in layers.LAYERS
              if layer != "other"}
    names |= {"sim.events", "sim.ns_per_event", "controllers.packet_ins",
              "controllers.pipeline_drops", "datastore.writes",
              "datastore.remote_applies", "datastore.canonical_s",
              "replicator.replicated", "module.responses_sent",
              "validator.decided", "validator.timed_out", "validator.alarms",
              "validator.us_per_response", "trace_overhead_pct"}
    assert per_layer == names
    assert {m["name"] for m in spec["end_to_end"]} == {
        "triggers_per_s", "setup_s", "peak_rss_mb"}
    with open(os.path.join(BENCH, "expected.json")) as f:
        assert set(json.load(f)) == set(WORKLOADS)


def test_reference_shape_matches_the_validate_cli():
    """2000 ms of traffic at 2K PACKET_IN/s plus 600 ms settle, seed 0:
    the numbers ``validate --rate 2000 --duration 2000`` prints."""
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "rep.py"), "onos-jury", "0",
         "--traffic-ms", "2000"],
        capture_output=True, text=True, check=True, timeout=300)
    outputs = json.loads(done.stdout.strip().splitlines()[-1])["outputs"]
    assert outputs["decided"] == 6910
    assert outputs["alarms"] == 2
    assert outputs["detection_median_ms"] == pytest.approx(29.213, abs=5e-4)
    assert outputs["detection_p95_ms"] == pytest.approx(76.626, abs=5e-4)
