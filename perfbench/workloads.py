"""Workload definitions and one measured repetition of a workload.

A repetition builds a fresh deployment through the public construction
path (``Jury.experiment``, which ``Jury.build`` also uses), times its
set-up and its measured phase, and returns the simulated outputs the
parent checks. Each repetition runs in a fresh interpreter (see
``rep.py``): trigger ids, channel uids and flow ids come from
process-global counters, so only a fresh process gives outputs that
repeat exactly.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
from dataclasses import dataclass
from itertools import repeat
from time import perf_counter
from typing import Dict, Optional

from layers import COUNT_SPANS, LAYERS, LayerTracer, inclusive_times, \
    layer_self_times


@dataclass(frozen=True)
class Workload:
    """One fixed, seeded deployment shape."""

    name: str
    config: Dict[str, object]
    #: PACKET_IN/s offered by the traffic driver (live workloads), or
    #: triggers/s in the generated stream (``validator-replay``).
    rate_per_s: float
    #: Simulated ms of traffic (or of the generated stream).
    traffic_ms: float
    replay: bool = False
    #: Simulated ms of traffic run before the measured phase, so that it
    #: measures the saturated steady state, not the ramp up to it.
    warm_ms: float = 0.0


#: Simulated ms the measured phase runs past the end of traffic, as the
#: ``validate`` command does, so in-flight triggers are decided.
SETTLE_MS = 600.0

#: Simulated ms per timed chunk of the measured phase. The parent takes,
#: chunk by chunk, the median over repetitions (which run identical work),
#: so a burst of host noise in one repetition does not reach the metric.
CHUNK_MS = 25.0

_JURY_ONOS = dict(kind="onos", n=7, k=6, switches=12,
                  policies=("default",), with_northbound=True)

#: Iterations of the host speed probe, and the host seconds the probe
#: takes on the reference host. Times reported in reference seconds are
#: host seconds scaled by ``REFERENCE_PROBE_S`` over the probe time
#: measured around them (``reference_seconds``).
PROBE_LOOPS = 30_000
REFERENCE_PROBE_S = 0.003

#: Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(name="onos-jury", config=_JURY_ONOS,
             rate_per_s=2000.0, traffic_ms=1000.0),
    Workload(name="onos-vanilla-sat",
             config=dict(kind="onos", n=7, k=None, switches=24,
                         with_northbound=True),
             rate_per_s=10_000.0, traffic_ms=1000.0, warm_ms=750.0),
    Workload(name="odl-jury",
             config=dict(kind="odl", n=3, k=2, switches=12,
                         policies=("default",), with_northbound=True),
             rate_per_s=2000.0, traffic_ms=2000.0),
    Workload(name="validator-replay", config=_JURY_ONOS,
             rate_per_s=10_000.0, traffic_ms=1500.0, replay=True),
)}


def _import_stack() -> None:
    """Import everything set-up touches, so set-up time excludes imports."""
    import repro.api  # noqa: F401
    import repro.controllers.northbound  # noqa: F401
    import repro.controllers.odl  # noqa: F401
    import repro.controllers.onos  # noqa: F401
    import repro.controllers.profile  # noqa: F401
    import repro.core.deployment  # noqa: F401
    import repro.faults.injector  # noqa: F401
    import repro.harness.experiment  # noqa: F401
    import repro.net.topology  # noqa: F401
    import repro.workloads.traffic  # noqa: F401


def speed_probe() -> float:
    """Host seconds of a fixed pure-Python loop: how fast the host runs now.

    On a shared host the speed of the same code swings by tens of percent
    within a second and drifts over minutes. The probe slows down with the
    program, so timing it next to each piece of measured work lets that
    work be reported at a fixed host speed. The loop touches no program
    state and allocates nothing, so the program's heap cannot slow it.
    """
    collecting = gc.isenabled()
    gc.disable()
    cells = bytearray(128)
    j = 0
    started = perf_counter()
    for _ in repeat(None, PROBE_LOOPS):
        j = (j + 7) & 127
        cells[j] = (cells[j] + j) & 127
    elapsed = perf_counter() - started
    if collecting:
        gc.enable()
    return elapsed


def reference_seconds(host_s: float, probe_before: float,
                      probe_after: float) -> float:
    """``host_s`` of work bracketed by two probes, in reference seconds."""
    return host_s * 2.0 * REFERENCE_PROBE_S / (probe_before + probe_after)


def alarm_digest(alarms) -> str:
    """sha-256 of the canonical alarm stream (order, trigger, reason...)."""
    digest = hashlib.sha256()
    for alarm in alarms:
        digest.update(repr((alarm.trigger_id, alarm.reason.value,
                            alarm.offending_controller, alarm.raised_at,
                            alarm.detail)).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def outputs_digest(outputs: Dict[str, object]) -> str:
    """sha-256 of a rep's simulated outputs (the cross-commit fingerprint)."""
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class _Counters:
    """Public counters of every layer, read before and after the window."""

    def __init__(self, experiment, jury) -> None:
        self.experiment = experiment
        self.jury = jury

    def read(self) -> Dict[str, int]:
        controllers = self.experiment.cluster.controllers.values()
        nodes = self.experiment.store.nodes.values()
        values = {
            "admitted": sum(c.packet_ins_received - c.packet_ins_dropped
                            for c in controllers),
            "pipeline_drops": sum(c.packet_ins_dropped for c in controllers),
            "writes": sum(n.writes for n in nodes),
            "remote_applies": sum(n.remote_applies for n in nodes),
            "events": self.experiment.sim.events_fired,
        }
        jury = self.jury
        if jury is not None:
            validator = jury.validator
            values.update(
                decided=validator.triggers_decided,
                alarmed=validator.triggers_alarmed,
                received=validator.responses_received,
                timed_out=sum(1 for r in validator.results if r.timed_out),
                replicated=sum(r.triggers_replicated
                               for r in jury.replicators.values()),
                responses_sent=sum(m.responses_sent
                                   for m in jury.modules.values()))
        return values


def run_rep(workload: Workload, seed: int, trace: bool,
            traffic_ms: Optional[float] = None,
            spans_dir: Optional[str] = None) -> Dict[str, object]:
    """Build, warm up and drive one deployment; return timings and outputs."""
    _import_stack()
    from repro.api import Jury
    from repro.config import JuryConfig
    from repro.harness.metrics import percentile
    from repro.workloads.traffic import TrafficDriver

    tracer = LayerTracer() if trace else None
    if tracer is not None:
        tracer.install()
    config = JuryConfig(seed=seed, **workload.config)
    traffic_ms = workload.traffic_ms if traffic_ms is None else traffic_ms

    setup_probe_s = [speed_probe()]
    started = perf_counter()
    experiment = Jury.experiment(config)
    jury = experiment.jury
    if tracer is not None and jury is not None:
        tracer.watch_validator(m.validator_channel
                               for m in jury.modules.values())
    experiment.warmup()
    setup_s = perf_counter() - started
    setup_probe_s.append(speed_probe())

    sim = experiment.sim
    stream = None
    driver = None
    if workload.replay:
        import replay
        stream = replay.generate(
            seed, triggers=int(workload.rate_per_s * traffic_ms / 1000.0),
            rate_per_ms=workload.rate_per_s / 1000.0,
            controller_ids=jury.controller_ids, k=jury.k,
            switches=config.switches, master_of=jury.cluster.master_of,
            start_ms=sim.now)
        replay.Feeder(sim, stream, jury.validator).start()
    else:
        driver = TrafficDriver(sim, experiment.topology,
                               packet_in_rate_per_s=workload.rate_per_s,
                               duration_ms=workload.warm_ms + traffic_ms)
        driver.start()
        if workload.warm_ms:
            sim.run(until=sim.now + workload.warm_ms)

    counters = _Counters(experiment, jury)
    before = counters.read()
    if tracer is not None:
        tracer.reset()
    # A probe before the first chunk and after every chunk: chunk i runs
    # between probe_s[i] and probe_s[i + 1].
    probe_s = [speed_probe()]
    measure_start = perf_counter()
    if not workload.replay:
        experiment.begin_window()
    # The same instant Experiment.run would stop at, reached in chunks of
    # simulated time; running to intermediate instants changes no output.
    end = sim.now + (traffic_ms + SETTLE_MS)
    chunk_s = []
    while sim.now < end:
        chunk_start = perf_counter()
        sim.run(until=min(end, sim.now + CHUNK_MS))
        chunk_s.append(perf_counter() - chunk_start)
        probe_s.append(speed_probe())
    measured_s = perf_counter() - measure_start - sum(probe_s[1:])
    after = counters.read()
    delta = {key: after[key] - before[key] for key in after}

    outputs: Dict[str, object] = {"sim_events": after["events"]}
    if not workload.replay:
        throughput = experiment.throughput()
        outputs.update(packet_ins=throughput.packet_ins,
                       flow_mods=throughput.flow_mods,
                       admitted=delta["admitted"],
                       pipeline_drops=delta["pipeline_drops"])
    checks: Dict[str, object] = {}
    if jury is None:
        completed = delta["admitted"]
    else:
        validator = jury.validator
        completed = delta["decided"]
        external = [r for r in validator.results if r.external]
        samples = [r.detection_ms for r in external if not r.timed_out]
        outputs.update(
            decided=validator.triggers_decided,
            alarms=validator.triggers_alarmed,
            detection_count=len(samples),
            detection_median_ms=percentile(samples, 0.5) if samples else 0.0,
            detection_p95_ms=percentile(samples, 0.95) if samples else 0.0,
            external_timeouts=sum(1 for r in external if r.timed_out),
            alarm_digest=alarm_digest(validator.alarms))
        if stream is not None:
            raised = [(a.trigger_id, a.offending_controller)
                      for a in validator.alarms]
            checks["replay_alarms_match"] = (
                sorted(raised) == sorted(stream.expected_alarms))
            ours = {r.trigger_id for _, _, r in stream.records}
            checks["replay_all_decided"] = len(ours) == sum(
                1 for r in validator.results if r.trigger_id in ours)
            outputs["expected_alarms"] = len(stream.expected_alarms)

    result: Dict[str, object] = {
        "workload": workload.name, "seed": seed, "trace": trace,
        "setup_s": setup_s, "measured_s": measured_s,
        "chunk_s": chunk_s, "probe_s": probe_s,
        "setup_probe_s": setup_probe_s,
        "completed": completed, "outputs": outputs,
        "digest": outputs_digest(outputs), "checks": checks,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if tracer is not None:
        self_s = layer_self_times(tracer.spans)
        result["layers"] = _layer_metrics(tracer, self_s, delta)
        result["accounted_s"] = sum(self_s.values())
        if jury is not None:
            # Every response a module sent (or the replay fed) reached the
            # validator, except those still in flight when the run ended.
            fed = len(stream.records) if stream is not None else 0
            result["checks"]["responses_conserved"] = (
                after["received"] == after["responses_sent"]
                - tracer.validator_pending + fed)
            result["checks"]["response_spans_match"] = (
                result["layers"]["validator.responses"] == delta["received"])
        result["checks"]["events_match"] = (
            result["layers"]["sim.events"] == delta["events"])
        if spans_dir is not None:
            tracer.spans.write(spans_dir)
    return result


def _layer_metrics(tracer: LayerTracer, self_s: Dict[str, float],
                   delta: Dict[str, int]) -> Dict[str, float]:
    """Every per-layer metric of BENCHMARK.json from one traced rep."""
    spans = tracer.spans
    counts = spans.counts()
    events = sum(n for name, n in counts.items() if name.endswith(".event"))
    metrics: Dict[str, float] = {f"{layer}.self_s": self_s[layer]
                                 for layer in LAYERS if layer != "other"}
    for metric, span in COUNT_SPANS.items():
        metrics[metric] = counts.get(span, 0)
    responses = metrics["validator.responses"]
    metrics.update({
        "sim.events": events,
        "sim.ns_per_event": self_s["sim"] / events * 1e9 if events else 0.0,
        "controllers.packet_ins": counts.get("controllers.packet_in", 0),
        "controllers.pipeline_drops": delta["pipeline_drops"],
        "datastore.writes": delta["writes"],
        "datastore.remote_applies": delta["remote_applies"],
        "datastore.canonical_s":
            inclusive_times(spans).get("datastore.canonical", 0.0),
        "replicator.replicated": delta.get("replicated", 0),
        "module.responses_sent": delta.get("responses_sent", 0),
        "validator.decided": delta.get("decided", 0),
        "validator.timed_out": delta.get("timed_out", 0),
        "validator.alarms": delta.get("alarmed", 0),
        "validator.us_per_response":
            self_s["validator"] / responses * 1e6 if responses else 0.0,
    })
    return metrics
