"""Seeded validator response streams for the ``validator-replay`` workload.

The stream imitates what the validator receives on a live ONOS n=7, k=6
run, one trigger at a time, with Poisson trigger arrivals:

* a *full set* of ``2k+2`` responses: ``k`` tainted replica results,
  ``n`` cache relays of the primary's flow write and the primary's own
  network write (FLOW_MOD plus PACKET_OUT). The last arrival decides it;
* a *timer-bound* PACKET_OUT-only trigger: ``k`` replica results and the
  primary's network write, ``k+1`` responses, decided when θτ expires;
* a lone replica result with an empty entry, also decided by θτ.

Entries are built with the program's own constructors (``Match``,
``FlowMod``, ``flow_value``, ``cache_canonical``), so they have the exact
shape live responses have; each trigger draws its flow from a pool of
``FLOW_POOL`` flows built once per stream. In a share of the full sets
one cache relay is corrupted (another output port): the validator must
raise exactly one ``consensus_mismatch`` alarm for each, naming the
corrupting replica, and no other alarm. That expectation is the
workload's output check for any seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Sequence, Set, Tuple

#: Trigger mix. The shares follow the traced ``onos-jury`` run at 2K
#: PACKET_IN/s (about 40% full sets, 59% PACKET_OUT-only, under 1% lone
#: replicas); the corrupted share makes the alarm path, which clean live
#: runs reach once or twice, run hundreds of times.
FULL_SHARE = 0.40
LONE_SHARE = 0.006
CORRUPT_SHARE = 0.02


@dataclass(frozen=True)
class Stream:
    """Responses in arrival order, plus the alarms they must produce."""

    #: ``(arrival ms, sequence number, response)``, sorted.
    records: List[Tuple[float, int, object]]
    triggers: int
    #: ``(trigger id, offending controller)`` of every corrupted trigger.
    expected_alarms: frozenset


#: Distinct flows the stream draws from; entries are built once per flow.
FLOW_POOL = 512


@dataclass(frozen=True)
class _Flow:
    """Canonical entries of one flow, as the controllers would report them."""

    dpid: int
    cache: Tuple
    corrupted_cache: Tuple
    network: Tuple
    packet_out_only: Tuple


def _flow(rng: random.Random, switches: int, number: int) -> _Flow:
    from repro.datastore.caches import FLOWSDB, flow_key, flow_value
    from repro.datastore.events import CacheOp, cache_canonical
    from repro.openflow.actions import ActionOutput
    from repro.openflow.match import Match
    from repro.openflow.messages import FlowMod, PacketOut

    dpid = rng.randint(1, switches)
    src, dst = rng.sample(range(1, 2 * switches + 1), 2)
    in_port, out_port = rng.randint(1, 3), rng.randint(1, 3)
    match = Match(in_port=in_port, dl_src=_mac(src), dl_dst=_mac(dst),
                  dl_type=0x800, nw_src=_ip(src), nw_dst=_ip(dst),
                  nw_proto=6, tp_src=10_000 + number, tp_dst=80)

    def cache(port: int) -> Tuple:
        return (cache_canonical(
            FLOWSDB, flow_key(dpid, match), CacheOp.CREATE,
            flow_value(dpid, match, (ActionOutput(port),))),)

    actions = (ActionOutput(out_port),)
    packet_out = PacketOut(dpid=dpid, in_port=in_port,
                           buffer_id=rng.randint(1, 4096),
                           actions=actions).canonical()
    network = tuple(sorted(
        (FlowMod(dpid=dpid, match=match, actions=actions).canonical(),
         packet_out), key=repr))
    return _Flow(dpid=dpid, cache=cache(out_port),
                 corrupted_cache=cache(out_port + 10), network=network,
                 packet_out_only=(packet_out,))


def generate(seed: int, triggers: int, rate_per_ms: float,
             controller_ids: Sequence[str], k: int, switches: int,
             master_of, start_ms: float = 0.0) -> Stream:
    """A deterministic stream for ``seed``: same seed, same stream.

    Arrival times are absolute simulated ms, starting after ``start_ms``.
    """
    from repro.core.responses import Response, ResponseKind

    rng = random.Random(f"perfbench-replay/{seed}")
    flows = [_flow(rng, switches, number) for number in range(FLOW_POOL)]
    ids = list(controller_ids)
    records: List[Tuple[float, int, object]] = []
    expected: Set[Tuple[Tuple, str]] = set()
    now = start_ms
    gauss, exp = rng.gauss, math.exp
    replica_kind = ResponseKind.REPLICA_RESULT
    cache_kind = ResponseKind.CACHE_UPDATE
    network_kind = ResponseKind.NETWORK_WRITE

    for index in range(triggers):
        now += rng.expovariate(rate_per_ms)
        tau = ("ext", 1_000_000 + index)
        flow = flows[rng.randrange(FLOW_POOL)]
        primary = master_of(flow.dpid) or ids[0]
        secondaries = sorted(rng.sample([c for c in ids if c != primary], k))
        digest = tuple((cid, index // 50) for cid in ids)
        draw = rng.random()
        if draw < LONE_SHARE:
            replicas, relays, network = secondaries[:1], (), None
            replica_entry = ((), ())
        elif draw < LONE_SHARE + FULL_SHARE:
            replicas, relays, network = secondaries, ids, flow.network
            replica_entry = (flow.cache, flow.network)
        else:
            replicas, relays, network = secondaries, (), flow.packet_out_only
            replica_entry = ((), flow.packet_out_only)
        bad_relay = None
        if relays and rng.random() < CORRUPT_SHARE / FULL_SHARE:
            bad_relay = rng.choice(ids)
            expected.add((tau, bad_relay))
        for cid in replicas:
            records.append((now + 8.0 * exp(0.5 * gauss()), len(records),
                            Response(controller_id=cid, trigger_id=tau,
                                     kind=replica_kind, entry=replica_entry,
                                     tainted=True, state_digest=digest,
                                     trigger_received_at=now,
                                     primary_hint=primary)))
        for cid in relays:
            entry = flow.corrupted_cache if cid == bad_relay else flow.cache
            records.append((now + 6.0 * exp(0.5 * gauss()), len(records),
                            Response(controller_id=cid, trigger_id=tau,
                                     kind=cache_kind, entry=entry,
                                     state_digest=digest, origin=primary)))
        if network is not None:
            records.append((now + 5.0 * exp(0.5 * gauss()), len(records),
                            Response(controller_id=primary, trigger_id=tau,
                                     kind=network_kind, entry=network,
                                     state_digest=digest)))
    records.sort()
    return Stream(records=records, triggers=triggers,
                  expected_alarms=frozenset(expected))


def _mac(host: int) -> str:
    return "00:00:00:00:%02x:%02x" % (host // 256, host % 256)


def _ip(host: int) -> str:
    return f"10.0.{host // 256}.{host % 256}"


class Feeder:
    """Hands a stream to the validator's public entry point, on time.

    Responses are scheduled one window ahead rather than all at once, so
    the simulator's event heap stays about as small as on a live run.
    """

    WINDOW_MS = 10.0

    def __init__(self, sim, stream: Stream, validator) -> None:
        self.sim = sim
        self.records = stream.records
        self.deliver = validator.handle_control_message
        self.next = 0

    def start(self) -> None:
        self._feed()

    def _feed(self) -> None:
        horizon = self.sim.now + self.WINDOW_MS
        records = self.records
        while self.next < len(records) and records[self.next][0] < horizon:
            at, _, response = records[self.next]
            self.sim.schedule_at(at, self.deliver, None, response)
            self.next += 1
        if self.next < len(records):
            self.sim.schedule(self.WINDOW_MS, self._feed)
