"""The memoised ``CacheEvent.canonical``/``wire_size`` and their rule.

The memos are sound only while a stored cache value is never mutated after
its write: every replica shares the written value object, relays the
event's first canonical form and is charged its first wire size.
"""

import collections
import dataclasses
import enum

import pytest

from repro.api import Jury
from repro.config import JuryConfig
from repro.datastore.caches import FLOWSDB
from repro.datastore.events import CacheEvent, CacheOp, cache_canonical
from repro.openflow.match import Match


def _event(**overrides):
    fields = dict(cache=FLOWSDB, key=(1, Match(in_port=2, dl_type=2048)),
                  value={"actions": [1, 2], "priority": 10},
                  op=CacheOp.CREATE, origin="c1", seq=3, time=4.5,
                  tau=("ext", 9))
    fields.update(overrides)
    return CacheEvent(**fields)


def test_second_call_returns_the_same_object():
    event = _event()
    first = event.canonical()
    assert event.canonical() is first
    assert first == cache_canonical(event.cache, event.key, event.op,
                                    event.value)


def test_memo_leaves_eq_hash_repr_and_asdict_unchanged():
    fresh, memoised = _event(value=("a", 1)), _event(value=("a", 1))
    memoised.canonical()
    assert memoised == fresh
    assert hash(memoised) == hash(fresh)
    assert repr(memoised) == repr(fresh)
    assert dataclasses.asdict(memoised) == dataclasses.asdict(fresh)


def test_replace_gives_a_fresh_memo():
    event = _event()
    old = event.canonical()
    changed = dataclasses.replace(event, value={"priority": 11})
    assert changed.canonical() != old
    assert changed.canonical() == cache_canonical(
        changed.cache, changed.key, changed.op, changed.value)
    assert event.canonical() is old


def test_wire_size_is_computed_once_and_stable():
    event = _event(value=("a", 1))
    size = event.wire_size()
    assert size == 96 + 32 + len(repr(("a", 1)))
    assert event.wire_size() == size
    assert event.__dict__["_wire_size"] == size
    assert _event(value=None).wire_size() == 96


def test_wire_size_memo_leaves_eq_and_repr_unchanged():
    fresh, memoised = _event(value=("a", 1)), _event(value=("a", 1))
    memoised.wire_size()
    assert memoised == fresh
    assert hash(memoised) == hash(fresh)
    assert repr(memoised) == repr(fresh)


def test_replace_gives_a_fresh_wire_size_memo():
    event = _event(value="x")
    old = event.wire_size()
    changed = dataclasses.replace(event, value="x" * 40)
    assert changed.wire_size() == old + 39
    assert event.wire_size() == old


class _Port(enum.IntEnum):
    LOCAL = 7

    def canonical(self):
        return ("port", int(self))


def test_int_subclasses_keep_the_canonical_probe():
    # An exact-type scalar shortcut must not swallow IntEnum values that
    # define their own canonical form.
    assert cache_canonical("C", _Port.LOCAL, CacheOp.UPDATE, [True, 2.5]) \
        == ("cache", "C", ("port", 7), "update", (True, 2.5))


def test_nested_containers_reduce_to_sorted_plain_tuples():
    pair = collections.namedtuple("pair", "a b")
    value = {"z": [1, (2, _Port.LOCAL)], "a": pair("x", {"n": None}),
             "m": (Match(in_port=3), [])}
    canonical = cache_canonical("C", ("k", 1), CacheOp.CREATE, value)[-1]
    assert canonical == (("a", ("x", (("n", None),))),
                         ("m", ((("in_port", 3),), ())),
                         ("z", (1, (2, ("port", 7)))))
    assert type(canonical[0][1]) is tuple


@pytest.mark.parametrize("config", [
    JuryConfig(kind="onos", n=5, k=2, switches=4, seed=31, timeout_ms=200.0),
    JuryConfig(kind="odl", n=3, k=2, switches=4, seed=32, timeout_ms=1200.0),
], ids=["onos", "odl"])
def test_stored_values_are_never_mutated_after_their_write(config):
    exp = Jury.experiment(config)
    seen = []

    def recheck(where, event):
        changed = (f"{where}: {event.cache}[{event.key!r}] changed after "
                   f"its write by {event.origin}")
        assert cache_canonical(event.cache, event.key, event.op,
                               event.value) == event.canonical(), changed
        # replace() builds a copy without the memo, so this recomputes.
        assert dataclasses.replace(event).wire_size() \
            == event.wire_size(), changed

    def on_event(node, event):
        recheck(node.node_id, event)
        seen.append(event)

    for node in exp.store.nodes.values():
        node.add_listener(on_event)
    exp.warmup()
    hosts = exp.topology.host_list()
    for i in range(6):
        exp.sim.schedule(i * 40.0, hosts[i % len(hosts)].open_connection,
                         hosts[(i + 2) % len(hosts)])
    exp.run(1500.0)
    assert exp.validator.triggers_decided > 0
    assert any(event.cache == FLOWSDB for event in seen)
    for event in seen:
        recheck("end of run", event)
