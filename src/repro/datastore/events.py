"""Cache events: the externalization of every controller action.

A :class:`CacheEvent` is emitted at the origin node on every write and
re-emitted at each peer when the store propagates it. JURY's controller
module hooks these events for action attribution of internal triggers
(§IV-B): the event's ``origin`` and per-origin ``seq`` uniquely identify the
action across the whole cluster, so every replica relays the *same* trigger
identifier to the validator without coordination.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Iterable, Optional, Tuple


class CacheOp(enum.Enum):
    """Operations distinguishable by JURY policies (Table 2)."""

    CREATE = "create"
    UPDATE = "update"
    DELETE = "delete"


@dataclass(frozen=True)
class CacheEvent:
    """One write to a controller-wide cache.

    ``origin`` is the node that performed the write; ``seq`` is that node's
    write sequence number. ``(origin, seq)`` is the cluster-wide identity of
    the action. ``tau`` carries the trigger id of the controller action that
    performed the write (set by the controller's trigger context); for
    purely internal actions it equals the action id.
    """

    cache: str
    key: Any
    value: Any
    op: CacheOp
    origin: str
    seq: int
    time: float
    tau: Optional[Tuple] = None
    #: The writing trigger's processing-start state digest (JURY metadata).
    ctx_digest: Tuple = ()

    @property
    def action_id(self) -> Tuple[str, int]:
        """Cluster-wide identity of the action that caused this event."""
        return (self.origin, self.seq)

    @property
    def trigger_id(self) -> Tuple:
        """The trigger this write is attributed to (``tau`` or action id)."""
        return self.tau if self.tau is not None else ("int", self.origin, self.seq)

    def canonical(self) -> Tuple:
        """Canonical body for consensus comparison at the validator.

        Every replica relays the same event, so the result is computed once
        and kept in the instance ``__dict__`` (not a dataclass field: eq,
        hash, repr and ``asdict`` ignore it). Sound because a stored value
        is never mutated after its write; writers copy before rewriting.
        """
        try:
            return self.__dict__["_canonical"]
        except KeyError:
            canonical = cache_canonical(self.cache, self.key, self.op,
                                        self.value)
            object.__setattr__(self, "_canonical", canonical)
            return canonical

    def wire_size(self) -> int:
        """Approximate bytes on the inter-controller wire.

        The store charges every peer delivery of the event, so the size is
        computed once and kept in the instance ``__dict__`` like
        :meth:`canonical`. Sound for the same reason: a stored value is
        never mutated after its write.
        """
        try:
            return self.__dict__["_wire_size"]
        except KeyError:
            value_size = getattr(self.value, "wire_size", None)
            if callable(value_size):
                payload = value_size()
            elif self.value is None:
                payload = 0
            else:
                payload = min(512, 32 + len(repr(self.value)))
            size = 96 + payload
            object.__setattr__(self, "_wire_size", size)
            return size


def cache_canonical(cache: str, key: Any, op: CacheOp, value: Any) -> Tuple:
    """Canonical form of a (would-be) cache write.

    Shared by :meth:`CacheEvent.canonical` and the shadow-execution capture
    path, so a suppressed secondary write compares equal to the primary's
    real one at the validator.
    """
    return ("cache", cache, _canonical_value(key), op.value, _canonical_value(value))


def sort_canonicals(items: Iterable) -> Tuple:
    """Stable canonical ordering for heterogeneous canonical tuples.

    Canonicals mix ints, strings, and None, so plain tuple comparison can
    raise; ``repr`` gives a total order that is identical on every replica,
    which is all consensus comparison needs. Zero or one item is already
    in order, so those skip the ``repr`` of every item.
    """
    items = tuple(items)
    if len(items) < 2:
        return items
    return tuple(sorted(items, key=repr))


#: Exact types that are already canonical. An exact-type test, not
#: ``isinstance``: subclasses such as ``IntEnum`` keep the general path.
_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))


def _canonical_value(value: Any) -> Any:
    """Reduce a stored value to a hashable, comparable form."""
    kind = type(value)
    if kind in _SCALAR_TYPES:
        return value
    # Most elements are scalars: test them inline, a call costs more. A
    # plain tuple has no canonical() to probe, and one of scalars only is
    # its own canonical form, so it comes back as the same object.
    if kind is tuple:
        for v in value:
            if type(v) not in _SCALAR_TYPES:
                break
        else:
            return value
        return tuple([v if type(v) in _SCALAR_TYPES else _canonical_value(v)
                      for v in value])
    canonical = getattr(value, "canonical", None)
    if callable(canonical):
        return canonical()
    if isinstance(value, dict):
        return tuple(sorted([
            (k, v if type(v) in _SCALAR_TYPES else _canonical_value(v))
            for k, v in value.items()]))
    if isinstance(value, (list, tuple)):
        return tuple([_canonical_value(v) for v in value])
    return value


CacheListener = "Callable[[DatastoreNode, CacheEvent], None]"
