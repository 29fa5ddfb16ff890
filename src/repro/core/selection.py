"""Deterministic pseudo-random selection of secondary controllers.

JURY replicates each trigger to "k randomly chosen controllers" (§IV).
Seeding the choice with the trigger id makes the selection pseudo-random
*and* reproducible without coordination: the replicator picks the
secondaries for an external trigger, and every controller module can
independently compute the same designated set when deciding whether to relay
a cache event for that trigger — no extra protocol messages needed.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Iterable, List, Sequence, Tuple

#: Bound on memoised selections. Every module re-derives the set for each
#: cache event it sees, soon after its peers, so the repeats fall in a
#: short window: 64 entries take every hit an unbounded cache takes on a
#: 7-node ONOS run at 2K PACKET_IN/s, 1024 on a 3-node ODL run, whose
#: synchronous store spreads one trigger's writes further apart.
SELECTION_CACHE_SIZE = 1024


def designated_secondaries(trigger_id: Tuple, candidates: Iterable[str],
                           k: int, exclude: Sequence[str] = (),
                           salt: str = "jury") -> List[str]:
    """Choose ``k`` secondaries for ``trigger_id`` from ``candidates``.

    The result is stable for a given (trigger id, candidate set, k, salt):
    every party computing it agrees. ``exclude`` removes the primary/origin.
    Each call returns a fresh list.
    """
    # The memo is keyed on the seed string, the only way the trigger id
    # enters the choice: ids equal as values but not in repr (1, 1.0,
    # True) would otherwise share an entry and get another id's set.
    return list(_select(f"{salt}/{trigger_id!r}", tuple(candidates), k,
                        tuple(exclude)))


@lru_cache(maxsize=SELECTION_CACHE_SIZE)
def _select(seed: str, candidates: Tuple[str, ...], k: int,
            exclude: Tuple[str, ...]) -> Tuple[str, ...]:
    pool = sorted(set(candidates) - set(exclude))
    if k <= 0 or not pool:
        return ()
    if k >= len(pool):
        return tuple(pool)
    return tuple(sorted(random.Random(seed).sample(pool, k)))
