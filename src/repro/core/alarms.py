"""Validation outcomes and alarms.

When a response deviates from consensus or violates a policy, JURY "extracts
information about the offending controller, trigger and the associated
response, and presents it to the administrator" (§V) — that is an
:class:`Alarm`. Every decided trigger, alarmed or not, yields a
:class:`ValidationResult` for the evaluation harness (detection-time CDFs,
false-positive rates).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple


class AlarmReason(enum.Enum):
    """Why the validator flagged a trigger."""

    #: Primary response never arrived before the validation timeout while
    #: replicas externalized non-empty responses (response omission /
    #: timing fault — e.g. the ONOS database-locking fault).
    PRIMARY_OMISSION = "primary_omission"
    #: Primary's response disagrees with the majority of equivalent-state
    #: replicas (T1 incorrect response).
    CONSENSUS_MISMATCH = "consensus_mismatch"
    #: Network write inconsistent with the cache updates (T2).
    SANITY_MISMATCH = "sanity_mismatch"
    #: An administrator policy matched the action (T3).
    POLICY_VIOLATION = "policy_violation"
    #: A replica's state digest stopped advancing while the cluster moved
    #: on (out-of-sync node — the intro's operational-fault examples).
    #: Detected by the validator's per-controller state tracking, an
    #: extension beyond per-trigger consensus.
    STALE_REPLICA = "stale_replica"


@dataclass
class Alarm:
    """An administrator-facing alarm with precise action attribution."""

    trigger_id: Tuple
    reason: AlarmReason
    offending_controller: Optional[str]
    detail: str = ""
    raised_at: float = 0.0
    responses: Tuple = ()

    def __str__(self) -> str:
        who = self.offending_controller or "<unknown>"
        return (f"ALARM[{self.reason.value}] controller={who} "
                f"trigger={self.trigger_id} {self.detail}")


@dataclass
class ValidationResult:
    """Outcome of validating one trigger."""

    trigger_id: Tuple
    ok: bool
    external: bool
    decided_at: float
    n_responses: int
    #: Decision latency from the trigger's receipt at the primary (ms);
    #: falls back to first-response arrival when receipt time is unknown.
    detection_ms: float = 0.0
    #: Whether the decision fired on the timer rather than a full count.
    timed_out: bool = False
    alarms: List[Alarm] = field(default_factory=list)

    @property
    def alarmed(self) -> bool:
        return bool(self.alarms)


# ----------------------------------------------------------------------
# Deterministic alarm-stream merging
# ----------------------------------------------------------------------
# The sharded pipeline emits alarms from N independent shards; the merge
# order below — decision time first, then a total order on trigger ids —
# is the pipeline's published contract, and the differential suite asserts
# byte-equality of the canonical stream against the sequential validator.

def alarm_merge_key(alarm: Alarm) -> Tuple[float, str]:
    """Deterministic total order for merging per-shard alarm streams.

    Trigger ids mix heterogeneous tuples (``("ext", n)`` vs
    ``("int", origin, n)``), so ``repr`` provides the tiebreak total order,
    mirroring :func:`repro.datastore.events.sort_canonicals`.
    """
    return (alarm.raised_at, repr(alarm.trigger_id))


def canonical_alarm_line(alarm: Alarm) -> str:
    """One-line canonical rendering of an alarm, stable across runs."""
    who = alarm.offending_controller or "<unknown>"
    responses = ";".join(repr(r) for r in alarm.responses)
    return (f"{alarm.raised_at:.9f}|{alarm.reason.value}|{who}|"
            f"{alarm.trigger_id!r}|{alarm.detail}|{responses}")


def canonical_alarm_stream(alarms: Iterable[Alarm]) -> bytes:
    """Byte-exact canonical encoding of an alarm sequence.

    Sorts by :func:`alarm_merge_key` (a stable sort, so alarms sharing
    ``(raised_at, trigger_id)`` keep their emission order — within one
    trigger the check battery runs in a fixed order) and joins the
    canonical lines. Two validators are *equivalent* on a workload iff
    their canonical streams compare equal.
    """
    ordered = sorted(alarms, key=alarm_merge_key)
    return "\n".join(canonical_alarm_line(a) for a in ordered).encode("utf-8")
