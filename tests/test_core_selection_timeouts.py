"""Tests for deterministic secondary selection and timeout policies."""

import pytest

from repro.core.selection import designated_secondaries
from repro.core.timeouts import AdaptiveTimeout, StaticTimeout

IDS = [f"c{i}" for i in range(1, 8)]


def test_selection_is_deterministic():
    a = designated_secondaries(("ext", 5), IDS, 3, exclude=("c1",))
    b = designated_secondaries(("ext", 5), IDS, 3, exclude=("c1",))
    assert a == b


def test_selection_varies_with_trigger():
    picks = {tuple(designated_secondaries(("ext", i), IDS, 3, exclude=("c1",)))
             for i in range(50)}
    assert len(picks) > 5  # pseudo-random across triggers


def test_selection_excludes_primary():
    for i in range(30):
        chosen = designated_secondaries(("ext", i), IDS, 4, exclude=("c3",))
        assert "c3" not in chosen
        assert len(chosen) == 4


def test_selection_respects_k():
    assert designated_secondaries(("ext", 1), IDS, 0) == []
    assert len(designated_secondaries(("ext", 1), IDS, 100, exclude=("c1",))) == 6


def test_selection_uniformish_coverage():
    counts = {cid: 0 for cid in IDS if cid != "c1"}
    for i in range(600):
        for cid in designated_secondaries(("ext", i), IDS, 2, exclude=("c1",)):
            counts[cid] += 1
    # Each of 6 candidates chosen ~200 times; allow generous slack.
    assert all(120 < c < 280 for c in counts.values())


def test_selection_salt_changes_choice():
    a = designated_secondaries(("ext", 1), IDS, 3, salt="a")
    b_differs = any(
        designated_secondaries(("ext", i), IDS, 3, salt="a")
        != designated_secondaries(("ext", i), IDS, 3, salt="b")
        for i in range(20))
    assert b_differs


def test_static_timeout():
    timeout = StaticTimeout(129.0)
    assert timeout.current() == 129.0
    timeout.observe(500.0)  # no effect
    assert timeout.current() == 129.0


def test_adaptive_timeout_warms_up_then_tracks():
    timeout = AdaptiveTimeout(initial_ms=100.0, window=50, quantile=0.95,
                              margin=1.5)
    assert timeout.current() == 100.0  # too few observations
    for value in range(1, 41):
        timeout.observe(float(value))
    current = timeout.current()
    # 95th percentile of 1..40 is ~38; margin 1.5 -> ~57.
    assert 50.0 < current < 65.0


def test_adaptive_timeout_clamps():
    timeout = AdaptiveTimeout(initial_ms=100.0, floor_ms=20.0, ceiling_ms=200.0)
    for _ in range(20):
        timeout.observe(1.0)
    assert timeout.current() == 20.0
    for _ in range(200):
        timeout.observe(10_000.0)
    assert timeout.current() == 200.0


def test_adaptive_timeout_rejects_bad_quantile():
    with pytest.raises(ValueError):
        AdaptiveTimeout(quantile=1.5)


def test_adaptive_timeout_window_slides():
    timeout = AdaptiveTimeout(initial_ms=100.0, window=10, margin=1.0)
    for _ in range(10):
        timeout.observe(1000.0)
    high = timeout.current()
    for _ in range(10):
        timeout.observe(10.0)
    low = timeout.current()
    assert low < high


def test_selection_result_is_a_fresh_list():
    first = designated_secondaries(("ext", 77), IDS, 3, exclude=("c1",))
    expected = list(first)
    first.append("intruder")
    first.sort(reverse=True)
    again = designated_secondaries(("ext", 77), IDS, 3, exclude=("c1",))
    assert again == expected
    assert again is not first
    full = designated_secondaries(("ext", 77), IDS, 100, exclude=("c1",))
    full.clear()
    assert len(designated_secondaries(("ext", 77), IDS, 100,
                                      exclude=("c1",))) == 6


def test_selection_ignores_candidate_container_and_order():
    tau = ("ext", 78)
    as_list = designated_secondaries(tau, IDS, 3, exclude=["c2"])
    assert designated_secondaries(tau, tuple(IDS), 3, exclude=("c2",)) \
        == as_list
    assert designated_secondaries(tau, list(reversed(IDS)), 3,
                                  exclude=("c2",)) == as_list
    assert designated_secondaries(tau, iter(IDS), 3, exclude=("c2",)) \
        == as_list


def test_selection_memo_keeps_ids_with_equal_values_apart():
    # 1 == 1.0 == True, but their reprs seed different choices.
    import random

    pool = sorted(set(IDS) - {"c1"})
    for tau in [("ext", 1), ("ext", 1.0), ("ext", True)] * 2:
        expected = sorted(random.Random(f"jury/{tau!r}").sample(pool, 3))
        assert designated_secondaries(tau, IDS, 3, exclude=("c1",)) \
            == expected


def test_selection_cache_is_bounded():
    from repro.core.selection import _select

    info = _select.cache_info()
    assert info.maxsize is not None and 0 < info.maxsize <= 65536
    for i in range(info.maxsize + 10):
        designated_secondaries(("bound", i), IDS, 2)
    assert _select.cache_info().currsize <= info.maxsize
