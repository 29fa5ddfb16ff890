"""The canonical-form fast paths agree with the plain definitions.

``sort_canonicals`` skips the ``repr`` sort for zero or one item, and
``_canonical_value`` hands back an all-scalar tuple unchanged. Both must
give results equal to, and ``repr``-identical with, the general code:
the validator compares these forms across replicas.
"""

import enum

from hypothesis import given
from hypothesis import strategies as st

from repro.datastore.events import _canonical_value, sort_canonicals
from repro.openflow.match import Match


_SCALARS = frozenset((str, int, float, bool, type(None)))


def _reference_canonical_value(value):
    """``_canonical_value`` as it was before the all-scalar tuple fast path."""
    kind = type(value)
    if kind in _SCALARS:
        return value
    if kind is tuple:
        return tuple([v if type(v) in _SCALARS
                      else _reference_canonical_value(v) for v in value])
    canonical = getattr(value, "canonical", None)
    if callable(canonical):
        return canonical()
    if isinstance(value, dict):
        return tuple(sorted([
            (k, v if type(v) in _SCALARS else _reference_canonical_value(v))
            for k, v in value.items()]))
    if isinstance(value, (list, tuple)):
        return tuple([_reference_canonical_value(v) for v in value])
    return value


class _Port(enum.IntEnum):
    LOCAL = 7

    def canonical(self):
        return ("port", int(self))


class _Color(enum.IntEnum):
    RED = 1


scalars = (st.none() | st.booleans() | st.integers(-3, 3)
           | st.floats(allow_nan=False, width=16) | st.text(max_size=3)
           | st.sampled_from([_Port.LOCAL, _Color.RED]))
matches = st.builds(Match, in_port=st.none() | st.integers(1, 3),
                    dl_dst=st.none() | st.sampled_from(["aa", "bb"]),
                    dl_type=st.none() | st.just(0x0800))
values = st.recursive(
    scalars | matches,
    lambda inner: (st.tuples(inner, inner) | st.lists(inner, max_size=3)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=2), inner, max_size=3)),
    max_leaves=12)
canonicals = st.tuples(st.sampled_from(["flow_mod", "packet_out", "cache"]),
                       st.integers(0, 5), st.none() | st.integers(0, 5))


def _reference_sort(items):
    return tuple(sorted(list(items), key=repr))


@given(st.lists(canonicals, max_size=4))
def test_sort_canonicals_matches_a_repr_sort(items):
    expected = _reference_sort(items)
    assert sort_canonicals(items) == expected
    assert sort_canonicals(tuple(items)) == expected
    assert sort_canonicals(item for item in items) == expected


@given(canonicals)
def test_sort_canonicals_of_one_item_set(item):
    assert sort_canonicals({item}) == (item,)
    assert sort_canonicals(set()) == ()


@given(values)
def test_canonical_value_agrees_with_the_reference(value):
    result = _canonical_value(value)
    expected = _reference_canonical_value(value)
    assert result == expected
    assert repr(result) == repr(expected)


@given(st.lists(st.none() | st.booleans() | st.integers() | st.text(),
                max_size=6).map(tuple))
def test_all_scalar_tuple_comes_back_as_the_same_object(value):
    assert _canonical_value(value) is value

