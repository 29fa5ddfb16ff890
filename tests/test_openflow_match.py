"""Tests for OpenFlow match semantics and the field-prerequisite hierarchy."""

import dataclasses

import pytest

from repro.errors import MatchFieldError
from repro.net.packet import EtherType, IpProto, arp_request, tcp_packet
from repro.openflow.match import MATCH_FIELDS, Match


def tcp():
    return tcp_packet("aa", "bb", "10.0.0.1", "10.0.0.2", 1000, 80)


def test_empty_match_matches_everything():
    match = Match()
    assert match.matches(tcp(), in_port=5)
    assert match.matches(arp_request("x", "1.1.1.1", "2.2.2.2"))
    assert match.specificity() == 0


def test_exact_flow_match():
    packet = tcp()
    match = Match.for_flow(packet, in_port=3)
    assert match.matches(packet, in_port=3)
    assert not match.matches(packet, in_port=4)
    other = tcp_packet("aa", "bb", "10.0.0.1", "10.0.0.2", 1001, 80)
    assert not match.matches(other, in_port=3)


def test_destination_match():
    match = Match.for_destination("bb")
    assert match.matches(tcp(), in_port=1)
    assert not match.matches(
        tcp_packet("aa", "cc", "10.0.0.1", "10.0.0.2", 1, 2))


def test_wildcard_fields_ignored():
    match = Match(dl_type=int(EtherType.IPV4))
    assert match.matches(tcp())
    assert not match.matches(arp_request("x", "1.1.1.1", "2.2.2.2"))


def test_hierarchy_ok_for_full_flow_match():
    match = Match.for_flow(tcp())
    assert match.hierarchy_violations() == ()
    match.validate_hierarchy()  # no raise


def test_nw_fields_require_dl_type():
    match = Match(nw_src="10.0.0.1", nw_dst="10.0.0.2")
    assert set(match.hierarchy_violations()) == {"nw_src", "nw_dst"}
    with pytest.raises(MatchFieldError):
        match.validate_hierarchy()


def test_tp_fields_require_nw_proto():
    match = Match(dl_type=int(EtherType.IPV4), tp_dst=80)
    assert match.hierarchy_violations() == ("tp_dst",)


def test_tp_fields_ok_with_tcp_proto():
    match = Match(dl_type=int(EtherType.IPV4), nw_proto=int(IpProto.TCP), tp_dst=80)
    assert match.hierarchy_violations() == ()


def test_arp_dl_type_permits_nw_fields():
    match = Match(dl_type=int(EtherType.ARP), nw_src="10.0.0.1")
    assert match.hierarchy_violations() == ()


def test_strip_unsupported_fields_reproduces_of10_behaviour():
    bad = Match(nw_src="10.0.0.1", nw_dst="10.0.0.2", dl_dst="bb")
    stripped = bad.strip_unsupported_fields()
    assert stripped.nw_src is None
    assert stripped.nw_dst is None
    assert stripped.dl_dst == "bb"  # valid field preserved
    # The stripped match is broader: the switch/store divergence of the
    # "ODL incorrect FLOW_MOD" fault.
    assert stripped != bad
    assert stripped.hierarchy_violations() == ()


def test_strip_is_identity_for_valid_match():
    match = Match.for_flow(tcp())
    assert match.strip_unsupported_fields() is match


def test_canonical_roundtrip():
    match = Match.for_flow(tcp(), in_port=2)
    rebuilt = Match.from_canonical(match.canonical())
    assert rebuilt == match


def test_canonical_excludes_wildcards():
    match = Match(dl_dst="bb")
    assert match.canonical() == (("dl_dst", "bb"),)


def test_match_is_hashable_and_equal_by_value():
    a = Match.for_destination("xx")
    b = Match.for_destination("xx")
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_precomputed_field_names_follow_the_dataclass():
    # canonical() reads MATCH_FIELDS; a field added to Match without it
    # would silently drop out of every consensus comparison.
    assert MATCH_FIELDS == tuple(f.name for f in dataclasses.fields(Match))
    full = Match(**{name: 1 for name in MATCH_FIELDS})
    assert [name for name, _ in full.canonical()] == list(MATCH_FIELDS)
