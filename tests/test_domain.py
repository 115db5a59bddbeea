import pytest
from hypothesis import given, strategies as st

from bottlenet.domain import (
    Bottle,
    BottleId,
    NodeState,
    check_bottle,
    deserialize_bottle,
    make_bottle,
    serialize_bottle,
    wire_size,
)
from bottlenet.errors import InvalidRequest, MalformedBottle, WireOverflow
from bottlenet.oracle import Distances
from conftest import make_topology


class TestMakeBottle:
    def test_fresh_bottle(self):
        b = make_bottle(0, 8, 0)
        assert str(b.btl_id) == "0-0"
        assert not b.rf and not b.failure
        assert b.history == [0]

    def test_seq_in_id(self):
        b = make_bottle(3, 19, 7)
        assert str(b.btl_id) == "3-7"
        assert b.history == [3]

    def test_route_to_self_rejected(self):
        with pytest.raises(InvalidRequest):
            make_bottle(5, 5, 0)


class TestBottleHops:
    """A bottle's hop count is its history's length less one: over the links
    it walked, the oracle distance from its source to its last node."""

    def hops(self, b):
        history = b.history
        walked = make_topology(*zip(history, history[1:]), extra_nodes=(b.src,))
        assert Distances(walked).between(b.src, history[-1]) == len(history) - 1
        return len(history) - 1

    def test_fresh(self):
        assert self.hops(Bottle(0, 8, BottleId(0, 0), history=[0])) == 0

    def test_two_hops(self):
        assert self.hops(Bottle(0, 9, BottleId(0, 0), history=[0, 7, 9])) == 2

    def test_fifteen_node_walk(self):
        walk = [3, 93, 49, 60, 88, 57, 32, 76, 27, 12, 61, 33, 80, 39, 19]
        assert self.hops(Bottle(3, 19, BottleId(3, 0), history=walk)) == 14


class TestWireFormat:
    def test_single_entry_is_13_bytes(self):
        b = make_bottle(0, 8, 0)
        assert len(serialize_bottle(b)) == 13

    def test_fifteen_entries_is_41_bytes(self):
        walk = [3, 93, 49, 60, 88, 57, 32, 76, 27, 12, 61, 33, 80, 39, 19]
        b = Bottle(3, 19, BottleId(3, 0), history=walk)
        assert len(serialize_bottle(b)) == 41

    def test_exact_layout_big_endian(self):
        b = Bottle(src=1, dest=2, btl_id=BottleId(1, 3), rf=True,
                   history=[1, 0x0105], failure=False)
        assert serialize_bottle(b) == bytes.fromhex(
            "0001" "0002" "0001" "0003" "01" "0002" "0001" "0105")

    def test_failure_flag_bit(self):
        b = Bottle(src=4, dest=9, btl_id=BottleId(7, 1), failure=True, history=[4, 7])
        assert serialize_bottle(b)[8] == 0x02

    def test_history_overflow(self):
        b = Bottle(0, 1, BottleId(0, 0), history=list(range(2)) * 40000)
        with pytest.raises(WireOverflow):
            serialize_bottle(b)

    def test_short_packet_rejected(self):
        with pytest.raises(MalformedBottle):
            deserialize_bottle(b"\x00" * 5)

    def test_length_mismatch_rejected(self):
        data = serialize_bottle(make_bottle(0, 8, 0)) + b"\x00\x01"
        with pytest.raises(MalformedBottle):
            deserialize_bottle(data)


uint16 = st.integers(min_value=0, max_value=0xFFFF)


@given(src=uint16, dest=uint16, origin=uint16, seq=uint16,
       rf=st.booleans(), failure=st.booleans(),
       history=st.lists(uint16, min_size=1, max_size=80))
def test_wire_round_trip(src, dest, origin, seq, rf, failure, history):
    b = Bottle(src=src, dest=dest, btl_id=BottleId(origin, seq),
               rf=rf, history=history, failure=failure)
    assert deserialize_bottle(serialize_bottle(b)) == b


@given(rf=st.booleans(), failure=st.booleans(),
       history=st.lists(uint16, max_size=80))
def test_wire_size_is_the_serialized_length(rf, failure, history):
    b = Bottle(0, 1, BottleId(0, 0), rf=rf, history=history, failure=failure)
    assert wire_size(b) == len(serialize_bottle(b))


def test_wire_size_and_serialize_overflow_at_65536_entries():
    b = Bottle(0, 1, BottleId(0, 0), history=[0] * 0xFFFF)
    assert wire_size(b) == len(serialize_bottle(b)) == 11 + 2 * 0xFFFF
    b.history.append(0)
    for size_or_pack in (wire_size, serialize_bottle):
        with pytest.raises(WireOverflow):
            size_or_pack(b)


def test_next_seq_unique_until_wrap():
    node = NodeState(nid=1)
    seen = [node.next_seq() for _ in range(1000)]
    assert len(set(seen)) == 1000


def test_next_seq_wraps_at_uint16():
    node = NodeState(nid=1, bid=0xFFFF)
    assert node.next_seq() == 0xFFFF
    assert node.next_seq() == 0


class TestCheckBottle:
    def test_valid_forward(self):
        check_bottle(Bottle(0, 5, BottleId(0, 0), history=[0, 3]))

    def test_empty_history(self):
        with pytest.raises(MalformedBottle):
            check_bottle(Bottle(0, 5, BottleId(0, 0), history=[]))

    def test_history_must_start_at_src(self):
        with pytest.raises(MalformedBottle):
            check_bottle(Bottle(0, 5, BottleId(0, 0), history=[1, 0]))

    def test_duplicate_history(self):
        with pytest.raises(MalformedBottle):
            check_bottle(Bottle(0, 5, BottleId(0, 0), history=[0, 3, 0]))

    def test_rf_and_failure_exclusive(self):
        with pytest.raises(MalformedBottle):
            check_bottle(Bottle(0, 5, BottleId(0, 0), rf=True, failure=True,
                                history=[0, 5]))

    def test_rf_history_ends_at_dest(self):
        with pytest.raises(MalformedBottle):
            check_bottle(Bottle(0, 5, BottleId(0, 0), rf=True, history=[0, 3]))
