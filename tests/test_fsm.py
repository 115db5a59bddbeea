import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from bottlenet.domain import NodePhase, RouteEntry
from bottlenet.fsm import (
    choose_next_hop,
    next_state,
    update_table_from_history,
)

IDLE, RREQ, BMAN = NodePhase.IDLE, NodePhase.ROUTE_REQ, NodePhase.BTL_MANAGE

# The published transition conditions, as (state, pkt_empty, btl_empty) -> next.
# Conditions (1)/(4): packets waiting, no bottles -> route_req.
# Conditions (2)/(6)/(7): both queues empty -> idle.
# Conditions (3)/(5): bottles waiting, no packets -> btl_manage.
PUBLISHED = {
    (IDLE, False, True): RREQ,   # (1)
    (IDLE, True, True): IDLE,    # (2)
    (IDLE, True, False): BMAN,   # (3)
    (RREQ, False, True): RREQ,   # (4)
    (BMAN, True, False): BMAN,   # (5)
    (RREQ, True, True): IDLE,    # (6)
    (BMAN, True, True): IDLE,    # (7)
}


def all_inputs():
    for state in NodePhase:
        for pkt_empty in (True, False):
            for btl_empty in (True, False):
                yield state, pkt_empty, btl_empty


class TestNextState:
    def test_matches_published_conditions(self):
        for key, expected in PUBLISHED.items():
            assert next_state(*key) is expected, key

    def test_bottles_win_when_both_queues_loaded(self):
        for state in NodePhase:
            assert next_state(state, False, False) is BMAN

    def test_total_over_all_twelve_inputs(self):
        outcomes = {key: next_state(*key) for key in all_inputs()}
        assert len(outcomes) == 12
        for (state, pkt_empty, btl_empty), nxt in outcomes.items():
            if not btl_empty:
                assert nxt is BMAN
            elif not pkt_empty:
                assert nxt is RREQ
            else:
                assert nxt is IDLE


class TestChooseNextHop:
    def test_dead_end_when_all_visited(self, rng):
        assert choose_next_hop({1}, [0, 1], rng) is None

    def test_single_candidate_is_forced(self, rng):
        assert choose_next_hop({2, 3}, [0, 2], rng) == 3

    def test_uniform_over_candidates(self):
        rng = random.Random(42)
        counts = Counter(choose_next_hop({1, 2, 3}, [0], rng)
                         for _ in range(10_000))
        for hop in (1, 2, 3):
            assert abs(counts[hop] / 10_000 - 1 / 3) <= 0.02

    def test_empty_neighbor_set(self, rng):
        assert choose_next_hop(set(), [0], rng) is None


def harvest(rtab, history, i, nbors):
    """update_table_from_history at position i, checked against
    reference_harvest taken before the call: the same table and the same
    learned pairs in the same order. Returns the table, changed in place,
    and the learned pairs."""
    expected = reference_harvest(rtab, history, i, nbors)
    learned = update_table_from_history(rtab, history, i, nbors)
    assert (rtab, learned) == expected
    assert all(type(entry) is RouteEntry for _, entry in learned)
    return rtab, learned


class TestTableHarvest:
    def test_empty_table_learns_whole_path(self):
        table, learned = harvest({}, ["A", "B", "C"], 2, {"B"})
        assert table == {"A": RouteEntry("B", 2), "B": RouteEntry("B", 1)}
        assert learned == [("A", RouteEntry("B", 2)), ("B", RouteEntry("B", 1))]

    def test_shorter_existing_route_kept(self):
        rtab = {"A": RouteEntry("X", 1)}
        table, learned = harvest(rtab, ["A", "B", "C"], 2, {"B", "X"})
        assert table["A"] == RouteEntry("X", 1)
        assert learned == [("B", RouteEntry("B", 1))]

    def test_longer_existing_route_improved(self):
        rtab = {"A": RouteEntry("X", 5)}
        table, learned = harvest(rtab, ["A", "B", "C"], 2, {"B", "X"})
        assert table["A"] == RouteEntry("B", 2)
        assert learned == [("A", RouteEntry("B", 2)), ("B", RouteEntry("B", 1))]

    def test_tie_keeps_existing_entry(self):
        rtab = {"A": RouteEntry("X", 2)}
        table, learned = harvest(rtab, ["A", "B", "C"], 2, {"B", "X"})
        assert table["A"] == RouteEntry("X", 2)
        assert learned == [("B", RouteEntry("B", 1))]

    def test_return_traversal_harvests_both_directions(self):
        # Middle of the history on the way back: earlier nodes via B,
        # later ones via D.
        table, learned = harvest({}, ["A", "B", "C", "D", "E"], 2, {"B", "D"})
        assert table == {
            "A": RouteEntry("B", 2), "B": RouteEntry("B", 1),
            "D": RouteEntry("D", 1), "E": RouteEntry("D", 2),
        }
        assert [dest for dest, _ in learned] == ["A", "B", "D", "E"]

    def test_vanished_previous_hop_installs_nothing(self):
        table, learned = harvest({}, ["A", "B", "C"], 2, {"Z"})
        assert table == {} and learned == []

    def test_source_position_harvests_forward(self):
        table, learned = harvest({}, [0, 7, 9, 8], 0, {7})
        assert table == {7: RouteEntry(7, 1), 9: RouteEntry(7, 2),
                         8: RouteEntry(7, 3)}
        assert [dest for dest, _ in learned] == [7, 9, 8]

    @pytest.mark.parametrize("name", ["next_hop", "hop_count"])
    def test_route_entries_are_immutable(self, name):
        entry = RouteEntry("X", 1)
        with pytest.raises(AttributeError):
            setattr(entry, name, 2)
        assert entry == RouteEntry("X", 1)

    def test_table_changed_in_place(self):
        rtab = {"A": RouteEntry("X", 5), "Q": RouteEntry("X", 4)}
        kept = rtab["Q"]
        learned = update_table_from_history(rtab, ["A", "B", "C"], 2, {"B"})
        assert rtab == {"A": RouteEntry("B", 2), "Q": RouteEntry("X", 4),
                        "B": RouteEntry("B", 1)}
        assert rtab["Q"] is kept
        assert learned == [("A", rtab["A"]), ("B", rtab["B"])]
        assert update_table_from_history(rtab, ["A", "B", "C"], 2, {"B"}) == []


@given(st.lists(st.integers(0, 200), min_size=1, max_size=30, unique=True),
       st.data())
def test_harvested_hops_match_history_positions(history, data):
    i = data.draw(st.integers(0, len(history) - 1))
    self_id = history[i]
    nbors = set()
    if i > 0:
        nbors.add(history[i - 1])
    if i + 1 < len(history):
        nbors.add(history[i + 1])
    table = {}
    learned = update_table_from_history(table, history, i, nbors)
    assert dict(learned) == table
    for dest, entry in table.items():
        j = history.index(dest)
        assert entry.hop_count == abs(i - j)
        assert entry.next_hop in nbors
    assert self_id not in table


def reference_harvest(rtab, history, i, nbors):
    """The harvest at position i as first written: a copy of the whole
    table, one closure call per history entry. update_table_from_history
    must agree with it, table and learned (dest, entry) pairs in order."""
    table = dict(rtab)
    learned = []

    def consider(dest, via, hops):
        current = table.get(dest)
        if current is None or hops < current.hop_count:
            entry = RouteEntry(next_hop=via, hop_count=hops)
            table[dest] = entry
            learned.append((dest, entry))

    if i > 0 and history[i - 1] in nbors:
        for j in range(i):
            consider(history[j], history[i - 1], i - j)
    if i + 1 < len(history) and history[i + 1] in nbors:
        for j in range(i + 1, len(history)):
            consider(history[j], history[i + 1], j - i)
    return table, learned


node_ids = st.integers(0, 12)


@given(rtab=st.dictionaries(node_ids, st.builds(RouteEntry, node_ids,
                                                st.integers(1, 8)),
                            max_size=10),
       history=st.lists(node_ids, min_size=1, max_size=12),
       nbors=st.sets(node_ids, max_size=6),
       data=st.data())
def test_harvest_matches_reference(rtab, history, nbors, data):
    i = data.draw(st.integers(0, len(history) - 1))
    before = dict(rtab)
    expected = reference_harvest(rtab, history, i, nbors)
    learned = update_table_from_history(rtab, history, i, nbors)
    assert (rtab, learned) == expected
    assert all(type(entry) is RouteEntry for _, entry in learned)
    # in place: what was not learned is the entry that was there
    assert all(rtab[d] is before[d] for d in before.keys() - dict(learned))
