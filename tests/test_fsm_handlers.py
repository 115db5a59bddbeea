import pytest

from bottlenet.config import ProtocolConfig
from bottlenet.domain import Bottle, BottleId, DataPacket, PendingRequest, RouteEntry
from bottlenet.errors import MalformedBottle
from bottlenet.fsm import (
    QUEUE_CAP,
    DeclareInaccessible,
    DiscoveryResolved,
    DiscoveryStarted,
    DropData,
    Eliminate,
    RouteFound,
    RouteRemoved,
    Send,
    SendData,
    SetTimer,
    TableUpdated,
    handle_bottle,
    handle_route_request,
    on_delivery_failure,
    on_timeout,
    purge_routes,
)
from conftest import make_node


def sends(actions):
    return [a for a in actions if isinstance(a, Send)]


def data_sends(actions):
    return [a for a in actions if isinstance(a, SendData)]


class TestRouteRequest:
    def test_known_destination_forwards_immediately(self, cfg, rng):
        node = make_node(0, {7}, rtab={9: RouteEntry(7, 3)})
        pkt = DataPacket(src=0, dest=9, path=[0])
        actions = handle_route_request(node, pkt, 5, cfg, rng)
        assert actions == [SendData(pkt, 7)]
        assert not node.pending

    def test_unknown_destination_launches_bottle(self, cfg, rng):
        node = make_node(0, {4, 9})
        actions = handle_route_request(node, DataPacket(0, 8, path=[0]), 5, cfg, rng)
        assert len(sends(actions)) == 1
        bottle = sends(actions)[0].bottle
        assert sends(actions)[0].to in {4, 9}
        assert bottle.history == [0] and bottle.dest == 8
        timers = [a for a in actions if isinstance(a, SetTimer)]
        assert timers == [SetTimer(8, bottle.btl_id, 5 + cfg.timeout)]
        assert node.pending[8].btl_id == bottle.btl_id
        assert node.pending[8].queued_packets[0].dest == 8

    def test_delivery_to_self_is_a_no_op(self, cfg, rng):
        node = make_node(3, {1})
        assert handle_route_request(node, DataPacket(3, 3, path=[3]), 0, cfg, rng) == []

    def test_isolated_source_still_arms_timer(self, cfg, rng):
        node = make_node(0, set())
        actions = handle_route_request(node, DataPacket(0, 8, path=[0]), 5, cfg, rng)
        assert sends(actions) == []
        assert any(isinstance(a, SetTimer) for a in actions)
        assert any(isinstance(a, Eliminate) and a.reason == "dead_end"
                   for a in actions)
        assert len(node.pending) == 1
        # the attempt is stated before its bottle dies on the spot
        btl_id = node.pending[8].btl_id
        assert actions == [DiscoveryStarted(8, 0), Eliminate(btl_id, "dead_end"),
                           SetTimer(8, btl_id, 5 + cfg.timeout)]

    def test_second_packet_joins_open_request(self, cfg, rng):
        node = make_node(0, {4})
        handle_route_request(node, DataPacket(0, 8, path=[0]), 5, cfg, rng)
        actions = handle_route_request(node, DataPacket(0, 8, path=[0]), 6, cfg, rng)
        assert actions == []
        (req,) = node.pending.values()
        assert len(req.queued_packets) == 2

    def test_full_queue_reports_failure_for_forwarded_packet(self, cfg, rng):
        node = make_node(5, {4})
        for _ in range(QUEUE_CAP):
            handle_route_request(node, DataPacket(5, 8, path=[5]), 5, cfg, rng)
        foreign = DataPacket(src=2, dest=8, path=[2, 4, 5])
        actions = handle_route_request(node, foreign, 6, cfg, rng)
        assert len(sends(actions)) == 1
        bounce = sends(actions)[0].bottle
        assert bounce.failure and bounce.src == 2 and bounce.history == [2, 4, 5]

    def test_full_queue_drops_the_sources_own_packet(self, cfg, rng):
        node = make_node(5, {4})
        for _ in range(QUEUE_CAP):
            handle_route_request(node, DataPacket(5, 8, path=[5]), 5, cfg, rng)
        assert handle_route_request(node, DataPacket(5, 8, path=[5]), 6, cfg, rng) == []
        assert len(node.pending[8].queued_packets) == QUEUE_CAP
        assert QUEUE_CAP == 16  # as the README states; no golden scenario fills a queue

    def test_packet_over_the_hop_cap_is_dropped(self, rng):
        cfg = ProtocolConfig(hop_limit=3, timeout=8)
        node = make_node(5, {4}, rtab={9: RouteEntry(4, 2)})
        pkt = DataPacket(src=0, dest=9, path=[0, 1, 2, 3, 5])  # hop_limit + 2 nodes
        assert handle_route_request(node, pkt, 6, cfg, rng) == [DropData(pkt, "hop_cap")]
        assert node.rtab == {9: RouteEntry(4, 2)} and not node.pending
        assert handle_route_request(make_node(5, {4}), pkt, 6, cfg, rng) == [
            DropData(pkt, "hop_cap")]  # before a discovery could open

    def test_packet_at_the_hop_cap_still_forwards(self, rng):
        cfg = ProtocolConfig(hop_limit=3, timeout=8)
        node = make_node(5, {4}, rtab={9: RouteEntry(4, 2)})
        pkt = DataPacket(src=0, dest=9, path=[0, 1, 2, 5])  # hop_limit + 1 nodes
        assert handle_route_request(node, pkt, 6, cfg, rng) == [SendData(pkt, 4)]

    def test_packet_at_its_destination_is_delivered_past_the_cap(self, rng):
        cfg = ProtocolConfig(hop_limit=3, timeout=8)
        pkt = DataPacket(src=0, dest=9, path=[0, 1, 2, 3, 9])
        assert handle_route_request(make_node(9, {3}), pkt, 6, cfg, rng) == []


class TestHandleBottle:
    def test_destination_marks_route_found(self, cfg, rng):
        node = make_node(8, {2}, )
        b = Bottle(0, 8, BottleId(0, 0), history=[0, 5, 2])
        actions = handle_bottle(node, b, 3, cfg, rng)
        assert b.rf and b.history[-1] == 8
        assert sends(actions) == [Send(b, 2)]

    def test_hop_limit_eliminates_even_at_destination(self, rng):
        cfg = ProtocolConfig(hop_limit=2, timeout=8)
        node = make_node(8, {2})
        b = Bottle(0, 8, BottleId(0, 0), history=[0, 2])
        actions = handle_bottle(node, b, 3, cfg, rng)
        assert not b.rf
        assert actions[-1] == Eliminate(BottleId(0, 0), "hop_limit")

    def test_intermediate_forwards_to_unvisited(self, cfg, rng):
        node = make_node(2, {0, 5, 9})
        b = Bottle(0, 8, BottleId(0, 0), history=[0, 5])
        actions = handle_bottle(node, b, 3, cfg, rng)
        assert b.history == [0, 5, 2]
        (send,) = sends(actions)
        assert send.to == 9

    def test_surrounded_bottle_dies(self, cfg, rng):
        node = make_node(2, {0, 5})
        b = Bottle(0, 8, BottleId(0, 0), history=[0, 5])
        actions = handle_bottle(node, b, 3, cfg, rng)
        assert actions[-1] == Eliminate(BottleId(0, 0), "dead_end")

    def test_return_leg_relays_backwards(self, cfg, rng):
        node = make_node(5, {0, 2})
        b = Bottle(0, 8, BottleId(0, 0), rf=True, history=[0, 5, 2, 8])
        actions = handle_bottle(node, b, 3, cfg, rng)
        assert sends(actions) == [Send(b, 0)]

    def test_return_leg_harvests_routes(self, cfg, rng):
        node = make_node(5, {0, 2})
        b = Bottle(0, 8, BottleId(0, 0), rf=True, history=[0, 5, 2, 8])
        handle_bottle(node, b, 3, cfg, rng)
        assert node.rtab[8] == RouteEntry(2, 2)
        assert node.rtab[0] == RouteEntry(0, 1)

    def test_one_table_update_action_per_harvest(self, cfg, rng):
        node = make_node(5, {0, 2}, rtab={0: RouteEntry(0, 1)})
        b = Bottle(0, 8, BottleId(0, 0), rf=True, history=[0, 5, 2, 8])
        actions = handle_bottle(node, b, 3, cfg, rng)
        updates = [a for a in actions if isinstance(a, TableUpdated)]
        assert updates == [TableUpdated([(2, RouteEntry(2, 1)),
                                         (8, RouteEntry(2, 2))])]
        assert actions.index(updates[0]) == 0
        b = Bottle(0, 8, BottleId(0, 1), rf=True, history=[0, 5, 2, 8])
        assert not any(isinstance(a, TableUpdated)
                       for a in handle_bottle(node, b, 4, cfg, rng))

    def test_found_route_installs_and_flushes_at_source(self, cfg, rng):
        walk = [0, 7, 9, 12, 14, 3, 13, 4, 2, 8]
        node = make_node(0, {7, 12})
        pkt = DataPacket(0, 8, path=[0])
        node.pending[8] = PendingRequest(
            btl_id=BottleId(0, 0), retries_used=0, queued_packets=[pkt])
        b = Bottle(0, 8, BottleId(0, 0), rf=True, history=list(walk))
        actions = handle_bottle(node, b, 20, cfg, rng)
        assert node.rtab[8] == RouteEntry(7, len(walk) - 1)
        # the close is stated after the harvest, before the queued packets leave
        assert actions[1:] == [RouteFound(8, walk), SendData(pkt, 7)]
        assert not node.pending

    def test_slow_bottle_from_earlier_attempt_completes_request(self, cfg, rng):
        node = make_node(0, {7})
        pkt = DataPacket(0, 8, path=[0])
        node.pending[8] = PendingRequest(
            btl_id=BottleId(0, 3), retries_used=3, queued_packets=[pkt])
        b = Bottle(0, 8, BottleId(0, 0), rf=True, history=[0, 7, 8])
        actions = handle_bottle(node, b, 20, cfg, rng)
        assert data_sends(actions) == [SendData(pkt, 7)]
        assert not node.pending

    def test_revisit_is_malformed(self, cfg, rng):
        node = make_node(5, {0})
        b = Bottle(0, 8, BottleId(0, 0), history=[0, 5])
        with pytest.raises(MalformedBottle):
            handle_bottle(node, b, 3, cfg, rng)

    @pytest.mark.parametrize("rf", [True, False])
    def test_returning_bottle_off_its_history_is_malformed(self, cfg, rng, rf):
        node = make_node(4, {0, 7})
        b = Bottle(0, 8, BottleId(0, 0), rf=rf, failure=not rf, history=[0, 7, 8])
        with pytest.raises(MalformedBottle, match="node 4 off its history"):
            handle_bottle(node, b, 3, cfg, rng)

    def test_found_route_that_did_not_install_opens_a_fresh_discovery(self, cfg, rng):
        # The way back's first hop, 7, is no longer a neighbor, so the
        # harvest installs nothing and the queued packets go around again.
        node = make_node(0, {4})
        first, second = DataPacket(0, 8, path=[0]), DataPacket(0, 8, path=[0])
        node.pending[8] = PendingRequest(
            btl_id=BottleId(0, 5), retries_used=2, queued_packets=[first, second])
        b = Bottle(0, 8, BottleId(0, 5), rf=True, history=[0, 7, 8])
        actions = handle_bottle(node, b, 20, cfg, rng)
        assert node.rtab == {}
        req = node.pending[8]
        assert req.btl_id != BottleId(0, 5) and req.retries_used == 0
        assert req.queued_packets == [first, second]
        (send,) = sends(actions)
        assert send.to == 4 and send.bottle.history == [0]
        assert send.bottle.btl_id == req.btl_id
        assert actions == [RouteFound(8, [0, 7, 8]), DiscoveryStarted(8, 0), send,
                           SetTimer(8, req.btl_id, 20 + cfg.timeout)]

    @pytest.mark.parametrize("close", ["inaccessible", "passive"])
    def test_found_bottle_home_after_its_request_closed_states_nothing(self, cfg, rng, close):
        # The timer closed the request first, so the late bottle closes
        # nothing, and its way back installs nothing new either.
        if close == "inaccessible":
            node = make_node(0, {4})  # 7, the way back's first hop, is gone
            retries, closed = cfg.retry_limit, DeclareInaccessible(8)
        else:
            node = make_node(0, {7}, rtab={7: RouteEntry(7, 1), 8: RouteEntry(7, 2)})
            retries, closed = 0, DiscoveryResolved(8)
        node.pending[8] = PendingRequest(
            btl_id=BottleId(0, 0), retries_used=retries, queued_packets=[])
        assert on_timeout(node, 8, BottleId(0, 0), 120, cfg, rng) == [closed]
        b = Bottle(0, 8, BottleId(0, 0), rf=True, history=[0, 7, 8])
        assert handle_bottle(node, b, 130, cfg, rng) == []
        assert not node.pending

    def test_failure_bottle_at_source_purges_and_retries(self, cfg, rng):
        node = make_node(0, {7, 3}, rtab={8: RouteEntry(7, 3)})
        b = Bottle(0, 8, BottleId(5, 0), failure=True, history=[0, 7, 5])
        actions = handle_bottle(node, b, 9, cfg, rng)
        assert 8 not in node.rtab
        assert RouteRemoved(8, "route_failure") in actions
        (send,) = sends(actions)
        assert send.bottle.dest == 8 and send.bottle.history == [0]
        assert any(isinstance(a, SetTimer) for a in actions)


class TestOnTimeout:
    def test_retry_sends_fresh_bottle(self, cfg, rng):
        node = make_node(0, {4})
        first = handle_route_request(node, DataPacket(0, 8, path=[0]), 0, cfg, rng)
        first_id = sends(first)[0].bottle.btl_id
        actions = on_timeout(node, 8, first_id, cfg.timeout, cfg, rng)
        assert actions[0] == DiscoveryStarted(8, 1)
        (send,) = sends(actions)
        assert send.bottle.btl_id != first_id
        (req,) = node.pending.values()
        assert node.pending[8] is req and req.btl_id == send.bottle.btl_id
        assert req.retries_used == 1
        assert len(req.queued_packets) == 1

    def test_exhausted_retries_declare_inaccessible(self, cfg, rng):
        node = make_node(0, {4})
        node.pending[8] = PendingRequest(
            btl_id=BottleId(0, 9), retries_used=cfg.retry_limit, queued_packets=[])
        actions = on_timeout(node, 8, BottleId(0, 9), 500, cfg, rng)
        assert actions == [DeclareInaccessible(8)]
        assert not node.pending

    def test_stale_timer_is_ignored(self, cfg, rng):
        node = make_node(0, {4})
        assert on_timeout(node, 8, BottleId(0, 77), 500, cfg, rng) == []

    def test_timer_of_an_earlier_attempt_is_ignored(self, cfg, rng):
        node = make_node(0, {4})
        first = handle_route_request(node, DataPacket(0, 8, path=[0]), 0, cfg, rng)
        first_id = sends(first)[0].bottle.btl_id
        on_timeout(node, 8, first_id, cfg.timeout, cfg, rng)
        req = node.pending[8]
        before = (req.btl_id, req.retries_used, list(req.queued_packets))
        assert req.btl_id != first_id
        assert on_timeout(node, 8, first_id, 2 * cfg.timeout, cfg, rng) == []
        assert node.pending == {8: req}
        assert (req.btl_id, req.retries_used, list(req.queued_packets)) == before

    def test_passively_learned_route_flushes_without_retry(self, cfg, rng):
        node = make_node(0, {4}, rtab={8: RouteEntry(4, 2)})
        pkt = DataPacket(0, 8, path=[0])
        node.pending[8] = PendingRequest(
            btl_id=BottleId(0, 0), retries_used=0, queued_packets=[pkt])
        actions = on_timeout(node, 8, BottleId(0, 0), 120, cfg, rng)
        assert actions == [DiscoveryResolved(8), SendData(pkt, 4)]
        assert not node.pending


class TestPurgeRoutes:
    def test_vanished_neighbor_takes_its_routes(self):
        node = make_node(1, {6}, rtab={9: RouteEntry(4, 5), 2: RouteEntry(6, 1)})
        actions = purge_routes(node, {4}, "neighbor_lost")
        assert node.rtab == {2: RouteEntry(6, 1)}
        assert actions == [RouteRemoved(9, "neighbor_lost")]

    def test_route_to_dest_dropped_whatever_its_next_hop(self, cfg, rng):
        # a route-failure bottle home at its source; 6 stays a neighbor
        node = make_node(1, {4, 6}, rtab={9: RouteEntry(4, 5), 2: RouteEntry(6, 1)})
        b = Bottle(1, 2, BottleId(3, 0), failure=True, history=[1, 6, 3])
        actions = handle_bottle(node, b, 9, cfg, rng)
        assert [a for a in actions if isinstance(a, RouteRemoved)] == [
            RouteRemoved(2, "route_failure")]
        assert 2 not in node.rtab and node.rtab[9] == RouteEntry(4, 5)

    def test_nothing_to_drop(self, cfg, rng):
        node = make_node(1, {4}, rtab={9: RouteEntry(4, 5)})
        assert purge_routes(node, {6}, "neighbor_lost") == []
        b = Bottle(1, 3, BottleId(4, 0), failure=True, history=[1, 4])
        actions = handle_bottle(node, b, 9, cfg, rng)
        assert not any(isinstance(a, RouteRemoved) for a in actions)
        assert node.rtab == {9: RouteEntry(4, 5), 4: RouteEntry(4, 1)}

    def test_takes_no_dest(self):
        node = make_node(1, {4}, rtab={9: RouteEntry(4, 5)})
        with pytest.raises(TypeError, match="dest"):
            purge_routes(node, (), "route_failure", dest=9)
        assert node.rtab == {9: RouteEntry(4, 5)}


class TestDeliveryFailure:
    def test_all_routes_through_dead_neighbor_purged(self, cfg, rng):
        node = make_node(1, {4, 6}, rtab={
            8: RouteEntry(4, 3), 9: RouteEntry(4, 5), 2: RouteEntry(6, 1)})
        actions = on_delivery_failure(
            node, Bottle(0, 8, BottleId(0, 0), history=[0, 1]), 4, 9, cfg, rng)
        assert node.rtab == {2: RouteEntry(6, 1)}
        assert node.nbors == {6}
        assert actions == [RouteRemoved(8, "delivery_failure"),
                           RouteRemoved(9, "delivery_failure")]

    def test_forwarded_packet_triggers_failure_bottle(self, cfg, rng):
        node = make_node(5, {4, 9})
        pkt = DataPacket(src=3, dest=8, path=[3, 4, 5])
        actions = on_delivery_failure(node, pkt, 9, 9, cfg, rng)
        (send,) = sends(actions)
        assert send.to == 4
        assert send.bottle.failure and send.bottle.src == 3
        assert send.bottle.history == [3, 4, 5]

    def test_no_failure_bottle_when_way_back_is_gone(self, cfg, rng):
        node = make_node(5, {9})  # 4 already vanished from the beacon view
        pkt = DataPacket(src=3, dest=8, path=[3, 4, 5])
        assert on_delivery_failure(node, pkt, 9, 9, cfg, rng) == []

    def test_own_packet_restarts_discovery(self, cfg, rng):
        node = make_node(0, {4, 6}, rtab={8: RouteEntry(4, 3)})
        pkt = DataPacket(src=0, dest=8, path=[0])
        actions = on_delivery_failure(node, pkt, 4, 9, cfg, rng)
        assert 8 not in node.rtab
        (send,) = sends(actions)
        assert send.to == 6 and send.bottle.dest == 8
        assert node.pending

    def test_looped_record_is_erased_before_reporting(self, cfg, rng):
        node = make_node(5, {1})
        pkt = DataPacket(src=3, dest=8, path=[3, 1, 4, 1, 5])
        actions = on_delivery_failure(node, pkt, 9, 9, cfg, rng)
        (send,) = sends(actions)
        assert send.bottle.history == [3, 1, 5]
