"""Unit tests for the Node abstraction."""

import pytest

from repro.acoustic.geometry import Position
from repro.net.node import Node
from repro.phy.channel import AcousticChannel


@pytest.fixture
def node(sim):
    channel = AcousticChannel(sim)
    return Node(sim, 0, Position(0, 0, 100), channel)


def test_enqueue_and_pop(node):
    assert not node.has_pending_data
    assert node.enqueue_data(1, 2048)
    assert node.has_pending_data
    request = node.peek_request()
    assert request.dst == 1 and request.size_bits == 2048
    assert node.queue.popleft() is request
    assert not node.has_pending_data


def test_request_uids_unique(node):
    node.enqueue_data(1, 100)
    node.enqueue_data(1, 100)
    uids = {r.uid for r in node.queue}
    assert len(uids) == 2


def test_enqueue_to_self_rejected(node):
    with pytest.raises(ValueError):
        node.enqueue_data(0, 100)


def test_enqueue_invalid_size(node):
    with pytest.raises(ValueError):
        node.enqueue_data(1, 0)


def test_queue_limit_drops(sim):
    channel = AcousticChannel(sim)
    node = Node(sim, 0, Position(0, 0, 0), channel, queue_limit=2)
    assert node.enqueue_data(1, 10)
    assert node.enqueue_data(1, 10)
    assert not node.enqueue_data(1, 10)
    assert node.app_stats.queue_drops == 1
    assert node.app_stats.generated == 3


def test_pending_for_finds_by_destination(node):
    node.enqueue_data(1, 10)
    node.enqueue_data(2, 20)
    found = node.pending_for(2)
    assert found is not None and found.size_bits == 20
    assert node.pending_for(9) is None


def test_remove_request_specific(node):
    node.enqueue_data(1, 10)
    node.enqueue_data(2, 20)
    target = node.pending_for(2)
    node.remove_request(target)
    assert node.pending_for(2) is None
    node.remove_request(target)  # removing twice is a no-op


def test_note_sent_updates_stats(sim, node):
    node.enqueue_data(1, 512)
    request = node.queue.popleft()
    sim.schedule(4.0, lambda: None)
    sim.run()
    node.note_sent(request)
    stats = node.app_stats
    assert stats.sent == 1
    assert stats.sent_bits == 512
    assert stats.delivery_delay_total_s == pytest.approx(4.0)
    assert stats.last_sent_at == pytest.approx(4.0)


def test_note_delivered(node):
    node.note_delivered(2048)
    assert node.app_stats.delivered == 1
    assert node.app_stats.delivered_bits == 2048


def test_sink_flag(sim):
    channel = AcousticChannel(sim)
    sink = Node(sim, 5, Position(0, 0, 0), channel, is_sink=True)
    assert sink.is_sink
    assert "sink" in repr(sink)
