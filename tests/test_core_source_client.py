"""Unit tests for the CBR video source and the stream client."""

import pytest

from repro.core.client import StreamClient
from repro.core.packets import VideoPacket
from repro.core.server_queue import ServerQueue
from repro.core.source import VideoSource
from repro.sim.engine import Simulator


def test_source_generates_at_cbr():
    sim = Simulator()
    queue = ServerQueue()
    source = VideoSource(sim, queue, mu=10, duration_s=2.0)
    sim.run()
    assert source.generated == 20
    assert source.finished
    assert len(queue) == 20
    # The final packet is generated at (n-1)/mu.
    assert sim.now == pytest.approx(1.9)


def test_source_respects_start_time():
    sim = Simulator()
    queue = ServerQueue()
    VideoSource(sim, queue, mu=5, duration_s=1.0, start_at=10.0)
    sim.run(until=9.9)
    assert len(queue) == 0
    sim.run()
    assert len(queue) == 5


def test_source_packet_numbers_and_timestamps():
    sim = Simulator()
    queue = ServerQueue()
    VideoSource(sim, queue, mu=4, duration_s=1.0)
    sim.run()
    owner = object()
    queue.acquire(owner)
    for i in range(4):
        packet = queue.fetch(owner)
        assert packet.number == i
        assert packet.generated_at == pytest.approx(i / 4)


def test_source_listeners_fire_per_packet():
    sim = Simulator()
    queue = ServerQueue()
    source = VideoSource(sim, queue, mu=10, duration_s=0.5)
    seen = []
    source.add_listener(lambda p: seen.append(p.number))
    sim.run()
    assert seen == list(range(5))


def test_source_without_queue():
    sim = Simulator()
    seen = []
    VideoSource(sim, None, mu=10, duration_s=0.5,
                on_generate=lambda p: seen.append(p.number))
    sim.run()
    assert seen == list(range(5))


def test_source_invalid_parameters():
    sim = Simulator()
    with pytest.raises(ValueError):
        VideoSource(sim, None, mu=0, duration_s=1.0)
    with pytest.raises(ValueError):
        VideoSource(sim, None, mu=10, duration_s=0)
    with pytest.raises(ValueError):
        VideoSource(sim, None, mu=10, duration_s=0.01)


def test_video_packet_deadline():
    packet = VideoPacket(number=30, generated_at=1.0)
    assert packet.deadline(mu=10, tau=2.0) == pytest.approx(5.0)


def test_client_records_arrivals():
    client = StreamClient()
    client.on_packet(VideoPacket(0, 0.0), time=1.0, path_name="p1")
    client.on_packet(VideoPacket(1, 0.1), time=1.2, path_name="p2")
    assert client.received == 2
    assert client.arrival_time(0) == 1.0
    assert client.per_path_counts == {"p1": 1, "p2": 1}


def test_client_ignores_duplicates():
    client = StreamClient()
    client.on_packet(VideoPacket(0, 0.0), time=1.0)
    client.on_packet(VideoPacket(0, 0.0), time=2.0)
    assert client.received == 1
    assert client.duplicates == 1
    assert client.arrival_time(0) == 1.0


def test_client_rejects_foreign_payloads():
    client = StreamClient()
    with pytest.raises(TypeError):
        client.on_packet("not a packet", time=1.0)


def test_client_highest_in_order():
    client = StreamClient()
    for number in (0, 1, 3):
        client.on_packet(VideoPacket(number, 0.0), time=1.0)
    assert client.highest_in_order() == 2


def test_client_deliver_callback_adapter():
    client = StreamClient()
    callback = client.deliver_callback("path9")
    callback(VideoPacket(5, 0.0), 5, 2.5)
    assert client.received == 1
    assert client.per_path_counts == {"path9": 1}
