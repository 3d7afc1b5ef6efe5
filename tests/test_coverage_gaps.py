"""Small tests for corners not covered elsewhere."""

import random

import pytest

from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.queueing import REDQueue


def packet(seq=0):
    return Packet("a", "b", 1, 2, 1500, seq=seq)


def test_red_average_tracks_occupancy():
    queue = REDQueue(capacity=100, min_th=20, max_th=60,
                     weight=0.5, rng=random.Random(1))
    for i in range(30):
        queue.offer(packet(i))
    assert queue.avg > 5.0


def test_red_drop_fraction_property_inherited():
    queue = REDQueue(capacity=4, min_th=1, max_th=2, max_p=1.0,
                     weight=1.0, rng=random.Random(2))
    for i in range(30):
        queue.offer(packet(i))
    assert 0.0 < queue.drop_fraction < 1.0


def test_modulator_transition_counter():
    from repro.sim.link import Link
    from repro.sim.modulation import OnOffLinkModulator
    from repro.sim.node import Node
    sim = Simulator()
    a, b = Node(sim, "a"), Node(sim, "b")
    link = Link(sim, a, b, 1e6, 0.0)
    mod = OnOffLinkModulator(sim, link, on_bandwidth_bps=1e6,
                             period=10, on_time=5)
    sim.run(until=34)
    # Flips at 5, 10, 15, 20, 25, 30 -> 6 transitions by t=34.
    assert mod.transitions == 6


def test_builders_accept_profile_kwarg():
    import inspect
    from repro.experiments.figures import BUILDERS
    for name, builder in BUILDERS.items():
        signature = inspect.signature(builder)
        assert "profile" in signature.parameters, name


def test_scale_profiles_ordering():
    from repro.experiments.runner import scale_profile
    quick = scale_profile("quick")
    full = scale_profile("full")
    paper = scale_profile("paper")
    assert quick.runs < full.runs < paper.runs
    assert quick.duration_s < full.duration_s < paper.duration_s
    assert paper.duration_s == 10000.0  # the paper's video length
    assert paper.runs == 30             # the paper's replication count


def test_flow_estimate_dataclass_fields():
    from tests.trace_estimator import FlowEstimate
    estimate = FlowEstimate(flow=("a", 1, "b", 2), loss_rate=0.01,
                            retransmission_rate=0.02, mean_rtt=0.1,
                            timeout_ratio=2.0, segments=100)
    assert estimate.loss_rate <= estimate.retransmission_rate


def test_late_fraction_estimate_relative_error():
    from repro.model.dmp_model import LateFractionEstimate
    good = LateFractionEstimate(late_fraction=0.01, stderr=0.001,
                                horizon_s=1.0, method="mc")
    assert good.relative_error == pytest.approx(0.1)
    zero = LateFractionEstimate(late_fraction=0.0, stderr=0.001,
                                horizon_s=1.0, method="mc")
    assert zero.relative_error == float("inf")


def test_path_handles_shared_in_correlated_topology():
    from repro.sim.topology import (
        BottleneckSpec,
        SharedBottleneckTopology,
    )
    sim = Simulator()
    topo = SharedBottleneckTopology(
        sim, BottleneckSpec(1e6, 0.01, 20), n_paths=3)
    assert len(topo.paths) == 3
    assert topo.paths[0] is topo.paths[2]
