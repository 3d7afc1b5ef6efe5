"""Property-based tests (hypothesis) on core invariants."""

import math

from hypothesis import given, settings, strategies as st

from repro.core.metrics import (
    arrival_order_late_fraction,
    late_fraction,
    reordering_stats,
)
from repro.core.packets import VideoPacket
from repro.core.server_queue import ServerQueue
from repro.model.mc_kernel import expected_excess_array
from tests.pftk_reference import pftk_throughput
from repro.model.tcp_chain import FlowParams, TcpFlowChain
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.queueing import DropTailQueue

# ---------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------
arrival_lists = st.lists(
    st.tuples(st.integers(min_value=0, max_value=10_000),
              st.floats(min_value=0.0, max_value=1e4,
                        allow_nan=False, allow_infinity=False)),
    min_size=0, max_size=200,
    unique_by=lambda pair: pair[0])

flow_params = st.builds(
    FlowParams,
    p=st.floats(min_value=0.001, max_value=0.3),
    rtt=st.floats(min_value=0.01, max_value=1.0),
    to_ratio=st.floats(min_value=1.0, max_value=4.0),
    wmax=st.integers(min_value=2, max_value=12))


# ---------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------
@given(arrivals=arrival_lists,
       mu=st.floats(min_value=0.1, max_value=1000),
       tau=st.floats(min_value=0.0, max_value=100))
def test_late_fraction_in_unit_interval(arrivals, mu, tau):
    frac = late_fraction(arrivals, mu, tau)
    assert 0.0 <= frac <= 1.0


@given(arrivals=arrival_lists, mu=st.floats(min_value=0.1,
                                            max_value=1000))
def test_late_fraction_monotone_in_tau(arrivals, mu):
    fracs = [late_fraction(arrivals, mu, tau)
             for tau in (0.0, 1.0, 5.0, 25.0)]
    assert all(a >= b for a, b in zip(fracs, fracs[1:]))


@given(times=st.lists(st.floats(min_value=0.0, max_value=1e4,
                                allow_nan=False,
                                allow_infinity=False),
                      min_size=0, max_size=100),
       mu=st.floats(min_value=0.1, max_value=1000),
       tau=st.floats(min_value=0.0, max_value=100),
       seed=st.integers(min_value=0, max_value=1000))
def test_arrival_order_metric_is_number_invariant(times, mu, tau,
                                                  seed):
    """The arrival-order replay only looks at arrival times, so any
    renumbering of the packets leaves it unchanged — this is exactly
    why the model can ignore packet identities (Section 4.1)."""
    import random as _random
    numbers = list(range(len(times)))
    baseline = arrival_order_late_fraction(
        list(zip(numbers, times)), mu, tau)
    _random.Random(seed).shuffle(numbers)
    shuffled = arrival_order_late_fraction(
        list(zip(numbers, times)), mu, tau)
    assert shuffled == baseline


@given(times=st.lists(st.floats(min_value=0.0, max_value=1e4,
                                allow_nan=False,
                                allow_infinity=False),
                      min_size=0, max_size=100),
       mu=st.floats(min_value=0.1, max_value=1000),
       tau=st.floats(min_value=0.0, max_value=100))
def test_metrics_agree_when_arrivals_in_order(times, mu, tau):
    """With no reordering (numbers assigned in arrival-time order)
    playback order and arrival order are the same schedule."""
    arrivals = [(i, t) for i, t in enumerate(sorted(times))]
    playback = late_fraction(arrivals, mu, tau)
    arrival = arrival_order_late_fraction(arrivals, mu, tau)
    assert playback == arrival


@given(arrivals=arrival_lists)
def test_reordering_stats_bounds(arrivals):
    count, depth = reordering_stats(arrivals)
    assert 0 <= count <= max(0, len(arrivals) - 1)
    assert depth >= 0
    if count == 0:
        assert depth == 0


# ---------------------------------------------------------------------
# Server queue
# ---------------------------------------------------------------------
@given(chunks=st.lists(st.integers(min_value=1, max_value=7),
                       min_size=1, max_size=30))
def test_server_queue_fifo_across_interleaved_owners(chunks):
    queue = ServerQueue()
    total = sum(chunks)
    for i in range(total):
        queue.push(VideoPacket(i, float(i)))
    owners = [object(), object(), object()]
    fetched = []
    for turn, chunk in enumerate(chunks):
        owner = owners[turn % 3]
        assert queue.acquire(owner)
        for _ in range(chunk):
            packet = queue.fetch(owner)
            if packet is not None:
                fetched.append(packet.number)
        queue.release(owner)
    assert fetched == list(range(len(fetched)))
    assert queue.fetched == len(fetched)


# ---------------------------------------------------------------------
# Drop-tail queue
# ---------------------------------------------------------------------
@given(capacity=st.integers(min_value=1, max_value=20),
       offered=st.integers(min_value=0, max_value=100))
def test_droptail_conservation(capacity, offered):
    queue = DropTailQueue(capacity)
    for i in range(offered):
        queue.offer(Packet("a", "b", 1, 2, 100, seq=i))
    assert len(queue) == min(capacity, offered)
    assert queue.drops == max(0, offered - capacity)
    assert queue.enqueued + queue.drops == offered


# ---------------------------------------------------------------------
# Simulator
# ---------------------------------------------------------------------
@given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0,
                                 allow_nan=False), min_size=1,
                       max_size=50))
def test_simulator_clock_monotone(delays):
    sim = Simulator()
    stamps = []
    for delay in delays:
        sim.schedule(delay, lambda: stamps.append(sim.now))
    sim.run()
    assert stamps == sorted(stamps)
    assert len(stamps) == len(delays)


# ---------------------------------------------------------------------
# Model pieces
# ---------------------------------------------------------------------
@given(lam=st.floats(min_value=0.0, max_value=200.0),
       m=st.integers(min_value=0, max_value=300))
def test_expected_excess_bounds(lam, m):
    value = float(expected_excess_array(lam, m))
    assert -1e-9 <= value <= lam + 1e-9
    # E[(X-m)^+] >= E[X] - m  (Jensen-type bound).
    assert value >= lam - m - 1e-6


@given(p=st.floats(min_value=1e-4, max_value=0.5),
       rtt=st.floats(min_value=0.01, max_value=1.0),
       to=st.floats(min_value=0.1, max_value=5.0))
def test_pftk_positive_and_bounded(p, rtt, to):
    sigma = pftk_throughput(p, rtt, to)
    assert sigma > 0
    # Never above the no-loss-ish ceiling wmax/rtt for a huge window.
    assert sigma < 1e7


@settings(max_examples=20, deadline=None)
@given(params=flow_params)
def test_chain_probabilities_and_rates(params):
    chain = TcpFlowChain(params)
    for sid, outs in enumerate(chain.outcomes):
        total = sum(prob for prob, _, _ in outs)
        assert math.isclose(total, 1.0, abs_tol=1e-9)
        assert chain.rates[sid] > 0
        for prob, nxt, s in outs:
            assert prob > 0
            assert 0 <= nxt < len(chain)
            assert s >= 0


@settings(max_examples=15, deadline=None)
@given(params=flow_params)
def test_chain_throughput_positive_and_window_bounded(params):
    chain = TcpFlowChain(params)
    sigma = chain.achievable_throughput()
    assert sigma > 0
    # Cannot beat a full window every RTT.
    assert sigma <= params.wmax / params.rtt + 1e-9


@settings(max_examples=10, deadline=None)
@given(params=flow_params,
       mu=st.floats(min_value=1.0, max_value=100.0),
       tau=st.floats(min_value=0.2, max_value=5.0),
       seed=st.integers(min_value=0, max_value=2**31))
def test_mc_late_fraction_in_unit_interval(params, mu, tau, seed):
    from repro.model.dmp_model import DmpModel
    model = DmpModel([params, params], mu=mu, tau=tau)
    est = model.late_fraction_mc(horizon_s=300.0, seed=seed)
    assert 0.0 <= est.late_fraction <= 1.0 + 1e-9


# ---------------------------------------------------------------------
# Simulator-core determinism (the parallel executor's contract)
# ---------------------------------------------------------------------
def _tiny_session(seed, scheme):
    from repro.core.campaign import MultiSessionCampaign
    from repro.sim.topology import BottleneckSpec, PathConfig

    spec = BottleneckSpec(bandwidth_bps=1.5e6, delay_s=0.02,
                          buffer_pkts=20)
    paths = [PathConfig(bottleneck=spec, n_ftp=1, n_http=2)
             for _ in range(2)]
    return MultiSessionCampaign(mu=30, duration_s=20.0, paths=paths,
                                scheme=scheme, seed=seed)


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       scheme=st.sampled_from(["dmp", "static"]))
def test_session_same_seed_is_bit_identical(seed, scheme):
    """Two runs with the same seed must agree exactly — the invariant
    that makes fan-out over processes (and the on-disk cache) sound."""
    (a,) = _tiny_session(seed, scheme).run(drain_s=10.0).sessions
    (b,) = _tiny_session(seed, scheme).run(drain_s=10.0).sessions
    assert a.arrivals == b.arrivals
    assert a.flow_stats == b.flow_stats
    for tau in (1.0, 4.0):
        assert a.late_fraction(tau) == b.late_fraction(tau)


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**30))
def test_session_different_seeds_differ(seed):
    """Different seeds must yield different event traces — otherwise
    averaging replications would be a no-op."""
    (a,) = _tiny_session(seed, "dmp").run(drain_s=10.0).sessions
    (b,) = _tiny_session(seed + 1, "dmp").run(drain_s=10.0).sessions
    assert a.arrivals != b.arrivals
