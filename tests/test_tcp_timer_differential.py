"""Differential test: lazy TCP timers against eager cancel-and-reschedule.

The production sender and receiver keep each RTO and delayed-ACK timer
as a :class:`repro.sim.engine.Timer` (one calendar entry, re-entered
when it pops before its deadline); :mod:`tests.tcp_timer_reference`
installs the eager timer they replaced (one event per ``set``).  Both
are driven through the same :class:`tests.tcp_harness.TcpPair`
scenario -- wire delay, delayed-ACK interval, minimum RTO, scripted
data and ACK drops, writes spread over time, Reno or SACK -- and must
agree on everything the pair observes, in emission order: every
transmission, every delivery, every ACK, every RTO expiry and every
send-space callback.

Delays, intervals, RTOs and write times are drawn mostly from round
values, so timer deadlines land *exactly* on packet arrivals and on
one another: the tie-break order is exercised, not just sampled.
"""

from hypothesis import given, settings, strategies as st

from repro.tcp.receiver import TcpReceiver
from repro.tcp.reno import RenoSender
from repro.tcp.sack import SackSender
from tests.tcp_harness import TcpPair
from tests.tcp_timer_reference import (EagerRenoSender, EagerSackSender,
                                       EagerTcpReceiver)

CLASSES = {
    ("reno", "lazy"): (RenoSender, TcpReceiver),
    ("reno", "eager"): (EagerRenoSender, EagerTcpReceiver),
    ("sack", "lazy"): (SackSender, TcpReceiver),
    ("sack", "eager"): (EagerSackSender, EagerTcpReceiver),
}
WRITE_TICK_S = 0.025


def _round_or_any(values, low, high):
    return st.one_of(st.sampled_from(values),
                     st.floats(min_value=low, max_value=high))


scenarios = st.fixed_dictionaries({
    "variant": st.sampled_from(("reno", "sack")),
    "delay": _round_or_any((0.0125, 0.025, 0.05, 0.1, 0.2), 0.001, 0.3),
    "delack_interval": _round_or_any((0.05, 0.1, 0.2, 0.4), 0.01, 0.5),
    "min_rto": _round_or_any((0.1, 0.2, 0.4, 1.0), 0.05, 1.0),
    "send_buffer_pkts": st.sampled_from((3, 8, 1000)),
    "drop_seqs": st.lists(st.integers(min_value=0, max_value=60),
                          max_size=8),
    "drop_nth": st.lists(st.integers(min_value=0, max_value=120),
                         max_size=8),
    "ack_drop_nth": st.lists(st.integers(min_value=0, max_value=80),
                             max_size=6),
    # (tick, count): bursts, trickles and idle gaps long enough for
    # the delayed-ACK timer and the RTO to expire.
    "writes": st.lists(
        st.tuples(st.integers(min_value=0, max_value=200),
                  st.integers(min_value=1, max_value=12)),
        min_size=1, max_size=10),
})


def run(scenario, timers):
    sender_cls, receiver_cls = CLASSES[scenario["variant"], timers]
    pair = TcpPair(
        delay=scenario["delay"], drop_seqs=scenario["drop_seqs"],
        drop_nth=scenario["drop_nth"],
        send_buffer_pkts=scenario["send_buffer_pkts"],
        delack_interval=scenario["delack_interval"],
        min_rto=scenario["min_rto"], sender_cls=sender_cls,
        receiver_cls=receiver_cls,
        sack_enabled=scenario["variant"] == "sack")
    pair.backward._drop_nth = set(scenario["ack_drop_nth"])
    sim = pair.sim
    wire = []

    def tap(link, tag):
        enqueue = link.enqueue

        def recorded(packet):
            wire.append((sim.now, tag, packet.seq, packet.ack,
                         packet.is_retransmit, packet.payload))
            enqueue(packet)
        link.enqueue = recorded

    tap(pair.forward, "data")
    tap(pair.backward, "ack")
    written = []
    for tick, count in scenario["writes"]:
        sim.at(tick * WRITE_TICK_S,
               lambda n=count: written.append((sim.now, pair.write_all(n))))
    pair.run(until=40.0)
    sender = pair.sender
    return {
        "wire": wire,
        "delivered": [(seq, t) for seq, _, t in pair.delivered],
        "written": written,
        "space_events": pair.space_events,
        "rto_history": sender.rto_history,
        "retransmits": sender.retransmits,
        "timeouts": sender.timeouts,
        "fast_retransmits": sender.fast_retransmits,
        "segments_sent": sender.segments_sent,
        "acks_sent": pair.receiver.acks_sent,
    }


@settings(max_examples=300, deadline=None)
@given(scenarios)
def test_lazy_timers_match_eager_reference(scenario):
    assert run(scenario, "lazy") == run(scenario, "eager")


def test_scenario_with_exact_time_ties_matches_reference():
    """Delay 0.05, delayed-ACK 0.1 and RTO floor 0.2 put timer
    deadlines on the same instants as arrivals; losses and an ACK
    drop make the RTO back off, reset and expire."""
    scenario = {"variant": "reno", "delay": 0.05, "delack_interval": 0.1,
                "min_rto": 0.2, "send_buffer_pkts": 8,
                "drop_seqs": [3, 4, 9], "drop_nth": [20],
                "ack_drop_nth": [2, 5],
                "writes": [(0, 5), (8, 1), (40, 12), (41, 3)]}
    lazy = run(scenario, "lazy")
    assert lazy == run(scenario, "eager")
    assert lazy["timeouts"] > 0
