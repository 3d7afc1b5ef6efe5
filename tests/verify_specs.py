"""Verification specs for the tests: pinned tiny instances and the
integer budgets that dominate a simulator setting.

:func:`small_specs` are small enough for the exhaustive engine, so
their envelopes are certified even without z3 installed;
:func:`spec_from_flows` maps per-flow model inputs onto path budgets
for the cross-validation against ``run_setting``.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

from repro.model.tcp_chain import FlowParams
from repro.verify.spec import PathBudget, VerifySpec


def spec_from_flows(
    flows: Sequence[FlowParams],
    mu: float,
    tau_s: float,
    rounds: int,
    round_s: float = 1.0,
    send_buffer_pkts: int = 16,
    slack_rounds: int = 2,
    loss_factor: float = 2.0,
    label: str = "",
) -> VerifySpec:
    """Integer budgets matching a simulator setting.

    One verification round spans ``round_s`` seconds.  Per path the
    budgets *dominate* the stochastic path the simulator realizes:

    * ``rate`` — the TCP window cap ``wmax/rtt`` (the simulator can
      never sustain more);
    * ``slack`` — ``slack_rounds`` rounds of total outage (covers
      timeouts and congestion backoff bursts);
    * ``loss`` — ``loss_factor`` times the expected losses at rate
      ``p`` if the path served at full rate all horizon, plus 2.

    The resulting envelope certifies every trace within those budgets,
    which includes (empirically, see the cross-validation tests) the
    Monte-Carlo traces of ``run_setting`` on the matched setting.
    """
    mu_r = max(1, math.ceil(mu * round_s))
    paths = []
    for flow in flows:
        rate = max(1, math.ceil(flow.wmax * round_s / flow.rtt))
        paths.append(PathBudget(
            rate=rate,
            slack=slack_rounds * rate,
            loss=math.ceil(loss_factor * flow.p * rate * rounds) + 2,
            delay=max(0, math.ceil(flow.rtt / round_s)),
            buffer=send_buffer_pkts,
        ))
    tau = max(0, int(round(tau_s / round_s)))
    return VerifySpec(
        mu_r=mu_r, tau=tau, rounds=rounds, paths=tuple(paths),
        label=label,
    )


def small_specs() -> Dict[str, VerifySpec]:
    """Pinned tiny instances (K=2, T <= 20)."""
    return {
        # Loss budget + asymmetric delay: the adversary must spend
        # losses and slack together to beat the provisioning.
        "loss-delay": VerifySpec(
            mu_r=2, tau=2, rounds=8, label="loss-delay",
            paths=(
                PathBudget(rate=2, slack=2, loss=1, delay=0,
                           buffer=3),
                PathBudget(rate=1, slack=1, loss=0, delay=1,
                           buffer=2),
            ),
        ),
        # One path can stall for rounds on end (big slack, small
        # buffer) next to a clean path: the instance where DMP's
        # blocking/backpressure provably beats the static split.
        "stall-asym": VerifySpec(
            mu_r=2, tau=2, rounds=10, label="stall-asym",
            paths=(
                PathBudget(rate=2, slack=10, loss=0, delay=0,
                           buffer=2),
                PathBudget(rate=2, slack=0, loss=0, delay=0,
                           buffer=4),
            ),
        ),
        # Provisioning ratio 1.6 with zero loss budget: two startup
        # rounds provably absorb the entire slack (envelope 0).
        "provisioned-16": VerifySpec(
            mu_r=5, tau=2, rounds=12, label="provisioned-16",
            paths=(
                PathBudget(rate=4, slack=2, loss=0, delay=0,
                           buffer=8),
                PathBudget(rate=4, slack=2, loss=0, delay=0,
                           buffer=8),
            ),
        ),
    }
