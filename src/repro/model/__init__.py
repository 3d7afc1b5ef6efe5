"""The analytical model of DMP-streaming (Section 4 of the paper).

Components
----------
* :class:`FlowParams` / :class:`TcpFlowChain` — the per-flow TCP CTMC
  with state ``(W, C, L, E, Q)``: window, delayed-ACK parity, losses in
  the previous round, timeout backoff stage and the
  retransmission-vs-new flag, in the Padhye/Figueiredo round-based style
  the paper cites.
* :class:`DmpModel` — the coupled chain ``(X_1 .. X_K, N)`` where ``N``
  is the early-packet count, frozen at ``Nmax = mu * tau``; provides an
  exact sparse stationary solver (small chains) and a fast
  Rao-Blackwellised Monte-Carlo solver (production scale).
* The single-path model of [31] is the K = 1 case, ``DmpModel([flow],
  ...)``; it also evaluates the static streaming of Section 7.4.
* :mod:`repro.model.fluid` — the Section 7.3 alternating on/off fluid
  comparison of DMP vs single-path streaming.
"""

from repro.model.dmp_model import DmpModel, LateFractionEstimate
from repro.model.tcp_chain import FlowParams, TcpFlowChain

__all__ = [
    "FlowParams",
    "TcpFlowChain",
    "DmpModel",
    "LateFractionEstimate",
]
