"""Single-path TCP streaming model ([31]), which also evaluates the
static baseline.

The single-path model is the K = 1 special case of the coupled chain —
the paper's Section 7.4 uses exactly this reduction: static streaming
over two homogeneous paths "can be regarded as streaming two separate
videos, each with playback rate mu/2, over these two paths", each
evaluated with the single-path model.
"""

from __future__ import annotations

from typing import Union

from repro.model.dmp_model import DmpModel
from repro.model.tcp_chain import FlowParams, TcpFlowChain

FlowLike = Union[FlowParams, TcpFlowChain]


class SinglePathModel(DmpModel):
    """Analytical model of single-path TCP live streaming (K = 1)."""

    def __init__(self, flow: FlowLike, mu: float, tau: float) -> None:
        super().__init__([flow], mu, tau)
