"""Single-path TCP streaming model ([31]) and the static baseline.

The single-path model is the K = 1 special case of the coupled chain —
the paper's Section 7.4 uses exactly this reduction: static streaming
over two homogeneous paths "can be regarded as streaming two separate
videos, each with playback rate mu/2, over these two paths", each
evaluated with the single-path model.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.model.dmp_model import DmpModel, LateFractionEstimate
from repro.model.tcp_chain import FlowParams, TcpFlowChain

FlowLike = Union[FlowParams, TcpFlowChain]


class SinglePathModel(DmpModel):
    """Analytical model of single-path TCP live streaming (K = 1)."""

    def __init__(self, flow: FlowLike, mu: float, tau: float) -> None:
        super().__init__([flow], mu, tau)


def static_late_fraction(flows: Sequence[FlowLike], mu: float,
                         tau: float,
                         weights: Optional[Sequence[float]] = None,
                         horizon_s: float = 20000.0,
                         seed: int = 0) -> LateFractionEstimate:
    """Late fraction of the static allocation scheme (Section 7.4).

    Path k carries a fixed share ``weights[k]`` of the packets, i.e. an
    independent sub-video with playback rate ``weights[k] * mu`` (and
    the same startup delay), evaluated with the single-path model.  The
    overall late fraction is the weight-average of the per-path ones.
    """
    if not flows:
        raise ValueError("need at least one flow")
    k = len(flows)
    if weights is None:
        weights = [1.0 / k] * k
    if len(weights) != k or any(w <= 0 for w in weights):
        raise ValueError("need one positive weight per path")
    total = float(sum(weights))
    norm: List[float] = [float(w) / total for w in weights]

    late = 0.0
    var = 0.0
    for flow, weight in zip(flows, norm):
        model = SinglePathModel(flow, mu=weight * mu, tau=tau)
        estimate = model.late_fraction_mc(horizon_s=horizon_s,
                                          seed=seed)
        late += weight * estimate.late_fraction
        var += (weight * estimate.stderr) ** 2
    return LateFractionEstimate(
        late_fraction=late, stderr=var ** 0.5, horizon_s=horizon_s,
        method="static-mc", path_shares=tuple(norm))
