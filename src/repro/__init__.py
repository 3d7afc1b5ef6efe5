"""repro — reproduction of "Multipath Live Streaming via TCP: Scheme,
Performance and Benefits" (Wang, Wei, Guo, Towsley — CoNEXT 2007).

Layers
------
* :mod:`repro.sim` / :mod:`repro.tcp` / :mod:`repro.traffic` — a
  packet-level discrete-event simulator with TCP Reno and background
  workloads (the ns-2 substitute).
* :mod:`repro.core` — DMP-streaming, the static baseline, single-path
  streaming, the client and the playback metrics.
* :mod:`repro.model` — the analytical CTMC model and its solvers and
  the Section-7.3 fluid model.
* :mod:`repro.experiments` — the paper's experiment matrix: Table-1
  configurations, replicated runners, emulated Internet experiments
  and the Section-7 parameter sweeps.
"""

__version__ = "1.0.0"

from repro.core import (
    CampaignResult,
    DmpStreamer,
    MultiSessionCampaign,
    SessionSummary,
    StaticStreamer,
    StreamClient,
    VideoPacket,
    VideoSource,
)
from repro.sim import Simulator
from repro.sim.topology import BottleneckSpec, PathConfig

__all__ = [
    "__version__",
    "Simulator",
    "BottleneckSpec",
    "PathConfig",
    "MultiSessionCampaign",
    "CampaignResult",
    "SessionSummary",
    "DmpStreamer",
    "StaticStreamer",
    "StreamClient",
    "VideoPacket",
    "VideoSource",
]
