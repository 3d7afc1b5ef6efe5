"""DMP-streaming: the paper's contribution.

The public API here lets a user stream a live CBR video over K TCP
connections using either the paper's Dynamic MPath-streaming scheme
(:class:`DmpStreamer`, which with one connection is single-path
streaming) or the static-allocation baseline
(:class:`StaticStreamer`), and then evaluate the client-side
late-packet metrics for any startup delay.
"""

from repro.core.assembly import SessionAssembly
from repro.core.campaign import (
    CampaignResult,
    MultiSessionCampaign,
    SessionSummary,
)
from repro.core.client import StreamClient
from repro.core.metrics import (
    GlitchStats,
    PlaybackMetrics,
    arrival_order_late_fraction,
    glitch_statistics,
    late_fraction,
    playback_metrics,
)
from repro.core.packets import VideoPacket
from repro.core.server_queue import ServerQueue
from repro.core.source import VideoSource
from repro.core.streamers import DmpStreamer, StaticStreamer

__all__ = [
    "SessionAssembly",
    "MultiSessionCampaign",
    "CampaignResult",
    "SessionSummary",
    "VideoPacket",
    "ServerQueue",
    "VideoSource",
    "StreamClient",
    "DmpStreamer",
    "StaticStreamer",
    "PlaybackMetrics",
    "GlitchStats",
    "glitch_statistics",
    "late_fraction",
    "arrival_order_late_fraction",
    "playback_metrics",
]
