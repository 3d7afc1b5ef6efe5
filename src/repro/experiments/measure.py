"""Loss correlation of two flows in a packet trace (Table 3)."""

from __future__ import annotations

from typing import List, Optional

from repro.sim.trace import FlowKey, PacketTrace


def loss_correlation(trace: PacketTrace, flow_a: FlowKey,
                     flow_b: FlowKey, window_s: float = 1.0,
                     horizon: Optional[float] = None) -> float:
    """Pearson correlation of the two flows' windowed loss indicators.

    Section 5.3 argues the model stays valid on a shared bottleneck
    because interleaved background traffic decorrelates the two video
    flows' loss processes.  This estimator quantifies that claim from
    a trace: time is cut into ``window_s`` windows, each flow gets a
    0/1 per-window "suffered a drop" indicator, and the correlation of
    the two series is returned (0 when either flow never loses).
    """
    if window_s <= 0:
        raise ValueError("window must be positive")
    drops_a = [rec.time for rec in trace
               if rec.event == "drop" and rec.flow_key() == flow_a]
    drops_b = [rec.time for rec in trace
               if rec.event == "drop" and rec.flow_key() == flow_b]
    if horizon is None:
        horizon = max([rec.time for rec in trace], default=0.0)
    if horizon <= 0:
        return 0.0
    n_windows = int(horizon / window_s) + 1

    def indicator(times: List[float]) -> List[int]:
        series = [0] * n_windows
        for t in times:
            series[int(t / window_s)] = 1
        return series

    series_a = indicator(drops_a)
    series_b = indicator(drops_b)
    mean_a = sum(series_a) / n_windows
    mean_b = sum(series_b) / n_windows
    var_a = sum((x - mean_a) ** 2 for x in series_a)
    var_b = sum((x - mean_b) ** 2 for x in series_b)
    if var_a == 0 or var_b == 0:
        return 0.0
    cov = sum((x - mean_a) * (y - mean_b)
              for x, y in zip(series_a, series_b))
    return cov / (var_a ** 0.5 * var_b ** 0.5)
