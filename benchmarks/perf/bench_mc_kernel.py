"""MC-kernel microbenchmark: stationary solves over the Fig 8 grid.

Each grid point solves one stationary late-fraction problem at a fixed
horizon and records the wall-clock time, the estimate and its standard
error, so "seconds to a given precision" is readable per point.  The
headline number is the total seconds across the point set.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List

from repro.experiments.sweep import rtt_for_ratio
from repro.model.dmp_model import DmpModel
from repro.model.tcp_chain import FlowParams

P = 0.02
TO_RATIO = 4.0
MU = 25.0
SEED = 8

MODES = {
    "quick": {
        "ratios": (1.2, 1.6),
        "taus": (4.0, 10.0),
        "horizon_s": 4000.0,
    },
    "full": {
        "ratios": (1.2, 1.4, 1.6, 1.8, 2.0),
        "taus": (4.0, 10.0, 20.0),
        "horizon_s": 20000.0,
    },
}


def run(mode: str) -> Dict[str, Any]:
    spec = MODES[mode]
    horizon_s = spec["horizon_s"]
    points: List[Dict[str, Any]] = []
    total = 0.0
    for ratio in spec["ratios"]:
        rtt = rtt_for_ratio(P, TO_RATIO, MU, ratio)
        params = FlowParams(p=P, rtt=rtt, to_ratio=TO_RATIO)
        for tau in spec["taus"]:
            model = DmpModel([params, params], mu=MU, tau=tau)
            started = time.perf_counter()
            est = model.late_fraction_mc(horizon_s=horizon_s, seed=SEED)
            elapsed = time.perf_counter() - started
            total += elapsed
            points.append({"ratio": ratio, "tau": tau, "vectorized": {
                "seconds": elapsed,
                "late_fraction": est.late_fraction,
                "stderr": est.stderr,
            }})
    return {
        "config": {"p": P, "to_ratio": TO_RATIO, "mu": MU,
                   "seed": SEED, "horizon_s": horizon_s,
                   "ratios": list(spec["ratios"]),
                   "taus": list(spec["taus"])},
        "points": points,
        "total_seconds": {"vectorized": total},
    }
