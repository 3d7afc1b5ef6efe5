"""Event-by-event reference for the transient Monte-Carlo kernel.

No exact solver models the time-varying live cap of the startup ramp
(``N(t) <= G(t) - B(t)`` while the buffer first fills), so the plain
one-event-at-a-time loop below stays as the reference that
``repro.model.mc_kernel.transient_late_fraction`` is checked against on
a short video.  It is test-only: nothing in ``repro`` can select it.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np
import numpy.typing as npt

from repro.model.dmp_model import DmpModel, LateFractionEstimate
from repro.model.mc_kernel import PROB_TOLERANCE

FloatArray = npt.NDArray[np.float64]
IntArray = npt.NDArray[np.int64]

#: One state's flattened outcome row: cumulative probabilities,
#: next-state ids, delivered packet counts.
OutcomeTable = Tuple[FloatArray, IntArray, IntArray]

#: One chain's table: per-state rates plus per-state outcome rows.
ChainTable = Tuple[FloatArray, List[OutcomeTable]]


def compile_tables(model: DmpModel) -> List[ChainTable]:
    """Flatten chain outcome lists into numpy arrays for sampling.

    Outcome probabilities are validated (they must sum to 1 within
    :data:`repro.model.mc_kernel.PROB_TOLERANCE`) and normalised at
    build time, so the cumulative rows end at exactly 1.0 and
    ``searchsorted`` over them can never select past the last
    outcome for a uniform draw in ``[0, 1)``.
    """
    tables: List[ChainTable] = []
    for chain in model.chains:
        per_state: List[OutcomeTable] = []
        for sid, outs in enumerate(chain.outcomes):
            probs = np.array([prob for prob, _, _ in outs])
            total = float(probs.sum())
            if abs(total - 1.0) > PROB_TOLERANCE:
                raise AssertionError(
                    f"outcome probabilities sum to {total} in "
                    f"state {chain.states[sid]}")
            cum = np.cumsum(probs / total)
            cum[-1] = 1.0
            nxt = np.array([nid for _, nid, _ in outs],
                           dtype=np.int64)
            svals = np.array([s for _, _, s in outs],
                             dtype=np.int64)
            per_state.append((cum, nxt, svals))
        rates = np.array(chain.rates)
        tables.append((rates, per_state))
    return tables


def transient_late_fraction(model: DmpModel, video_s: float,
                            replications: int = 20,
                            seed: int = 0) -> LateFractionEstimate:
    """Late fraction of a finite video, one event at a time.

    Same semantics as :meth:`DmpModel.late_fraction_transient`:
    generation over ``[0, video_s]``, playback over ``[tau, tau +
    video_s]``, an empty buffer and slow-starting flows at t = 0, and
    the live cap evolving through the startup ramp and the
    end-of-video drain.
    """
    rng = np.random.default_rng(seed)
    tables = compile_tables(model)
    k = len(model.chains)
    mu = model.mu
    tau = model.tau
    horizon = tau + video_s
    total_packets = mu * video_s

    fractions = np.empty(replications)
    for rep in range(replications):
        state = [chain.index.get(
            ("CA", min(2, chain.params.wmax), 0), 0)
            for chain in model.chains]
        rates = [tables[i][0][state[i]] for i in range(k)]
        n = 0.0
        t = 0.0
        late = 0.0
        while t < horizon:
            # Live cap: generated minus played back, at time t.
            cap = mu * (min(t, video_s) - max(0.0, t - tau))
            consuming = tau <= t and t < horizon
            flow_rate = sum(rates) if n < cap else 0.0
            total_rate = flow_rate + (mu if consuming else 0.0)
            if total_rate <= 0.0:
                # Frozen before playback starts: jump to the next
                # cap increase (it grows continuously, so step by
                # one packet time).
                t += 1.0 / mu
                continue
            t += rng.exponential(1.0 / total_rate)
            if t >= horizon:
                break
            if rng.random() * total_rate < flow_rate:
                # A flow fires.
                target = rng.random() * flow_rate
                flow = 0
                acc = rates[0]
                while acc < target and flow < k - 1:
                    flow += 1
                    acc += rates[flow]
                cum, nxt, svals = tables[flow][1][state[flow]]
                out = int(np.searchsorted(cum, rng.random(),
                                          side="right"))
                state[flow] = int(nxt[out])
                rates[flow] = tables[flow][0][state[flow]]
                n = min(n + float(svals[out]), cap)
            else:
                # A consumption fires.
                if n <= 0.0:
                    late += 1.0
                n -= 1.0
        fractions[rep] = late / total_packets

    mean = float(fractions.mean())
    stderr = float(fractions.std(ddof=1)
                   / math.sqrt(replications)) \
        if replications > 1 else float("nan")
    return LateFractionEstimate(
        late_fraction=mean, stderr=stderr, horizon_s=video_s,
        method="transient-mc")
