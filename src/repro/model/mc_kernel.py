"""Vectorized Monte-Carlo kernels for the coupled DMP CTMC.

The kernels run ``R`` independent replicas of the same chain *in
lockstep*: the per-flow outcome lists are flattened once into padded
2D numpy arrays (cumulative-probability rows, next-state ids,
delivered-packet counts), randomness is drawn in blocks, and every
vector step advances all replicas by one event — the firing flow and
its outcome are found with array comparisons (the row-wise equivalent
of ``searchsorted``) instead of per-event Python loops.

Two kernels are provided, one per Monte-Carlo solver of
:class:`~repro.model.dmp_model.DmpModel`:

* :func:`stationary_late_fraction` — the stationary estimator.  The
  lockstep replicas are the batches of a batch-means estimate: each
  replica burns in from a warm start (flow states drawn from the
  per-chain stationary marginals, buffer full) and then measures an
  equal slice of the requested horizon, so the total measured model
  time sets the standard error while the work is done in wide vector
  steps.  Late packets are accounted as a conditional expectation
  (Rao-Blackwellised, :func:`expected_excess_array`).
* :func:`transient_late_fraction` — the finite-video estimator, with
  the replications as the vector axis and explicit event semantics
  (time-varying live cap, explicit consumption events).

Both are pinned against exact solvers in the tests: the stationary
late fraction and path shares against
:meth:`~repro.model.dmp_model.DmpModel.late_fraction_exact` and the
chains' own throughputs, the transient estimate against the exact
stationary answer in the long-video limit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np
import numpy.typing as npt
from scipy.special import gammainc

from repro import telemetry

if TYPE_CHECKING:
    from repro.model.dmp_model import DmpModel, LateFractionEstimate
    from repro.model.tcp_chain import TcpFlowChain

FloatArray = npt.NDArray[np.float64]
IntArray = npt.NDArray[np.int64]

#: Outcome probabilities must sum to one within this tolerance at
#: table-build time (they are then normalised exactly).
PROB_TOLERANCE = 1e-9

#: Cap on the number of lockstep replicas of the stationary kernel.
MAX_REPLICAS = 512

#: Per-replica measurement window: at least this many buffer-drain
#: times (tau) and at least this many model seconds.  Every replica
#: starts with a full buffer, so a window much shorter than the
#: buffer-excursion timescale (which grows with ``tau``) truncates the
#: deep-deficit tail and biases the late fraction low; 20 drain times
#: keeps the estimate within the across-replica standard error of long
#: single-chain reference runs over the Fig 8 grid.
WINDOW_TAUS = 20.0
WINDOW_MIN_S = 150.0

#: Per-replica burn-in on top of the warm start: this many buffer-drain
#: times, and at least this fraction of the measurement window.
BURN_IN_TAUS = 2.0
BURN_IN_FRACTION = 0.4

# ---------------------------------------------------------------------
# Rao-Blackwellised late accounting, array form
# ---------------------------------------------------------------------
def expected_excess_array(lam: npt.ArrayLike,
                          m: npt.ArrayLike) -> FloatArray:
    """E[(X - m)^+] for X ~ Poisson(lam), elementwise over arrays.

    Uses ``P(X >= n) = gammainc(n, lam)`` (regularised lower incomplete
    gamma), giving ``E[(X-m)^+] = lam*P(X>=m) - m*P(X>=m+1)``.  Lanes
    with ``lam <= 0`` contribute zero.
    """
    lam_b, m_b = np.broadcast_arrays(np.asarray(lam, dtype=float),
                                     np.asarray(m))
    out: FloatArray = np.zeros(lam_b.shape)
    pos = lam_b > 0.0
    zero_m = pos & (m_b == 0)
    out[zero_m] = lam_b[zero_m]
    rest = pos & (m_b > 0)
    if rest.any():
        lr = lam_b[rest]
        mr = m_b[rest].astype(float)
        out[rest] = lr * gammainc(mr, lr) - mr * gammainc(mr + 1.0, lr)
    return out


# ---------------------------------------------------------------------
# Compiled outcome tables
# ---------------------------------------------------------------------
class CompiledModel:
    """The chains' ragged outcome lists, flattened into padded arrays.

    States of all chains share one global id space (chain ``i`` owns ids
    ``offsets[i] .. offsets[i+1]-1``).  For each global state id:

    * ``rate[g]`` — total transition rate out of the state;
    * ``cum[g]`` — cumulative outcome probabilities, normalised to end
      at exactly 1.0 and right-padded with 1.0, so for ``u`` uniform on
      ``[0, 1)`` the fired outcome is the row-wise
      ``searchsorted(cum[g], u, side="right")`` and padding can never be
      selected;
    * ``nxt[g]`` / ``sval[g]`` — global next-state ids and delivered
      packet counts, padded by repeating the last real outcome.

    Outcome probabilities are validated here: a row whose probabilities
    do not sum to 1 within :data:`PROB_TOLERANCE` is a build error in
    the chain, not something to paper over at sampling time.
    """

    def __init__(self, chains: Sequence["TcpFlowChain"]) -> None:
        self.k = len(chains)
        offsets = [0]
        for chain in chains:
            offsets.append(offsets[-1] + len(chain))
        self.offsets = np.array(offsets, dtype=np.int64)
        total = offsets[-1]
        width = max(len(outs) for chain in chains
                    for outs in chain.outcomes)
        self.width = width
        self.rate = np.empty(total)
        self.cum = np.ones((total, width))
        self.nxt = np.zeros((total, width), dtype=np.int64)
        self.sval = np.zeros((total, width), dtype=np.int64)
        for i, chain in enumerate(chains):
            base = offsets[i]
            for sid, outs in enumerate(chain.outcomes):
                row = base + sid
                self.rate[row] = chain.rates[sid]
                probs = np.array([prob for prob, _, _ in outs])
                total_p = float(probs.sum())
                if abs(total_p - 1.0) > PROB_TOLERANCE:
                    raise AssertionError(
                        f"outcome probabilities sum to {total_p} in "
                        f"state {chain.states[sid]} of chain {i}")
                cum = np.cumsum(probs / total_p)
                cum[-1] = 1.0
                w = len(outs)
                self.cum[row, :w] = cum
                self.nxt[row, :w] = [base + nid for _, nid, _ in outs]
                self.nxt[row, w:] = self.nxt[row, w - 1]
                self.sval[row, :w] = [s for _, _, s in outs]

    def chain_state_ids(self, chain_idx: int,
                        local_ids: IntArray) -> IntArray:
        """Translate chain-local state ids to global ids."""
        return self.offsets[chain_idx] + local_ids

    def sample_outcomes(self, firing: IntArray,
                        u: FloatArray) -> Tuple[IntArray, IntArray]:
        """Row-wise outcome sampling: ``searchsorted`` over cum rows.

        ``firing`` holds global state ids, ``u`` uniforms in [0, 1).
        Returns ``(next_ids, delivered)``.
        """
        rows = self.cum[firing]
        out = (rows <= u[:, None]).sum(axis=1)
        return self.nxt[firing, out], self.sval[firing, out]


def compiled_model(model: "DmpModel") -> CompiledModel:
    """The model's compiled tables, built once and cached on it."""
    cached = model._compiled
    if cached is None:
        tel = telemetry.current()
        with tel.span("mc.compile", flows=len(model.chains)) as sp:
            cached = CompiledModel(model.chains)
            if sp is not None:
                sp.attrs["states"] = int(cached.offsets[-1])
        model._compiled = cached
    return cached


# ---------------------------------------------------------------------
# Block RNG
# ---------------------------------------------------------------------
class BlockDraws:
    """Pre-drawn exponential/uniform blocks, one row per vector step.

    Drawing ``(steps, ..., R)`` blocks wholesale amortises the per-call
    RNG overhead across many lockstep steps; Poisson variates cannot be
    pre-drawn (their rate depends on the step's holding times) and are
    drawn per step, still as one vectorized call.
    """

    def __init__(self, rng: np.random.Generator, row: int,
                 n_exp: int = 1, n_uni: int = 3,
                 steps: int = 64) -> None:
        self.rng = rng
        self.row = row
        self.n_exp = n_exp
        self.n_uni = n_uni
        self.steps = steps
        self.refills = 0
        self._cursor = steps
        self._exp: Optional[FloatArray] = None
        self._uni: Optional[FloatArray] = None

    def next_step(self) -> Tuple[FloatArray, ...]:
        """One step's draws: ``n_exp`` exponential rows followed by
        ``n_uni`` uniform rows, as a tuple of 1D arrays."""
        if self._cursor >= self.steps:
            self.refills += 1
            self._exp = self.rng.standard_exponential(
                (self.steps, self.n_exp, self.row))
            self._uni = self.rng.random(
                (self.steps, self.n_uni, self.row))
            self._cursor = 0
        exp_blk, uni_blk = self._exp, self._uni
        assert exp_blk is not None and uni_blk is not None
        i = self._cursor
        self._cursor += 1
        return (*exp_blk[i], *uni_blk[i])


# ---------------------------------------------------------------------
# Stationary kernel
# ---------------------------------------------------------------------
def stationary_replica_count(horizon_s: float, burn_in_s: float,
                             tau: float, batches: int) -> int:
    """How many lockstep replicas to run for a stationary estimate.

    Wide vectors amortise the per-step numpy overhead, but every
    replica pays its own burn-in and a short window inflates the
    warm-start bias, so the count is capped so that each replica still
    measures at least ``max(WINDOW_TAUS * tau, WINDOW_MIN_S)`` model
    seconds — and the count never drops below the requested batch
    count (nor below two, the fewest an across-replica standard error
    can rest on), so the standard error never rests on fewer
    independent samples.
    """
    measured = horizon_s - burn_in_s
    window = max(WINDOW_TAUS * tau, WINDOW_MIN_S)
    by_time = int(measured / window)
    replicas = max(batches, min(MAX_REPLICAS, by_time))
    # Round down to a multiple of the batch count (keeps any grouped
    # post-processing exact) without dropping below it.
    return max(2, batches, (replicas // batches) * batches)


def stationary_late_fraction(
        model: "DmpModel", horizon_s: float, seed: int,
        burn_in_s: float, batches: int,
        replicas: Optional[int] = None) -> "LateFractionEstimate":
    """Vectorized stationary late-fraction estimate.

    Telemetry: one ``mc.run`` span (label ``"stationary"``) carrying
    the replica and drawn-RNG-block counts; the ``mc.blocks`` counter
    accumulates blocks across solves.

    Semantics: the total *measured* model time is ``horizon_s -
    burn_in_s``, late packets are accounted Rao-Blackwellised, and the
    flows freeze while the buffer sits at ``nmax``.  The measured time
    is split over ``replicas`` lockstep replicas; each replica is one
    (independent) batch, so the standard error is the across-replica
    standard error of the mean.

    Burn-in is per replica: flow states start from the per-chain
    stationary marginals (a warm start a cold start would have to
    earn by burning in for much longer), the buffer starts full, and
    each replica then discards ``max(BURN_IN_TAUS * tau,
    BURN_IN_FRACTION * window)`` model seconds before measuring.

    Every vector step ends with exactly one flow transition per
    replica: a replica whose buffer sits frozen at ``nmax`` first takes
    its single unfreezing consumption (``Exp(1/mu)``) as a *prefix* of
    the same step — distributionally identical to a separate frozen
    iteration, but without spending a whole vector step on one
    consumption event.
    """
    tel = telemetry.current()
    with tel.span("mc.run", label="stationary", seed=seed,
                  horizon_s=horizon_s) as sp:
        estimate, used, blocks = _stationary_impl(
            model, horizon_s, seed, burn_in_s, batches, replicas)
        if sp is not None:
            sp.attrs["replicas"] = used
            sp.attrs["blocks"] = blocks
        if tel.active:
            tel.metrics.counter("mc.blocks").inc(blocks)
        return estimate


def _stationary_impl(
        model: "DmpModel", horizon_s: float, seed: int,
        burn_in_s: float, batches: int, replicas: Optional[int]
) -> Tuple["LateFractionEstimate", int, int]:
    """The stationary loop; returns (estimate, replicas, blocks)."""
    from repro.model.dmp_model import LateFractionEstimate

    compiled = compiled_model(model)
    mu, nmax, tau, k = model.mu, model.nmax, model.tau, compiled.k
    measured_total = horizon_s - burn_in_s
    if replicas is None:
        replicas = stationary_replica_count(horizon_s, burn_in_s, tau,
                                            batches)
    if replicas < 2:
        raise ValueError("need at least two replicas")
    r_measured = measured_total / replicas
    r_burn = max(BURN_IN_TAUS * tau, BURN_IN_FRACTION * r_measured)
    r_horizon = r_burn + r_measured

    R = replicas
    rng = np.random.default_rng(seed)
    sid = np.empty((R, k), dtype=np.int64)
    for i, chain in enumerate(model.chains):
        pi = chain.stationary_distribution()
        sid[:, i] = compiled.offsets[i] + rng.choice(
            len(pi), size=R, p=pi)
    rate = compiled.rate[sid]
    sid_flat = sid.reshape(-1)
    rate_flat = rate.reshape(-1)
    crate = compiled.rate
    cum, nxt, sval = compiled.cum, compiled.nxt, compiled.sval

    n = np.full(R, nmax, dtype=np.int64)
    t = np.zeros(R)
    late = np.zeros(R)
    shares = np.zeros(k)
    # The loop below is overhead-bound (many numpy calls on short
    # arrays), so every per-step ufunc writes into a preallocated
    # buffer or consumes its own RNG block row in place.
    pre = np.empty(R, dtype=bool)
    bflow = np.empty(R, dtype=bool)
    ftmp = np.empty(R)
    idx2 = np.empty(R, dtype=np.int64)
    rows_k = np.arange(R) * k
    inv_mu = 1.0 / mu
    two = k == 2
    if two:
        r0, r1 = rate[:, 0], rate[:, 1]
        s0, s1 = sid[:, 0], sid[:, 1]

    BLOCK = 64
    cursor = BLOCK
    blocks = 0
    until_check = 1
    if two:
        # Path shares are a per-run diagnostic; accumulate the per-step
        # delivered counts into block buffers and reduce once per block
        # instead of three reductions per step.
        s_blk = np.zeros((BLOCK, R), dtype=np.int64)
        f_blk = np.zeros((BLOCK, R), dtype=bool)

        def flush_shares(upto: int) -> None:
            stot = float(s_blk[:upto].sum())
            sflow1 = float((s_blk[:upto] * f_blk[:upto]).sum())
            shares[0] += stot - sflow1
            shares[1] += sflow1

    while True:
        # Termination is a scalar reduction, so it is only polled every
        # few steps; replicas past their horizon keep stepping but
        # their segments fail the window test and contribute nothing.
        until_check -= 1
        if until_check <= 0:
            if t.min() >= r_horizon:
                break
            until_check = 8
        if cursor >= BLOCK:
            if two:
                flush_shares(BLOCK)
            blocks += 1
            exp_blk = rng.standard_exponential((BLOCK, 2, R))
            exp_blk[:, 0, :] *= inv_mu  # pre-scaled consumption prefix
            exp_blk[:, 1, :] *= mu      # numerator of lam = mu * dt
            uni_blk = rng.random((BLOCK, 2, R))
            cursor = 0
        exp0 = exp_blk[cursor, 0]
        lam = exp_blk[cursor, 1]
        u1 = uni_blk[cursor, 0]
        u2 = uni_blk[cursor, 1]
        cursor += 1

        # Frozen prefix: a replica pinned at nmax takes its single
        # unfreezing consumption before this step's flow segment.
        np.greater_equal(n, nmax, out=pre)
        np.multiply(exp0, pre, out=exp0)
        np.add(t, exp0, out=t)      # t is now the segment start
        np.subtract(n, pre, out=n, casting="unsafe")

        # Flow segment: every replica now has n < nmax.
        if two:
            np.add(r0, r1, out=ftmp)
        else:
            rate.sum(axis=1, out=ftmp)
        np.divide(lam, ftmp, out=lam)   # lam = mu * dt

        # Aggregated (Rao-Blackwellised) consumption over the segment;
        # only segments starting inside the measurement window count,
        # and segments whose Poisson tail cannot reach the deficit
        # boundary are skipped (their expected excess is ~0).  The
        # whole block sits behind a scalar screen: lam + 8*sqrt(lam)
        # + 20 <= 2*lam + 36, so when even that bound at the largest
        # lam stays below the smallest deficit boundary, no lane can
        # pass the per-lane guard.
        if 2.0 * lam.max() + 36.0 >= max(n.min(), 0):
            m = np.maximum(n, 0)
            need = ((t >= r_burn) & (t < r_horizon)
                    & (lam + 8.0 * np.sqrt(lam) + 20.0 >= m))
            idx = np.flatnonzero(need)
            if idx.size:
                late[idx] += expected_excess_array(lam[idx], m[idx])
        np.subtract(n, rng.poisson(lam), out=n)
        np.multiply(lam, inv_mu, out=exp0)  # dt, reusing the spent row
        np.add(t, exp0, out=t)

        # Which flow fires, and which outcome?
        np.multiply(u1, ftmp, out=ftmp)     # target = u1 * total
        if two:
            np.less(r0, ftmp, out=bflow)    # True: flow 1 fires
            firing = np.where(bflow, s1, s0)
            np.add(rows_k, bflow, out=idx2, casting="unsafe")
        else:
            flow = np.minimum((np.cumsum(rate, axis=1)
                               < ftmp[:, None]).sum(axis=1), k - 1)
            np.add(rows_k, flow, out=idx2)
            firing = sid_flat[idx2]
        crows = cum[firing]
        out = (crows <= u2[:, None]).sum(axis=1)
        new_sid = nxt[firing, out]
        s = sval[firing, out]
        sid_flat[idx2] = new_sid
        rate_flat[idx2] = crate[new_sid]
        np.add(n, s, out=n)
        np.minimum(n, nmax, out=n)
        if two:
            s_blk[cursor - 1] = s
            f_blk[cursor - 1] = bflow
        else:
            shares += np.bincount(flow, weights=s, minlength=k)

    if two:
        flush_shares(cursor)
    fractions = np.minimum(late / (mu * r_measured), 1.0)
    mean = float(fractions.mean())
    stderr = float(fractions.std(ddof=1) / np.sqrt(replicas))
    total_shares = shares.sum()
    share_tuple = tuple(shares / total_shares) if total_shares \
        else tuple(0.0 for _ in range(k))
    return LateFractionEstimate(
        late_fraction=mean, stderr=stderr, horizon_s=horizon_s,
        method="mc", path_shares=share_tuple), replicas, blocks


# ---------------------------------------------------------------------
# Transient kernel
# ---------------------------------------------------------------------
def transient_late_fraction(
        model: "DmpModel", video_s: float, replications: int,
        seed: int) -> "LateFractionEstimate":
    """Vectorized finite-video late fraction.

    The replications are the vector axis, with event-by-event
    semantics: the live cap ``mu*(min(t, video) - max(0,
    t - tau))`` is evaluated at the segment start, consumption events
    are explicit (rate ``mu`` while ``tau <= t < horizon``), and a
    replica frozen before playback steps deterministically by one
    packet time.

    Telemetry: one ``mc.run`` span (label ``"transient"``) plus the
    ``mc.blocks`` drawn-block counter, as in the stationary kernel.
    """
    tel = telemetry.current()
    with tel.span("mc.run", label="transient", seed=seed,
                  video_s=video_s, replicas=replications) as sp:
        estimate, blocks = _transient_impl(model, video_s,
                                           replications, seed)
        if sp is not None:
            sp.attrs["blocks"] = blocks
        if tel.active:
            tel.metrics.counter("mc.blocks").inc(blocks)
        return estimate


def _transient_impl(
        model: "DmpModel", video_s: float, replications: int,
        seed: int) -> Tuple["LateFractionEstimate", int]:
    """The transient loop; returns (estimate, blocks)."""
    from repro.model.dmp_model import LateFractionEstimate

    compiled = compiled_model(model)
    mu, tau, k = model.mu, model.tau, compiled.k
    horizon = tau + video_s
    total_packets = mu * video_s
    R = replications

    rng = np.random.default_rng(seed)
    init = np.array([
        compiled.offsets[i] + chain.index.get(
            ("CA", min(2, chain.params.wmax), 0), 0)
        for i, chain in enumerate(model.chains)], dtype=np.int64)
    sid = np.tile(init, (R, 1))
    rate = compiled.rate[sid]
    n = np.zeros(R)
    t = np.zeros(R)
    late = np.zeros(R)
    rows = np.arange(R)
    draws = BlockDraws(rng, R, n_exp=1, n_uni=3)

    while True:
        alive = t < horizon
        if not alive.any():
            break
        exp_row, u_type, u_flow, u_out = draws.next_step()
        cap = mu * (np.minimum(t, video_s) - np.maximum(0.0, t - tau))
        consuming = t >= tau
        flow_rate = np.where(n < cap, rate.sum(axis=1), 0.0)
        total = flow_rate + np.where(consuming, mu, 0.0)
        movable = alive & (total > 0.0)
        # Frozen before playback: step to the next cap increase.
        dt = np.where(movable,
                      exp_row / np.where(total > 0.0, total, 1.0),
                      1.0 / mu)
        t_new = np.where(alive, t + dt, t)
        # The event fires only if it lands inside the horizon.
        fired = movable & (t_new < horizon)
        is_flow = fired & (u_type * total < flow_rate)
        is_cons = fired & ~is_flow

        if is_flow.any():
            target = u_flow * flow_rate
            flow = np.minimum((np.cumsum(rate, axis=1)
                               < target[:, None]).sum(axis=1), k - 1)
            firing = sid[rows, flow]
            new_sid, s = compiled.sample_outcomes(firing, u_out)
            upd = np.flatnonzero(is_flow)
            sid[upd, flow[upd]] = new_sid[upd]
            rate[upd, flow[upd]] = compiled.rate[new_sid[upd]]
            n = np.where(is_flow, np.minimum(n + s, cap), n)
        late += is_cons & (n <= 0.0)
        n = np.where(is_cons, n - 1.0, n)
        t = t_new

    fractions = late / total_packets
    mean = float(fractions.mean())
    stderr = float(fractions.std(ddof=1) / np.sqrt(R)) \
        if R > 1 else float("nan")
    return LateFractionEstimate(
        late_fraction=mean, stderr=stderr, horizon_s=video_s,
        method="transient-mc"), draws.refills


__all__: List[str] = [
    "expected_excess_array",
    "CompiledModel",
    "compiled_model",
    "BlockDraws",
    "stationary_replica_count",
    "stationary_late_fraction",
    "transient_late_fraction",
]
