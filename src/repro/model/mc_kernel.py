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

* :func:`stationary_late_fractions` — the stationary estimator, for a
  batch of solves at once.  The lockstep replicas are the batches of a
  batch-means estimate: each replica burns in from a warm start (flow
  states drawn from the per-chain stationary marginals, buffer full)
  and then measures an equal slice of the requested horizon, so the
  total measured model time sets the standard error while the work is
  done in wide vector steps.  Late packets are accounted as a
  conditional expectation (Rao-Blackwellised,
  :func:`expected_excess_array`).  The replicas of every solve in the
  batch are lanes of the same arrays; each solve keeps its own seeded
  stream and draw order, so its estimate is bit-identical to solving
  it alone (``DmpModel.late_fraction_mc`` is a batch of one).  The
  flow chains never read the buffer, so each 64-step block first
  steps the chains, then draws the block's Poisson consumptions in one
  call per solve, then steps the buffer through the block.
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

from typing import (TYPE_CHECKING, Dict, List, NamedTuple, Optional,
                    Sequence, Tuple)

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


def _compile(chains: Sequence["TcpFlowChain"]) -> CompiledModel:
    """:class:`CompiledModel` of ``chains``, under an ``mc.compile``
    span."""
    tel = telemetry.current()
    with tel.span("mc.compile", flows=len(chains)) as sp:
        compiled = CompiledModel(chains)
        if sp is not None:
            sp.attrs["states"] = int(compiled.offsets[-1])
    return compiled


def compiled_model(model: "DmpModel") -> CompiledModel:
    """The model's compiled tables, built once and cached on it."""
    cached = model._compiled
    if cached is None:
        cached = model._compiled = _compile(model.chains)
    return cached


# ---------------------------------------------------------------------
# Block RNG
# ---------------------------------------------------------------------
class BlockDraws:
    """Pre-drawn exponential/uniform blocks, one row per vector step,
    for the transient kernel.

    Drawing ``(steps, ..., R)`` blocks wholesale amortises the per-call
    RNG overhead across many lockstep steps.  The transient kernel
    draws no Poisson variates (its consumptions are explicit events).
    The stationary kernel draws its own blocks, the Poisson
    consumptions included, in :func:`_stationary_batch`.
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


class StationarySolve(NamedTuple):
    """One solve of a stationary batch: the model, the seed of its own
    random stream and its run lengths, as validated by
    :meth:`~repro.model.dmp_model.DmpModel.stationary_solve`."""

    model: "DmpModel"
    horizon_s: float
    seed: int
    burn_in_s: float
    batches: int


def _batch_tables(models: Sequence["DmpModel"]) \
        -> Tuple[CompiledModel, List[List[int]]]:
    """One compiled table for a batch of models, and per model the
    first global state id of each of its flows' chains.

    Every distinct chain object of the batch is compiled once (models
    built on the same chains share their rows); a batch of one uses
    the model's cached table.
    """
    if len(models) == 1:
        table = compiled_model(models[0])
        return table, [table.offsets[:-1].tolist()]
    index: Dict[int, int] = {}
    chains: List["TcpFlowChain"] = []
    for model in models:
        for chain in model.chains:
            if id(chain) not in index:
                index[id(chain)] = len(chains)
                chains.append(chain)
    table = _compile(chains)
    return table, [[int(table.offsets[index[id(chain)]])
                    for chain in model.chains] for model in models]


def stationary_late_fractions(
        solves: Sequence[StationarySolve]) -> List["LateFractionEstimate"]:
    """Vectorized stationary late-fraction estimates of a batch of
    solves of one flow count K, one estimate per solve, in order.

    Telemetry: one ``mc.run`` span (label ``"stationary"``) per call,
    carrying the solve, lane and drawn-RNG-block counts; the
    ``mc.blocks`` counter adds each solve's blocks.

    Semantics, per solve: the total *measured* model time is
    ``horizon_s - burn_in_s``, late packets are accounted
    Rao-Blackwellised, and the flows freeze while the buffer sits at
    ``nmax``.  The measured time is split over the solve's lockstep
    replicas (:func:`stationary_replica_count`); each replica is one
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

    Batching: the replicas of every solve are the lanes of one lockstep
    loop, with per-lane ``mu``, ``nmax`` and window bounds over the
    one table of :func:`_batch_tables`.  Each solve draws from its
    own ``default_rng(seed)`` in the order a batch of one draws (warm
    start, then per 64-step block its exponentials, its uniforms and
    the block's Poisson consumptions, one call each), polls its own
    termination every 8 steps and leaves the lanes at the next block
    top once it has ended, so its estimate does not depend on the rest
    of the batch.

    Blocks: a step's consumption rate ``lam = mu * dt`` depends only on
    the flow chains, which never read the buffer level.  So each block
    runs in three passes: (A) step the chains through the block,
    keeping each step's ``lam``, firing flow and delivered packets;
    (B) draw the block's Poisson consumptions, one ``(64, replicas)``
    call per solve, which numpy fills step by step, so they are the
    variates 64 per-step calls would draw; (C) step the buffer, the
    clock and the late and delivered counts through the block, polling
    termination every 8 steps, so a solve that ends inside a block is
    finalised as it stands at that poll.  Draws past a solve's end are
    discarded with its stream.
    """
    tel = telemetry.current()
    with tel.span("mc.run", label="stationary",
                  tasks=len(solves)) as sp:
        estimates, lanes, blocks = _stationary_batch(solves)
        if sp is not None:
            sp.attrs["replicas"] = lanes
            sp.attrs["blocks"] = blocks
        if tel.active:
            tel.metrics.counter("mc.blocks").inc(blocks)
        return estimates


def _stationary_batch(
        solves: Sequence[StationarySolve]
) -> Tuple[List["LateFractionEstimate"], int, int]:
    """The lockstep loop; returns (estimates, lanes, blocks)."""
    flow_counts = {len(solve.model.chains) for solve in solves}
    if len(flow_counts) != 1:
        raise ValueError("a stationary batch needs solves of one flow "
                         f"count, got {sorted(flow_counts)}")
    k = flow_counts.pop()
    table, bases = _batch_tables([solve.model for solve in solves])
    crate, cum, nxt, sval = table.rate, table.cum, table.nxt, table.sval
    cum0 = np.ascontiguousarray(cum[:, 0])

    # Per-solve constants and warm starts, each from the solve's own
    # stream.
    rngs: List[np.random.Generator] = []
    counts: List[int] = []
    sids: List[IntArray] = []
    mus: List[float] = []
    r_measured: List[float] = []
    r_burn: List[float] = []
    r_horizon: List[float] = []
    for solve, base in zip(solves, bases):
        model = solve.model
        replicas = stationary_replica_count(
            solve.horizon_s, solve.burn_in_s, model.tau, solve.batches)
        measured = (solve.horizon_s - solve.burn_in_s) / replicas
        burn = max(BURN_IN_TAUS * model.tau, BURN_IN_FRACTION * measured)
        rng = np.random.default_rng(solve.seed)
        sid = np.empty((replicas, k), dtype=np.int64)
        for i, chain in enumerate(model.chains):
            pi = chain.stationary_distribution()
            sid[:, i] = base[i] + rng.choice(len(pi), size=replicas,
                                             p=pi)
        rngs.append(rng)
        counts.append(replicas)
        sids.append(sid)
        mus.append(model.mu)
        r_measured.append(measured)
        r_burn.append(burn)
        r_horizon.append(burn + measured)
    count = np.array(counts)
    horizon = np.array(r_horizon)

    # Lane arrays: solve j owns a contiguous run of count[j] lanes.
    nmax = np.repeat([solve.model.nmax for solve in solves], count)
    n = nmax.copy()
    t = np.zeros(len(n))
    late = np.zeros(len(n))
    sid = np.concatenate(sids)
    rate = crate[sid]
    delivered = np.zeros((len(n), k), dtype=np.int64)
    inv_mu = np.repeat([1.0 / mu for mu in mus], count)
    lo = np.repeat(r_burn, count)
    hi = np.repeat(horizon, count)
    active = np.arange(len(solves))
    results: List[Optional["LateFractionEstimate"]] = [None] * len(solves)
    two = k == 2

    def poll(starts: IntArray) -> npt.NDArray[np.bool_]:
        """Which active solves have ended; each is finalised from its
        lanes' ``late`` and ``delivered`` at the first poll that sees
        it end."""
        done = np.minimum.reduceat(t, starts) >= horizon[active]
        for pos in np.flatnonzero(done):
            j = active[pos]
            if results[j] is None:
                lanes = slice(starts[pos], starts[pos] + count[j])
                results[j] = _estimate(
                    late[lanes], delivered[lanes],
                    mus[j] * r_measured[j], solves[j].horizon_s)
        return done

    BLOCK = 64
    POLL = 8
    blocks = 0
    relaid = True
    # Block buffers, one row per step, allocated once for every lane;
    # when lanes leave, the loop uses their leading columns.
    exp_all = np.empty((BLOCK, 2, len(n)))
    uni_all = np.empty((BLOCK, 2, len(n)))
    idx2_all, s_all, pois_all = (
        np.empty((BLOCK, len(n)), dtype=np.int64) for _ in range(3))
    t_seg_all = np.empty((POLL, len(n)))
    m_seg_all = np.empty((POLL, len(n)), dtype=np.int64)
    while True:
        # Termination is a per-solve reduction, so it is only polled
        # every POLL steps; replicas past their horizon keep stepping
        # but their segments fail the window test and contribute
        # nothing.  Finished solves' lanes leave at a block top, before
        # the next block is drawn.
        starts = np.cumsum(count[active]) - count[active]
        done = poll(starts)
        if done.any():
            keep = np.repeat(~done, count[active])
            active = active[~done]
            if not active.size:
                break
            n, nmax, t, late, inv_mu, lo, hi = (
                a[keep] for a in (n, nmax, t, late, inv_mu, lo, hi))
            sid, rate, delivered = sid[keep], rate[keep], delivered[keep]
            starts = np.cumsum(count[active]) - count[active]
            relaid = True
        if relaid:
            # The passes below are overhead-bound (many numpy calls on
            # short arrays), so every per-step ufunc writes into a
            # preallocated buffer or a row of a block; these views are
            # rebuilt only when the lanes change.
            relaid = False
            lanes_n = len(n)
            pre = np.empty(lanes_n, dtype=bool)
            bflow = np.empty(lanes_n, dtype=bool)
            seek = np.empty(lanes_n, dtype=bool)
            out = np.empty(lanes_n, dtype=np.int64)
            ftmp = np.empty(lanes_n)
            rows_k = np.arange(lanes_n) * k
            sid_flat = sid.reshape(-1)
            rate_flat = rate.reshape(-1)
            delivered_flat = delivered.reshape(-1)
            if two:
                r0, r1 = rate[:, 0], rate[:, 1]
                s0, s1 = sid[:, 0], sid[:, 1]
            exp_blk = exp_all[:, :, :lanes_n]
            uni_blk = uni_all[:, :, :lanes_n]
            lam_blk = exp_blk[:, 1]
            idx2_blk, s_blk, pois_blk = (
                a[:, :lanes_n] for a in (idx2_all, s_all, pois_all))
            t_seg = t_seg_all[:, :lanes_n]
            m_seg = m_seg_all[:, :lanes_n]
            segs = [(rngs[j], slice(start, start + count[j]), mus[j])
                    for j, start in zip(active, starts)]
        blocks += len(segs)
        for rng, lanes, mu in segs:
            width = lanes.stop - lanes.start
            exp_j = rng.standard_exponential((BLOCK, 2, width))
            exp_j[:, 0, :] *= 1.0 / mu  # pre-scaled consumption prefix
            exp_j[:, 1, :] *= mu        # numerator of lam = mu * dt
            exp_blk[:, :, lanes] = exp_j
            uni_blk[:, :, lanes] = rng.random((BLOCK, 2, width))

        # (A) The flow chains never read the buffer, so the block's
        # transitions run first.  Each step keeps its lam = mu * dt
        # (in place of its exponential), the flat index of the firing
        # flow and the packets it delivered.
        for i in range(BLOCK):
            if two:
                np.add(r0, r1, out=ftmp)
            else:
                rate.sum(axis=1, out=ftmp)
            lam = lam_blk[i]
            np.divide(lam, ftmp, out=lam)
            np.multiply(uni_blk[i, 0], ftmp, out=ftmp)  # u1 * total
            idx2 = idx2_blk[i]
            if two:
                np.less(r0, ftmp, out=bflow)    # True: flow 1 fires
                firing = np.where(bflow, s1, s0)
                np.add(rows_k, bflow, out=idx2, casting="unsafe")
            else:
                flow = np.minimum((np.cumsum(rate, axis=1)
                                   < ftmp[:, None]).sum(axis=1), k - 1)
                np.add(rows_k, flow, out=idx2)
                firing = sid_flat[idx2]
            # The outcome is the row-wise searchsorted of u2 in
            # cum[firing].  A row never drops below its first entry,
            # so a u2 under it picks outcome 0 (on TCP chains the
            # lossless round); only the other lanes search their row.
            u2 = uni_blk[i, 1]
            np.less_equal(cum0.take(firing), u2, out=seek)
            far = np.flatnonzero(seek)
            out.fill(0)
            out[far] = (cum[firing[far]] <= u2[far, None]).sum(axis=1)
            new_sid = nxt[firing, out]
            s_blk[i] = sval[firing, out]
            sid_flat[idx2] = new_sid
            rate_flat[idx2] = crate[new_sid]

        # (B) One Poisson call per solve: numpy fills the (BLOCK,
        # width) draw in C order, step by step, so these are the
        # variates one call per step would draw.
        for rng, lanes, _ in segs:
            pois_blk[:, lanes] = rng.poisson(lam_blk[:, lanes])

        # (C) The buffer, the clock and the late and delivered counts,
        # POLL steps at a time, so that each poll sees them as they
        # stand at its step.
        dt_blk = uni_blk[:, 0]     # the spent u1 rows
        np.multiply(lam_blk, inv_mu, out=dt_blk)
        dn_blk = pois_blk          # net buffer change s - poisson
        np.subtract(s_blk, pois_blk, out=dn_blk)
        for top in range(0, BLOCK, POLL):
            if top and poll(starts).all():
                break
            for r in range(POLL):
                i = top + r
                # Frozen prefix: a replica pinned at nmax takes its
                # single unfreezing consumption before this step's
                # flow segment.
                exp0 = exp_blk[i, 0]
                np.greater_equal(n, nmax, out=pre)
                np.multiply(exp0, pre, out=exp0)
                np.add(t, exp0, out=t_seg[r])   # the segment start
                np.subtract(n, pre, out=n, casting="unsafe")
                np.maximum(n, 0, out=m_seg[r])  # its deficit boundary
                np.add(t_seg[r], dt_blk[i], out=t)
                np.add(n, dn_blk[i], out=n)
                np.minimum(n, nmax, out=n)
                delivered_flat[idx2_blk[i]] += s_blk[i]

            # Aggregated (Rao-Blackwellised) consumption over each
            # segment of the POLL steps; only segments starting inside
            # the measurement window count, and segments whose Poisson
            # tail cannot reach the deficit boundary are skipped
            # (their expected excess is ~0).  The whole stretch sits
            # behind a scalar screen: lam + 8*sqrt(lam) + 20 <= 2*lam
            # + 36, so when even that bound at the largest lam stays
            # below the smallest deficit boundary, no segment can pass
            # the per-segment guard.  The screen spans every solve of
            # the batch but only skips work the guard would reject, so
            # a lane's late count does not depend on the other solves'
            # lanes.  ``ufunc.at`` adds in index order, which is step
            # order, so each lane's sum is the per-step one.
            lam = lam_blk[top:top + POLL]
            if 2.0 * lam.max() + 36.0 >= m_seg.min():
                need = ((t_seg >= lo) & (t_seg < hi)
                        & (lam + 8.0 * np.sqrt(lam) + 20.0 >= m_seg))
                _, lane = np.nonzero(need)
                if lane.size:
                    np.add.at(late, lane, expected_excess_array(
                        lam[need], m_seg[need]))

    estimates = [result for result in results if result is not None]
    return estimates, int(count.sum()), blocks


def _estimate(late: FloatArray, delivered: IntArray, late_scale: float,
              horizon_s: float) -> "LateFractionEstimate":
    """One solve's estimate from its replicas' Rao-Blackwellised late
    counts and per-flow delivered packets; ``late_scale`` is the
    packets one replica's window plays out (``mu * window``)."""
    from repro.model.dmp_model import LateFractionEstimate

    fractions = np.minimum(late / late_scale, 1.0)
    shares = delivered.sum(axis=0).astype(float)
    total_shares = shares.sum()
    return LateFractionEstimate(
        late_fraction=float(fractions.mean()),
        stderr=float(fractions.std(ddof=1) / np.sqrt(len(late))),
        horizon_s=horizon_s, method="mc",
        path_shares=tuple(shares / total_shares) if total_shares
        else tuple(0.0 for _ in shares))


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
    "StationarySolve",
    "stationary_late_fractions",
    "transient_late_fraction",
]
