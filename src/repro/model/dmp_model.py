"""The coupled DMP-streaming CTMC ``(X_1 .. X_K, N)`` and its solvers.

``N`` is the early-packet count at the client.  Section 2.1 bounds it by
``Nmax = mu * tau``; a flow makes no transition while ``N == Nmax``
(Section 4.2).  A flow transition adds its delivered packets ``S``
(capped at ``Nmax``); consumption events at rate ``mu`` subtract one.
``N`` may go negative: a negative value is the playback deficit, and a
consumption that happens while ``N <= 0`` is a late packet (eq. (1)).

Two solvers are provided:

* :meth:`DmpModel.late_fraction_exact` builds the joint sparse
  generator (with a truncated floor on ``N``) and solves it directly —
  our stand-in for the paper's TANGRAM-II run.  Feasible for small
  windows/startup delays; the tests pin the Monte-Carlo solver to it.
* :meth:`DmpModel.late_fraction_mc` simulates the CTMC on the
  vectorized kernel of :mod:`repro.model.mc_kernel`.  Consumption
  between flow events is a Poisson process, so each inter-flow-event
  segment is aggregated in O(1), and the late count is accumulated as a
  conditional expectation (Rao-Blackwellisation) — this is what makes
  the paper's 1e-4 satisfaction threshold measurable in seconds.

:meth:`DmpModel.late_fraction_transient` answers the finite-video
question on the same kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from scipy.sparse import csc_matrix

from repro.model import mc_kernel as _kernel
from repro.model.tcp_chain import (
    FlowParams,
    TcpFlowChain,
    solve_stationary,
)

FlowLike = Union[FlowParams, TcpFlowChain]


@dataclass(frozen=True)
class LateFractionEstimate:
    """Monte-Carlo estimate of the stationary fraction of late packets."""

    late_fraction: float
    stderr: float
    horizon_s: float
    method: str
    path_shares: Tuple[float, ...] = ()

    @property
    def relative_error(self) -> float:
        if self.late_fraction <= 0:
            return float("inf")
        return self.stderr / self.late_fraction


def check_model_inputs(flows: Sequence[object], mu: float,
                       tau: float) -> None:
    """Reject a model without flows or with a non-positive ``mu`` or
    ``tau``."""
    if not flows:
        raise ValueError("need at least one flow")
    if mu <= 0:
        raise ValueError("mu must be positive")
    if tau <= 0:
        raise ValueError("tau must be positive")


class DmpModel:
    """Analytical model of DMP-streaming over K paths."""

    def __init__(self, flows: Sequence[FlowLike], mu: float,
                 tau: float) -> None:
        check_model_inputs(flows, mu, tau)
        self.chains: List[TcpFlowChain] = [
            flow if isinstance(flow, TcpFlowChain) else TcpFlowChain(flow)
            for flow in flows]
        self.mu = float(mu)
        self.tau = float(tau)
        self.nmax = max(1, int(round(mu * tau)))
        #: Padded outcome tables for the vectorized kernels, built on
        #: first use by :func:`repro.model.mc_kernel.compiled_model`.
        self._compiled: Optional[_kernel.CompiledModel] = None

    # ------------------------------------------------------------------
    def with_tau(self, tau: float) -> "DmpModel":
        """Same flows and rate, different startup delay (chains reused)."""
        clone = DmpModel(self.chains, self.mu, tau)
        if self._compiled is not None:
            # The compiled outcome tables depend only on the chains.
            clone._compiled = self._compiled
        return clone

    def aggregate_throughput(self) -> float:
        """sigma_a: sum of the per-path achievable TCP throughputs."""
        return sum(chain.achievable_throughput()
                   for chain in self.chains)

    @property
    def throughput_ratio(self) -> float:
        """sigma_a / mu, the paper's key satisfaction parameter."""
        return self.aggregate_throughput() / self.mu

    # ------------------------------------------------------------------
    # Monte-Carlo solvers
    # ------------------------------------------------------------------
    def late_fraction_mc(self, horizon_s: float = 20000.0,
                         seed: int = 0,
                         burn_in_s: Optional[float] = None,
                         batches: int = 20) -> LateFractionEstimate:
        """Estimate the stationary late fraction by simulating the CTMC.

        ``horizon_s`` is model time; the first ``burn_in_s`` (default:
        10% of the horizon, at least 20 buffer-drain times) is
        discarded.  The measured rest is split over at least
        ``batches`` lockstep replicas (see
        :func:`repro.model.mc_kernel.stationary_late_fractions`, of
        which this is a batch of one) and the standard error comes from
        their batch means.
        """
        return _kernel.stationary_late_fractions([self.stationary_solve(
            horizon_s, seed, burn_in_s=burn_in_s, batches=batches)])[0]

    def stationary_solve(self, horizon_s: float, seed: int,
                         burn_in_s: Optional[float] = None,
                         batches: int = 20) -> _kernel.StationarySolve:
        """The validated kernel input of :meth:`late_fraction_mc`, for
        solving many models in one
        :func:`~repro.model.mc_kernel.stationary_late_fractions` call."""
        if horizon_s <= 0:
            raise ValueError("horizon must be positive")
        if burn_in_s is None:
            burn_in_s = max(0.1 * horizon_s,
                            min(20 * self.tau, 0.3 * horizon_s))
        if burn_in_s >= horizon_s:
            raise ValueError("burn-in must be shorter than the horizon")
        if batches < 1:
            raise ValueError("need at least one batch")
        return _kernel.StationarySolve(self, horizon_s, seed, burn_in_s,
                                       batches)

    def late_fraction_transient(self, video_s: float,
                                replications: int = 20,
                                seed: int = 0) -> LateFractionEstimate:
        """Late fraction of a *finite* video of length ``video_s``.

        The stationary solvers answer the paper's t -> infinity
        question; this one models what a finite simulation run (or a
        real 300 s clip) sees: generation over ``[0, video_s]``,
        playback over ``[tau, tau + video_s]``, an empty buffer and
        slow-starting flows at t = 0, and the live-streaming cap
        ``N(t) <= G(t) - B(t)`` evolving through the startup ramp and
        the end-of-video drain.  The replications, the vector axis of
        one lockstep array simulation, give the standard error.
        """
        if video_s <= 0:
            raise ValueError("video length must be positive")
        if replications < 1:
            raise ValueError("need at least one replication")
        return _kernel.transient_late_fraction(
            self, video_s=video_s, replications=replications,
            seed=seed)

    # ------------------------------------------------------------------
    # Exact solver (TANGRAM-II stand-in, small chains)
    # ------------------------------------------------------------------
    def joint_state_count(self, n_floor: int) -> int:
        levels = self.nmax - n_floor + 1
        count = levels
        for chain in self.chains:
            count *= len(chain)
        return count

    def late_fraction_exact(self, n_floor: Optional[int] = None,
                            max_states: int = 400_000) -> float:
        """Exact stationary late fraction P(N <= 0).

        ``N`` is truncated below at ``n_floor`` (default: a margin of
        4 max-windows below zero) with a reflecting boundary; choose
        small ``wmax``/``tau`` so the joint space stays tractable.
        """
        if n_floor is None:
            # Deep enough that truncation is negligible in low-late
            # regimes; for heavily late regimes (f >~ 0.1) pass deeper
            # floors explicitly and check convergence.
            margin = 10 * max(chain.params.wmax
                              for chain in self.chains)
            n_floor = -margin
        if n_floor > 0:
            raise ValueError("n_floor must be <= 0")
        count = self.joint_state_count(n_floor)
        if count > max_states:
            raise ValueError(
                f"joint space has {count} states (> {max_states}); "
                "use late_fraction_mc or shrink wmax/tau")

        sizes = [len(chain) for chain in self.chains]
        levels = self.nmax - n_floor + 1

        def encode(flow_ids: Tuple[int, ...], n: int) -> int:
            code = n - n_floor
            for sid, size in zip(flow_ids, sizes):
                code = code * size + sid
            return code

        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []

        def add(src: int, dst: int, rate: float) -> None:
            rows.append(src)
            cols.append(dst)
            vals.append(rate)
            rows.append(src)
            cols.append(src)
            vals.append(-rate)

        flow_state_space: List[Tuple[int, ...]] = [()]
        for size in sizes:
            flow_state_space = [ids + (sid,) for ids in flow_state_space
                                for sid in range(size)]

        mu = self.mu
        nmax = self.nmax
        for ids in flow_state_space:
            for n in range(n_floor, nmax + 1):
                src = encode(ids, n)
                if n > n_floor:
                    add(src, encode(ids, n - 1), mu)
                # else: reflecting floor (consumption has no effect).
                if n == nmax:
                    continue  # flows frozen
                for k, chain in enumerate(self.chains):
                    rate = chain.rates[ids[k]]
                    for prob, nxt, s in chain.outcomes[ids[k]]:
                        new_ids = ids[:k] + (nxt,) + ids[k + 1:]
                        new_n = min(n + s, nmax)
                        add(src, encode(new_ids, new_n), rate * prob)

        generator = csc_matrix((vals, (rows, cols)),
                               shape=(count, count))
        pi = solve_stationary(generator)

        late = 0.0
        for ids in flow_state_space:
            for n in range(n_floor, min(0, nmax) + 1):
                late += pi[encode(ids, n)]
        return float(late)
