"""The two run builders every entry point shares.

:func:`build_run` builds the packet-level run (a
:class:`~repro.core.campaign.MultiSessionCampaign`) behind ``trace``,
``campaign``, the validation replications and the Fig. 7 emulation;
:func:`meanfield_spec` maps the same fan-in onto the population ODE
of :mod:`repro.model.meanfield` for ``campaign --backend meanfield``.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.assembly import VIDEO_SEGMENT_BYTES
from repro.core.campaign import MultiSessionCampaign
from repro.model.meanfield import MeanFieldSpec
from repro.sim.topology import ACCESS_DELAY_S, PathConfig


def build_run(mu: float, duration_s: float, paths: Sequence[PathConfig],
              n_sessions: int = 1, shared_bottleneck: bool = False,
              **options: Any) -> MultiSessionCampaign:
    """The one packet-run builder behind every entry point.

    One session runs on the paper's topology over ``paths`` (Fig. 3,
    or Fig. 6 with ``shared_bottleneck``).  With ``n_sessions > 1``
    the sessions fan into one bottleneck, shared by construction: the
    first path supplies its spec and background load, and
    ``len(paths)`` is the per-session path count.  ``options`` are
    passed on to :class:`~repro.core.campaign.MultiSessionCampaign`.
    """
    if n_sessions == 1:
        return MultiSessionCampaign(
            mu, duration_s, paths=paths,
            shared_bottleneck=shared_bottleneck, **options)
    first = paths[0]
    return MultiSessionCampaign(
        mu, duration_s, n_sessions=n_sessions,
        bottleneck=first.bottleneck, paths_per_session=len(paths),
        n_ftp=first.n_ftp, n_http=first.n_http, **options)


def meanfield_spec(mu: float, duration_s: float,
                   paths: Sequence[PathConfig], n_sessions: int,
                   queue_discipline: str = "droptail",
                   scheme: str = "dmp", churn_rate: float = 0.0,
                   warmup_s: float = 20.0) -> MeanFieldSpec:
    """The one mean-field counterpart of :func:`build_run`'s fan-in.

    The mapping is the fan-in one: the first path supplies the shared
    bottleneck and its FTP load, and ``len(paths)`` is the per-session
    path count.  Bandwidth converts to packets/s at the video segment
    size and the base RTT adds the two fan-in access hops
    (:data:`repro.sim.topology.ACCESS_DELAY_S`) in each direction.
    HTTP background (short transfers with think time) has no
    mean-field analogue and is dropped (see the
    :mod:`repro.model.meanfield` approximation notes).

    Raises :class:`ValueError` for what the ODE does not model: fewer
    than two sessions, a scheme other than DMP, or churn; the
    discipline check is :class:`MeanFieldSpec`'s.
    """
    if n_sessions < 2:
        raise ValueError(
            "the mean-field backend is a population model; it needs "
            f"at least 2 sessions, got {n_sessions}")
    if scheme != "dmp":
        raise ValueError("the mean-field backend models the DMP "
                         f"scheme only, not {scheme!r}")
    if churn_rate > 0:
        raise ValueError("the mean-field backend assumes synchronized "
                         f"starts; churn rate {churn_rate:g} must be 0")
    first = paths[0]
    return MeanFieldSpec(
        n_sessions=n_sessions,
        mu=mu,
        bandwidth_pps=first.bottleneck.bandwidth_bps
        / (8.0 * VIDEO_SEGMENT_BYTES),
        buffer_pkts=float(first.bottleneck.buffer_pkts),
        queue_discipline=queue_discipline,
        paths_per_session=len(paths),
        n_background=first.n_ftp,
        base_rtt_s=2.0 * (2.0 * ACCESS_DELAY_S
                          + first.bottleneck.delay_s),
        duration_s=duration_s,
        warmup_s=warmup_s)
