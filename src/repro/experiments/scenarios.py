"""Config-driven experiment scenarios.

A scenario is a plain dict (JSON/YAML-friendly) describing a complete
streaming experiment; :func:`build_scenario` turns it into a ready
:class:`~repro.core.campaign.MultiSessionCampaign` (through
:func:`build_run`, the packet-run builder every entry point uses) and
:func:`run_scenario` executes it and summarises the results.  This is
the adoption-friendly front door: downstream users describe topologies
declaratively instead of wiring simulator objects.

Example scenario::

    {
      "mu": 50,
      "duration_s": 300,
      "scheme": "dmp",
      "tcp_variant": "reno",
      "seed": 7,
      "taus": [4, 6, 8, 10],
      "paths": [
        {"bandwidth_mbps": 3.7, "delay_ms": 1, "buffer_pkts": 50,
         "ftp_flows": 7, "http_flows": 40},
        {"bandwidth_mbps": 3.7, "delay_ms": 1, "buffer_pkts": 50,
         "ftp_flows": 7, "http_flows": 40}
      ]
    }
"""

from __future__ import annotations

import json
from typing import Any, Dict, NoReturn, Sequence

from repro.core.assembly import VIDEO_SEGMENT_BYTES
from repro.core.campaign import MultiSessionCampaign
from repro.model.meanfield import BACKENDS, MeanFieldSpec, solve_meanfield
from repro.sim.queueing import QUEUE_DISCIPLINES
from repro.sim.topology import ACCESS_DELAY_S, BottleneckSpec, PathConfig

REQUIRED_KEYS = ("mu", "duration_s", "paths")
KNOWN_KEYS = {
    "mu", "duration_s", "paths", "scheme", "tcp_variant", "seed",
    "taus", "shared_bottleneck", "send_buffer_pkts", "segment_bytes",
    "warmup_s", "static_weights", "client_buffer_pkts", "client_tau",
    "name", "queue_discipline", "n_sessions", "churn_rate", "backend",
}
#: Scenario keys passed on to the run builder as options.
RUN_KEYS = ("scheme", "tcp_variant", "seed", "shared_bottleneck",
            "send_buffer_pkts", "segment_bytes", "warmup_s",
            "static_weights", "client_buffer_pkts", "client_tau",
            "queue_discipline", "churn_rate")
PATH_KEYS = {"bandwidth_mbps", "delay_ms", "buffer_pkts", "ftp_flows",
             "http_flows"}
DEFAULT_TAUS = (4.0, 6.0, 8.0, 10.0)


class ScenarioError(ValueError):
    """A scenario dict failed validation."""


def _fail(message: str) -> NoReturn:
    raise ScenarioError(message)


def parse_path(spec: Dict[str, Any], index: int) -> PathConfig:
    """Validate and convert one path spec dict."""
    unknown = set(spec) - PATH_KEYS
    if unknown:
        _fail(f"path {index}: unknown keys {sorted(unknown)}")
    try:
        bandwidth = float(spec["bandwidth_mbps"])
    except KeyError:
        _fail(f"path {index}: bandwidth_mbps is required")
    if bandwidth <= 0:
        _fail(f"path {index}: bandwidth must be positive")
    delay_ms = float(spec.get("delay_ms", 10.0))
    buffer_pkts = int(spec.get("buffer_pkts", 50))
    if delay_ms < 0 or buffer_pkts < 1:
        _fail(f"path {index}: invalid delay or buffer")
    return PathConfig(
        bottleneck=BottleneckSpec(
            bandwidth_bps=bandwidth * 1e6,
            delay_s=delay_ms / 1e3,
            buffer_pkts=buffer_pkts),
        n_ftp=int(spec.get("ftp_flows", 0)),
        n_http=int(spec.get("http_flows", 0)))


def validate_scenario(scenario: Dict[str, Any]) -> None:
    """Raise :class:`ScenarioError` if the dict is malformed."""
    if not isinstance(scenario, dict):
        _fail("scenario must be a dict")
    for key in REQUIRED_KEYS:
        if key not in scenario:
            _fail(f"missing required key: {key}")
    unknown = set(scenario) - KNOWN_KEYS
    if unknown:
        _fail(f"unknown scenario keys: {sorted(unknown)}")
    if float(scenario["mu"]) <= 0:
        _fail("mu must be positive")
    if float(scenario["duration_s"]) <= 0:
        _fail("duration_s must be positive")
    paths = scenario["paths"]
    if not isinstance(paths, list) or not paths:
        _fail("paths must be a non-empty list")
    for index, spec in enumerate(paths):
        parse_path(spec, index)
    taus = scenario.get("taus", DEFAULT_TAUS)
    if any(float(t) < 0 for t in taus):
        _fail("taus must be non-negative")
    discipline = scenario.get("queue_discipline", "droptail")
    if discipline not in QUEUE_DISCIPLINES:
        _fail(f"unknown queue_discipline: {discipline!r} "
              f"(choose from {sorted(QUEUE_DISCIPLINES)})")
    n_sessions = int(scenario.get("n_sessions", 1))
    if n_sessions < 1:
        _fail("n_sessions must be >= 1")
    if float(scenario.get("churn_rate", 0.0)) < 0:
        _fail("churn_rate must be non-negative")
    if n_sessions > 1:
        # Campaigns share one fan-in bottleneck: the first path spec
        # supplies it, and per-path heterogeneity has no meaning.
        if scenario.get("shared_bottleneck"):
            _fail("n_sessions > 1 implies a fan-in bottleneck; "
                  "drop shared_bottleneck")
        if "static_weights" in scenario:
            _fail("static_weights is not supported for campaigns")
    backend = scenario.get("backend", "packet")
    if backend not in BACKENDS:
        _fail(f"unknown backend: {backend!r} "
              f"(choose from {list(BACKENDS)})")
    if backend == "meanfield":
        if "segment_bytes" in scenario:
            # The ODE counts packets of VIDEO_SEGMENT_BYTES; another
            # segment size would change the packet backend's capacity
            # but silently not this one's.
            _fail("backend 'meanfield' models "
                  f"{VIDEO_SEGMENT_BYTES}-byte segments only; "
                  "drop segment_bytes")
        try:
            _scenario_meanfield_spec(scenario)
        except ValueError as exc:
            _fail(str(exc))


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


def _scenario_meanfield_spec(scenario: Dict[str, Any]) -> MeanFieldSpec:
    """:func:`meanfield_spec` of a scenario whose paths are valid."""
    return meanfield_spec(
        float(scenario["mu"]), float(scenario["duration_s"]),
        [parse_path(spec, i) for i, spec in enumerate(scenario["paths"])],
        int(scenario.get("n_sessions", 1)),
        queue_discipline=str(
            scenario.get("queue_discipline", "droptail")),
        scheme=str(scenario.get("scheme", "dmp")),
        churn_rate=float(scenario.get("churn_rate", 0.0)),
        warmup_s=float(scenario.get("warmup_s", 20.0)))


def build_scenario(scenario: Dict[str, Any]) -> MultiSessionCampaign:
    """Construct the packet-level run a scenario describes."""
    validate_scenario(scenario)
    if scenario.get("backend", "packet") != "packet":
        raise ScenarioError(
            "build_scenario constructs packet-level runs; "
            "mean-field scenarios run through run_scenario")
    return build_run(
        float(scenario["mu"]), float(scenario["duration_s"]),
        [parse_path(spec, i) for i, spec in enumerate(scenario["paths"])],
        n_sessions=int(scenario.get("n_sessions", 1)),
        **{key: scenario[key] for key in RUN_KEYS if key in scenario})


def run_packet_campaign_scenario(scenario: Dict[str, Any]) \
        -> Dict[str, Any]:
    """Run a packet campaign scenario; summary carries population
    metrics."""
    result = build_scenario(scenario).run()
    taus = [float(t) for t in scenario.get("taus", DEFAULT_TAUS)]
    summary: Dict[str, Any] = {
        "name": scenario.get("name", "scenario"),
        "mu": result.mu,
        "scheme": result.scheme,
        "n_sessions": result.n_sessions,
        "queue_discipline": result.queue_discipline,
        "events_processed": result.events_processed,
        "bottleneck_drop_fraction": result.bottleneck_drop_fraction,
        "sessions": [
            {
                "label": s.label,
                "start_at": s.start_at,
                "received": s.received,
                "total_packets": s.total_packets,
            } for s in result.sessions],
        "late_fraction": {},
    }
    for tau in taus:
        summary["late_fraction"][f"{tau:g}"] = {
            **result.population(tau),
            "per_session": result.late_fractions(tau)}
    return summary


def run_meanfield_scenario(scenario: Dict[str, Any]) -> Dict[str, Any]:
    """Solve a mean-field campaign scenario deterministically.

    :func:`meanfield_spec` maps the scenario onto the population ODE
    of :mod:`repro.model.meanfield`, which replaces the packet
    simulation, so the summary carries one degenerate population per
    tau (every session sees the same limit trajectory) and no
    per-flow stats.
    """
    validate_scenario(scenario)
    spec = _scenario_meanfield_spec(scenario)
    solution = solve_meanfield(spec)
    taus = [float(t) for t in scenario.get("taus", DEFAULT_TAUS)]
    return {
        "name": scenario.get("name", "scenario"),
        "mu": spec.mu,
        "scheme": "dmp",
        "backend": "meanfield",
        "n_sessions": spec.n_sessions,
        "queue_discipline": spec.queue_discipline,
        "mean_drop_prob": solution.mean_drop_prob,
        "mean_queue_pkts": solution.mean_queue_pkts,
        "late_fraction": {f"{tau:g}": solution.population(tau)
                          for tau in taus},
    }


def run_scenario(scenario: Dict[str, Any]) -> Dict[str, Any]:
    """Run a scenario and return a JSON-serialisable summary.

    Multi-session scenarios (``n_sessions > 1``) route to
    :func:`run_packet_campaign_scenario` (or, with
    ``backend: meanfield``, to :func:`run_meanfield_scenario`) and
    summarise the population late-fraction distribution instead of
    per-flow model inputs.
    """
    if scenario.get("backend", "packet") == "meanfield":
        return run_meanfield_scenario(scenario)
    if int(scenario.get("n_sessions", 1)) > 1:
        return run_packet_campaign_scenario(scenario)
    result = build_scenario(scenario).run()
    (session,) = result.sessions
    taus = [float(t) for t in scenario.get("taus", DEFAULT_TAUS)]
    summary: Dict[str, Any] = {
        "name": scenario.get("name", "scenario"),
        "mu": result.mu,
        "scheme": result.scheme,
        "total_packets": session.total_packets,
        "arrived_packets": len(session.arrivals),
        "path_shares": [float(s) for s in session.path_shares],
        "flows": [
            {
                "name": stats["name"],
                "loss_event_rate": stats["loss_event_estimate"],
                "mean_rtt_s": stats["mean_rtt"],
                "timeout_ratio": stats["timeout_ratio"],
            } for stats in session.flow_stats],
        "late_fraction": {},
    }
    for tau in taus:
        metrics = session.metrics(tau)
        summary["late_fraction"][f"{tau:g}"] = {
            "playback_order": metrics.late_fraction,
            "arrival_order": metrics.arrival_order_late_fraction,
        }
    return summary


def load_scenario(path: str) -> Dict[str, Any]:
    """Load a scenario dict from a JSON file."""
    with open(path) as handle:
        scenario: Dict[str, Any] = json.load(handle)
    validate_scenario(scenario)
    return scenario
