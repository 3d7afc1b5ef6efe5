"""Builders that regenerate each of the paper's tables and figures.

Each function runs the experiment at the given scale profile and
returns the rendered plain-text artefact.  :data:`BUILDERS` maps each
artefact's key to its builder; ``python -m repro.experiments.cli <key>
-o DIR`` writes ``DIR/<key>.txt``, and ``cli all -o benchmarks/out``
regenerates every committed artefact.
"""

from __future__ import annotations

from repro.core.campaign import MultiSessionCampaign
from repro.core.client import StreamClient
from repro.core.metrics import late_fraction
from repro.core.source import VideoSource
from repro.core.streamers import DmpStreamer
from repro.experiments.configs import (
    CALIBRATED_CONFIGS,
    CORRELATED_SETTINGS,
    HETEROGENEOUS_SETTINGS,
    HOMOGENEOUS_SETTINGS,
    PAPER_TABLE1,
)
from repro.experiments.internet import (
    run_internet_experiments,
    within_tenfold_fraction,
)
from repro.experiments.report import render_series, render_table
from repro.experiments.runner import ScaleProfile, run_setting
from repro.experiments.sweep import (
    fig8_curves,
    fig9a_rows,
    fig9b_rows,
    fig10_rows,
    fig11_rows,
    rtt_for_ratio,
)
from repro.model.dmp_model import DmpModel
from repro.model.fluid import compare_dmp_vs_single
from repro.model.tcp_chain import FlowParams
from repro.sim.engine import Simulator
from repro.sim.link import duplex_link
from repro.sim.modulation import OnOffLinkModulator
from repro.sim.node import Node
from repro.sim.queueing import QUEUE_DISCIPLINES
from repro.sim.topology import SharedBottleneckTopology
from repro.tcp.socket import TcpConnection
from repro.traffic.ftp import FtpFlow
from repro.traffic.http import HttpFlow

VALIDATION_TAUS = (3.0, 4.0, 6.0, 8.0, 10.0, 11.0)


# ---------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------
def build_table1(profile: ScaleProfile,
                 probe_duration_s: float = 120.0) -> str:
    """Table 1 plus the realised utilisation/drop rate per config."""
    rows = []
    for idx in sorted(PAPER_TABLE1):
        paper = PAPER_TABLE1[idx]
        ours = CALIBRATED_CONFIGS[idx]
        sim = Simulator(seed=11)
        topo = SharedBottleneckTopology(sim, ours.spec)
        for i in range(ours.ftp_flows):
            FtpFlow(sim, topo.bg_source_host, topo.bg_sink_host,
                    start_at=i * 0.25)
        for i in range(ours.http_flows):
            HttpFlow(sim, topo.bg_source_host, topo.bg_sink_host,
                     start_at=i * 0.1)
        sim.run(until=probe_duration_s)
        link = topo.bottleneck_fwd
        utilisation = (link.tx_bytes * 8.0
                       / (ours.spec.bandwidth_bps * probe_duration_s))
        rows.append([
            idx, paper.ftp_flows, ours.ftp_flows, ours.http_flows,
            f"{ours.delay_ms:g}", f"{ours.bandwidth_mbps:g}",
            ours.buffer_pkts, f"{utilisation:.2f}",
            f"{link.queue.drop_fraction:.4f}",
        ])
    return render_table(
        ["Config", "FTP (paper)", "FTP (ours)", "HTTP", "Delay ms",
         "Bw Mbps", "Buffer", "Utilisation", "Drop frac"],
        rows,
        title="Table 1: bottleneck configurations "
              "(paper vs calibrated) + realised load")


# ---------------------------------------------------------------------
# Tables 2 and 3
# ---------------------------------------------------------------------
def build_table2(profile: ScaleProfile) -> str:
    """Measured (p, R, T_O, mu) for every independent-path setting."""
    rows = []
    settings = {**HOMOGENEOUS_SETTINGS, **HETEROGENEOUS_SETTINGS}
    for name in sorted(settings):
        setting = settings[name]
        run = run_setting(setting, taus=(6.0,), profile=profile,
                          seed0=500, run_model=False)
        m1, m2 = run.measured
        rows.append([
            name,
            f"{m1['p']:.3f}", f"{m2['p']:.3f}",
            f"{m1['rtt'] * 1e3:.0f}", f"{m2['rtt'] * 1e3:.0f}",
            f"{m1['to']:.1f}", f"{m2['to']:.1f}",
            f"{setting.mu:g}",
        ])
    return render_table(
        ["Setting", "p1", "p2", "R1 (ms)", "R2 (ms)", "TO1", "TO2",
         "mu (pkts ps)"],
        rows,
        title=f"Table 2: measured parameters, independent paths "
              f"(profile={profile.name})")


def _video_loss_correlation(setting, profile, seed: int) -> float:
    """One traced run measuring the two video flows' loss coupling."""
    from repro.experiments.measure import loss_correlation
    from repro.experiments.scenarios import build_run
    from repro.sim.trace import PacketTrace

    run = build_run(setting.mu, profile.duration_s,
                    setting.path_configs(),
                    shared_bottleneck=setting.shared_bottleneck, seed=seed)
    trace = run.attach_packet_trace(PacketTrace(events={"drop"}))
    run.run()
    flows = []
    for conn in run.assemblies[0].connections:
        sender = conn.sender
        flows.append((sender.node.name, sender.port,
                      sender.dst_name, sender.dst_port))
    return loss_correlation(trace, flows[0], flows[1], window_s=1.0,
                            horizon=profile.duration_s + 80.0)


def build_table3(profile: ScaleProfile) -> str:
    """Correlated paths: measured parameters + model validation.

    The extra column quantifies Section 5.3's argument directly: the
    windowed loss-indicator correlation of the two video flows on the
    shared bottleneck (low values justify the model's independence
    assumption).
    """
    rows = []
    for name in sorted(CORRELATED_SETTINGS):
        setting = CORRELATED_SETTINGS[name]
        run = run_setting(setting, taus=(4.0, 8.0), profile=profile,
                          seed0=700)
        corr = _video_loss_correlation(setting, profile, seed=701)
        m1, m2 = run.measured
        pt4, pt8 = run.point(4.0), run.point(8.0)
        rows.append([
            name,
            f"{m1['p']:.3f}", f"{m2['p']:.3f}",
            f"{m1['rtt'] * 1e3:.0f}", f"{m2['rtt'] * 1e3:.0f}",
            f"{m1['to']:.1f}", f"{m2['to']:.1f}",
            f"{setting.mu:g}",
            f"{pt4.sim_mean:.1e}/{pt4.model_f:.1e}",
            f"{pt8.sim_mean:.1e}/{pt8.model_f:.1e}",
            f"{corr:.2f}",
            "yes" if run.all_match else "NO",
        ])
    return render_table(
        ["Setting", "p1", "p2", "R1 (ms)", "R2 (ms)", "TO1", "TO2",
         "mu", "f sim/model (tau=4)", "f sim/model (tau=8)",
         "loss corr", "match"],
        rows,
        title=f"Table 3: correlated paths — measured parameters and "
              f"model validation (profile={profile.name})")


# ---------------------------------------------------------------------
# Figs. 4 and 5 (validation panels)
# ---------------------------------------------------------------------
def build_validation_panels(setting_name: str, figure: str,
                            profile: ScaleProfile,
                            seed0: int = 220) -> str:
    """The two panels of Fig. 4 (homogeneous) / Fig. 5 (hetero)."""
    settings = {**HOMOGENEOUS_SETTINGS, **HETEROGENEOUS_SETTINGS}
    setting = settings[setting_name]
    run = run_setting(setting, taus=VALIDATION_TAUS, profile=profile,
                      seed0=seed0)

    panel_a = render_table(
        ["tau (s)", "late frac (playback order)",
         "late frac (arrival order)"],
        [[f"{pt.tau:g}", f"{pt.sim_mean:.3e}",
          f"{pt.sim_arrival_order_mean:.3e}"] for pt in run.points],
        title=f"Fig {figure}(a): effect of out-of-order packets, "
              f"Setting {setting_name}")

    m1, m2 = run.measured
    header = (f"measured: p={m1['p']:.4f}/{m2['p']:.4f} "
              f"R={m1['rtt'] * 1e3:.0f}/{m2['rtt'] * 1e3:.0f} ms "
              f"TO={m1['to']:.2f}/{m2['to']:.2f} "
              f"mu={setting.mu:g}\n")
    panel_b = render_table(
        ["tau (s)", "sim f", "ci95", "model f", "match"],
        [[f"{pt.tau:g}", f"{pt.sim_mean:.3e}", f"{pt.sim_ci95:.1e}",
          f"{pt.model_f:.3e}", "yes" if pt.match else "NO"]
         for pt in run.points],
        title=f"Fig {figure}(b): model vs ns-substitute, Setting "
              f"{setting_name} (profile={profile.name})")
    return panel_a + "\n" + header + panel_b


def build_fig4(profile: ScaleProfile) -> str:
    """Fig. 4 panels for Setting 2-2 (homogeneous validation)."""
    return build_validation_panels("2-2", "4", profile, seed0=220)


def build_fig5(profile: ScaleProfile) -> str:
    """Fig. 5 panels for Setting 1-2 (heterogeneous validation)."""
    return build_validation_panels("1-2", "5", profile, seed0=120)


# ---------------------------------------------------------------------
# Fig. 7 (emulated Internet)
# ---------------------------------------------------------------------
def build_fig7(profile: ScaleProfile,
               taus=(4.0, 6.0, 8.0, 10.0)) -> str:
    """Fig. 7: emulated Internet experiments vs the model."""
    results = run_internet_experiments(
        n_experiments=10, taus=taus, profile=profile, seed=2006)

    rows_a = []
    rows_b = []
    for result in results:
        for tau in taus:
            rows_a.append([
                result.index, result.kind, f"{tau:g}",
                f"{result.sim_late[tau]:.2e}",
                f"{result.sim_arrival_order_late[tau]:.2e}"])
            rows_b.append([
                result.index, result.kind, f"{result.mu:g}",
                f"{tau:g}", f"{result.sim_late[tau]:.2e}",
                f"{result.model_late[tau]:.2e}"])

    panel_a = render_table(
        ["exp", "kind", "tau", "late frac (playback)",
         "late frac (arrival order)"],
        rows_a, title="Fig 7(a): out-of-order effect, emulated "
                      "Internet experiments")
    panel_b = render_table(
        ["exp", "kind", "mu", "tau", "measured f", "model f"],
        rows_b, title=f"Fig 7(b): model vs measurement "
                      f"(profile={profile.name})")
    tenfold = within_tenfold_fraction(results)
    footer = (f"\nfraction of points within the 10x band "
              f"(or jointly ~0): {tenfold:.2f}\n")
    return panel_a + "\n" + panel_b + footer


# ---------------------------------------------------------------------
# Figs. 8-11 and Section 7.3
# ---------------------------------------------------------------------
def fig8_data(profile: ScaleProfile):
    """Fig. 8's curves: ratio -> [(tau, late fraction), ...]."""
    return fig8_curves(p=0.02, to_ratio=4.0, mu=25.0,
                       ratios=(1.2, 1.4, 1.6, 1.8, 2.0),
                       taus=tuple(range(2, 31, 2)),
                       horizon_s=profile.model_horizon_s, seed=8)


def build_fig8(profile: ScaleProfile) -> str:
    """Fig. 8: late fraction vs startup delay across sigma_a/mu."""
    curves = fig8_data(profile)
    series = {f"sigma_a/mu={ratio:g}": points
              for ratio, points in curves.items()}
    return render_series(
        f"Fig 8: late fraction vs startup delay, p=0.02, TO=4, mu=25 "
        f"(profile={profile.name})",
        series, x_label="tau (s)", y_label="late fraction")


def build_fig9(profile: ScaleProfile) -> str:
    """Fig. 9: required startup delay, homogeneous paths."""
    horizon = profile.model_horizon_s
    rows_a = fig9a_rows(ratio=1.6, to_ratio=4.0, horizon_s=horizon,
                        seed=9)
    panel_a = render_table(
        ["mu", "p", "RTT (ms)", "required tau (s)"],
        [[f"{r.mu:g}", f"{r.p:g}", f"{r.rtt * 1e3:.0f}",
          r.required_tau] for r in rows_a],
        title=f"Fig 9(a): required startup delay, vary RTT "
              f"(sigma_a/mu=1.6, TO=4, profile={profile.name})")

    rows_b = fig9b_rows(ratio=1.6, to_ratio=4.0, horizon_s=horizon,
                        seed=9)
    panel_b = render_table(
        ["R (ms)", "p", "mu (pkts ps)", "required tau (s)"],
        [[f"{r.rtt * 1e3:.0f}", f"{r.p:g}", f"{r.mu:.1f}",
          r.required_tau] for r in rows_b],
        title="Fig 9(b): required startup delay, vary mu "
              "(sigma_a/mu=1.6, TO=4)")
    return panel_a + "\n" + panel_b


def build_fig10(profile: ScaleProfile) -> str:
    """Fig. 10: required delay, homogeneous vs heterogeneous."""
    ratios = (1.6,) if profile.name == "quick" else (1.4, 1.6, 1.8)
    rows = fig10_rows(gammas=(1.5, 2.0), ratios=ratios, to_ratio=4.0,
                      horizon_s=profile.model_horizon_s, seed=10)
    table_rows = []
    close = 0
    for row in rows:
        homo, hetero = row.required_homo, row.required_hetero
        if homo is not None and hetero is not None \
                and abs(hetero - homo) <= max(3.0, 0.5 * homo):
            close += 1
        table_rows.append([
            row.case, f"{row.gamma:g}", f"{row.ratio:g}",
            f"{row.mu:.1f}", homo, hetero])
    footer = (f"\nsettings with hetero delay close to homo: "
              f"{close}/{len(rows)}\n")
    return render_table(
        ["Case", "gamma", "sigma_a/mu", "mu",
         "required tau homo (s)", "required tau hetero (s)"],
        table_rows,
        title=f"Fig 10: path heterogeneity "
              f"(profile={profile.name})") + footer


def fig11_data(profile: ScaleProfile):
    """Fig. 11's rows: required delays of DMP and static per setting."""
    losses = (0.02, 0.04) if profile.name == "quick" \
        else (0.004, 0.02, 0.04)
    groups = ((0.100, 1.6), (0.200, 1.6), (0.300, 1.6), (0.300, 1.8),
              (0.300, 2.0))
    return fig11_rows(to_ratio=4.0, losses=losses, groups=groups,
                      horizon_s=profile.model_horizon_s, seed=11)


def build_fig11(profile: ScaleProfile) -> str:
    """Fig. 11: required startup delay, DMP vs static."""
    rows = fig11_data(profile)
    table_rows = []
    dmp_wins = 0
    for row in rows:
        if row.required_dmp is not None and (
                row.required_static is None
                or row.required_static >= row.required_dmp):
            dmp_wins += 1
        table_rows.append([
            f"{row.rtt * 1e3:.0f}", f"{row.ratio:g}", f"{row.p:g}",
            f"{row.mu:.1f}", row.required_dmp, row.required_static])
    footer = (f"\nsettings where DMP needs no more delay than "
              f"static: {dmp_wins}/{len(rows)}\n"
              "('-' = threshold unreachable on the 1-120 s grid)\n")
    return render_table(
        ["R (ms)", "sigma_a/mu", "p", "mu",
         "required tau DMP (s)", "required tau static (s)"],
        table_rows,
        title=f"Fig 11: DMP vs static streaming, TO=4 "
              f"(profile={profile.name})") + footer


def build_sec73(mu: float = 25.0) -> str:
    """Section 7.3: fluid DMP-vs-single comparison tables."""
    xs = [mu * f for f in (0.1, 0.2, 0.4, 0.6, 0.8, 1.0)]

    def panel(tau: float) -> str:
        rows = compare_dmp_vs_single(mu, xs=xs, tau=tau,
                                     horizon=400.0, dt=0.002)
        ok = all(r["dmp_average"] <= r["single_path"] + 1e-9
                 for r in rows)
        table = render_table(
            ["x/mu", "single path", "DMP aligned", "DMP alternating",
             "DMP average"],
            [[f"{r['x_over_mu']:.2f}", f"{r['single_path']:.4f}",
              f"{r['dmp_aligned']:.4f}",
              f"{r['dmp_alternating']:.4f}",
              f"{r['dmp_average']:.4f}"] for r in rows],
            title=f"Sec 7.3 fluid comparison, tau={tau:g}s, mu={mu:g}")
        return table + f"DMP <= single-path for all x: {ok}\n"

    return panel(5.0) + "\n" + panel(4.0)


# ---------------------------------------------------------------------
# Section 7.3 in the packet simulator
# ---------------------------------------------------------------------
SEC73_MU = 50.0
SEC73_SEGMENT = 1500
SEC73_PERIOD, SEC73_ON_TIME = 10.0, 5.0
SEC73_GOOD_FACTOR = 1.7   # good-phase rate over the path's video share
SEC73_BAD_FRACTION = 0.3  # congested rate as a fraction of the good rate


def _sec73_sim_run(kind: str, duration: float, seed: int):
    sim = Simulator(seed=seed)
    server = Node(sim, "server")
    client = StreamClient()
    connections = []
    if kind == "single":
        shares = [1.0]
        phases = [0.0]
    else:
        shares = [0.5, 0.5]
        phases = [0.0, 0.0] if kind == "aligned" \
            else [0.0, SEC73_ON_TIME]
    for k, (share, phase) in enumerate(zip(shares, phases), start=1):
        good_bps = SEC73_GOOD_FACTOR * share * SEC73_MU * SEC73_SEGMENT * 8
        client_if = Node(sim, f"c{k}")
        fwd, _ = duplex_link(sim, server, client_if, good_bps, 0.02,
                             queue_limit_pkts=60)
        OnOffLinkModulator(
            sim, fwd, on_bandwidth_bps=good_bps,
            off_bandwidth_bps=SEC73_BAD_FRACTION * good_bps,
            period=SEC73_PERIOD, on_time=SEC73_ON_TIME, phase=phase)
        connections.append(TcpConnection(
            sim, server, client_if, segment_bytes=SEC73_SEGMENT,
            send_buffer_pkts=16,
            on_deliver=client.deliver_callback(f"p{k}")))
    streamer = DmpStreamer(sim, connections)
    source = VideoSource(sim, streamer.queue, mu=SEC73_MU,
                         duration_s=duration)
    streamer.attach_source(source)
    sim.run(until=duration + 90.0)
    return client, source


def build_sec73_sim(profile: ScaleProfile) -> str:
    """Section 7.3 in the packet simulator with real TCP Reno.

    :func:`build_sec73` proves the paper's claim in the deterministic
    fluid model; this re-runs the spirit of the scenario in the packet
    simulator.  Full outages would be dominated by RTO backoff (TCP
    cannot exploit a path that dies for half of every cycle), so the
    paths alternate between a good rate (1.7x the half-video each path
    carries on average) and a congested rate (0.3x of that), period
    10 s:

    * *single*: one path carrying the whole video, alternating;
    * *aligned*: two half-rate DMP paths whose good/bad phases
      coincide — the aggregate equals the single path's, so DMP gains
      nothing;
    * *alternating*: the same two paths in anti-phase — the aggregate
      is constant and DMP shifts packets to whichever path is good.

    Shape to check: alternating DMP needs far less startup delay than
    the single path; aligned DMP tracks the single path.
    """
    duration = profile.duration_s
    taus = (2.0, 4.0, 6.0, 10.0, 14.0)
    rows = []
    for kind in ("single", "aligned", "alternating"):
        lates = {tau: [] for tau in taus}
        for run_idx in range(profile.runs):
            client, source = _sec73_sim_run(kind, duration,
                                            seed=990 + run_idx)
            for tau in taus:
                lates[tau].append(late_fraction(
                    client.arrivals, SEC73_MU, tau,
                    total_packets=source.total_packets))
        rows.append([kind] + [
            f"{sum(lates[tau]) / len(lates[tau]):.3e}"
            for tau in taus])
    return render_table(
        ["scenario"] + [f"f(tau={tau:g})" for tau in taus],
        rows,
        title=f"Sec 7.3 in the packet simulator: alternating "
              f"good/congested paths, mu={SEC73_MU:g} "
              f"(profile={profile.name})")


# ---------------------------------------------------------------------
# Ablations and extensions on Setting 2-2
# ---------------------------------------------------------------------
def build_ablation_queue(profile: ScaleProfile) -> str:
    """Ablation — the loss process: drop-tail vs RED vs PIE vs FQ-PIE.

    The paper's validation (and the chain's loss-model calibration)
    rests on drop-tail buffer overflow.  AQM bottlenecks change the
    loss process the video flows see: RED spreads drops over the
    average queue, PIE (RFC 8033) regulates queueing *delay* to a 15 ms
    target, and FQ-PIE (RFC 8290 scheduling) additionally isolates the
    video flows from the background load per flow queue.  This runs
    the Setting 2-2 workload under all four disciplines through the
    ``queue_discipline`` session axis and compares the measured
    loss-event rate and the late fraction at two startup delays.
    """
    mu, taus = 50.0, (4.0, 8.0)
    config = CALIBRATED_CONFIGS[2]
    paths = [config.path_config, config.path_config]
    rows = []
    for discipline in QUEUE_DISCIPLINES:
        lates = {tau: [] for tau in taus}
        ps = []
        for run_idx in range(profile.runs):
            session = MultiSessionCampaign(
                mu=mu, duration_s=profile.duration_s, paths=paths,
                scheme="dmp", seed=440 + run_idx,
                queue_discipline=discipline)
            (result,) = session.run().sessions
            for tau in taus:
                lates[tau].append(result.late_fraction(tau))
            ps.append(result.flow_stats[0]["loss_event_estimate"])
        rows.append([
            discipline,
            f"{sum(ps) / len(ps):.4f}",
            f"{sum(lates[4.0]) / len(lates[4.0]):.3e}",
            f"{sum(lates[8.0]) / len(lates[8.0]):.3e}",
        ])
    return render_table(
        ["bottleneck queue", "video p (events)", "late frac tau=4",
         "late frac tau=8"],
        rows,
        title=f"Ablation: bottleneck AQM disciplines, Setting 2-2 "
              f"(profile={profile.name})")


def build_ablation_sendbuf(profile: ScaleProfile) -> str:
    """Ablation — TCP send-buffer size in DMP-streaming.

    The send buffer is the mechanism DMP schedules on: too small and
    the TCP pipe runs dry below its fair share; too large and packets
    sit in a per-path head-of-line queue that eats into the startup
    delay and deepens cross-path reordering.  The sweep on Setting 2-2
    justifies the library's default of 16 packets.
    """
    setting = HOMOGENEOUS_SETTINGS["2-2"]
    rows = []
    for buf in (4, 8, 16, 32, 64):
        run = run_setting(setting, taus=(4.0, 8.0), profile=profile,
                          seed0=330, send_buffer_pkts=buf,
                          run_model=False)
        rows.append([
            buf,
            f"{run.point(4.0).sim_mean:.3e}",
            f"{run.point(8.0).sim_mean:.3e}",
            f"{run.point(4.0).sim_arrival_order_mean:.3e}",
        ])
    return render_table(
        ["send buffer (pkts)", "late frac tau=4", "late frac tau=8",
         "arrival-order late frac tau=4"],
        rows,
        title=f"Ablation: send-buffer size, Setting 2-2 "
              f"(profile={profile.name})")


def build_ablation_lossmodel(profile: ScaleProfile) -> str:
    """Ablation — the chain's loss model: bursty (paper) vs sparse.

    DESIGN.md documents the calibration: the paper-faithful bursty
    within-round loss process under-predicts this simulator's TCP
    throughput by ~10%, which matters enormously near sigma_a/mu ~ 1.
    For the measured Setting 2-2 operating point, this compares the two
    variants' achievable throughput and predicted late fractions
    against the simulation.
    """
    taus = (4.0, 6.0, 8.0)
    setting = HOMOGENEOUS_SETTINGS["2-2"]
    run = run_setting(setting, taus=taus, profile=profile,
                      seed0=550, run_model=False)

    variants = {}
    for loss_model in ("bursty", "sparse"):
        flows = [FlowParams(p=max(m["p"], 1e-4), rtt=m["rtt"],
                            to_ratio=max(m["to"], 1.0),
                            loss_model=loss_model)
                 for m in run.measured]
        model = DmpModel(flows, mu=setting.mu, tau=taus[0])
        predictions = {}
        for tau in taus:
            predictions[tau] = model.with_tau(tau).late_fraction_mc(
                horizon_s=profile.model_horizon_s,
                seed=550).late_fraction
        variants[loss_model] = (model.throughput_ratio, predictions)

    rows = []
    for tau in taus:
        point = run.point(tau)
        rows.append([
            f"{tau:g}", f"{point.sim_mean:.3e}",
            f"{variants['bursty'][1][tau]:.3e}",
            f"{variants['sparse'][1][tau]:.3e}",
        ])
    header = (f"sigma_a/mu: bursty={variants['bursty'][0]:.2f} "
              f"sparse={variants['sparse'][0]:.2f}\n")
    return header + render_table(
        ["tau (s)", "sim f", "model f (bursty)", "model f (sparse)"],
        rows,
        title=f"Ablation: chain loss model vs simulation, Setting 2-2 "
              f"(profile={profile.name})")


def build_ablation_tcp_variant(profile: ScaleProfile) -> str:
    """Ablation — TCP variant of the video flows: Reno/NewReno/SACK.

    The paper streams over Reno (its era's default).  NewReno's
    partial-ACK recovery converts burst-loss timeouts into smooth
    multi-RTT recoveries, and SACK retransmits exactly the holes, which
    should reduce the deep buffer deficits that dominate late packets.
    """
    taus = (4.0, 6.0, 8.0)
    setting = HOMOGENEOUS_SETTINGS["2-2"]
    paths = setting.path_configs()
    rows = []
    for variant in ("reno", "newreno", "sack"):
        lates = {tau: [] for tau in taus}
        timeouts = []
        for run_idx in range(profile.runs):
            session = MultiSessionCampaign(
                mu=setting.mu, duration_s=profile.duration_s,
                paths=paths, scheme="dmp", seed=660 + run_idx,
                tcp_variant=variant)
            (result,) = session.run().sessions
            for tau in taus:
                lates[tau].append(result.late_fraction(tau))
            timeouts.append(sum(s["timeouts"]
                                for s in result.flow_stats))
        rows.append([
            variant,
            f"{sum(timeouts) / len(timeouts):.1f}",
            *(f"{sum(lates[tau]) / len(lates[tau]):.3e}"
              for tau in taus),
        ])
    return render_table(
        ["TCP variant", "video timeouts/run",
         *(f"late frac tau={tau:g}" for tau in taus)],
        rows,
        title=f"Ablation: TCP variants for the video flows, "
              f"Setting 2-2 (profile={profile.name})")


def build_ablation_kpaths(profile: ScaleProfile) -> str:
    """Extension — more than two paths (the paper's future work).

    Section 7 fixes K = 2.  This splits a FIXED aggregate achievable
    throughput across K in {1, 2, 3, 4} homogeneous paths (each path
    gets 1/K of it via a K-times-larger RTT) and asks the model for the
    late fraction and required startup delay at sigma_a/mu = 1.6.

    Shape to check (an informative negative result): under stationary
    independent loss the required delay is nearly flat in K.  The
    multipath benefit comes from dynamic reallocation under transient
    outages (Section 7.3) and from the comparison against static
    splitting (Fig. 11).
    """
    p, to, mu, ratio = 0.02, 4.0, 25.0, 1.6
    horizon = profile.model_horizon_s
    rows = []
    for k in (1, 2, 3, 4):
        # Each path carries 1/K of a fixed aggregate throughput.
        rtt = rtt_for_ratio(p, to, mu, ratio, k=k)
        flow = FlowParams(p=p, rtt=rtt, to_ratio=to)
        model = DmpModel([flow] * k, mu=mu, tau=6.0)
        f6 = model.late_fraction_mc(horizon_s=horizon,
                                    seed=13).late_fraction
        f10 = model.with_tau(10.0).late_fraction_mc(
            horizon_s=horizon, seed=13).late_fraction
        required = model.required_startup_delay(
            threshold=1e-4, horizon_s=horizon, seed=13)
        rows.append([k, f"{rtt * 1e3:.0f}",
                     f"{model.throughput_ratio:.2f}",
                     f"{f6:.3e}", f"{f10:.3e}", required])
    return render_table(
        ["K paths", "per-path RTT (ms)", "sigma_a/mu",
         "late frac tau=6", "late frac tau=10", "required tau (s)"],
        rows,
        title=f"Extension: path count at fixed aggregate throughput "
              f"(p={p}, TO={to:g}, mu={mu:g}, "
              f"profile={profile.name})")


def build_receiver_buffer(profile: ScaleProfile) -> str:
    """Extension — receiver playout-buffer requirement.

    The paper assumes an ample client buffer; its related work [16]
    asks how much receiver buffer TCP streaming needs.  Live streaming
    bounds the useful buffer by mu*tau early packets (Section 2.1), so
    the prediction is a knee: capacity >= mu*tau changes nothing,
    capacity below it erases the startup delay's protection.  The
    sweep runs Setting 2-2 with TCP flow control back-pressuring the
    senders (no client-side drops).
    """
    tau = 8.0
    setting = HOMOGENEOUS_SETTINGS["2-2"]
    paths = setting.path_configs()
    mu_tau = int(setting.mu * tau)
    capacities = [mu_tau // 8, mu_tau // 4, mu_tau // 2, mu_tau,
                  2 * mu_tau]
    rows = []
    for capacity in capacities:
        lates = []
        zero_wnd = []
        for run_idx in range(profile.runs):
            session = MultiSessionCampaign(
                mu=setting.mu, duration_s=profile.duration_s,
                paths=paths, scheme="dmp", seed=880 + run_idx,
                client_buffer_pkts=capacity, client_tau=tau)
            (result,) = session.run().sessions
            lates.append(result.late_fraction(tau))
            (assembly,) = session.assemblies
            zero_wnd.append(assembly.client.zero_window_acks)
        rows.append([
            capacity, f"{capacity / mu_tau:.2f}",
            f"{sum(lates) / len(lates):.3e}",
            f"{sum(zero_wnd) / len(zero_wnd):.0f}",
        ])
    return render_table(
        ["client buffer (pkts)", "x mu*tau", f"late frac tau={tau:g}",
         "zero-window events"],
        rows,
        title=f"Extension: receiver-buffer requirement, Setting 2-2 "
              f"(mu*tau = {mu_tau} pkts, profile={profile.name})")


def build_transient_validation(profile: ScaleProfile) -> str:
    """Extension — transient (finite-video) model vs finite runs.

    The paper validates the stationary model against 10,000 s runs.
    At shorter video lengths the stationary answer overstates lateness
    (rare deep-deficit excursions dominate its tail but rarely occur
    within a short clip).  The transient solver models the finite
    video directly — startup ramp, live cap and end-of-video drain —
    and should track the finite simulations more tightly.
    """
    setting = HOMOGENEOUS_SETTINGS["2-2"]
    run = run_setting(setting, taus=(4.0, 6.0, 8.0), profile=profile,
                      seed0=770)

    rows = []
    for point in run.points:
        model = DmpModel(run.flow_params, mu=setting.mu,
                         tau=point.tau)
        transient = model.late_fraction_transient(
            video_s=profile.duration_s,
            replications=max(profile.runs * 3, 10), seed=770)
        rows.append([
            f"{point.tau:g}",
            f"{point.sim_mean:.3e}",
            f"{point.model_f:.3e}",
            f"{transient.late_fraction:.3e}",
            f"{transient.stderr:.1e}",
        ])
    return render_table(
        ["tau (s)", f"sim f ({profile.duration_s:.0f}s video)",
         "stationary model f", "transient model f", "transient se"],
        rows,
        title=f"Extension: transient vs stationary model, Setting 2-2 "
              f"(profile={profile.name})")


BUILDERS = {
    "table1": build_table1,
    "table2": build_table2,
    "table3": build_table3,
    "fig4": build_fig4,
    "fig5": build_fig5,
    "fig7": build_fig7,
    "fig8": build_fig8,
    "fig9": build_fig9,
    "fig10": build_fig10,
    "fig11": build_fig11,
    "sec73": lambda profile: build_sec73(),
    "sec73_sim": build_sec73_sim,
    "ablation_queue": build_ablation_queue,
    "ablation_sendbuf": build_ablation_sendbuf,
    "ablation_lossmodel": build_ablation_lossmodel,
    "ablation_tcp_variant": build_ablation_tcp_variant,
    "ablation_kpaths": build_ablation_kpaths,
    "receiver_buffer": build_receiver_buffer,
    "transient_validation": build_transient_validation,
}
