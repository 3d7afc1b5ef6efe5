"""Builders that regenerate each of the paper's tables and figures.

Each function runs the experiment at the given scale profile and
returns the rendered plain-text artefact.  They are shared by the
pytest benchmarks (``benchmarks/bench_*.py``) and the command-line
runner (``python -m repro.experiments.cli``).
"""

from __future__ import annotations

from typing import Optional

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
from repro.experiments.runner import (
    ScaleProfile,
    run_setting,
    scale_profile,
)
from repro.experiments.sweep import (
    fig8_curves,
    fig9a_rows,
    fig9b_rows,
    fig10_rows,
    fig11_rows,
)
from repro.model.fluid import compare_dmp_vs_single
from repro.sim.engine import Simulator
from repro.sim.topology import SharedBottleneckTopology
from repro.traffic.ftp import FtpFlow
from repro.traffic.http import HttpFlow

VALIDATION_TAUS = (3.0, 4.0, 6.0, 8.0, 10.0, 11.0)


def _profile(profile: Optional[ScaleProfile]) -> ScaleProfile:
    return profile if profile is not None else scale_profile()


# ---------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------
def build_table1(profile: Optional[ScaleProfile] = None,
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
def build_table2(profile: Optional[ScaleProfile] = None) -> str:
    """Measured (p, R, T_O, mu) for every independent-path setting."""
    profile = _profile(profile)
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


def build_table3(profile: Optional[ScaleProfile] = None) -> str:
    """Correlated paths: measured parameters + model validation.

    The extra column quantifies Section 5.3's argument directly: the
    windowed loss-indicator correlation of the two video flows on the
    shared bottleneck (low values justify the model's independence
    assumption).
    """
    profile = _profile(profile)
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
                            profile: Optional[ScaleProfile] = None,
                            seed0: int = 220) -> str:
    """The two panels of Fig. 4 (homogeneous) / Fig. 5 (hetero)."""
    profile = _profile(profile)
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


def build_fig4(profile: Optional[ScaleProfile] = None) -> str:
    """Fig. 4 panels for Setting 2-2 (homogeneous validation)."""
    return build_validation_panels("2-2", "4", profile, seed0=220)


def build_fig5(profile: Optional[ScaleProfile] = None) -> str:
    """Fig. 5 panels for Setting 1-2 (heterogeneous validation)."""
    return build_validation_panels("1-2", "5", profile, seed0=120)


# ---------------------------------------------------------------------
# Fig. 7 (emulated Internet)
# ---------------------------------------------------------------------
def build_fig7(profile: Optional[ScaleProfile] = None,
               taus=(4.0, 6.0, 8.0, 10.0)) -> str:
    """Fig. 7: emulated Internet experiments vs the model."""
    profile = _profile(profile)
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
def build_fig8(profile: Optional[ScaleProfile] = None) -> str:
    """Fig. 8: late fraction vs startup delay across sigma_a/mu."""
    profile = _profile(profile)
    taus = tuple(range(2, 31, 2))
    curves = fig8_curves(p=0.02, to_ratio=4.0, mu=25.0,
                         ratios=(1.2, 1.4, 1.6, 1.8, 2.0), taus=taus,
                         horizon_s=profile.model_horizon_s, seed=8)
    series = {f"sigma_a/mu={ratio:g}": points
              for ratio, points in curves.items()}
    return render_series(
        f"Fig 8: late fraction vs startup delay, p=0.02, TO=4, mu=25 "
        f"(profile={profile.name})",
        series, x_label="tau (s)", y_label="late fraction")


def build_fig9(profile: Optional[ScaleProfile] = None) -> str:
    """Fig. 9: required startup delay, homogeneous paths."""
    profile = _profile(profile)
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


def build_fig10(profile: Optional[ScaleProfile] = None) -> str:
    """Fig. 10: required delay, homogeneous vs heterogeneous."""
    profile = _profile(profile)
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


def build_fig11(profile: Optional[ScaleProfile] = None) -> str:
    """Fig. 11: required startup delay, DMP vs static."""
    profile = _profile(profile)
    losses = (0.02, 0.04) if profile.name == "quick" \
        else (0.004, 0.02, 0.04)
    groups = ((0.100, 1.6), (0.200, 1.6), (0.300, 1.6), (0.300, 1.8),
              (0.300, 2.0))
    rows = fig11_rows(to_ratio=4.0, losses=losses, groups=groups,
                      horizon_s=profile.model_horizon_s, seed=11)
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
    "sec73": lambda profile=None: build_sec73(),
}
