"""Extension — receiver playout-buffer requirement (the [16] question).

The paper assumes an ample client buffer; its related work [16] asks
how much receiver buffer TCP streaming actually needs.  Live streaming
bounds the useful buffer by mu*tau early packets (Section 2.1), so the
prediction is a knee: capacity >= mu*tau changes nothing, capacity
below it erases the startup delay's protection and lateness rises.

This bench sweeps the client buffer on the Setting 2-2 workload with
TCP flow control back-pressuring the senders (no client-side drops).
"""

from conftest import run_once

from repro.experiments.configs import HOMOGENEOUS_SETTINGS
from repro.experiments.report import render_table
from repro.experiments.runner import scale_profile
from repro.core.campaign import MultiSessionCampaign

TAU = 8.0


def _build():
    profile = scale_profile()
    setting = HOMOGENEOUS_SETTINGS["2-2"]
    paths = setting.path_configs()
    mu_tau = int(setting.mu * TAU)
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
                client_buffer_pkts=capacity, client_tau=TAU)
            (result,) = session.run().sessions
            lates.append(result.late_fraction(TAU))
            (assembly,) = session.assemblies
            zero_wnd.append(assembly.client.zero_window_acks)
        rows.append([
            capacity, f"{capacity / mu_tau:.2f}",
            f"{sum(lates) / len(lates):.3e}",
            f"{sum(zero_wnd) / len(zero_wnd):.0f}",
        ])
    return render_table(
        ["client buffer (pkts)", "x mu*tau", f"late frac tau={TAU:g}",
         "zero-window events"],
        rows,
        title=f"Extension: receiver-buffer requirement, Setting 2-2 "
              f"(mu*tau = {mu_tau} pkts, profile={profile.name})")


def test_receiver_buffer(benchmark, artifact):
    text = run_once(benchmark, _build)
    artifact("receiver_buffer.txt", text)
    assert "mu*tau" in text
