"""Ablation — TCP variant of the video flows: Reno vs NewReno vs SACK.

The paper streams over Reno (its era's default).  NewReno's
partial-ACK recovery converts burst-loss timeouts into smooth
multi-RTT recoveries, and SACK retransmits exactly the holes, which
should reduce the deep buffer deficits that dominate late packets.
This ablation reruns Setting 2-2 with all three variants.
"""

from conftest import run_once

from repro.experiments.configs import HOMOGENEOUS_SETTINGS
from repro.experiments.report import render_table
from repro.experiments.runner import scale_profile
from repro.core.campaign import MultiSessionCampaign

TAUS = (4.0, 6.0, 8.0)


def _build():
    profile = scale_profile()
    setting = HOMOGENEOUS_SETTINGS["2-2"]
    paths = setting.path_configs()
    rows = []
    for variant in ("reno", "newreno", "sack"):
        lates = {tau: [] for tau in TAUS}
        timeouts = []
        for run_idx in range(profile.runs):
            session = MultiSessionCampaign(
                mu=setting.mu, duration_s=profile.duration_s,
                paths=paths, scheme="dmp", seed=660 + run_idx,
                tcp_variant=variant)
            (result,) = session.run().sessions
            for tau in TAUS:
                lates[tau].append(result.late_fraction(tau))
            timeouts.append(sum(s["timeouts"]
                                for s in result.flow_stats))
        rows.append([
            variant,
            f"{sum(timeouts) / len(timeouts):.1f}",
            *(f"{sum(lates[tau]) / len(lates[tau]):.3e}"
              for tau in TAUS),
        ])
    return render_table(
        ["TCP variant", "video timeouts/run",
         *(f"late frac tau={tau:g}" for tau in TAUS)],
        rows,
        title=f"Ablation: TCP variants for the video flows, "
              f"Setting 2-2 (profile={profile.name})")


def test_ablation_tcp_variant(benchmark, artifact):
    text = run_once(benchmark, _build)
    artifact("ablation_tcp_variant.txt", text)
    assert "newreno" in text
