"""Ablation — the loss process: drop-tail vs RED vs PIE vs FQ-PIE.

The paper's validation (and our calibration of the chain's loss model)
rests on drop-tail buffer overflow.  AQM bottlenecks change the loss
process the video flows see: RED spreads drops over the average queue,
PIE (RFC 8033) regulates queueing *delay* to a 15 ms target, and
FQ-PIE (RFC 8290 scheduling) additionally isolates the video flows
from the background load per flow queue.  This ablation runs the
Setting 2-2 workload under all four disciplines — through the
first-class ``queue_discipline`` session axis, so cache keys, probes
and replication plumbing all see the real scenario — and compares the
measured loss-event rate and the late fraction at two startup delays.
"""

from conftest import run_once

from repro.experiments.configs import CALIBRATED_CONFIGS
from repro.experiments.report import render_table
from repro.experiments.runner import scale_profile
from repro.core.campaign import MultiSessionCampaign
from repro.sim.queueing import QUEUE_DISCIPLINES

MU = 50.0
TAUS = (4.0, 8.0)


def _run(discipline: str, profile, seed: int):
    config = CALIBRATED_CONFIGS[2]
    paths = [config.path_config, config.path_config]
    session = MultiSessionCampaign(mu=MU, duration_s=profile.duration_s,
                                   paths=paths, scheme="dmp", seed=seed,
                                   queue_discipline=discipline)
    (result,) = session.run().sessions
    return result


def _build():
    profile = scale_profile()
    rows = []
    for discipline in QUEUE_DISCIPLINES:
        lates = {tau: [] for tau in TAUS}
        ps = []
        for run_idx in range(profile.runs):
            result = _run(discipline, profile, seed=440 + run_idx)
            for tau in TAUS:
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


def test_ablation_queue(benchmark, artifact):
    text = run_once(benchmark, _build)
    artifact("ablation_queue.txt", text)
    for discipline in QUEUE_DISCIPLINES:
        assert discipline in text
