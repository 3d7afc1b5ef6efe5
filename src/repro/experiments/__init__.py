"""The paper's experiment matrix.

* :mod:`repro.experiments.configs` — Table-1 bottleneck configurations
  and the Settings i-j of Section 5 (plus our recalibrated operating
  points, see module docstring).
* :mod:`repro.experiments.runner` — replicated simulation runs with
  confidence intervals and model comparison (Figs. 4-6, Tables 2-3).
* :mod:`repro.experiments.measure` — the windowed loss correlation of
  two flows in a packet trace (Table 3).
* :mod:`repro.experiments.internet` — emulated wide-area experiments
  standing in for the paper's PlanetLab runs (Fig. 7).
* :mod:`repro.experiments.sweep` — the Section-7 model-based parameter
  exploration (Figs. 8-11).
* :mod:`repro.experiments.parallel` — process-pool fan-out of
  replications and model solves with deterministic seeding.
* :mod:`repro.experiments.cache` — on-disk memoisation of simulated
  runs and model solves.
* :mod:`repro.experiments.report` — plain-text table/figure rendering.
"""

from repro.experiments.cache import CODE_VERSION, ResultCache
from repro.experiments.configs import (
    CALIBRATED_CONFIGS,
    CORRELATED_SETTINGS,
    HETEROGENEOUS_SETTINGS,
    HOMOGENEOUS_SETTINGS,
    PAPER_TABLE1,
    LinkConfig,
    Setting,
)
from repro.experiments.parallel import (
    ModelTask,
    ReplicationExecutor,
    RunSpec,
)
from repro.experiments.runner import (
    ReplicatedRun,
    ScaleProfile,
    run_setting,
    scale_profile,
)
from repro.experiments.scenarios import build_run

__all__ = [
    "build_run",
    "LinkConfig",
    "Setting",
    "PAPER_TABLE1",
    "CALIBRATED_CONFIGS",
    "HOMOGENEOUS_SETTINGS",
    "HETEROGENEOUS_SETTINGS",
    "CORRELATED_SETTINGS",
    "ScaleProfile",
    "scale_profile",
    "ReplicatedRun",
    "run_setting",
    "ReplicationExecutor",
    "RunSpec",
    "ModelTask",
    "ResultCache",
    "CODE_VERSION",
]
