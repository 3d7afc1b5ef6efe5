"""repro-lint: domain-aware static analysis for this repository.

The generic ruff pass catches undefined names and unused imports; this
package encodes the *domain* invariants that every PR so far has had to
defend by hand:

* bit-identical determinism under a seeded RNG (RL001, RL002),
* observability names and probe payloads matching the one name table,
  ``repro.obs.names.NAMES`` (RL003),
* cache keys covering every field that affects results (RL004),
* no float equality in the analytical model (RL005).

Run it as ``python -m tools.repro_lint src tests benchmarks``.  Output
is ruff-style ``path:line:col: RULE message`` lines, exit status 1 when
anything is found.  Findings are suppressed inline with::

    something_flagged()  # repro-lint: disable=RL001 -- why it is fine

Suppressions that suppress nothing are themselves findings (RL000), so
stale suppressions cannot accumulate.  See ``docs/static-analysis.md``
for the rule catalogue and the policy on adding rules.
"""

from tools.repro_lint.engine import (
    Finding,
    Project,
    SourceFile,
    lint_paths,
    lint_project,
    load_project,
)

__all__ = [
    "Finding",
    "Project",
    "SourceFile",
    "lint_paths",
    "lint_project",
    "load_project",
]
