"""Certified worst-case envelopes for DMP streaming (SMT + search).

Where the rest of the repository *estimates* (packet simulation,
Monte-Carlo kernels, mean-field limits), this package *certifies*:
given integer network-calculus budgets per path, its queries return
exact worst-case quantities together with an adversarial witness trace
and an implicit UNSAT certificate one packet above.

Import surface is dependency-light: ``z3-solver`` (the ``verify``
extra) is only imported when a query actually runs on the z3 engine;
small instances fall back to complete enumeration.
"""

from repro.verify.cex import (AdversaryChoices, Trace, TraceRound,
                              TraceViolation, format_trace,
                              load_trace_jsonl, replay_trace,
                              trace_to_jsonl, write_trace_jsonl)
from repro.verify.exhaustive import (VerifyTooLarge,
                                     exhaustive_feasible)
from repro.verify.queries import (EngineMismatchError, EnvelopeResult,
                                  SchemeComparison, StarvationResult,
                                  compare_schemes, have_z3,
                                  max_late_envelope, max_starvation,
                                  resolve_engine)
from repro.verify.spec import PathBudget, VerifySpec

__all__ = [
    "AdversaryChoices",
    "EngineMismatchError",
    "EnvelopeResult",
    "PathBudget",
    "SchemeComparison",
    "StarvationResult",
    "Trace",
    "TraceRound",
    "TraceViolation",
    "VerifySpec",
    "VerifyTooLarge",
    "compare_schemes",
    "exhaustive_feasible",
    "format_trace",
    "have_z3",
    "load_trace_jsonl",
    "max_late_envelope",
    "max_starvation",
    "replay_trace",
    "resolve_engine",
    "trace_to_jsonl",
    "write_trace_jsonl",
]
