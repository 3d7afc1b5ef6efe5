"""Verification queries: certified envelopes and their witnesses.

Every query follows the CCAC recipe: ask the solver whether an
adversarial trace with objective ``>= m`` exists, binary-search the
largest satisfiable ``m``, and keep the UNSAT answer at ``m + 1`` as
the certificate.  Two interchangeable engines answer the SAT
questions:

``"z3"``
    The SMT encoding of :mod:`repro.verify.model` (scales to the
    instance sizes matched against the packet simulator).
``"exhaustive"``
    Complete enumeration (:mod:`repro.verify.exhaustive`) for small
    instances — no extra dependency, same exactness guarantee.

Either way, a claimed optimum is only reported after its witness
replays through :func:`repro.verify.cex.replay_trace` to exactly the
claimed value, so every envelope in this module is *tight by
construction*.  Results are cached by full-spec key (see
``ResultCache.verify_key_payload``) because they are exact: a cache
hit is re-validated by replaying the stored witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple, Union

from repro.experiments.optional_deps import MissingDependencyError
from repro.verify.cex import (AdversaryChoices, Trace, TraceViolation,
                              replay_trace)
from repro.verify.exhaustive import (exhaustive_feasible,
                                     max_late_exhaustive,
                                     max_starvation_exhaustive)
from repro.verify.model import make_solver, z3_module
from repro.verify.spec import VerifySpec
from repro.verify.variables import Variables

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.cache import ResultCache

__all__ = [
    "EngineMismatchError",
    "EnvelopeResult",
    "StarvationResult",
    "SchemeComparison",
    "have_z3",
    "resolve_engine",
    "max_late_envelope",
    "max_starvation",
    "compare_schemes",
]

_CacheArg = Union["ResultCache", bool, None]


class EngineMismatchError(RuntimeError):
    """An engine's claim disagreed with the deterministic replay —
    an encoding bug, never a property of the instance."""


def have_z3() -> bool:
    try:
        import z3  # noqa: F401
    except ImportError:
        return False
    return True


def resolve_engine(spec: VerifySpec,
                   engine: Optional[str] = None) -> str:
    """Pick the engine: explicit request, else z3 when installed,
    else exhaustive when the instance is small enough."""
    if engine in (None, "auto"):
        if have_z3():
            return "z3"
        if exhaustive_feasible(spec):
            return "exhaustive"
        # Too large for enumeration and no solver installed: the
        # actionable fix is installing the verify extra.
        raise MissingDependencyError(
            "z3", extra="verify", package="z3-solver"
        )
    if engine == "z3":
        z3_module()  # raises MissingDependencyError when absent
        return "z3"
    if engine == "exhaustive":
        return "exhaustive"
    raise ValueError(
        f"unknown engine {engine!r}: expected 'z3', 'exhaustive' "
        "or 'auto'"
    )


# -- results ----------------------------------------------------------


@dataclass(frozen=True)
class EnvelopeResult:
    """A certified worst-case late-packet envelope.

    ``max_late`` is exact: there is an adversarial trace (``witness``)
    achieving it, and no budget-respecting trace can exceed it (the
    UNSAT certificate at ``unsat_threshold``).
    """

    spec: VerifySpec
    scheme: str
    engine: str
    max_late: int
    witness: Trace
    from_cache: bool = False

    @property
    def total_packets(self) -> int:
        return self.spec.total_packets

    @property
    def late_fraction(self) -> float:
        return self.max_late / self.spec.total_packets

    @property
    def unsat_threshold(self) -> int:
        """Smallest late count proven unreachable."""
        return self.max_late + 1


@dataclass(frozen=True)
class StarvationResult:
    """Certified maximum run of consecutive starved playout rounds."""

    spec: VerifySpec
    scheme: str
    engine: str
    max_rounds: int
    witness: Trace
    from_cache: bool = False

    def can_starve(self, d: int) -> bool:
        """Can any trace starve the playout buffer >= d rounds in a
        row?"""
        return self.max_rounds >= d


@dataclass(frozen=True)
class SchemeComparison:
    """DMP vs the paper's static split, under identical budgets."""

    dmp: EnvelopeResult
    static: EnvelopeResult

    @property
    def advantage(self) -> int:
        """Static's certified worst case minus DMP's (positive means
        DMP is provably more robust on this instance)."""
        return self.static.max_late - self.dmp.max_late

    @property
    def dmp_strictly_better(self) -> bool:
        return self.advantage > 0


# -- witness serialization (cache records) ----------------------------


def _choices_to_record(ch: AdversaryChoices) -> Dict[str, Any]:
    return {
        "shortfall": [list(row) for row in ch.shortfall],
        "lost": [list(row) for row in ch.lost],
        "fill": [list(row) for row in ch.fill]
        if ch.fill is not None else None,
    }


def _choices_from_record(record: Dict[str, Any]) -> AdversaryChoices:
    fill = record["choices"]["fill"]
    return AdversaryChoices(
        shortfall=tuple(
            tuple(int(x) for x in row)
            for row in record["choices"]["shortfall"]
        ),
        lost=tuple(
            tuple(int(x) for x in row)
            for row in record["choices"]["lost"]
        ),
        fill=tuple(
            tuple(int(x) for x in row) for row in fill
        ) if fill is not None else None,
    )


def _cached_witness(
    cache: _CacheArg, spec: VerifySpec, scheme: str, engine: str,
    query: str, expect: str,
) -> Optional[Tuple[int, Trace]]:
    """Validated cache lookup: the stored witness must replay to the
    stored value (a corrupt record degrades to a miss)."""
    from repro.experiments.cache import resolve_cache

    rc = resolve_cache(cache)
    if rc is None:
        return None
    record = rc.get_verify(spec, scheme=scheme, engine=engine,
                           query=query)
    if record is None:
        return None
    try:
        trace = replay_trace(
            spec, _choices_from_record(record), scheme
        )
        value = int(record["value"])
        actual = (trace.late_total if expect == "late"
                  else trace.max_starvation)
        if actual == value:
            return value, trace
    except (TraceViolation, KeyError, TypeError, ValueError):
        pass
    return None


def _store_witness(
    cache: _CacheArg, spec: VerifySpec, scheme: str, engine: str,
    query: str, value: int, choices: AdversaryChoices,
) -> None:
    from repro.experiments.cache import resolve_cache

    rc = resolve_cache(cache)
    if rc is not None:
        rc.put_verify(
            spec, scheme=scheme, engine=engine, query=query,
            record={
                "value": value,
                "choices": _choices_to_record(choices),
            },
        )


# -- z3 search --------------------------------------------------------


def _extract_choices(
    z3: Any, mdl: Any, v: Variables, spec: VerifySpec, scheme: str
) -> AdversaryChoices:
    def val(var: Any) -> int:
        return int(
            mdl.eval(var, model_completion=True).as_long()
        )

    tt, kk = spec.rounds, spec.n_paths
    return AdversaryChoices(
        shortfall=tuple(
            tuple(val(v.shortfall[k][t]) for k in range(kk))
            for t in range(tt)
        ),
        lost=tuple(
            tuple(val(v.lost[k][t]) for k in range(kk))
            for t in range(tt)
        ),
        fill=tuple(
            tuple(val(v.fill[k][t]) for k in range(kk))
            for t in range(tt)
        ) if scheme == "dmp" else None,
    )


def _binary_search_z3(
    spec: VerifySpec, scheme: str, hi: int, objective: str
) -> Tuple[int, AdversaryChoices]:
    """Largest m such that a trace with <objective> >= m exists,
    CCAC-style: SAT pushes the floor (replaying the model may push it
    past mid), UNSAT at m+1 is the certificate."""
    solver, v, z3 = make_solver(spec, scheme)

    def measure(ch: AdversaryChoices) -> int:
        trace = replay_trace(spec, ch, scheme)
        return (trace.late_total if objective == "late"
                else trace.max_starvation)

    def threshold(m: int) -> Any:
        if objective == "late":
            return v.late_total >= m
        return z3.Or([s >= m for s in v.streak])

    if solver.check() != z3.sat:
        raise EngineMismatchError(
            "base model is unsatisfiable — encoding bug"
        )
    best = _extract_choices(z3, solver.model(), v, spec, scheme)
    lo = measure(best)

    while lo < hi:
        mid = (lo + hi + 1) // 2
        solver.push()
        solver.add(threshold(mid))
        res = solver.check()
        if res == z3.sat:
            ch = _extract_choices(
                z3, solver.model(), v, spec, scheme
            )
            solver.pop()
            got = measure(ch)
            if got < mid:
                raise EngineMismatchError(
                    f"solver claims {objective} >= {mid} but the "
                    f"witness replays to {got}"
                )
            best, lo = ch, got
        elif res == z3.unsat:
            solver.pop()
            hi = mid - 1
        else:
            solver.pop()
            raise EngineMismatchError(
                f"solver returned {res} for threshold {mid}"
            )
    return lo, best


# -- public queries ---------------------------------------------------


def max_late_envelope(
    spec: VerifySpec,
    scheme: str = "dmp",
    engine: Optional[str] = None,
    cache: _CacheArg = None,
) -> EnvelopeResult:
    """Certified maximum number of late packets over the horizon."""
    eng = resolve_engine(spec, engine)
    hit = _cached_witness(cache, spec, scheme, eng, "max_late",
                          "late")
    if hit is not None:
        return EnvelopeResult(spec, scheme, eng, hit[0], hit[1],
                              from_cache=True)
    if eng == "exhaustive":
        value, choices = max_late_exhaustive(spec, scheme)
    else:
        value, choices = _binary_search_z3(
            spec, scheme, spec.total_packets, "late"
        )
    witness = replay_trace(spec, choices, scheme)
    if witness.late_total != value:
        raise EngineMismatchError(
            f"engine {eng} claims max_late={value} but its witness "
            f"replays to {witness.late_total}"
        )
    _store_witness(cache, spec, scheme, eng, "max_late", value,
                   choices)
    return EnvelopeResult(spec, scheme, eng, value, witness)


def max_starvation(
    spec: VerifySpec,
    scheme: str = "dmp",
    engine: Optional[str] = None,
    cache: _CacheArg = None,
) -> StarvationResult:
    """Certified maximum run of consecutive starved playout rounds
    (answers "can the buffer ever starve for >= d rounds" for every
    d at once)."""
    eng = resolve_engine(spec, engine)
    hit = _cached_witness(cache, spec, scheme, eng, "max_starvation",
                          "starve")
    if hit is not None:
        return StarvationResult(spec, scheme, eng, hit[0], hit[1],
                                from_cache=True)
    if eng == "exhaustive":
        value, choices = max_starvation_exhaustive(spec, scheme)
    else:
        value, choices = _binary_search_z3(
            spec, scheme, spec.rounds - spec.tau, "starve"
        )
    witness = replay_trace(spec, choices, scheme)
    if witness.max_starvation != value:
        raise EngineMismatchError(
            f"engine {eng} claims max_starvation={value} but its "
            f"witness replays to {witness.max_starvation}"
        )
    _store_witness(cache, spec, scheme, eng, "max_starvation", value,
                   choices)
    return StarvationResult(spec, scheme, eng, value, witness)


def compare_schemes(
    spec: VerifySpec,
    engine: Optional[str] = None,
    cache: _CacheArg = None,
) -> SchemeComparison:
    """DMP vs static split under identical path budgets."""
    return SchemeComparison(
        dmp=max_late_envelope(spec, "dmp", engine, cache),
        static=max_late_envelope(spec, "static", engine, cache),
    )
