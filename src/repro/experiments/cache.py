"""On-disk result cache for simulated replications and model solves.

Every replication of :func:`repro.experiments.runner.run_setting` is a
pure function of ``(Setting, duration, scheme, seed, send buffer)`` —
the simulator is deterministic given its seed — so its result can be
memoised across processes and invocations.  The cache stores one JSON
record per simulation run (and per model Monte-Carlo solve) under a
content-addressed filename::

    <cache dir>/<sha256 of the canonical key>.json

The directory defaults to ``~/.cache/repro`` and is overridable with
the ``REPRO_CACHE_DIR`` environment variable or an explicit
``directory`` argument.

Records store what a run measured, never a number derived at one
startup delay: packet ``i`` is late when it arrives after
``tau + i/mu`` (Section 2), so one run's arrivals answer every tau.
A packet-run record holds ``flow_stats`` plus its one session's
``{"total_packets": n, "arrivals": [[number, t], ...]}`` under
``sessions``, with ``t`` on the session's video clock.
:func:`run_late_fractions` answers any tau on read, bit-identical to
the live result (JSON floats round-trip exactly).  Model records keep tau in their key: ``Nmax = mu*tau`` is a
model parameter.

Invalidation: every key embeds :data:`CODE_VERSION`.  Bump it whenever
a change alters simulation or model output for the same inputs
(topology construction, RNG consumption order, TCP behaviour, metric
definitions...).  Stale records are then never read again; they can be
garbage-collected by deleting the cache directory.

Robustness: a record that cannot be read or parsed (truncated write,
concurrent writer, disk corruption) or that is malformed is treated as
a miss, never an error and never a wrong number.  Writes go through a
temporary file and an atomic rename so a crashed writer cannot leave a
half-record behind.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from dataclasses import asdict
from typing import (TYPE_CHECKING, Any, Dict, List, Mapping, Optional,
                    Sequence, Tuple, Union)

from repro import telemetry
from repro.core.metrics import arrival_order_late_fraction, late_fraction
from repro.model.dmp_model import LateFractionEstimate
from repro.verify.spec import VerifySpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.parallel import ModelTask, RunSpec

#: Bump to invalidate every cached record (see module docstring).
#: v3: vectorized MC kernel; model keys are tagged by kernel so
#: vectorized and legacy estimates never mix under one record.
#: v4: key payload functions annotated with their hashed dataclasses
#: (repro-lint RL004 checks key completeness against them) and the
#: ``mc_kernel`` getattr replaced by a field read; the payload bytes
#: are unchanged, bumped conservatively per the RL004 diff policy.
#: v5: ``Setting`` grew the ``queue_discipline`` axis (bottleneck AQM);
#: run keys now carry it, so pre-AQM records — implicitly drop-tail —
#: are never read back under a different discipline.
#: v6: ``Setting`` grew the multi-session campaign axes
#: (``n_sessions``, ``churn_rate``); run keys carry both, and campaign
#: records additionally store per-session late fractions under
#: ``sessions`` (coverage re-checked on read like ``taus``).
#: v7: ``Setting`` grew the solver ``backend`` axis; run keys carry it
#: so packet-sim records are never read back for a mean-field request
#: (and vice versa), and mean-field solves get their own record kind
#: keyed on the full ``MeanFieldSpec``.
#: v8: verification results (``repro.verify``) get their own record
#: kind keyed on the full ``VerifySpec`` plus scheme/engine/query;
#: no prior kind changed shape, bumped per the RL004 diff policy
#: because the key-payload module gained new material.
#: v9: campaign records (``n_sessions > 1``) additionally carry the
#: QoE ``health`` rollup (per-session rows plus mergeable log
#: histograms, ``repro.obs.health``); presence is re-checked on read
#: like ``sessions``, and pre-v9 campaign records lack it.
#: v10: one Monte-Carlo engine — the legacy event-by-event kernel and
#: its selector are gone, so model keys drop the ``mc_kernel`` tag and
#: model records the ``kernel`` field; estimates are bit-identical to
#: v9 vectorized records.
#: v11: tau is a query — run records store per-session arrivals and
#: mean-field records the goodput trace instead of per-tau values, and
#: nothing merges; the health rollup's late test became the metrics one.
#: v12: the replicated campaign driver is gone — ``Setting`` lost its
#: ``n_sessions``/``churn_rate``/``backend`` axes (run keys drop them,
#: every run record holds exactly one session) and mean-field records
#: are no longer a record kind.
#: v13: ``RunSpec`` lost its unkeyed ``counters`` flag and run records
#: their ``counters``; the payload bytes are unchanged, bumped per the
#: RL004 diff policy.
CODE_VERSION = 13

ENV_CACHE_DIR = "REPRO_CACHE_DIR"


def default_directory() -> str:
    """Resolve the cache directory ($REPRO_CACHE_DIR > ~/.cache/repro)."""
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def session_record(total_packets: int,
                   arrivals: Sequence[Tuple[int, float]]) \
        -> Dict[str, Any]:
    """One session's entry in a packet-run record: its packet count and
    ``(number, t)`` arrivals, ``t`` on the session's video clock."""
    return {"total_packets": total_packets, "arrivals": list(arrivals)}


def run_late_fractions(record: Mapping[str, Any], mu: float,
                       tau: float) -> List[Tuple[float, float]]:
    """Per-session (playback-order, arrival-order) late fractions of a
    packet-run record at startup delay ``tau``, in session order.

    The one reader of stored arrivals: the same
    :func:`~repro.core.metrics.late_fraction` (missing packets late)
    and :func:`~repro.core.metrics.arrival_order_late_fraction` calls
    :meth:`repro.core.campaign.SessionSummary.metrics` makes on the
    live result.
    """
    return [(late_fraction(session["arrivals"], mu, tau,
                           total_packets=session["total_packets"]),
             arrival_order_late_fraction(session["arrivals"], mu, tau))
            for session in record["sessions"]]


def _valid_sessions(sessions: Any) -> bool:
    """Whether ``sessions`` holds exactly one well-formed arrival
    record: distinct packet numbers in ``[0, total)`` (hence never
    more arrivals than packets) with finite times."""
    if not isinstance(sessions, list) or len(sessions) != 1:
        return False
    for session in sessions:
        if not isinstance(session, dict):
            return False
        total = session.get("total_packets")
        arrivals = session.get("arrivals")
        if type(total) is not int or not isinstance(arrivals, list):
            return False
        if not all(isinstance(entry, list) and len(entry) == 2
                   and type(entry[0]) is int and 0 <= entry[0] < total
                   and isinstance(entry[1], float)
                   and math.isfinite(entry[1])
                   for entry in arrivals) \
                or len({entry[0] for entry in arrivals}) != len(arrivals):
            return False
    return True


def _digest(payload: Dict[str, Any]) -> str:
    canonical = json.dumps(payload, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache:
    """Content-addressed JSON store for run and model records."""

    def __init__(self, directory: Optional[str] = None) -> None:
        self.directory = directory or default_directory()
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # -- telemetry -----------------------------------------------------
    def _hit(self, kind: str) -> None:
        self.hits += 1
        tel = telemetry.current()
        if tel.active:
            tel.metrics.counter("cache.hit").inc(label=kind)

    def _miss(self, kind: str) -> None:
        self.misses += 1
        tel = telemetry.current()
        if tel.active:
            tel.metrics.counter("cache.miss").inc(label=kind)

    @staticmethod
    def _note_corrupt(kind: str, key: str) -> None:
        # The label carries a key prefix: corruption is rare and the
        # prefix locates the bad record file for forensics.
        tel = telemetry.current()
        if tel.active:
            tel.metrics.counter("cache.corrupt").inc(
                label=f"{kind}:{key[:12]}")

    # -- keys ----------------------------------------------------------
    @staticmethod
    def run_key_payload(spec: "RunSpec") -> Dict[str, Any]:
        """The full identity of one simulation run (see RunSpec)."""
        setting = spec.setting
        return {
            "kind": "run",
            "version": CODE_VERSION,
            "setting": {
                "name": setting.name,
                "configs": list(setting.configs),
                "mu": setting.mu,
                "shared_bottleneck": setting.shared_bottleneck,
                "queue_discipline": setting.queue_discipline,
            },
            "duration_s": spec.duration_s,
            "scheme": spec.scheme,
            "seed": spec.seed,
            "send_buffer_pkts": spec.send_buffer_pkts,
        }

    def run_key(self, spec: "RunSpec") -> str:
        return _digest(self.run_key_payload(spec))

    @staticmethod
    def model_key_payload(task: "ModelTask") -> Dict[str, Any]:
        return {
            "kind": "model",
            "version": CODE_VERSION,
            "flows": [asdict(flow) for flow in task.flows],
            "mu": task.mu,
            "tau": task.tau,
            "horizon_s": task.horizon_s,
            "seed": task.seed,
        }

    def model_key(self, task: "ModelTask") -> str:
        return _digest(self.model_key_payload(task))

    @staticmethod
    def verify_key_payload(spec: VerifySpec, scheme: str = "dmp",
                           engine: str = "exhaustive",
                           query: str = "max_late") -> Dict[str, Any]:
        """The full identity of one verification query.

        ``gen_rounds`` and ``static_shares`` are keyed through their
        *resolved* values (``_gen`` / ``_shares``): an explicit value
        equal to the default resolves to the same instance, so the two
        spellings legitimately share one record.  The engine is part
        of the key so a bug in one engine can never poison the other's
        records (results are exact, so agreement is a test invariant,
        not a cache assumption).
        """
        return {
            "kind": "verify",
            "version": CODE_VERSION,
            "scheme": scheme,
            "engine": engine,
            "query": query,
            "mu_r": spec.mu_r,
            "tau": spec.tau,
            "rounds": spec.rounds,
            "paths": [asdict(p) for p in spec.paths],
            "gen_rounds": spec._gen,
            "static_shares": list(spec._shares),
        }

    def verify_key(self, spec: VerifySpec, scheme: str = "dmp",
                   engine: str = "exhaustive",
                   query: str = "max_late") -> str:
        return _digest(self.verify_key_payload(
            spec, scheme=scheme, engine=engine, query=query))

    # -- run records ---------------------------------------------------
    def get_run(self, spec: "RunSpec") -> Optional[Dict[str, Any]]:
        """Cached record for one replication, or None.

        A record is a hit only when its one session's arrivals are well
        formed.
        """
        record = self._read(self.run_key(spec), "run") or {}
        if not isinstance(record.get("flow_stats"), list) \
                or not _valid_sessions(record.get("sessions")):
            self._miss("run")
            return None
        self._hit("run")
        return record

    def put_run(self, spec: "RunSpec",
                record: Dict[str, Any]) -> None:
        """Store a replication record (a plain write)."""
        self._write(self.run_key(spec), record, "run")

    # -- model records -------------------------------------------------
    def get_model(self, task: "ModelTask") \
            -> Optional[LateFractionEstimate]:
        record = self._read(self.model_key(task), "model")
        if record is None:
            self._miss("model")
            return None
        try:
            estimate = LateFractionEstimate(
                late_fraction=float(record["late_fraction"]),
                stderr=float(record["stderr"]),
                horizon_s=float(record["horizon_s"]),
                method=str(record["method"]),
                path_shares=tuple(record.get("path_shares", ())))
        except (KeyError, TypeError, ValueError):
            self._miss("model")
            return None
        self._hit("model")
        return estimate

    def put_model(self, task: "ModelTask",
                  estimate: LateFractionEstimate) -> None:
        self._write(self.model_key(task), {
            "late_fraction": estimate.late_fraction,
            "stderr": estimate.stderr,
            "horizon_s": estimate.horizon_s,
            "method": estimate.method,
            "path_shares": list(estimate.path_shares),
        }, "model")

    # -- verification records ------------------------------------------
    def get_verify(self, spec: VerifySpec, scheme: str = "dmp",
                   engine: str = "exhaustive",
                   query: str = "max_late") \
            -> Optional[Dict[str, Any]]:
        """Cached verification record, or None.

        Only the shape is validated here; the caller
        (:mod:`repro.verify.queries`) replays the stored witness and
        treats any disagreement as a miss, so a stale or tampered
        record can never surface as a certified result.
        """
        record = self._read(
            self.verify_key(spec, scheme=scheme, engine=engine,
                            query=query), "verify")
        if record is None or "value" not in record \
                or not isinstance(record.get("choices"), dict):
            self._miss("verify")
            return None
        self._hit("verify")
        return record

    def put_verify(self, spec: VerifySpec, scheme: str = "dmp",
                   engine: str = "exhaustive",
                   query: str = "max_late",
                   record: Optional[Dict[str, Any]] = None) -> None:
        """Store a verification record (exact result: no merging)."""
        if record is None:
            raise ValueError("put_verify needs a record")
        self._write(
            self.verify_key(spec, scheme=scheme, engine=engine,
                            query=query), record, "verify")

    # -- storage -------------------------------------------------------
    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key + ".json")

    def _read(self, key: str, kind: str) -> Optional[Dict[str, Any]]:
        try:
            with open(self._path(key), "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except OSError:
            return None  # absent or unreadable -> plain miss
        except ValueError:
            # Truncated write, concurrent writer, disk corruption:
            # still a miss, but one worth counting separately.
            self._note_corrupt(kind, key)
            return None
        if not isinstance(record, dict):
            self._note_corrupt(kind, key)
            return None
        return record

    def _write(self, key: str, payload: Dict[str, Any],
               kind: str) -> None:
        try:
            os.makedirs(self.directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.directory,
                                       suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(payload, handle)
                os.replace(tmp, self._path(key))
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        except OSError:
            return  # a read-only cache dir degrades to no caching
        self.stores += 1
        tel = telemetry.current()
        if tel.active:
            tel.metrics.counter("cache.write").inc(label=kind)


# ---------------------------------------------------------------------
# Process-wide default (wired by the CLI)
# ---------------------------------------------------------------------
_default: Dict[str, Any] = {"enabled": None, "directory": None,
                            "instance": None}


def configure(enabled: Optional[bool] = True,
              directory: Optional[str] = None) -> None:
    """Set the process-wide default cache used when callers pass None.

    ``enabled=None`` restores the initial behaviour: caching is off.
    """
    _default["enabled"] = enabled
    _default["directory"] = directory
    _default["instance"] = None


def _configured_instance() -> ResultCache:
    instance = _default["instance"]
    if not isinstance(instance, ResultCache):
        instance = ResultCache(_default["directory"])
        _default["instance"] = instance
    return instance


def default_cache() -> Optional[ResultCache]:
    """The configured default cache instance (None when disabled)."""
    return _configured_instance() if _default["enabled"] else None


def resolve_cache(cache: Union[ResultCache, bool, None]) \
        -> Optional[ResultCache]:
    """Normalise a ``cache`` argument: None -> the default (on only
    when enabled), True -> the configured cache even when caching is
    off by default, False -> off."""
    if cache is None:
        return default_cache()
    if isinstance(cache, ResultCache):
        return cache
    return _configured_instance() if cache is True else None
