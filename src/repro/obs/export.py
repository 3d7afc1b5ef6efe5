"""Exporters for campaign health rollups.

Three renderings of one :func:`repro.obs.health.HealthAggregator.
rollup`:

* :func:`prometheus_exposition` — the Prometheus text exposition
  format (``# HELP`` / ``# TYPE`` plus samples), with the campaign's
  :class:`~repro.obs.health.LogHistogram` state mapped onto native
  Prometheus histogram series (``_bucket{le=...}`` / ``_sum`` /
  ``_count``);
* :func:`health_table` — a terminal per-session health table;
* :func:`html_dashboard` — a self-contained static HTML page (inline
  JSON + inline rendering script, no server, no external assets).

Every exposed metric is a gauge, counter or histogram entry of
:data:`repro.obs.names.NAMES`, emitted through :func:`sample_line` /
:func:`histogram_lines` with a *literal* name (``tools/repro_lint``
rule RL003 checks each call site's name and kind); its exposition name
is :func:`~repro.obs.names.prometheus_name` of the entry.
"""

from __future__ import annotations

import html
import json
from typing import Any, Dict, List, Mapping, Optional, Set

from repro.obs.health import LogHistogram, bucket_lo
from repro.obs.names import NAMES, declared, prometheus_name

#: Exposition name -> NAMES entry name, for every declared metric.
_EXPOSED = {prometheus_name(name): name
            for name, (kind, _, _) in NAMES.items()
            if kind in ("counter", "gauge", "histogram")}


def _format_value(value: float) -> str:
    """Repr-exact float formatting (Prometheus accepts Go syntax)."""
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    return repr(float(value))


def _format_labels(labels: Optional[Mapping[str, str]]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        '{}="{}"'.format(
            name,
            str(value).replace("\\", "\\\\").replace('"', '\\"'))
        for name, value in labels.items())
    return "{" + inner + "}"


def sample_line(name: str, value: float,
                labels: Optional[Mapping[str, str]] = None) -> str:
    """One exposition sample for a declared gauge/counter, labelled
    with exactly its declared label names."""
    fields = declared(name, "counter", "gauge")
    if tuple(labels or ()) != fields:
        raise ValueError(
            f"{name} takes labels {fields}, got {tuple(labels or ())}")
    return (f"{prometheus_name(name)}{_format_labels(labels)} "
            f"{_format_value(value)}")


def histogram_lines(name: str, hist: LogHistogram) -> List[str]:
    """Native Prometheus histogram series from a log histogram.

    Cumulative ``_bucket`` samples use each log bucket's *upper* edge
    as ``le`` (plus the mandatory ``+Inf``), then ``_sum`` and
    ``_count`` — exactly the series a Prometheus client library would
    expose, parseable by any scraper.
    """
    declared(name, "histogram")
    name = prometheus_name(name)
    lines: List[str] = []
    cumulative = hist.zero_count
    if hist.zero_count:
        lines.append(f'{name}_bucket{{le="0.0"}} {cumulative}')
    for index in sorted(hist.buckets):
        cumulative += hist.buckets[index]
        upper = bucket_lo(index + 1)
        lines.append(
            f'{name}_bucket{{le="{_format_value(upper)}"}} '
            f"{cumulative}")
    lines.append(f'{name}_bucket{{le="+Inf"}} {hist.count}')
    lines.append(f"{name}_sum {_format_value(hist.sum)}")
    lines.append(f"{name}_count {hist.count}")
    return lines


def _header(name: str) -> List[str]:
    kind, _, help_text = NAMES[name]
    exposed = prometheus_name(name)
    return [f"# HELP {exposed} {help_text}", f"# TYPE {exposed} {kind}"]


def prometheus_exposition(rollup: Mapping[str, Any]) -> str:
    """Render one rollup as Prometheus text exposition."""
    hists = {name: LogHistogram.from_dict(data)
             for name, data in rollup["hists"].items()}
    counters = rollup["counters"]
    lines: List[str] = []

    lines += _header("campaign.sessions")
    lines.append(sample_line("campaign.sessions",
                             float(counters["sessions"])))
    lines += _header("campaign.sessions_done")
    lines.append(sample_line("campaign.sessions_done",
                             float(counters["done"])))
    lines += _header("campaign.drops_total")
    lines.append(sample_line("campaign.drops_total",
                             float(counters["drops"])))
    lines += _header("campaign.stall_events_total")
    lines.append(sample_line("campaign.stall_events_total",
                             float(counters["stall_events"])))

    lines += _header("session.late_fraction")
    for row in rollup["sessions"]:
        lines.append(sample_line(
            "session.late_fraction",
            float(row["late_fraction"]),
            {"session": _session_label(row)}))
    lines += _header("session.startup_delay_seconds")
    for row in rollup["sessions"]:
        if row["startup_delay_s"] is not None:
            lines.append(sample_line(
                "session.startup_delay_seconds",
                float(row["startup_delay_s"]),
                {"session": _session_label(row)}))
    lines += _header("session.stall_seconds_total")
    for row in rollup["sessions"]:
        lines.append(sample_line(
            "session.stall_seconds_total",
            float(row["stall_s"]),
            {"session": _session_label(row)}))
    lines += _header("session.rebuffers_total")
    for row in rollup["sessions"]:
        lines.append(sample_line(
            "session.rebuffers_total",
            float(row["rebuffers"]),
            {"session": _session_label(row)}))
    lines += _header("session.path_share")
    for row in rollup["sessions"]:
        for path, share in row["path_share"].items():
            lines.append(sample_line(
                "session.path_share", float(share),
                {"session": _session_label(row), "path": path}))

    # One literal call per population histogram (not a name->key
    # loop): repro-lint RL003 checks literal names against NAMES and
    # flags entries with no literal call site.
    lines += _header("late_fraction")
    lines += histogram_lines(
        "late_fraction", hists["late_fraction"])
    lines += _header("startup_delay_seconds")
    lines += histogram_lines(
        "startup_delay_seconds", hists["startup_delay_s"])
    lines += _header("stall_seconds")
    lines += histogram_lines("stall_seconds", hists["stall_s"])
    lines += _header("cwnd_packets")
    lines += histogram_lines("cwnd_packets", hists["cwnd"])
    lines += _header("send_buffer_packets")
    lines += histogram_lines(
        "send_buffer_packets", hists["send_buffer"])
    lines += _header("queue_occupancy_packets")
    lines += histogram_lines(
        "queue_occupancy_packets", hists["queue_occupancy"])
    return "\n".join(lines) + "\n"


def _session_label(row: Mapping[str, Any]) -> str:
    label = str(row["label"]).rstrip(".")
    return label if label else "session"


def validate_exposition(text: str) -> int:
    """Parse a text exposition; returns the number of samples.

    A deliberately strict reader of the subset this module emits:
    ``# HELP``/``# TYPE`` headers name a declared metric and precede
    its samples, the ``# TYPE`` is the kind NAMES declares, a sample
    names a declared gauge/counter or — only for a histogram — its
    ``_bucket``/``_sum``/``_count`` series, every value parses, and
    histogram cumulative bucket counts are monotone with a trailing
    ``+Inf``.  CI runs this over every generated dump.
    """
    typed: Set[str] = set()
    samples = 0
    bucket_state: Dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or not parts[2]:
                raise ValueError(f"line {lineno}: malformed header")
            if parts[2] not in _EXPOSED:
                raise ValueError(
                    f"line {lineno}: undeclared metric {parts[2]!r}")
            if line.startswith("# TYPE "):
                kind = NAMES[_EXPOSED[parts[2]]][0]
                if parts[3].strip() != kind:
                    raise ValueError(
                        f"line {lineno}: {parts[2]!r} is declared a "
                        f"{kind}, not {parts[3].strip()!r}")
                typed.add(parts[2])
            continue
        if line.startswith("#"):
            continue
        name = line.split("{", 1)[0].split(" ", 1)[0]
        for suffix in ("", "_bucket", "_sum", "_count"):
            base = name[:len(name) - len(suffix)]
            if name.endswith(suffix) and base in _EXPOSED:
                break
        else:
            base = ""
        kind = NAMES[_EXPOSED[base]][0] if base else None
        if kind is None or (kind == "histogram") != bool(suffix):
            raise ValueError(
                f"line {lineno}: undeclared metric series {name!r}")
        if base not in typed:
            raise ValueError(
                f"line {lineno}: sample before # TYPE for {base!r}")
        value_text = line.rsplit(" ", 1)[-1]
        if value_text not in ("+Inf", "-Inf", "NaN"):
            float(value_text)  # raises ValueError on garbage
        if suffix == "_bucket":
            count = int(float(value_text))
            if count < bucket_state.get(base, 0):
                raise ValueError(
                    f"line {lineno}: non-monotone histogram bucket "
                    f"for {base!r}")
            bucket_state[base] = count
            if 'le="+Inf"' in line:
                del bucket_state[base]
        samples += 1
    if bucket_state:
        raise ValueError(
            f"histogram(s) missing +Inf bucket: "
            f"{sorted(bucket_state)}")
    return samples


# ---------------------------------------------------------------------
# Terminal table
# ---------------------------------------------------------------------

def health_table(rollup: Mapping[str, Any],
                 max_rows: Optional[int] = None) -> str:
    """Per-session health table, worst late fraction first."""
    rows = sorted(rollup["sessions"],
                  key=lambda row: (-float(row["late_fraction"]),
                                   str(row["label"])))
    if max_rows is not None:
        rows = rows[:max_rows]
    header = (f"{'session':12s} {'late':>7s} {'startup':>8s} "
              f"{'stalls':>6s} {'stall_s':>8s} {'recv':>11s} "
              f"{'paths':s}")
    lines = [f"campaign health (tau={float(rollup['tau']):g}s, "
             f"{rollup['counters']['sessions']} sessions, "
             f"{rollup['counters']['drops']} drops)",
             header, "-" * len(header)]
    for row in rows:
        startup = row["startup_delay_s"]
        startup_text = f"{startup:8.3f}" if startup is not None \
            else f"{'-':>8s}"
        shares = " ".join(
            f"{path.split('.')[-1]}={share:.2f}"
            for path, share in row["path_share"].items())
        lines.append(
            f"{_session_label(row):12s} "
            f"{row['late_fraction']:7.4f} {startup_text} "
            f"{row['rebuffers']:6d} {row['stall_s']:8.3f} "
            f"{row['arrivals']:5d}/{row['total_packets']:<5d} "
            f"{shares}")
    return "\n".join(lines)


# ---------------------------------------------------------------------
# Static HTML dashboard
# ---------------------------------------------------------------------

_DASHBOARD_TEMPLATE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>__TITLE__</title>
<style>
body { font-family: -apple-system, Segoe UI, sans-serif; margin: 2em;
       background: #fafafa; color: #222; }
h1 { font-size: 1.3em; } h2 { font-size: 1.05em; margin-top: 1.6em; }
table { border-collapse: collapse; font-size: 0.85em; }
th, td { padding: 0.25em 0.7em; border-bottom: 1px solid #ddd;
         text-align: right; }
th { background: #eee; } td.label { text-align: left; }
tr.bad td { background: #fde8e8; }
.cards { display: flex; gap: 1em; flex-wrap: wrap; }
.card { background: #fff; border: 1px solid #ddd; border-radius: 6px;
        padding: 0.8em 1.2em; min-width: 9em; }
.card .v { font-size: 1.4em; font-weight: 600; }
.bar { display: inline-block; height: 0.7em; background: #4a90d9; }
</style>
</head>
<body>
<h1>__TITLE__</h1>
<div class="cards" id="cards"></div>
<h2>Population histograms</h2>
<div id="hists"></div>
<h2>Per-session health</h2>
<table id="sessions"></table>
<script id="health-data" type="application/json">
__DATA__
</script>
<script>
"use strict";
const data = JSON.parse(
    document.getElementById("health-data").textContent);
const counters = data.counters;
const fmt = (x, d) => (x === null || x === undefined)
    ? "-" : Number(x).toFixed(d === undefined ? 3 : d);
const cards = [
    ["sessions", counters.sessions],
    ["done", counters.done],
    ["drops", counters.drops],
    ["stall events", counters.stall_events],
    ["tau (s)", data.tau],
];
document.getElementById("cards").innerHTML = cards.map(
    ([k, v]) => `<div class="card"><div>${k}</div>` +
                `<div class="v">${v}</div></div>`).join("");
function quantile(h, q) {
    if (!h.count) return null;
    const rank = Math.min(h.count - 1, Math.floor(q * h.count));
    if (rank < h.zero) return 0;
    let rem = rank - h.zero;
    const keys = Object.keys(h.buckets).map(Number)
        .sort((a, b) => a - b);
    for (const k of keys) {
        if (rem < h.buckets[k]) {
            const S = 64, e = Math.floor(k / S), s = k - e * S;
            return (0.5 + s / (2 * S)) * Math.pow(2, e);
        }
        rem -= h.buckets[k];
    }
    return h.max;
}
let histHtml = "";
for (const [name, h] of Object.entries(data.hists)) {
    histHtml += `<table><tr><th class="label">${name}</th>` +
        `<th>count</th><th>mean</th><th>p50</th><th>p95</th>` +
        `<th>p99</th><th>max</th></tr><tr><td class="label"></td>` +
        `<td>${h.count}</td>` +
        `<td>${h.count ? fmt(h.sum / h.count) : "-"}</td>` +
        `<td>${fmt(quantile(h, 0.5))}</td>` +
        `<td>${fmt(quantile(h, 0.95))}</td>` +
        `<td>${fmt(quantile(h, 0.99))}</td>` +
        `<td>${fmt(h.max)}</td></tr></table><br>`;
}
document.getElementById("hists").innerHTML = histHtml;
const rows = [...data.sessions].sort(
    (a, b) => b.late_fraction - a.late_fraction);
const maxLate = Math.max(...rows.map(r => r.late_fraction), 1e-9);
let tbl = "<tr><th class='label'>session</th><th>late</th>" +
    "<th></th><th>startup (s)</th><th>rebuffers</th>" +
    "<th>stall (s)</th><th>arrivals</th><th>total</th></tr>";
for (const r of rows) {
    const bad = r.late_fraction > 0.05 ? " class='bad'" : "";
    const w = Math.round(100 * r.late_fraction / maxLate);
    tbl += `<tr${bad}><td class="label">${r.label || "session"}</td>` +
        `<td>${fmt(r.late_fraction, 4)}</td>` +
        `<td class="label"><span class="bar" ` +
        `style="width:${w}px"></span></td>` +
        `<td>${fmt(r.startup_delay_s)}</td><td>${r.rebuffers}</td>` +
        `<td>${fmt(r.stall_s)}</td><td>${r.arrivals}</td>` +
        `<td>${r.total_packets}</td></tr>`;
}
document.getElementById("sessions").innerHTML = tbl;
</script>
</body>
</html>
"""


def html_dashboard(rollup: Mapping[str, Any],
                   title: str = "Campaign health") -> str:
    """Self-contained static dashboard: inline JSON, no server.

    The rollup rides along verbatim inside a ``<script
    type="application/json">`` tag, so the page doubles as a
    machine-readable artefact (``JSON.parse`` of the embedded blob
    recovers the exact rollup).
    """
    payload = json.dumps(rollup, indent=1)
    # A literal "</script" inside the JSON would end the data block
    # early; escape the slash (valid JSON, identical value).
    payload = payload.replace("</", "<\\/")
    return (_DASHBOARD_TEMPLATE
            .replace("__TITLE__", html.escape(title))
            .replace("__DATA__", payload))


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
