"""CLI for perf-trajectory tracking.

Usage::

    python -m tools.perf_track NEW.json [--baseline FILE]
        [--history BENCH_history.jsonl] [--tolerance 0.35]
        [--no-gate] [--no-history]

Compares a fresh ``benchmarks/perf`` report against the committed
baseline (see the package docstring for the gating rules), appends
the run to the history file, and exits 1 on regression (0 otherwise,
2 on bad input).  ``--no-gate`` records history and reports but
always exits 0.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from tools.perf_track import (DEFAULT_HISTORY, DEFAULT_TOLERANCE,
                              append_history, compare, format_report,
                              load_report, resolve_baseline)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.perf_track",
        description="Track perf benchmarks against the committed "
                    "baseline.")
    parser.add_argument("report", help="fresh BENCH_perf.json to check")
    parser.add_argument("--baseline", default=None,
                        help="committed baseline (default: the "
                             "BENCH_perf.<mode>.json matching the "
                             "report's mode, else BENCH_perf.json)")
    parser.add_argument("--history", default=DEFAULT_HISTORY,
                        help=f"history JSONL to append to "
                             f"(default: {DEFAULT_HISTORY})")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE, metavar="FRAC",
                        help="tolerated relative drop before a gated "
                             "metric regresses (default: "
                             f"{DEFAULT_TOLERANCE})")
    parser.add_argument("--no-gate", action="store_true",
                        help="report and record, but always exit 0")
    parser.add_argument("--no-history", action="store_true",
                        help="skip appending to the history file")
    args = parser.parse_args(argv)

    if not 0.0 < args.tolerance < 1.0:
        parser.error("--tolerance must be in (0, 1)")
    try:
        new_doc = load_report(args.report)
        if args.baseline is None:
            args.baseline = resolve_baseline(new_doc.get("mode"))
        base_doc = load_report(args.baseline)
    except (OSError, ValueError) as exc:
        print(f"perf_track: {exc}", file=sys.stderr)
        return 2

    comp = compare(new_doc, base_doc, tolerance=args.tolerance)
    machine = "same machine" if comp.same_machine \
        else "different machine"
    print(f"perf_track: {args.report} vs {args.baseline} "
          f"({machine})")
    print(format_report(comp))
    if not args.no_history:
        append_history(args.history, new_doc, comp,
                       source=args.report)
        print(f"perf_track: history appended to {args.history}")
    if comp.regressions and not args.no_gate:
        names = ", ".join(r.name for r in comp.regressions)
        print(f"perf_track: REGRESSION in {names}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
