#!/usr/bin/env python3
"""Compare two results of ``run.py -o``: a parent and a change.

    python3 benchmarks/e2e/compare.py parent.json change.json

A file holding several sets, such as ``baseline.json``, takes a ``#N``
suffix naming the set::

    python3 benchmarks/e2e/compare.py benchmarks/e2e/baseline.json#0 \\
        benchmarks/e2e/baseline.json#1

For every (workload, end-to-end metric) it prints both medians with
their quartiles, the change's move in the worse direction, the bound
``BENCHMARK.json`` fixes, and a verdict:

* ``ok``: worse by no more than the bound;
* ``worse``: worse by more than the bound;
* ``unresolved``: either side's spread, (q3 - q1) / median, exceeds
  the bound, and not every change sample beats every parent sample.

Then every count-type layer metric (any unit but ``s``, ``us`` and
``time_frac``) of traced runs must be exactly equal.  Exits 1 unless
every verdict is ``ok`` and every count is equal.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[2]

#: Units of time-derived layer metrics; all others are counts or ratios
#: of counts and must repeat exactly.
TIMED_UNITS = ("s", "us", "time_frac")


def load(arg: str) -> Dict[str, Any]:
    """A ``run.py -o`` file, or set N of a multi-set file (``path#N``)."""
    path, _, index = arg.partition("#")
    data = json.loads(Path(path).read_text())
    if "sets" in data:
        return data["sets"][int(index or 0)]
    return data


def verdict(parent: Dict[str, Any], change: Dict[str, Any], bound: float,
            better: str) -> Tuple[float, str]:
    """(fractional move in the worse direction, verdict)."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (change["value"] - parent["value"]) / parent["value"]
    spread = max((m["q3"] - m["q1"]) / m["value"] for m in (parent, change))
    if better == "lower":
        clear_win = max(change["samples"]) < min(parent["samples"])
    else:
        clear_win = min(change["samples"]) > max(parent["samples"])
    if spread > bound and not clear_win:
        return worse_by, "unresolved"
    return worse_by, "worse" if worse_by > bound else "ok"


def compare(parent: Dict[str, Any], change: Dict[str, Any],
            spec: Dict[str, Any]) -> List[str]:
    """Print the comparison; return the problems found."""
    problems: List[str] = []
    print(f"{'workload':<15} {'metric':<15} {'parent [q1, q3]':<28} "
          f"{'change [q1, q3]':<28} {'worse by':>9} {'bound':>6}  verdict")
    for workload, runs in parent["workloads"].items():
        other = change["workloads"].get(workload, {})
        for metric in spec["end_to_end"]:
            name = metric["name"]
            try:
                a = runs["e2e"]["metrics"][name]
                b = other["e2e"]["metrics"][name]
            except KeyError:
                problems.append(f"{workload} {name}: missing")
                continue
            worse_by, word = verdict(a, b, metric["bound"],
                                     metric["better"])
            print(f"{workload:<15} {name:<15} "
                  f"{_cell(a):<28} {_cell(b):<28} {worse_by:>+9.1%} "
                  f"{metric['bound']:>6.0%}  {word}")
            if word != "ok":
                problems.append(f"{workload} {name}: {word}")
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload, runs in parent["workloads"].items():
        if "layers" not in runs:
            continue
        a = runs["layers"]["metrics"]
        b = change["workloads"].get(workload, {}).get(
            "layers", {}).get("metrics", {})
        counted = [n for n, unit in units.items()
                   if unit not in TIMED_UNITS]
        differ = [n for n in counted
                  if n not in b or a[n]["value"] != b[n]["value"]]
        for name in differ:
            print(f"{workload} {name}: {a[name]['value']!r} != "
                  f"{b.get(name, {}).get('value')!r}")
            problems.append(f"{workload} {name}: count differs")
        print(f"{workload}: {len(counted) - len(differ)} of "
              f"{len(counted)} count-type layer metrics equal")
    return problems


def _cell(m: Dict[str, Any]) -> str:
    return f"{m['value']:.4g} [{m['q1']:.4g}, {m['q3']:.4g}]"


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = compare(load(args.parent), load(args.change), spec)
    print("ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
