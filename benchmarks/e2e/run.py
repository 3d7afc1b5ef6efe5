#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the DMP streaming reproduction.

Run from the repository root.  One workload, one run (the form
``BENCHMARK.json`` declares)::

    python3 benchmarks/e2e/run.py --workload validation_row --seed 0 \\
        --seconds 15 --trace 0

prints one ``workload metric value unit`` line per metric and, last,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones from a traced pass.

Every workload, each in its own fresh process, one after another::

    python3 benchmarks/e2e/run.py --seed 0 -o out.json [--trace]

``-o`` writes everything measured (samples, quartiles, digests, and for
traced runs the census, cProfile split and telemetry spans) as JSON;
``compare.py`` compares two such files.

The program under test is imported from ``src/`` next to this
directory and nowhere else; without it the benchmark exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: The workload names, known before the program can be imported
#: (``workloads.WORKLOADS`` holds the same, in the same order).
WORKLOADS = ("validation_row", "fig8_column", "campaign_n200",
             "tau_requery")

#: Fresh processes timed from spawn to ready; setup_s is their median.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120


def bootstrap() -> None:
    """Pin the run to one thread with no inherited knobs, then import
    the program from this checkout's ``src/``."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[key] = "1"
    sys.path[:0] = [str(HERE), str(SRC)]
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"e2e: cannot import repro from {SRC}: {exc}")
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"e2e: repro was imported from {repro.__file__}, "
                 f"not from {SRC}")


def setup_samples(workload: str, seed: int, count: int) -> List[float]:
    """Seconds from spawning a fresh process to its ``ready`` line,
    which it prints once imports, inputs and objects are built, scaled
    to the reference host by the speed the process sampled itself."""
    samples = []
    command = [sys.executable, str(HERE / "run.py"), "--workload",
               workload, "--seed", str(seed), "--setup-probe"]
    for _ in range(count):
        t0 = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE,
                              text=True) as proc:
            assert proc.stdout is not None
            words = proc.stdout.readline().split()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        if len(words) != 3 or words[0] != "ready" or code != 0:
            raise RuntimeError(f"setup probe of {workload} exited {code}")
        factor, probe_wall = float(words[1]), float(words[2])
        samples.append((elapsed - probe_wall) * factor)
    return samples


def setup_probe(workload: str, seed: int) -> None:
    """Import the program and build one iteration's inputs; report
    ``ready``, the host speed sampled meanwhile and the probes' own
    seconds."""
    with HostSpeed() as speed:
        bootstrap()
        from measure import WORK_ROOT
        from workloads import WORKLOADS as BY_NAME

        WORK_ROOT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=WORK_ROOT) as workdir:
            BY_NAME[workload].prepare(seed, 0, workdir)
    print(f"ready {speed.factor!r} {speed.probe_wall!r}", flush=True)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 out: Optional[str]) -> int:
    import measure
    from workloads import WORKLOADS as BY_NAME

    wl = BY_NAME[workload]
    try:
        if trace:
            result = measure.layer_pass(wl, seed, seconds)
        else:
            result = measure.e2e_pass(
                wl, seed, seconds,
                lambda: setup_samples(workload, seed, SETUP_PROBES))
    finally:
        try:
            measure.WORK_ROOT.rmdir()
        except OSError:
            pass  # absent, or another run is still using it
    for error in result.errors:
        print(f"{workload}: FAILED: {error}", file=sys.stderr)
    for name, m in result.metrics.items():
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{workload} output_digest {result.digests[0]} sha256")
    if out:
        Path(out).write_text(json.dumps({
            "workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "attempted": result.attempted,
            "failed": result.failed, "errors": result.errors,
            "metrics": result.metrics, "digests": result.digests,
            "detail": result.detail}, indent=1) + "\n")
    print(json.dumps({
        "correct": result.failed == 0, "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result.metrics.items()}}))
    return 0


def machine() -> Dict[str, Any]:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}


def run_all(seed: int, seconds: float, trace: bool,
            out: Optional[str]) -> int:
    """Every workload in its own process, serially."""
    from measure import WORK_ROOT

    results: Dict[str, Dict[str, Any]] = {}
    code = 0
    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as parts:
        for workload in WORKLOADS:
            results[workload] = {}
            for traced in ([False, True] if trace else [False]):
                part = Path(parts) / f"{workload}.{int(traced)}.json"
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"),
                     "--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds),
                     "--trace", str(int(traced)), "-o", str(part)],
                    stdout=subprocess.PIPE, text=True, check=False)
                lines = proc.stdout.splitlines()
                print("\n".join(lines[:-1]), flush=True)
                if proc.returncode != 0 or not part.exists():
                    code = 1
                    continue
                record = json.loads(part.read_text())
                code = code or int(record["failed"] > 0)
                results[workload]["layers" if traced else "e2e"] = record
    if out:
        Path(out).write_text(json.dumps({
            "machine": machine(), "seed": seed, "seconds": seconds,
            "workloads": results}, indent=1) + "\n")
    return code


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all, each in "
                             "its own process)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: "
                             "BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", nargs="?", type=int, const=1,
                        default=0, choices=(0, 1),
                        help="1: per-layer metrics from a traced pass")
    parser.add_argument("-o", "--out", help="write full results as JSON")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    bootstrap()
    seconds = args.seconds
    if seconds is None:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
            seconds = json.load(handle)["run_seconds"]
    if seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload is None:
        return run_all(args.seed, seconds, bool(args.trace), args.out)
    return run_workload(args.workload, args.seed, seconds,
                        bool(args.trace), args.out)


if __name__ == "__main__":
    sys.exit(main())
