"""Tests for the repro-lint static-analysis pass (tools/repro_lint).

Each rule gets a good/bad fixture pair written to a temp tree shaped
like the real repository (rules scope themselves by relative path), a
suppression-handling test, and the RL004 diff check is exercised on a
synthetic unified diff.  A meta-test asserts the shipped tree is
lint-clean, and the typing-gate tests hold the strict modules to
annotation completeness (mypy itself runs in CI; it is exercised here
only when importable).
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import textwrap

import pytest

from tools.repro_lint import Finding, lint_paths, lint_project, load_project

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: src/ modules held to ``mypy --strict`` (mirrors pyproject.toml).
STRICT_PATHS = ["src/repro/sim", "src/repro/obs",
                "src/repro/telemetry",
                "src/repro/verify",
                "src/repro/experiments/cache.py",
                "src/repro/experiments/configs.py",
                "src/repro/experiments/parallel.py",
                "src/repro/experiments/optional_deps.py",
                "src/repro/experiments/sweep.py",
                "src/repro/model/singlepath.py",
                "src/repro/model/fluid.py",
                "src/repro/model/meanfield.py",
                "src/repro/model/mc_kernel.py",
                "src/repro/model/dmp_model.py",
                "src/repro/core/packets.py",
                "src/repro/core/server_queue.py",
                "src/repro/core/metrics.py",
                "src/repro/core/client.py",
                "src/repro/core/assembly.py",
                "src/repro/core/campaign.py"]


# ---------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------
def lint_tree(tmp_path, files, diff_text=None):
    """Write a fixture tree and lint it; returns the findings."""
    for rel, text in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(text), encoding="utf-8")
    project = load_project([str(tmp_path)], root=str(tmp_path))
    return lint_project(project, diff_text=diff_text)


def rules_of(findings):
    return [f.rule for f in findings]


# ---------------------------------------------------------------------
# RL001 — wall clock / unseeded randomness
# ---------------------------------------------------------------------
def test_rl001_flags_wall_clock_and_global_random(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/bad.py": """\
            import random
            import time
            from datetime import datetime

            def jitter():
                stamp = time.time()
                when = datetime.now()
                return stamp, when, random.random()
        """,
    })
    assert rules_of(findings) == ["RL001", "RL001", "RL001"]
    messages = " ".join(f.message for f in findings)
    assert "time.time" in messages
    assert "random.random" in messages


def test_rl001_allows_seeded_instance_rng(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/good.py": """\
            import random
            import numpy as np

            def draws(seed):
                rng = random.Random(seed)
                gen = np.random.default_rng(seed)
                return rng.random(), gen.standard_normal()
        """,
    })
    assert findings == []


def test_rl001_ignores_code_outside_runtime_scope(tmp_path):
    findings = lint_tree(tmp_path, {
        "tests/helper.py": """\
            import time

            def stamp():
                return time.time()
        """,
    })
    assert findings == []


# ---------------------------------------------------------------------
# RL002 — unordered iteration feeding scheduling / RNG
# ---------------------------------------------------------------------
def test_rl002_flags_for_loop_over_set(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/sim/bad.py": """\
            def start_all(sim, names):
                pending = set(names)
                for name in pending:
                    sim.schedule(0.0, print, name)
        """,
    })
    assert rules_of(findings) == ["RL002"]
    assert "set" in findings[0].message


def test_rl002_flags_dict_values_in_scheduling_context(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/sim/bad.py": """\
            def restart(sim, flows):
                for flow in flows.values():
                    sim.schedule(1.0, flow)
        """,
    })
    assert rules_of(findings) == ["RL002"]
    assert "dict.values" in findings[0].message


def test_rl002_allows_sorted_and_order_free_reductions(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/sim/good.py": """\
            def start_all(sim, names):
                pending = set(names)
                for name in sorted(pending):
                    sim.schedule(0.0, print, name)
                return sum(len(n) for n in pending), {n for n in pending}
        """,
    })
    # The explicit generator arg of sum() and the set comprehension
    # are order-free; only ordered iteration is flagged.
    assert [f for f in findings
            if f.rule == "RL002" and "sorted" not in f.message] == []


def test_rl002_dict_values_fine_without_scheduling(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/sim/good.py": """\
            def total(stats):
                acc = 0
                for value in stats.values():
                    acc += value
                return acc
        """,
    })
    assert findings == []


# ---------------------------------------------------------------------
# RL003 — probe topics / payload arity vs the SCHEMA registry
# ---------------------------------------------------------------------
_SCHEMA_FIXTURE = """\
    SCHEMA = {
        "link.drop": ("link", "qlen"),
        "dead.topic": ("value",),
    }
"""


def test_rl003_unknown_topic_bad_arity_and_dead_schema(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/obs/bus.py": _SCHEMA_FIXTURE,
        "src/repro/sim/link.py": """\
            class Link:
                def __init__(self, bus):
                    self._p_drop = bus.probe("link.drop")
                    self._p_nope = bus.probe("link.mystery")

                def drop(self, now, qlen):
                    self._p_drop.emit(now, "me", qlen, "extra")
        """,
    })
    got = rules_of(findings)
    assert got == ["RL003"] * 3
    messages = [f.message for f in findings]
    assert any("link.mystery" in m for m in messages)          # unknown
    assert any("expected time" in m for m in messages)         # arity
    assert any("dead.topic" in m for m in messages)            # dead
    # Dead-schema findings land on the SCHEMA entry's own line.
    dead = [f for f in findings if "dead.topic" in f.message]
    assert dead[0].path.endswith("bus.py")


def test_rl003_clean_when_everything_matches(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/obs/bus.py": """\
            SCHEMA = {
                "link.drop": ("link", "qlen"),
            }
        """,
        "src/repro/sim/link.py": """\
            class Link:
                def __init__(self, bus):
                    self._p_drop = bus.probe("link.drop")

                def drop(self, now, qlen):
                    self._p_drop.emit(now, "me", qlen)
        """,
    })
    assert findings == []


def test_rl003_resolves_local_probe_alias(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/obs/bus.py": """\
            SCHEMA = {
                "engine.event": ("pending",),
            }
        """,
        "src/repro/sim/engine.py": """\
            class Simulator:
                def __init__(self, bus):
                    self._p_event = bus.probe("engine.event")

                def run(self):
                    p_event = self._p_event
                    p_event.emit(0.0)
        """,
    })
    # The aliased emit carries 0 payload values against 1 declared.
    assert rules_of(findings) == ["RL003"]


# ---------------------------------------------------------------------
# RL003 (telemetry half) — names vs the TELEMETRY_SCHEMA registry
# ---------------------------------------------------------------------
_TELEMETRY_SCHEMA_FIXTURE = """\
    TELEMETRY_SCHEMA = {
        "campaign": "span",
        "cache.hit": "counter",
        "executor.utilization": "gauge",
        "dead.histogram": "histogram",
    }
"""


def test_rl003_telemetry_unknown_name_kind_mismatch_and_dead_entry(
        tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/telemetry/schema.py": _TELEMETRY_SCHEMA_FIXTURE,
        "src/repro/experiments/work.py": """\
            def run(tel):
                with tel.span("campaign"):
                    tel.metrics.counter("cache.hit").inc()
                    tel.metrics.counter("executor.utilization").inc()
                    tel.metrics.gauge("mystery").set(0.5)
        """,
    })
    assert rules_of(findings) == ["RL003"] * 3
    messages = [f.message for f in findings]
    assert any("mystery" in m and "not declared" in m
               for m in messages)
    assert any("executor.utilization" in m and "gauge" in m
               and ".counter()" in m for m in messages)
    dead = [f for f in findings if "dead.histogram" in f.message]
    assert len(dead) == 1 and dead[0].path.endswith("schema.py")


def test_rl003_telemetry_clean_when_everything_matches(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/telemetry/schema.py": """\
            TELEMETRY_SCHEMA = {
                "campaign": "span",
                "cache.hit": "counter",
            }
        """,
        "src/repro/experiments/work.py": """\
            def run(tel):
                with tel.span("campaign", label="fig8"):
                    tel.metrics.counter("cache.hit").inc(label="run")
        """,
    })
    assert findings == []


def test_rl003_telemetry_inert_without_schema_file(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/experiments/work.py": """\
            def run(tel):
                with tel.span("anything.goes"):
                    pass
        """,
    })
    assert findings == []


# ---------------------------------------------------------------------
# RL003 (Prometheus half) — names vs the PROMETHEUS_METRICS registry
# ---------------------------------------------------------------------
_PROMETHEUS_REGISTRY_FIXTURE = """\
    PROMETHEUS_METRICS = {
        "repro_up": ("gauge", "liveness"),
        "repro_drops_total": ("counter", "drops"),
        "repro_delay_seconds": ("histogram", "delay dist"),
        "repro_dead_metric": ("gauge", "nobody emits me"),
    }
"""


def test_rl003_prometheus_unknown_name_kind_mismatch_and_dead_entry(
        tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/obs/export.py": _PROMETHEUS_REGISTRY_FIXTURE,
        "src/repro/obs/emit.py": """\
            from repro.obs.export import histogram_lines, sample_line

            def exposition(hist):
                lines = [sample_line("repro_up", 1.0)]
                lines.append(sample_line("repro_mystery", 2.0))
                lines += histogram_lines("repro_drops_total", hist)
                return lines
        """,
    })
    assert rules_of(findings) == ["RL003"] * 4
    messages = [f.message for f in findings]
    assert any("repro_mystery" in m and "not registered" in m
               for m in messages)
    assert any("repro_drops_total" in m and "counter" in m
               and "histogram_lines" in m for m in messages)
    dead = [f for f in findings if "dead Prometheus" in f.message]
    assert all(f.path.endswith("export.py") for f in dead)
    assert sorted(m.split("'")[1] for m in
                  (f.message for f in dead)) == [
        "repro_dead_metric", "repro_delay_seconds"]


def test_rl003_prometheus_clean_when_everything_matches(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/obs/export.py": """\
            PROMETHEUS_METRICS = {
                "repro_up": ("gauge", "liveness"),
                "repro_delay_seconds": ("histogram", "delay dist"),
            }
        """,
        "src/repro/obs/emit.py": """\
            import repro.obs.export as export

            def exposition(hist):
                lines = [export.sample_line("repro_up", 1.0)]
                lines += export.histogram_lines(
                    "repro_delay_seconds", hist)
                return lines
        """,
    })
    assert findings == []


def test_rl003_prometheus_inert_without_export_file(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/obs/emit.py": """\
            def exposition(sample_line):
                return [sample_line("repro_anything", 1.0)]
        """,
    })
    assert findings == []


# ---------------------------------------------------------------------
# RL004 — cache-key completeness and the CODE_VERSION diff policy
# ---------------------------------------------------------------------
_CACHE_FIXTURE = """\
    from dataclasses import dataclass

    CODE_VERSION = 1


    @dataclass(frozen=True)
    class Spec:
        mu: float
        seed: int
        scheme: str


    def run_key_payload(spec: "Spec"):
        return {"mu": spec.mu, "seed": spec.seed,
                "scheme": spec.scheme}
"""


def test_rl004_flags_field_missing_from_key_payload(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/experiments/cache.py": """\
            from dataclasses import dataclass

            CODE_VERSION = 1


            @dataclass(frozen=True)
            class Spec:
                mu: float
                seed: int


            def run_key_payload(spec: "Spec"):
                return {"mu": spec.mu}
        """,
    })
    assert rules_of(findings) == ["RL004"]
    assert "Spec.seed" in findings[0].message
    # The finding anchors at the field definition, where a suppression
    # (and its rationale) would live.
    assert findings[0].line == 9


def test_rl004_covers_nested_dataclass_through_alias(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/experiments/cache.py": """\
            from dataclasses import dataclass

            CODE_VERSION = 1


            @dataclass(frozen=True)
            class Setting:
                bw: float
                delay: float


            @dataclass(frozen=True)
            class Spec:
                setting: "Setting"
                seed: int


            def run_key_payload(spec: "Spec"):
                setting = spec.setting
                return {"bw": setting.bw, "seed": spec.seed}
        """,
    })
    assert rules_of(findings) == ["RL004"]
    assert "Setting.delay" in findings[0].message


def test_rl004_clean_when_every_field_is_hashed(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/experiments/cache.py": _CACHE_FIXTURE,
    })
    assert findings == []


def _diff_for(rel, fixture, needle, extra_lines=()):
    """A minimal unified diff marking ``needle``'s line as changed."""
    lines = textwrap.dedent(fixture).splitlines()
    lineno = next(i for i, text in enumerate(lines, start=1)
                  if needle in text)
    hunks = [f"@@ -{lineno},1 +{lineno},1 @@",
             "+" + lines[lineno - 1]]
    for extra in extra_lines:
        extra_no = next(i for i, text in enumerate(lines, start=1)
                        if extra in text)
        hunks += [f"@@ -{extra_no},1 +{extra_no},1 @@",
                  "+" + lines[extra_no - 1]]
    return "\n".join([f"--- a/{rel}", f"+++ b/{rel}"] + hunks) + "\n"


def test_rl004_diff_requires_code_version_bump(tmp_path):
    rel = "src/repro/experiments/cache.py"
    diff = _diff_for(rel, _CACHE_FIXTURE, "scheme: str")
    findings = lint_tree(tmp_path, {rel: _CACHE_FIXTURE},
                         diff_text=diff)
    assert rules_of(findings) == ["RL004"]
    assert "CODE_VERSION" in findings[0].message


def test_rl004_diff_satisfied_by_code_version_bump(tmp_path):
    rel = "src/repro/experiments/cache.py"
    diff = _diff_for(rel, _CACHE_FIXTURE, "scheme: str",
                     extra_lines=["CODE_VERSION = 1"])
    findings = lint_tree(tmp_path, {rel: _CACHE_FIXTURE},
                         diff_text=diff)
    assert findings == []


def test_rl004_diff_ignores_unrelated_changes(tmp_path):
    rel = "src/repro/experiments/cache.py"
    diff = ("--- a/src/repro/other.py\n"
            "+++ b/src/repro/other.py\n"
            "@@ -1,1 +1,1 @@\n"
            "+x = 1\n")
    findings = lint_tree(tmp_path, {rel: _CACHE_FIXTURE},
                         diff_text=diff)
    assert findings == []


# ---------------------------------------------------------------------
# RL005 — float equality in the model layer
# ---------------------------------------------------------------------
def test_rl005_flags_float_equality(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/model/bad.py": """\
            def degenerate(t):
                return t == 0.0 or float(t) != 1.0
        """,
    })
    assert rules_of(findings) == ["RL005", "RL005"]


def test_rl005_allows_isclose_and_int_compare(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/model/good.py": """\
            import math

            def degenerate(t, k):
                return math.isclose(t, 0.0) or k == 0
        """,
    })
    assert findings == []


def test_rl005_only_applies_to_model_package(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/sim/elsewhere.py": """\
            def f(t):
                return t == 0.0
        """,
    })
    assert findings == []


# ---------------------------------------------------------------------
# RL006 — float literals in z3 constraint expressions
# ---------------------------------------------------------------------
def test_rl006_flags_float_in_solver_constraint(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/verify/bad.py": """\
            import z3

            def encode(x):
                solver = z3.Solver()
                solver.add(x >= 0.5)
                solver.add(x <= float(10))
                return solver
        """,
    })
    assert rules_of(findings) == ["RL006", "RL006"]
    assert "0.5" in findings[0].message
    assert "float() call" in findings[1].message


def test_rl006_sees_optional_import_and_z3_parameter(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/verify/bad.py": """\
            from repro.experiments.optional_deps import optional_import

            z3 = optional_import("z3", extra="verify",
                                 package="z3-solver")

            def clamp(v, z3):
                return z3.If(v > 1.0, 1, 0)
        """,
    })
    assert rules_of(findings) == ["RL006"]
    assert "1.0" in findings[0].message


def test_rl006_leaves_floats_outside_constraints_alone(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/verify/good.py": """\
            import z3

            RATIO = 1.6

            def report(late, total):
                return late / max(total, 1)

            def encode(x):
                return z3.And(x >= 0, x <= 10)
        """,
    })
    assert findings == []


def test_rl006_only_applies_to_verify_package(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/model/opt.py": """\
            import z3

            def encode(x):
                return z3.If(x > 0.5, 1, 0)
        """,
    })
    assert findings == []


def test_rl006_suppression_on_the_float_line(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/verify/ok.py": """\
            import z3

            def encode(x):
                return x >= z3.RealVal(0.5)  # repro-lint: disable=RL006 -- deliberate Real model
        """,
    })
    assert findings == []


# ---------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------
def test_inline_suppression_silences_finding(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/model/ok.py": """\
            def degenerate(t):
                return t == 0.0  # repro-lint: disable=RL005 -- structural zero
        """,
    })
    assert findings == []


def test_unused_suppression_is_reported_as_rl000(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/model/stale.py": """\
            def fine(k):
                return k == 0  # repro-lint: disable=RL005 -- stale
        """,
    })
    assert rules_of(findings) == ["RL000"]
    assert "unused suppression" in findings[0].message


def test_rl000_cannot_be_suppressed(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/model/meta.py": """\
            def fine(k):
                return k  # repro-lint: disable=RL000 -- nice try
        """,
    })
    # The suppression of RL000 never matches anything (RL000 is exempt
    # from suppression), so it is itself reported as unused.
    assert rules_of(findings) == ["RL000"]


def test_suppression_inside_string_literal_is_inert(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/model/strings.py": """\
            DOC = "# repro-lint: disable=RL005 -- not a comment"
        """,
    })
    assert findings == []


def test_syntax_error_is_reported_not_crashed(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/model/broken.py": "def f(:\n",
    })
    assert rules_of(findings) == ["RL000"]
    assert "syntax error" in findings[0].message


# ---------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------
def _run_cli(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "tools.repro_lint", *args],
        cwd=cwd, env=env, capture_output=True, text=True)


def test_cli_exits_nonzero_with_ruff_style_output(tmp_path):
    bad = tmp_path / "src" / "repro" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import time\nSTAMP = time.time()\n",
                   encoding="utf-8")
    proc = _run_cli(["src"], cwd=str(tmp_path))
    assert proc.returncode == 1
    line = proc.stdout.strip().splitlines()[0]
    # path:line:col: RULE message
    assert "bad.py:2:" in line and " RL001 " in line
    assert "finding" in proc.stderr


def test_cli_clean_tree_exits_zero(tmp_path):
    good = tmp_path / "src" / "repro" / "good.py"
    good.parent.mkdir(parents=True)
    good.write_text("VALUE = 1\n", encoding="utf-8")
    proc = _run_cli(["src"], cwd=str(tmp_path))
    assert proc.returncode == 0
    assert "clean" in proc.stderr


def test_cli_list_rules_names_every_rule(tmp_path):
    proc = _run_cli(["--list-rules"], cwd=str(tmp_path))
    assert proc.returncode == 0
    for rule in ("RL001", "RL002", "RL003", "RL004", "RL005",
                 "RL006"):
        assert rule in proc.stdout


# ---------------------------------------------------------------------
# Meta: the shipped tree is lint-clean
# ---------------------------------------------------------------------
def test_shipped_tree_is_lint_clean():
    paths = [os.path.join(REPO, p)
             for p in ("src", "tests", "benchmarks")]
    findings = lint_paths([p for p in paths if os.path.isdir(p)],
                          root=REPO)
    assert findings == [], "\n" + "\n".join(
        f.render() for f in findings)


def test_findings_are_sorted_and_renderable(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/model/bad.py": """\
            def f(t, u):
                return (u == 2.0, t == 1.0)
        """,
    })
    assert findings == sorted(
        findings, key=lambda f: (f.path, f.line, f.col, f.rule))
    for finding in findings:
        assert isinstance(finding, Finding)
        path, line, col, rest = finding.render().split(":", 3)
        assert int(line) > 0 and int(col) > 0
        assert rest.strip().startswith(finding.rule)


# ---------------------------------------------------------------------
# Typing gate
# ---------------------------------------------------------------------
def _strict_module_files():
    out = []
    for rel in STRICT_PATHS:
        path = os.path.join(REPO, rel)
        if os.path.isfile(path):
            out.append(path)
            continue
        for dirpath, _, filenames in os.walk(path):
            out.extend(os.path.join(dirpath, name)
                       for name in sorted(filenames)
                       if name.endswith(".py"))
    return sorted(out)


def test_py_typed_marker_ships_with_the_package():
    assert os.path.isfile(os.path.join(REPO, "src", "repro", "py.typed"))
    pyproject = open(os.path.join(REPO, "pyproject.toml"),
                     encoding="utf-8").read()
    assert "py.typed" in pyproject


def test_strict_modules_are_fully_annotated():
    """Local approximation of the CI ``mypy --strict`` gate.

    Every function in the strict modules must annotate its return type
    and every parameter (self/cls excluded).  mypy checks much more;
    this keeps the completeness part enforced even where mypy is not
    installed.
    """
    problems = []
    for path in _strict_module_files():
        tree = ast.parse(open(path, encoding="utf-8").read(),
                         filename=path)
        for node in ast.walk(tree):
            if not isinstance(node,
                              (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            where = f"{os.path.relpath(path, REPO)}:{node.lineno}"
            if node.returns is None:
                problems.append(f"{where} {node.name}: no return type")
            args = node.args
            positional = args.posonlyargs + args.args
            for index, arg in enumerate(positional):
                if index == 0 and arg.arg in ("self", "cls"):
                    continue
                if arg.annotation is None:
                    problems.append(
                        f"{where} {node.name}: {arg.arg} unannotated")
            for arg in args.kwonlyargs:
                if arg.annotation is None:
                    problems.append(
                        f"{where} {node.name}: {arg.arg} unannotated")
            for arg in (args.vararg, args.kwarg):
                if arg is not None and arg.annotation is None:
                    problems.append(
                        f"{where} {node.name}: *{arg.arg} unannotated")
    assert problems == [], "\n" + "\n".join(problems)


def test_mypy_strict_passes_when_available():
    mypy_api = pytest.importorskip(
        "mypy.api", reason="mypy not installed; the CI job runs it")
    stdout, stderr, status = mypy_api.run(
        ["--strict", *(os.path.join(REPO, p) for p in STRICT_PATHS)])
    assert status == 0, stdout + stderr
