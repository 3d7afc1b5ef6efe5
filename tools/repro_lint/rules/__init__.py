"""Rule registry.  Each rule module exposes ``RULE``, ``SUMMARY`` and
``check(project) -> list[Finding]`` (plus ``check_diff`` for rules that
inspect a unified diff)."""

from tools.repro_lint.rules import (
    rl001_wallclock,
    rl002_unordered,
    rl003_names,
    rl004_cache_key,
    rl005_float_eq,
    rl006_z3_float,
)

ALL_RULES = (
    rl001_wallclock,
    rl002_unordered,
    rl003_names,
    rl004_cache_key,
    rl005_float_eq,
    rl006_z3_float,
)

__all__ = ["ALL_RULES"]
