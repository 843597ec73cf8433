"""``repro.lint`` — the static contract checker.

The repository's headline guarantees (law-equivalent backends,
bit-identical fault schedules, byte-identical sweep resume) rest on
invariants the type system cannot see: every random draw flows through
the seeded streams of :mod:`repro.scheduler.rng`, every registered
engine implements the full backend surface, transition functions
compiled into dense tables are pure.  This package enforces those
invariants statically — an AST/``importlib``-hybrid analyzer with a rule
registry mirroring the backend-registry idiom, run as ``repro lint`` and
gated in CI.

See :mod:`repro.lint.rules` for the shipped rules,
:mod:`repro.lint.engine` for file discovery / waivers / rule driving,
and :mod:`repro.lint.reporting` for the text and JSON renderers.
"""

from repro.lint.engine import DEFAULT_LINT_ROOTS, LintReport, run_lint
from repro.lint.registry import (
    Finding,
    LintRule,
    get_rule,
    register_rule,
    rule_ids,
    registered_rules,
)
from repro.lint.reporting import render_json, render_text

# Importing the rules module registers the built-in rules (exactly as
# importing repro.sim.backends registers the built-in engines).
import repro.lint.rules  # noqa: E402,F401  (import-for-effect)

__all__ = [
    "DEFAULT_LINT_ROOTS",
    "Finding",
    "LintReport",
    "LintRule",
    "get_rule",
    "register_rule",
    "render_json",
    "render_text",
    "rule_ids",
    "registered_rules",
    "run_lint",
]
