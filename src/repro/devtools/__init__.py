"""Developer tooling: the ``reprolint`` static-analysis gate.

``repro lint`` runs two layers of checks over the source tree:

* the per-module AST rules in :mod:`repro.devtools.rules` —
  determinism in simulation/load paths, bounded reads on the wire
  path, scoped resources, no silently-swallowed exceptions;
* the whole-program flow pass in :mod:`repro.devtools.flow` —
  interprocedural lock discipline (FLOW-LOCK), blocking calls
  reachable from reactor callbacks (FLOW-BLOCK), and binary
  wire-codec conformance (FLOW-WIRE).

See :mod:`repro.devtools.lint` for the framework (rule registry,
waivers + stale-waiver hygiene, phase timings).
"""

from .lint import (
    FILE_WAIVER_WINDOW,
    LintModule,
    LintReport,
    ProgramContext,
    Rule,
    Violation,
    WaiverIssue,
    all_rules,
    get_rule,
    lint_file,
    lint_paths,
    lint_report,
    render_json,
    render_text,
    rule,
)

__all__ = [
    "FILE_WAIVER_WINDOW",
    "LintModule",
    "LintReport",
    "ProgramContext",
    "Rule",
    "Violation",
    "WaiverIssue",
    "all_rules",
    "get_rule",
    "lint_file",
    "lint_paths",
    "lint_report",
    "render_json",
    "render_text",
    "rule",
]
