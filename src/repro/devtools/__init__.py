"""Developer tooling: the ``reprolint`` static-analysis gate.

``repro lint`` runs four rules over the source tree, each kept for a
catch it has on record:

* per module (:mod:`repro.devtools.rules`) — ``DET`` determinism in
  simulation/load paths, ``WIRE`` bounded reads on the wire path,
  ``EXC`` no silently-swallowed exceptions on serving paths;
* whole program (:mod:`repro.devtools.flow`) — ``FLOW-BLOCK``, no
  blocking call reachable from a reactor callback.

See :mod:`repro.devtools.lint` for the framework (rule registry,
waivers, stale-waiver findings, phase timings).
"""

from .lint import (
    FILE_WAIVER_WINDOW,
    LintModule,
    LintReport,
    Rule,
    Violation,
    all_rules,
    get_rule,
    lint_report,
    render_text,
    rule,
)

__all__ = [
    "FILE_WAIVER_WINDOW",
    "LintModule",
    "LintReport",
    "Rule",
    "Violation",
    "all_rules",
    "get_rule",
    "lint_report",
    "render_text",
    "rule",
]
