"""The whole-program flow pass: one rule, ``FLOW-BLOCK``.

Importing this package registers it with the lint registry (as
importing :mod:`repro.devtools.rules` registers the per-module rules).
:mod:`.reactor` is the rule; :mod:`.symtab` (project symbol table) and
:mod:`.callgraph` (call/callback resolution) are what it walks.
"""

from .reactor import check_reactor_blocking

__all__ = ["check_reactor_blocking"]
