"""`reprolint` — the repo's AST-based invariant linter.

Some of the reproduction's guarantees rest on invariants no test can
economically enforce file by file: simulation code must draw time and
randomness from injected ``sim.clock`` / ``sim.rng`` streams,
wire-facing code must bound every read, and nothing a reactor
callback reaches may block. This module is the framework;
:mod:`repro.devtools.rules` and :mod:`repro.devtools.flow` hold the
rules, each kept for a catch it has on record.

Two pieces:

* a **rule registry** — each rule is a function over a parsed
  :class:`LintModule` (or, for a program-scope rule, over all of
  them), registered with :func:`rule` under a short code;
* **waivers** — ``# reprolint: disable=CODE[,CODE]`` on (or on the
  comment line directly above) a violating line suppresses it, and
  ``# reprolint: disable-file=CODE`` near the top of a file waives the
  whole module: intentional exceptions are visible in the diff, not in
  reviewer memory. A waiver that names an unknown rule or suppresses
  nothing is itself a finding (rule ``WAIVER``).

The gate is the clean tree: ``repro lint`` exits 1 on any finding.
There is no accepted-findings file and no advisory level — a finding
is fixed or waived where it stands.

Stdlib only — ``ast`` does the parsing; nothing here imports outside
the standard library, so the gate runs wherever the repo does.
"""

from __future__ import annotations

import ast
import dataclasses
import io
import re
import time
import tokenize
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
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

#: Scopes a rule may run at: per parsed file, or once over the whole
#: module set (the flow pass — see :mod:`repro.devtools.flow`).
SCOPES = ("module", "program")

#: Findings the framework itself raises; not waivable, not registered.
PARSE, WAIVER = "PARSE", "WAIVER"

# Rule codes may be hyphenated (FLOW-BLOCK).
_WAIVER_RE = re.compile(
    r"#\s*reprolint:\s*disable=([A-Z0-9_\-,\s]+)"
)
_FILE_WAIVER_RE = re.compile(
    r"#\s*reprolint:\s*disable-file=([A-Z0-9_\-,\s]+)"
)
#: File-level waivers must appear in the first N lines.
FILE_WAIVER_WINDOW = 12


@dataclasses.dataclass(frozen=True)
class Violation:
    """One finding: a rule tripped at a source location."""

    rule: str
    path: str  # posix path relative to the lint root
    line: int
    col: int
    message: str

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} {self.message}"
        )


@dataclasses.dataclass(frozen=True)
class Rule:
    """A registered invariant check.

    ``scope`` selects the calling convention: a ``"module"`` rule's
    ``check`` receives one :class:`LintModule` per file; a
    ``"program"`` rule's ``check`` receives the list of every parsed
    module and runs once per lint invocation (after all module
    rules).  ``example`` is a short violating snippet shown by
    ``repro lint --explain``, beside ``check``'s docstring — which
    names the bug or invariant the rule is kept for.
    """

    code: str
    summary: str
    check: Callable[..., Iterable[Violation]]
    scope: str = "module"
    example: str = ""


_REGISTRY: Dict[str, Rule] = {}


def rule(
    code: str,
    *,
    summary: str,
    scope: str = "module",
    example: str = "",
) -> Callable[
    [Callable[..., Iterable[Violation]]],
    Callable[..., Iterable[Violation]],
]:
    """Register ``check`` under ``code``; used as a decorator."""
    if scope not in SCOPES:
        raise ValueError(f"unknown scope: {scope!r}")

    def register(
        check: Callable[..., Iterable[Violation]]
    ) -> Callable[..., Iterable[Violation]]:
        if code in _REGISTRY:
            raise ValueError(f"duplicate rule code: {code}")
        _REGISTRY[code] = Rule(code, summary, check, scope, example)
        return check

    return register


def all_rules() -> Tuple[Rule, ...]:
    """Every registered rule, code-ordered (imports the rule sets)."""
    from . import rules as _rules  # noqa: F401  (registration side effect)
    from . import flow as _flow  # noqa: F401  (registration side effect)

    return tuple(_REGISTRY[code] for code in sorted(_REGISTRY))


def get_rule(code: str) -> Rule:
    all_rules()
    try:
        return _REGISTRY[code]
    except KeyError:
        raise KeyError(f"unknown rule code: {code}") from None


@dataclasses.dataclass
class _Waiver:
    """One ``# reprolint: disable[-file]=...`` comment, with usage
    tracking so stale waivers can be reported after a run."""

    line: int
    codes: Tuple[str, ...]
    file_level: bool
    used: Set[str] = dataclasses.field(default_factory=set)


class LintModule:
    """One parsed source file plus the lookups every rule needs."""

    def __init__(self, path: Path, relpath: str, source: str) -> None:
        self.path = path
        self.relpath = relpath
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=str(path))
        self.parts = tuple(Path(relpath).parts)
        self._parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent
        self._line_waivers = self._collect_line_waivers()
        self.file_waivers = self._collect_file_waivers()
        self.import_aliases = self._collect_import_aliases()

    # -- layout ---------------------------------------------------------

    def in_dirs(self, *names: str) -> bool:
        """True when any path segment (not the filename) matches."""
        return any(part in names for part in self.parts[:-1])

    # -- AST helpers ----------------------------------------------------

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def enclosing_function(
        self, node: ast.AST
    ) -> Optional[ast.AST]:
        for ancestor in self.ancestors(node):
            if isinstance(
                ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                return ancestor
        return None

    def dotted_name(self, node: ast.AST) -> Optional[str]:
        """``a.b.c`` for Name/Attribute chains, else None."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
            return ".".join(reversed(parts))
        return None

    def resolve_call(self, call: ast.Call) -> Optional[str]:
        """The canonical dotted target of ``call``, import-aliases
        resolved (``import time as t; t.time()`` → ``time.time``)."""
        dotted = self.dotted_name(call.func)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        canonical = self.import_aliases.get(head)
        if canonical is not None:
            return canonical + ("." + rest if rest else "")
        return dotted

    def _collect_import_aliases(self) -> Dict[str, str]:
        aliases: Dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for name in node.names:
                    aliases[name.asname or name.name.split(".")[0]] = (
                        name.name
                    )
            elif isinstance(node, ast.ImportFrom) and node.module:
                for name in node.names:
                    aliases[name.asname or name.name] = (
                        f"{node.module}.{name.name}"
                    )
        return aliases

    # -- waivers --------------------------------------------------------

    def _comment_lines(self) -> List[Tuple[int, str]]:
        """(line, text) for every real ``#`` comment — waiver syntax
        quoted in docstrings or string literals is not a waiver."""
        comments: List[Tuple[int, str]] = []
        try:
            tokens = tokenize.generate_tokens(
                io.StringIO(self.source).readline
            )
            for token in tokens:
                if token.type == tokenize.COMMENT:
                    comments.append((token.start[0], token.string))
        except (tokenize.TokenError, IndentationError):
            pass
        return comments

    def _collect_line_waivers(self) -> Dict[int, List[_Waiver]]:
        self.waivers: List[_Waiver] = []
        self._comments = self._comment_lines()
        covered: Dict[int, List[_Waiver]] = {}
        for number, text in self._comments:
            match = _WAIVER_RE.search(text)
            if not match or _FILE_WAIVER_RE.search(text):
                continue
            codes = tuple(
                sorted(
                    code.strip()
                    for code in match.group(1).split(",")
                    if code.strip()
                )
            )
            waiver = _Waiver(number, codes, file_level=False)
            self.waivers.append(waiver)
            covered.setdefault(number, []).append(waiver)
            # A waiver on a pure comment line covers the next line,
            # so long justifications don't force long code lines.
            source_line = (
                self.lines[number - 1]
                if 0 < number <= len(self.lines)
                else ""
            )
            if source_line.lstrip().startswith("#"):
                covered.setdefault(number + 1, []).append(waiver)
        return covered

    def _collect_file_waivers(self) -> Set[str]:
        waived: Set[str] = set()
        for number, text in self._comments:
            if number > FILE_WAIVER_WINDOW:
                continue
            match = _FILE_WAIVER_RE.search(text)
            if match:
                codes = tuple(
                    sorted(
                        code.strip()
                        for code in match.group(1).split(",")
                        if code.strip()
                    )
                )
                self.waivers.append(
                    _Waiver(number, codes, file_level=True)
                )
                waived.update(codes)
        return waived

    def waived(self, line: int, code: str) -> bool:
        """True when a waiver suppresses ``code`` at ``line`` — and
        mark that waiver used, for stale-waiver reporting."""
        hit = False
        if code in self.file_waivers:
            for waiver in self.waivers:
                if waiver.file_level and code in waiver.codes:
                    waiver.used.add(code)
            hit = True
        for waiver in self._line_waivers.get(line, []):
            if code in waiver.codes:
                waiver.used.add(code)
                hit = True
        return hit

    def stale_waivers(self) -> Iterator[Violation]:
        """Waivers that did nothing this run — the code is not a
        registered rule, or no violation matched — as findings."""
        for waiver in self.waivers:
            for code in waiver.codes:
                if code not in _REGISTRY:
                    reason = "unknown rule code"
                elif code not in waiver.used:
                    reason = "matched no violation"
                else:
                    continue
                yield Violation(
                    WAIVER,
                    self.relpath,
                    waiver.line,
                    1,
                    f"stale waiver 'disable={code}' ({reason})",
                )

    # -- violation factory ---------------------------------------------

    def violation(
        self, rule_code: str, node: ast.AST, message: str
    ) -> Violation:
        return Violation(
            rule_code,
            self.relpath,
            getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0) + 1,
            message,
        )


@dataclasses.dataclass
class LintReport:
    """What one lint run produced: the findings (stale waivers
    included) and per-phase wall-clock timings (seconds) for the
    gate's budget."""

    violations: List[Violation]
    timings: Dict[str, float]


def _iter_python_files(target: Path) -> Iterator[Path]:
    if target.is_file():
        if target.suffix == ".py":
            yield target
        return
    for path in sorted(target.rglob("*.py")):
        if any(part.startswith(".") for part in path.parts):
            continue
        yield path


def lint_report(targets: Iterable[Path], root: Path) -> LintReport:
    """Lint every ``.py`` file under ``targets`` (files or trees):
    parse all modules, run module rules per file, run the
    program-scope flow pass once over the whole set, then report
    every waiver that suppressed nothing."""
    active = all_rules()
    module_rules = [r for r in active if r.scope == "module"]
    program_rules = [r for r in active if r.scope == "program"]

    started = time.perf_counter()
    modules: List[LintModule] = []
    found: List[Violation] = []
    seen: Set[Path] = set()
    for target in targets:
        for path in _iter_python_files(Path(target)):
            resolved = path.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            try:
                relpath = resolved.relative_to(
                    root.resolve()
                ).as_posix()
            except ValueError:
                relpath = path.as_posix()
            source = path.read_text(encoding="utf-8")
            try:
                modules.append(LintModule(path, relpath, source))
            except SyntaxError as exc:
                found.append(
                    Violation(
                        PARSE,
                        relpath,
                        exc.lineno or 1,
                        (exc.offset or 0) + 1,
                        f"file does not parse: {exc.msg}",
                    )
                )
    parsed_at = time.perf_counter()

    for module in modules:
        for active_rule in module_rules:
            for violation in active_rule.check(module):
                if not module.waived(violation.line, violation.rule):
                    found.append(violation)
    module_rules_at = time.perf_counter()

    by_relpath = {module.relpath: module for module in modules}
    for active_rule in program_rules:
        for violation in active_rule.check(modules):
            if not by_relpath[violation.path].waived(
                violation.line, violation.rule
            ):
                found.append(violation)
    flow_at = time.perf_counter()

    for module in modules:
        found.extend(module.stale_waivers())

    found.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return LintReport(
        violations=found,
        timings={
            "parse": parsed_at - started,
            "module_rules": module_rules_at - parsed_at,
            "flow": flow_at - module_rules_at,
            "total": flow_at - started,
        },
    )


def render_text(violations: Sequence[Violation]) -> str:
    """Human-readable report, one line per finding plus a summary."""
    lines = [violation.render() for violation in violations]
    by_rule: Dict[str, int] = {}
    for violation in violations:
        by_rule[violation.rule] = by_rule.get(violation.rule, 0) + 1
    if violations:
        summary = ", ".join(
            f"{code}: {count}" for code, count in sorted(by_rule.items())
        )
        lines.append(f"{len(violations)} violation(s) ({summary})")
    return "\n".join(lines)
