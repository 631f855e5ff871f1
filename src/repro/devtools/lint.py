"""`reprolint` — the repo's AST-based invariant linter.

The reproduction's headline guarantees (bit-identical parallel runs,
lock-free epoch swaps, cluster/single-process equality) rest on
invariants no test can economically enforce file-by-file: simulation
code must draw time and randomness from injected ``sim.clock`` /
``sim.rng`` streams, wire-facing code must bound every read, and
threaded serving code must mutate shared state under a lock. This
module is the framework; :mod:`repro.devtools.rules` holds the rules
themselves.

Two pieces:

* a **rule registry** — each rule is a function over a parsed
  :class:`LintModule`, registered with :func:`rule` under a short code
  (``DET``, ``WIRE``, ...) and a severity;
* **waivers** — ``# reprolint: disable=CODE[,CODE]`` on (or on the
  comment line directly above) a violating line suppresses it, and
  ``# reprolint: disable-file=CODE`` near the top of a file waives the
  whole module: intentional exceptions are visible in the diff, not in
  reviewer memory. A waiver that names an unknown rule or suppresses
  nothing is itself reported (:class:`WaiverIssue`).

The gate is the clean tree: zero unwaived findings and zero stale
waivers (``repro lint --strict-waivers``). There is no accepted-findings
file — a finding is fixed or waived where it stands.

Stdlib only — ``ast`` does the parsing; nothing here imports outside
the standard library, so the gate runs wherever the repo does.
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import io
import json
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
    "ProgramContext",
    "Rule",
    "Violation",
    "WaiverIssue",
    "all_rules",
    "get_rule",
    "lint_file",
    "lint_paths",
    "lint_report",
    "render_text",
    "render_json",
    "rule",
]

#: Severities a rule may carry (order = display order).
SEVERITIES = ("error", "warning")

#: Scopes a rule may run at: per parsed file, or once over the whole
#: module set (the flow pass — see :mod:`repro.devtools.flow`).
SCOPES = ("module", "program")

# Rule codes may be hyphenated (FLOW-LOCK, FLOW-BLOCK, FLOW-WIRE).
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
    severity: str
    path: str  # posix path relative to the lint root
    line: int
    col: int
    message: str
    #: The stripped source line — the fingerprint ingredient, so a
    #: finding keeps its identity across unrelated line-number drift.
    snippet: str = ""

    @property
    def fingerprint(self) -> str:
        """Stable identity in ``--json`` output (rule + file + code)."""
        basis = f"{self.rule}\x1f{self.path}\x1f{self.snippet}"
        return hashlib.sha256(basis.encode("utf-8")).hexdigest()[:16]

    def to_wire(self) -> Dict[str, object]:
        data = dataclasses.asdict(self)
        data["fingerprint"] = self.fingerprint
        return data

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} [{self.severity}] {self.message}"
        )


@dataclasses.dataclass(frozen=True)
class Rule:
    """A registered invariant check.

    ``scope`` selects the calling convention: a ``"module"`` rule's
    ``check`` receives one :class:`LintModule` per file; a
    ``"program"`` rule's ``check`` receives a single
    :class:`ProgramContext` holding every parsed module, and runs
    once per lint invocation (after all module rules).  ``example``
    is a short violating snippet shown by ``repro lint --explain``.
    """

    code: str
    severity: str
    summary: str
    check: Callable[..., Iterable[Violation]]
    scope: str = "module"
    example: str = ""


_REGISTRY: Dict[str, Rule] = {}


def rule(
    code: str,
    *,
    severity: str,
    summary: str,
    scope: str = "module",
    example: str = "",
) -> Callable[
    [Callable[..., Iterable[Violation]]],
    Callable[..., Iterable[Violation]],
]:
    """Register ``check`` under ``code``; used as a decorator."""
    if severity not in SEVERITIES:
        raise ValueError(f"unknown severity: {severity!r}")
    if scope not in SCOPES:
        raise ValueError(f"unknown scope: {scope!r}")

    def register(
        check: Callable[..., Iterable[Violation]]
    ) -> Callable[..., Iterable[Violation]]:
        if code in _REGISTRY:
            raise ValueError(f"duplicate rule code: {code}")
        _REGISTRY[code] = Rule(code, severity, summary, check, scope, example)
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


@dataclasses.dataclass(frozen=True)
class WaiverIssue:
    """A waiver comment that is doing nothing: its code is unknown to
    the registry, or no violation matched it this run."""

    path: str
    line: int
    code: str
    reason: str  # "unknown rule code" or "matched no violation"

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}: stale waiver "
            f"'disable={self.code}' ({self.reason})"
        )


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

    def imports(self, module: str) -> bool:
        """True when the file imports ``module`` (any alias/form)."""
        return module in self.import_aliases.values() or any(
            canonical == module or canonical.startswith(module + ".")
            for canonical in self.import_aliases.values()
        )

    # -- AST helpers ----------------------------------------------------

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(node)

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

    def waiver_issues(
        self, known_codes: Set[str], active_codes: Set[str]
    ) -> Iterator[WaiverIssue]:
        """Waivers that did nothing this run: unknown codes always
        count; known codes count only when their rule actually ran
        (``active_codes``) yet the waiver matched no violation."""
        for waiver in self.waivers:
            for code in waiver.codes:
                if code not in known_codes:
                    yield WaiverIssue(
                        self.relpath,
                        waiver.line,
                        code,
                        "unknown rule code",
                    )
                elif code in active_codes and code not in waiver.used:
                    yield WaiverIssue(
                        self.relpath,
                        waiver.line,
                        code,
                        "matched no violation",
                    )

    # -- violation factory ---------------------------------------------

    def violation(
        self, rule_code: str, node: ast.AST, message: str
    ) -> Violation:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        snippet = (
            self.lines[line - 1].strip()
            if 0 < line <= len(self.lines)
            else ""
        )
        return Violation(
            rule=rule_code,
            severity=_REGISTRY[rule_code].severity,
            path=self.relpath,
            line=line,
            col=col + 1,
            message=message,
            snippet=snippet,
        )


class ProgramContext:
    """What a program-scope rule sees: every parsed module in the run
    plus a shared cache where the flow analyses stash cross-rule
    artefacts (symbol table, call graph) so each is built once."""

    def __init__(self, modules: Sequence[LintModule]) -> None:
        self.modules: List[LintModule] = list(modules)
        self.by_relpath: Dict[str, LintModule] = {
            module.relpath: module for module in self.modules
        }
        self.cache: Dict[str, object] = {}


@dataclasses.dataclass
class LintReport:
    """Everything one lint run produced: findings, waiver hygiene,
    and per-phase wall-clock timings (seconds) for the cost gate."""

    violations: List[Violation]
    waiver_issues: List[WaiverIssue]
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


def _parse_violation(relpath: str, exc: SyntaxError) -> Violation:
    return Violation(
        rule="PARSE",
        severity="error",
        path=relpath,
        line=exc.lineno or 1,
        col=(exc.offset or 0) + 1,
        message=f"file does not parse: {exc.msg}",
        snippet="",
    )


def lint_file(
    path: Path,
    root: Path,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Violation]:
    """All (un-waived) module-rule violations in one file.

    Program-scope rules need the whole module set and are skipped
    here; use :func:`lint_paths`/:func:`lint_report` for them.
    """
    active = tuple(rules) if rules is not None else all_rules()
    try:
        relpath = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        relpath = path.as_posix()
    source = path.read_text(encoding="utf-8")
    try:
        module = LintModule(path, relpath, source)
    except SyntaxError as exc:
        return [_parse_violation(relpath, exc)]
    found: List[Violation] = []
    for active_rule in active:
        if active_rule.scope != "module":
            continue
        for violation in active_rule.check(module):
            if not module.waived(violation.line, violation.rule):
                found.append(violation)
    found.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return found


def lint_report(
    targets: Iterable[Path],
    root: Path,
    rules: Optional[Sequence[Rule]] = None,
) -> LintReport:
    """Lint every ``.py`` file under ``targets`` (files or trees):
    parse all modules, run module rules per file, then run the
    program-scope flow pass once over the whole set."""
    active = tuple(rules) if rules is not None else all_rules()
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
                found.append(_parse_violation(relpath, exc))
    parsed_at = time.perf_counter()

    for module in modules:
        for active_rule in module_rules:
            for violation in active_rule.check(module):
                if not module.waived(violation.line, violation.rule):
                    found.append(violation)
    module_rules_at = time.perf_counter()

    if program_rules and modules:
        context = ProgramContext(modules)
        for active_rule in program_rules:
            for violation in active_rule.check(context):
                owner = context.by_relpath.get(violation.path)
                if owner is None or not owner.waived(
                    violation.line, violation.rule
                ):
                    found.append(violation)
    flow_at = time.perf_counter()

    known_codes = {r.code for r in all_rules()} | {"PARSE"}
    active_codes = {r.code for r in active}
    issues: List[WaiverIssue] = []
    for module in modules:
        issues.extend(
            module.waiver_issues(known_codes, active_codes)
        )

    found.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    issues.sort(key=lambda i: (i.path, i.line, i.code))
    return LintReport(
        violations=found,
        waiver_issues=issues,
        timings={
            "parse": parsed_at - started,
            "module_rules": module_rules_at - parsed_at,
            "flow": flow_at - module_rules_at,
            "total": flow_at - started,
        },
    )


def lint_paths(
    targets: Iterable[Path],
    root: Path,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Violation]:
    """Violations only — :func:`lint_report` without the hygiene."""
    return lint_report(targets, root, rules).violations


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


def render_json(violations: Sequence[Violation]) -> str:
    """Machine-readable report (what ``repro lint --json`` prints)."""
    return json.dumps(
        {
            "violations": [v.to_wire() for v in violations],
            "count": len(violations),
        },
        indent=2,
        sort_keys=True,
    )
