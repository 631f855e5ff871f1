"""FLOW-BLOCK: blocking calls reachable from reactor callbacks.

The serving plane is a single-threaded event loop
(:mod:`repro.service.aio`): one ``time.sleep``, blocking connect, or
synchronous file read inside any function the loop can call stalls
every connection at once.  This pass collects the **reactor roots** —
callbacks handed to ``call_soon``/``call_later``/``run_sync``,
selector ``register``/``modify`` callbacks and ``conn.callback = ...``
assignments — then walks the call graph from each root — through
inherited methods and, where a base class calls a hook, into every
subclass override (``aio.Link`` registers its own event callback and
hands frames to ``on_message``/``on_packed``/``on_close`` overrides in
``Conn`` and the router's ``Backend``; ``Conn`` hands each request to
its server's ``handle``, the doors' one dispatcher, which calls each
door's hooks) — and flags blocking operations on any reachable path:

* ``time.sleep``
* ``socket.create_connection`` and ``.connect()``/``.accept()`` on a
  socket-ish receiver with no ``setblocking(False)`` in sight (module
  scope) — ``connect_ex`` on a non-blocking socket is the sanctioned
  loop-side idiom
* file I/O (``open`` and friends, ``Path.read_text``/``write_text``)
* ``subprocess.*``
* waits: ``Process.join``, ``Connection.poll(timeout)``,
  ``Event.wait``

Blocking work that stays off-loop (follower threads, drain helpers)
is not reachable from any root and is never flagged.
"""

from __future__ import annotations

import ast
from collections import deque
from typing import Deque, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..lint import LintModule, Violation, rule
from ..rules import SERVING_DIRS
from .callgraph import Resolver
from .symtab import FunctionInfo, Program

__all__ = ["check_reactor_blocking"]

#: Methods whose arguments are loop-thread callbacks.
_REGISTRARS = {
    "call_soon": 0,
    "run_sync": 0,
    "call_later": 1,
    "register": 2,
    "modify": 2,
}

#: Dotted call targets that always block.
_BLOCKING_CALLS = {
    "time.sleep": "time.sleep() blocks the loop thread",
    "socket.create_connection": (
        "socket.create_connection() is a blocking connect"
    ),
    "open": "open() is synchronous file I/O",
    "gzip.open": "gzip.open() is synchronous file I/O",
    "bz2.open": "bz2.open() is synchronous file I/O",
    "lzma.open": "lzma.open() is synchronous file I/O",
    "os.fdopen": "os.fdopen() is synchronous file I/O",
}

#: Attribute calls that are synchronous file I/O wherever they land.
_BLOCKING_ATTRS = {
    "read_text",
    "read_bytes",
    "write_text",
    "write_bytes",
}


def _waits(call: ast.Call, attr: str) -> bool:
    """``.wait(...)`` (an event, a condition, a child), ``.poll(t)``
    (a pipe, given a timeout) or ``.join()`` (a process or thread).
    ``str.join`` takes exactly one positional iterable, never a number,
    and ``poll()`` with no timeout only peeks — neither waits."""
    if attr == "wait":
        return True
    if attr == "poll":
        return bool(call.args or call.keywords)
    if attr == "join":
        return not call.args or (
            isinstance(call.args[0], ast.Constant)
            and isinstance(call.args[0].value, (int, float))
        )
    return False


def _function_index(program: Program) -> Dict[int, FunctionInfo]:
    """ast node id -> FunctionInfo for every indexed def."""
    index: Dict[int, FunctionInfo] = {}
    for definitions in program.functions.values():
        for info in definitions:
            index[id(info.node)] = info
    for cls in program.all_classes():
        for info in cls.methods.values():
            index[id(info.node)] = info
    return index


def _enclosing_info(
    module: LintModule,
    node: ast.AST,
    index: Dict[int, FunctionInfo],
) -> Optional[FunctionInfo]:
    for ancestor in module.ancestors(node):
        info = index.get(id(ancestor))
        if info is not None:
            return info
    return None


def _callback_roots(
    module: LintModule,
    resolver: Resolver,
    index: Dict[int, FunctionInfo],
) -> Iterator[Tuple[FunctionInfo, str]]:
    """(callback function, registration label) pairs in one module."""
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            yield from _call_roots(module, resolver, index, node)
        elif isinstance(node, ast.Assign):
            # conn.callback = <callable> is how the selector wires
            # per-connection event handlers.
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr == "callback"
                ):
                    site = _enclosing_info(module, node, index)
                    if site is None:
                        continue
                    callback = resolver.resolve_callable(
                        site, node.value
                    )
                    if callback is not None:
                        yield callback, (
                            f"callback assigned in {site.qualname}"
                        )


def _call_roots(
    module: LintModule,
    resolver: Resolver,
    index: Dict[int, FunctionInfo],
    call: ast.Call,
) -> Iterator[Tuple[FunctionInfo, str]]:
    site = _enclosing_info(module, call, index)
    if site is None:
        return
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in _REGISTRARS:
        position = _REGISTRARS[func.attr]
        candidates: List[ast.expr] = list(call.args[position:])
        candidates.extend(
            kw.value
            for kw in call.keywords
            if kw.arg in ("callback", "fn")
        )
        for expr in candidates:
            callback = resolver.resolve_callable(site, expr)
            if callback is not None:
                yield callback, (
                    f"{func.attr}() in {site.qualname}"
                )


def _nonblocking_receivers(module: LintModule) -> Set[str]:
    """Dotted receivers with a ``setblocking(False)`` call anywhere in
    the module (the loop sets sockets up once, then uses them from
    many callbacks — the escape must be module-wide)."""
    receivers: Set[str] = set()
    for node in ast.walk(module.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "setblocking"
        ):
            dotted = module.dotted_name(node.func.value)
            if dotted is not None:
                receivers.add(dotted)
    return receivers


def _blocking_calls(
    fn: FunctionInfo, nonblocking: Set[str]
) -> Iterator[Tuple[ast.Call, str]]:
    node = fn.node
    walker = (
        ast.walk(node.body)
        if isinstance(node, ast.Lambda)
        else ast.walk(node)
    )
    for sub in walker:
        if not isinstance(sub, ast.Call):
            continue
        dotted = fn.module.resolve_call(sub)
        if dotted is not None:
            reason = _BLOCKING_CALLS.get(dotted)
            if reason is None and dotted.split(".")[0] == "subprocess":
                reason = f"{dotted}() runs a blocking subprocess"
            if reason is not None:
                yield sub, reason
                continue
        func = sub.func
        if not isinstance(func, ast.Attribute):
            continue
        if func.attr in _BLOCKING_ATTRS:
            yield sub, f".{func.attr}() is synchronous file I/O"
            continue
        if _waits(sub, func.attr):
            yield sub, f".{func.attr}() waits on the loop thread"
            continue
        if func.attr in ("connect", "accept"):
            receiver = fn.module.dotted_name(func.value) or ""
            lowered = receiver.lower()
            if not any(
                hint in lowered
                for hint in ("sock", "listener", "conn")
            ):
                continue
            if receiver in nonblocking:
                continue
            yield sub, (
                f"{receiver}.{func.attr}() without setblocking(False) "
                f"blocks the loop"
            )


@rule(
    "FLOW-BLOCK",
    scope="program",
    summary=(
        "no blocking operations (time.sleep, blocking socket ops, "
        "file I/O, subprocess, process/pipe/event waits) on any path "
        "reachable from a reactor callback"
    ),
    example=(
        "class Sweeper:\n"
        "    def start(self):\n"
        "        self.reactor.call_later(5.0, self._sweep)\n"
        "    def _sweep(self):\n"
        "        time.sleep(0.1)   # FLOW-BLOCK: stalls every\n"
        "                          # connection on the loop\n"
    ),
)
def check_reactor_blocking(
    modules: Sequence[LintModule],
) -> Iterator[Violation]:
    """Proves the invariant the serving plane leans on — nothing
    blocks the loop: one blocking call behind a callback stalls every
    connection of the process at once, and no test times that. Its
    catches on record are ``TestRepoWiringMutations``: a ``time.sleep``
    seeded into the router's reply handler, its ping timer, the
    server's records routine or the router's batch scatter is found
    through the real wiring (``Link`` event callback → subclass hook,
    and on to the doors' ``handle`` and the door's own hook); and
    ``ShardProcess.stop()`` seeded into the split cutover's retire
    phase, whose ``Process.join`` it finds through the phase timers.

    Collect every callable handed to a reactor registration point
    (``call_soon``/``call_later``/``run_sync``/``register``/
    ``modify``, ``*.callback =`` assignments) and BFS the call graph
    from each. Any reached function that calls a known blocking
    operation — ``time.sleep``, blocking socket
    connect/accept, file I/O, ``subprocess``, a ``join()`` /
    ``poll(timeout)`` / ``wait()`` — is flagged with the
    registration site and the call path. Sockets a module switches to
    non-blocking via ``setblocking(False)`` on the same dotted
    receiver are exempt."""
    program = Program(modules)
    resolver = Resolver(program)
    index = _function_index(program)

    queue: Deque[Tuple[FunctionInfo, str, Tuple[str, ...]]] = deque()
    visited: Set[int] = set()
    for module in program.modules:
        if not module.in_dirs(*SERVING_DIRS):
            continue
        for callback, label in _callback_roots(
            module, resolver, index
        ):
            if id(callback.node) not in visited:
                visited.add(id(callback.node))
                queue.append((callback, label, (callback.name,)))

    nonblocking: Dict[str, Set[str]] = {}
    reported: Set[int] = set()
    while queue:
        fn, label, path = queue.popleft()
        escapes = nonblocking.get(fn.module.relpath)
        if escapes is None:
            escapes = _nonblocking_receivers(fn.module)
            nonblocking[fn.module.relpath] = escapes
        for call, reason in _blocking_calls(fn, escapes):
            if id(call) in reported:
                continue
            reported.add(id(call))
            route = " -> ".join(path)
            yield fn.module.violation(
                "FLOW-BLOCK",
                call,
                f"{reason} — reachable from a reactor callback "
                f"({label}; path {route})",
            )
        for _site, target in resolver.callees(fn):
            if id(target.node) not in visited:
                visited.add(id(target.node))
                queue.append((target, label, path + (target.name,)))
