"""The per-module rules. Each is kept for a catch it has on record —
its ``check`` docstring (what ``repro lint --explain`` prints) names
it; a rule with no catch is deleted, not switched off.

``DET``
    Simulation and load paths (:data:`DETERMINISM_DIRS`) must not read
    the wall clock or unseeded randomness.

``WIRE``
    Wire-facing code (:data:`SERVING_DIRS`) must bound what it reads
    and guard what it decodes.

``EXC``
    Serving paths must not swallow exceptions silently.

The fourth rule, ``FLOW-BLOCK`` (nothing a reactor callback reaches
may block), needs the whole program and lives in
:mod:`repro.devtools.flow`.

False positives are expected occasionally — that is what inline
``# reprolint: disable=CODE`` waivers (with a justifying comment) are
for; the waiver shows up in review, silent drift does not.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from .lint import LintModule, Violation, rule

__all__ = ["DETERMINISM_DIRS", "SERVING_DIRS"]

#: Directories whose code must be deterministic (DET scope).
DETERMINISM_DIRS = (
    "sim",
    "internet",
    "bittorrent",
    "experiments",
    "adversary",
    "v6serve",
    "loadgen",
)

#: Directories on the serving/wire path (WIRE / EXC / FLOW-BLOCK scope).
SERVING_DIRS = ("service", "cluster", "stream")

# -- DET ---------------------------------------------------------------

#: Canonical call targets that read the wall clock or process entropy.
_DET_BANNED = {
    "time.time": "wall-clock read",
    "time.time_ns": "wall-clock read",
    "time.monotonic": "wall-clock read",
    "time.monotonic_ns": "wall-clock read",
    "time.perf_counter": "wall-clock read",
    "time.perf_counter_ns": "wall-clock read",
    "time.sleep": "wall-clock wait",
    "datetime.datetime.now": "wall-clock read",
    "datetime.datetime.utcnow": "wall-clock read",
    "datetime.datetime.today": "wall-clock read",
    "datetime.date.today": "wall-clock read",
    "os.urandom": "OS entropy",
    "uuid.uuid4": "OS entropy",
    "random.SystemRandom": "OS entropy",
}

#: Module-level ``random.*`` functions (the shared unseeded stream).
_DET_RANDOM_FUNCS = {
    "betavariate", "choice", "choices", "expovariate", "gauss",
    "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
    "randbytes", "randint", "random", "randrange", "sample", "seed",
    "shuffle", "triangular", "uniform", "vonmisesvariate",
    "weibullvariate",
}


@rule(
    "DET",
    summary=(
        "no wall-clock or unseeded randomness in simulation paths "
        "(inject sim.rng streams / sim.clock)"
    ),
    example=(
        "def tick():\n"
        "    return time.time()   # DET: wall-clock read in sim/\n"
    ),
)
def check_determinism(module: LintModule) -> Iterator[Violation]:
    """Guards the bit-identical goldens: a run is byte-for-byte the
    same for any ``--workers`` and on any rerun
    (``tests/test_goldens.py``, ``tests/test_parallel.py``), which
    dies the moment a simulation path reads the wall clock, OS
    entropy or the module-level ``random`` stream. Time comes from
    ``sim.clock``, randomness from injected ``sim.rng`` streams; the
    two wall-clock adapters (``sim/realtime.py``, the load harness)
    carry the waivers."""
    if not module.in_dirs(*DETERMINISM_DIRS):
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        target = module.resolve_call(node)
        if target is None:
            continue
        reason = _DET_BANNED.get(target)
        if reason is None and target.startswith("secrets."):
            reason = "OS entropy"
        if reason is None:
            head, _, tail = target.partition(".")
            if head == "random" and tail in _DET_RANDOM_FUNCS:
                reason = "module-level random stream"
        if reason is not None:
            yield module.violation(
                "DET",
                node,
                f"{target}() is {reason} — simulation paths must use "
                f"an injected sim.rng stream or sim.clock",
            )


# -- WIRE --------------------------------------------------------------


def _has_size_evidence(scope: ast.AST) -> bool:
    """A ``len()`` comparison or a ``MAX_*``/``*limit*`` reference
    anywhere in ``scope`` counts as evidence the data is bounded."""
    for node in ast.walk(scope):
        if isinstance(node, ast.Compare):
            # A len() anywhere inside the comparison counts — bounds
            # often arrive arithmetically (``len(b) % rec.size != 0``,
            # ``pos + need > len(buf)``), not as a bare operand.
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Name)
                    and sub.func.id == "len"
                ):
                    return True
        name: Optional[str] = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name is not None:
            lowered = name.lower()
            if "max" in lowered or "limit" in lowered:
                return True
    return False


def _catches_struct_error(scope: ast.AST) -> bool:
    for node in ast.walk(scope):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            names = (
                list(node.type.elts)
                if isinstance(node.type, ast.Tuple)
                else [node.type]
            )
            for name in names:
                if (
                    isinstance(name, ast.Attribute)
                    and name.attr == "error"
                ):
                    return True
    return False


@rule(
    "WIRE",
    summary=(
        "bounded reads and guarded decodes on the wire path "
        "(no naked recv()/read()/json.loads/struct.unpack)"
    ),
    example=(
        "def pump(sock):\n"
        "    return sock.recv()   # WIRE: no byte limit\n"
    ),
)
def check_wire(module: LintModule) -> Iterator[Violation]:
    """Catch on record: its first sweep found ``wire.py`` handing a
    frame's payload to ``json.loads`` before any size check — a peer
    could make the server parse whatever it sent; the fix bounds the
    payload first. Flags a zero-argument ``sock.recv()``/``.read()``,
    and a ``json.loads`` or ``struct`` ``unpack``/``unpack_from``/
    ``iter_unpack`` in a function that shows no size bound (a
    ``len()`` comparison, a ``MAX_*``/``*limit*`` name, or a
    ``struct.error`` handler)."""
    if not module.in_dirs(*SERVING_DIRS):
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        scope = module.enclosing_function(node) or module.tree
        if isinstance(func, ast.Attribute):
            receiver = module.dotted_name(func.value) or ""
            if (
                func.attr in ("recv", "recvfrom")
                and not node.args
                and "sock" in receiver.lower()
            ):
                yield module.violation(
                    "WIRE",
                    node,
                    f"unbounded {receiver}.{func.attr}() — pass an "
                    f"explicit byte limit",
                )
                continue
            if func.attr == "read" and not node.args:
                yield module.violation(
                    "WIRE",
                    node,
                    f"unbounded {receiver or '<expr>'}.read() — pass "
                    f"a byte limit or read in bounded chunks",
                )
                continue
        target = module.resolve_call(node)
        if target == "json.loads" and not _has_size_evidence(scope):
            yield module.violation(
                "WIRE",
                node,
                "json.loads() of unbounded input — check the payload "
                "against an explicit size limit first",
            )
        elif (
            target is not None
            and (
                target in (
                    "struct.unpack",
                    "struct.unpack_from",
                    "struct.iter_unpack",
                )
                or (
                    isinstance(func, ast.Attribute)
                    and func.attr
                    in ("unpack", "unpack_from", "iter_unpack")
                )
            )
            and not _has_size_evidence(scope)
            and not _catches_struct_error(scope)
        ):
            yield module.violation(
                "WIRE",
                node,
                "struct unpack without a length guard — compare "
                "len() against the format size (or catch struct.error)",
            )


# -- EXC ---------------------------------------------------------------


def _broad_handler(node: ast.ExceptHandler) -> bool:
    if node.type is None:
        return True
    names = (
        list(node.type.elts)
        if isinstance(node.type, ast.Tuple)
        else [node.type]
    )
    for name in names:
        if isinstance(name, ast.Name) and name.id in (
            "Exception",
            "BaseException",
        ):
            return True
    return False


@rule(
    "EXC",
    summary=(
        "serving paths must not silently swallow Exception "
        "(count it, log it, or narrow the except)"
    ),
    example=(
        "try:\n"
        "    step()\n"
        "except Exception:\n"
        "    pass   # EXC: failure vanishes silently\n"
    ),
)
def check_silent_except(module: LintModule) -> Iterator[Violation]:
    """Keeps "every failure degrades to a *declared* state" checkable:
    an ``except Exception``/bare ``except`` whose body is only
    ``pass``/``continue`` is a failure nobody will ever see. One site
    is waived, saying why the swallow is safe (teardown in
    ``cluster/local.py``); the reactor's callback guard and the
    router's completion guard count what they catch. The rule is the
    "zero silent ``except`` on serving paths" half of the
    observability work (ROADMAP item 3)."""
    if not module.in_dirs(*SERVING_DIRS):
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if not _broad_handler(node):
            continue
        body = [
            stmt
            for stmt in node.body
            if not (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str)
            )
        ]
        if all(
            isinstance(stmt, (ast.Pass, ast.Continue)) for stmt in body
        ):
            yield module.violation(
                "EXC",
                node,
                "except Exception with a pass-only body swallows "
                "failures silently — count/log it or narrow the type",
            )
