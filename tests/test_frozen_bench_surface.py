"""The frozen serving benchmark's view of ``src/``, checked in under a
second.

``benchmarks/serving/`` may not change between benchmark PRs, so every
name it imports from ``repro``, every keyword it passes the four
serving constructors and every method it calls on an index or an
engine is a contract ``src/`` has to keep (some of them shims kept for
nothing else). A PR that breaks one otherwise finds out
in ``check.sh`` step 3 (~55 s) or as a probe reading ``-1``; this reads
the benchmark's source instead of running it — except for what the
driver and oracle *do* to a verdict, which no signature shows: the last
test runs their accounting over real binary replies.
"""

import ast
import importlib
import inspect
import random
from pathlib import Path

import pytest

from repro.cluster import LocalCluster
from repro.net.family import V4
from repro.service import wire
from repro.service.client import ReputationClient
from repro.service.engine import QueryEngine
from repro.service.index import ReputationIndex
from repro.service.server import ReputationServer
from repro.service.wire import CODECS

SERVING = Path(__file__).resolve().parents[1] / "benchmarks" / "serving"
CONSTRUCTORS = {
    cls.__name__: inspect.signature(cls)
    for cls in (LocalCluster, QueryEngine, ReputationServer, ReputationClient)
}

#: Every method the benchmark calls on a ``ReputationIndex`` (or its
#: class) or a ``QueryEngine``. ``lists_active_on`` and ``is_dynamic``
#: are shims kept only for its probes.
METHODS = {
    ReputationIndex: (
        "lists_active_on", "is_dynamic", "intervals_of", "interval_items",
        "with_interval_updates", "restrict", "save", "default_day", "load",
        "from_run",
    ),
    QueryEngine: ("query", "query_batch"),
}

#: Names of theirs the benchmark spells on other objects only: a
#: client's ``stats()``, the corpus tables' ``windows``, a probe
#: context's ``index``.
ELSEWHERE = {"stats", "windows", "index"}


@pytest.fixture(scope="module")
def trees():
    files = sorted(SERVING.glob("*.py"))
    assert files
    return [
        (path.name, ast.parse(path.read_text(), filename=str(path)))
        for path in files
    ]


def test_every_name_imported_from_repro_exists(trees):
    seen, missing = 0, []
    for name, tree in trees:
        for node in ast.walk(tree):
            if (
                not isinstance(node, ast.ImportFrom)
                or node.level
                or (node.module or "").split(".")[0] != "repro"
            ):
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                seen += 1
                if not hasattr(module, alias.name):
                    missing.append(
                        f"{name}:{node.lineno} from {node.module} "
                        f"import {alias.name}"
                    )
    assert seen > 20  # the walk found the imports it is there to check
    assert not missing


def test_constructor_calls_bind_to_the_live_signatures(trees):
    bound, broken = set(), []
    for name, tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            signature = CONSTRUCTORS.get(callee)
            if signature is None:
                continue
            # Positionals up to the first ``*splat`` (its length is not
            # in the source), and every keyword said by name.
            positional = []
            for arg in node.args:
                if isinstance(arg, ast.Starred):
                    break
                positional.append(None)
            keywords = {kw.arg: None for kw in node.keywords if kw.arg}
            try:
                signature.bind_partial(*positional, **keywords)
            except TypeError as exc:
                broken.append(f"{name}:{node.lineno} {callee}: {exc}")
            bound.update((callee, keyword) for keyword in keywords)
    # The shims this guard exists for are among what it looked at.
    assert {
        ("LocalCluster", "mode"),
        ("QueryEngine", "cache_size"),
        ("ReputationServer", "streaming"),
        ("ReputationClient", "codec"),
    } <= bound
    assert not broken


def test_every_method_called_on_an_index_or_engine_exists(trees):
    spelled = {
        node.attr
        for _name, tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    }
    pinned = {name for names in METHODS.values() for name in names}
    missing = [
        f"{cls.__name__}.{name}"
        for cls, names in METHODS.items()
        for name in names
        if not callable(getattr(cls, name, None))
    ]
    assert not missing
    # The pin list is what the benchmark spells, and all of it.
    assert pinned <= spelled
    public = {
        name for cls in METHODS for name in dir(cls) if not name.startswith("_")
    }
    assert spelled & public <= pinned | ELSEWHERE


def test_binary_verdicts_take_what_the_benchmark_does(
    monkeypatch,
):
    """``query_batch`` on the binary codec answers in record views, not
    dicts. The frozen driver and oracle do four things to a verdict —
    ``"error" in v``, ``v.get(name)``, ``v.get("seq", 0)`` and ``==``
    between a field and ``Oracle.expected``'s — so run *their* code
    over real replies, every verdict checked."""
    monkeypatch.syspath_prepend(str(SERVING))
    import driver
    import oracle as bench_oracle
    import synth

    tables = synth.generate(0, divisor=400)
    oracle = bench_oracle.Oracle(tables)
    keys = synth.query_keys(tables, random.Random(0), 512)
    index = ReputationIndex(**synth.index_kwargs(tables))
    with ReputationServer(QueryEngine(index)) as server:
        server.start()
        with ReputationClient(*server.address, codec="binary") as client:
            verdicts = client.query_batch(keys)
    assert not any(isinstance(verdict, dict) for verdict in verdicts)
    monkeypatch.setattr(driver, "CHECK_EVERY", 1)
    ledger = driver.Ledger(_until_check=1)
    ledger.account(oracle, keys, verdicts)
    assert (ledger.ok, ledger.checked, ledger.mismatched) == (512, 512, 0)
    assert any(verdict.get("listed") for verdict in verdicts)
    assert max(v.get("seq", 0) for v in verdicts) == 0
    # A wrong field is still told apart, and a degraded row is
    # degraded to the ledger and a miss to the oracle.
    (ip, day), other = keys[0], dict(verdicts[0], nated=not verdicts[0]["nated"])
    assert oracle.matches(ip, day, verdicts[0])
    assert not oracle.matches(ip, day, other)
    (degraded,) = wire.decode_batch_reply(
        (1).to_bytes(4, "big") + CODECS[V4].pack_degraded(ip, day, 2, "down")
    )
    ledger.account(oracle, keys[:1], [degraded])
    assert ledger.degraded == 1 and degraded.get("seq", 0) == 0
    assert not oracle.matches(ip, day, degraded)
