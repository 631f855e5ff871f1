"""The frozen serving benchmark's view of ``src/``, checked in under a
second.

``benchmarks/serving/`` may not change between benchmark PRs, so every
name it imports from ``repro`` and every keyword it passes the four
serving constructors is a contract ``src/`` has to keep (some of them
shims kept for nothing else). A PR that breaks one otherwise finds out
in ``check.sh`` step 4 (~55 s) or as a probe reading ``-1``; this reads
the benchmark's source instead of running it.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from repro.cluster import LocalCluster
from repro.service.client import ReputationClient
from repro.service.engine import QueryEngine
from repro.service.server import ReputationServer

SERVING = Path(__file__).resolve().parents[1] / "benchmarks" / "serving"
CONSTRUCTORS = {
    cls.__name__: inspect.signature(cls)
    for cls in (LocalCluster, QueryEngine, ReputationServer, ReputationClient)
}


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
