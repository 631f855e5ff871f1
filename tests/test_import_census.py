"""What a process loads, held as counts of modules in fresh
interpreters — never as milliseconds.

A serving process maps a snapshot and answers lookups; it has no use
for the crawler, the synthetic Internet or the survey, and every module
it loads anyway is boot time and resident memory paid again by each
shard worker. So the serving path's ``repro`` modules are a literal
here: adding an import to that path means editing this file on purpose.
DESIGN.md §3 "Layering" has the rule the literal follows.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: What ``ServingNode`` needs: the serving stack, the address families,
#: and the two leaves that carry the Section 6 policy and the category
#: names across the seam.
NODE_MODULES = {
    "repro",
    "repro.core",
    "repro.core.policy",
    "repro.internet",
    "repro.internet.categories",
    "repro.ipv6",
    "repro.ipv6.addr6",
    "repro.net",
    "repro.net.family",
    "repro.net.ipv4",
    "repro.service",
    "repro.service.aio",
    "repro.service.client",
    "repro.service.columns",
    "repro.service.engine",
    "repro.service.index",
    "repro.service.server",
    "repro.service.snapshot",
    "repro.service.wire",
    "repro.stream",
    "repro.stream.delta",
    "repro.stream.epoch",
    "repro.stream.follower",
    "repro.stream.log",
}

CLUSTER_MODULES = {
    "repro.cluster",
    "repro.cluster.elastic",
    "repro.cluster.local",
    "repro.cluster.partition",
    "repro.cluster.router",
    "repro.cluster.shard",
}

#: Packages only the measurement side has a use for.
MEASUREMENT = (
    "repro.experiments",
    "repro.bittorrent",
    "repro.ripe",
    "repro.natdetect",
    "repro.sim",
    "repro.survey",
    "repro.analysis",
    "repro.baselines",
    "repro.adversary",
)

_PRINT_MODULES = "import sys; print('modules:', *sorted(sys.modules))"


def _modules_after(code: str) -> set:
    """``sys.modules`` of a fresh interpreter that ran ``code``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", f"{code}\n{_PRINT_MODULES}"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    last = done.stdout.splitlines()[-1].split()
    assert last[0] == "modules:"
    return set(last[1:])


def _repro(modules: set) -> set:
    return {m for m in modules if m == "repro" or m.startswith("repro.")}


def _sut_imports() -> str:
    """The import statements of the benchmark SUT's ``_serve``, as it
    wrote them."""
    sut = ROOT / "benchmarks" / "serving" / "sut.py"
    tree = ast.parse(sut.read_text(), filename=str(sut))
    (serve,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_serve"
    ]
    imports = [
        node for node in ast.walk(serve) if isinstance(node, ast.ImportFrom)
    ]
    assert len(imports) == 5
    return "\n".join(ast.unparse(node) for node in imports)


class TestServingPathCensus:
    def test_sut_loads_the_serving_stack_only(self):
        modules = _modules_after(_sut_imports())
        assert _repro(modules) == NODE_MODULES | CLUSTER_MODULES
        # libcrypto: 3.6 MB resident, once reached only through sim.rng.
        assert "hashlib" not in modules

    def test_a_serving_node_alone(self):
        modules = _modules_after(
            "from repro.service.server import ServingNode"
        )
        assert _repro(modules) == NODE_MODULES
        assert "hashlib" not in modules

    @pytest.mark.parametrize("command", ["query", "serve"])
    def test_cli_help_loads_no_measurement_side(self, command):
        modules = _repro(_modules_after(
            "from repro.cli import main\n"
            f"try: main([{command!r}, '--help'])\n"
            "except SystemExit: pass"
        ))
        assert "repro.cli" in modules
        loaded = sorted(
            m for m in modules if m.startswith(MEASUREMENT)
        )
        assert loaded == []


_IMPORT_EACH_ALONE = """
import importlib, sys, traceback
failed = 0
for name in sys.argv[1:]:
    for loaded in [m for m in sys.modules if m.split('.')[0] == 'repro']:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception:
        failed += 1
        print('FAILED', name)
        traceback.print_exc(file=sys.stdout)
print('imported', len(sys.argv) - 1 - failed, 'failed', failed)
"""


def test_every_module_imports_alone():
    """Each module under ``src/repro`` imports as the first ``repro``
    import of its interpreter, so no cycle hides behind an import order
    that happens to work.

    When ``repro/__init__`` imported ``experiments.runner`` first, this
    passed only by that luck: ``blocklists.catalog`` ->
    ``internet.abuse`` ran ``internet/__init__`` -> ``internet.scenario``
    -> ``blocklists.catalog`` half-initialised, and emptying that one
    ``__init__`` alone broke ``from repro.cluster import LocalCluster``.
    """
    names = sorted(
        ".".join(path.relative_to(SRC).with_suffix("").parts)
        .removesuffix(".__init__")
        for path in (SRC / "repro").rglob("*.py")
    )
    assert len(names) > 100
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_EACH_ALONE, *names],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == (
        f"imported {len(names)} failed 0"
    ), done.stdout
