"""Tests for reprolint (src/repro/devtools): rules, waivers, CLI, and
the acceptance gate itself.

Fixtures are tiny synthetic trees under ``tmp_path`` — rule scoping is
path-based (``sim/`` for DET, ``service/``/``cluster/``/``stream/`` for
WIRE/EXC and the FLOW-* program pass), so each fixture writes its bad
file under the directory the rule watches. The flow rules themselves
are exercised in depth in ``test_devtools_flow.py``; here they appear
only where the framework plumbing (registry, CLI, gate) touches them.
"""

import json
import os
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro import devtools
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent


def gate_command():
    """The lint step as ``scripts/check.sh`` spells it — ``timeout
    <budget> python -m repro.cli lint ...`` — split into argv, so the
    gate tests break when check.sh stops running what they test."""
    script = (REPO_ROOT / "scripts" / "check.sh").read_text()
    (line,) = [
        line
        for line in script.splitlines()
        if line.startswith("timeout ") and "repro.cli lint" in line
    ]
    return shlex.split(line)


def run_gate(*argv, budget=None):
    """Run :func:`gate_command` with ``argv`` appended (and the
    wall-clock budget overridden when ``budget`` is given)."""
    timeout, committed_budget, python, *rest = gate_command()
    assert (timeout, python) == ("timeout", "python")
    return subprocess.run(
        [timeout, budget or committed_budget, sys.executable, *rest, *argv],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )


def lint_tree(tmp_path, relpath, source, codes=None):
    """Write ``source`` at ``tmp_path/relpath`` and lint the tree."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    found = devtools.lint_paths([tmp_path], tmp_path)
    if codes is None:
        return found
    return [v for v in found if v.rule in codes]


class TestRegistry:
    def test_all_issue_rules_registered(self):
        codes = {r.code for r in devtools.all_rules()}
        assert {
            "DET",
            "WIRE",
            "RES",
            "EXC",
            "FLOW-LOCK",
            "FLOW-BLOCK",
            "FLOW-WIRE",
        } <= codes
        # The old single-function CONC heuristic was replaced by the
        # interprocedural FLOW-LOCK pass in PR 10.
        assert "CONC" not in codes

    def test_severities(self):
        by_code = {r.code: r.severity for r in devtools.all_rules()}
        assert by_code["DET"] == "error"
        assert by_code["WIRE"] == "error"
        assert by_code["RES"] == "warning"
        assert by_code["EXC"] == "warning"
        assert by_code["FLOW-LOCK"] == "error"
        assert by_code["FLOW-BLOCK"] == "error"
        assert by_code["FLOW-WIRE"] == "error"

    def test_scopes(self):
        by_code = {r.code: r.scope for r in devtools.all_rules()}
        assert by_code["DET"] == "module"
        assert by_code["FLOW-LOCK"] == "program"
        assert by_code["FLOW-BLOCK"] == "program"
        assert by_code["FLOW-WIRE"] == "program"

    def test_get_rule_unknown(self):
        with pytest.raises(KeyError):
            devtools.get_rule("NOPE")

    def test_duplicate_code_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            devtools.rule("DET", severity="error", summary="dup")(
                lambda module: []
            )


class TestDetRule:
    def test_wall_clock_flagged_in_sim(self, tmp_path):
        found = lint_tree(
            tmp_path,
            "sim/bad.py",
            """
            import time

            def tick():
                return time.time()
            """,
            codes={"DET"},
        )
        assert len(found) == 1
        assert "time.time" in found[0].message

    def test_import_alias_resolved(self, tmp_path):
        found = lint_tree(
            tmp_path,
            "experiments/bad.py",
            """
            import time as clock

            def tick():
                return clock.monotonic()
            """,
            codes={"DET"},
        )
        assert len(found) == 1
        assert "time.monotonic" in found[0].message

    def test_module_level_random_flagged(self, tmp_path):
        found = lint_tree(
            tmp_path,
            "bittorrent/bad.py",
            """
            import random

            def pick(items):
                return random.choice(items)
            """,
            codes={"DET"},
        )
        assert len(found) == 1

    def test_seeded_random_instance_clean(self, tmp_path):
        found = lint_tree(
            tmp_path,
            "sim/good.py",
            """
            import random

            def make_rng(seed):
                return random.Random(seed)
            """,
            codes={"DET"},
        )
        assert found == []

    def test_out_of_scope_dir_not_flagged(self, tmp_path):
        # The same wall-clock call outside the determinism dirs is fine.
        found = lint_tree(
            tmp_path,
            "tools/fine.py",
            """
            import time

            def tick():
                return time.time()
            """,
            codes={"DET"},
        )
        assert found == []


class TestWireRule:
    def test_naked_recv_flagged(self, tmp_path):
        found = lint_tree(
            tmp_path,
            "service/bad.py",
            """
            def pump(sock):
                return sock.recv()
            """,
            codes={"WIRE"},
        )
        assert len(found) == 1
        assert "recv" in found[0].message

    def test_bounded_recv_clean(self, tmp_path):
        found = lint_tree(
            tmp_path,
            "service/good.py",
            """
            def pump(sock):
                return sock.recv(4096)
            """,
            codes={"WIRE"},
        )
        assert found == []

    def test_non_socket_recv_not_flagged(self, tmp_path):
        # multiprocessing.Connection.recv() takes no arguments; only
        # receivers whose name says "sock" are held to the byte-limit bar.
        found = lint_tree(
            tmp_path,
            "cluster/pipes.py",
            """
            def pump(parent_pipe):
                return parent_pipe.recv()
            """,
            codes={"WIRE"},
        )
        assert found == []

    def test_unbounded_read_flagged(self, tmp_path):
        found = lint_tree(
            tmp_path,
            "stream/bad.py",
            """
            def slurp(handle):
                return handle.read()
            """,
            codes={"WIRE"},
        )
        assert len(found) == 1

    def test_json_loads_without_bound_flagged(self, tmp_path):
        found = lint_tree(
            tmp_path,
            "service/bad2.py",
            """
            import json

            def decode(payload):
                return json.loads(payload)
            """,
            codes={"WIRE"},
        )
        assert len(found) == 1

    def test_json_loads_with_len_check_clean(self, tmp_path):
        found = lint_tree(
            tmp_path,
            "service/good2.py",
            """
            import json

            def decode(payload):
                if len(payload) > 1024:
                    raise ValueError("too big")
                return json.loads(payload)
            """,
            codes={"WIRE"},
        )
        assert found == []

    def test_struct_unpack_guarded_by_handler_clean(self, tmp_path):
        found = lint_tree(
            tmp_path,
            "service/good3.py",
            """
            import struct

            def parse(blob):
                try:
                    return struct.unpack(">I", blob)
                except struct.error:
                    return None
            """,
            codes={"WIRE"},
        )
        assert found == []

    def test_struct_unpack_unguarded_flagged(self, tmp_path):
        found = lint_tree(
            tmp_path,
            "service/bad3.py",
            """
            import struct

            def parse(blob):
                return struct.unpack(">I", blob)
            """,
            codes={"WIRE"},
        )
        assert len(found) == 1

    def test_iter_unpack_unguarded_flagged(self, tmp_path):
        # The binary batch decoders walk network bytes record-by-record
        # with Struct.iter_unpack; an unguarded walk is the same torn-
        # input crash as a bare unpack.
        found = lint_tree(
            tmp_path,
            "service/bad4.py",
            """
            import struct

            REC = struct.Struct(">IBi")

            def parse(blob):
                return list(REC.iter_unpack(blob))
            """,
            codes={"WIRE"},
        )
        assert len(found) == 1
        assert "unpack" in found[0].message

    def test_iter_unpack_with_len_check_clean(self, tmp_path):
        found = lint_tree(
            tmp_path,
            "service/good4.py",
            """
            import struct

            REC = struct.Struct(">IBi")

            def parse(blob):
                if len(blob) % REC.size != 0:
                    raise ValueError("short record")
                return list(REC.iter_unpack(blob))
            """,
            codes={"WIRE"},
        )
        assert found == []

    def test_out_of_scope_dir_not_flagged(self, tmp_path):
        found = lint_tree(
            tmp_path,
            "analysis/fine.py",
            """
            import json

            def decode(payload):
                return json.loads(payload)
            """,
            codes={"WIRE"},
        )
        assert found == []


# The canonical FLOW-LOCK positive: one guarded write establishes the
# discipline, one lock-free write (reachable from a public entry)
# breaks it. Used both here (gate injection) and by the CLI tests.
FLOW_LOCK_BAD = """
import threading


class Engine:
    def __init__(self):
        self._lock = threading.Lock()
        self.hits = 0

    def record(self):
        self.hits += 1

    def reset(self):
        with self._lock:
            self.hits = 0
"""


class TestResRule:
    def test_leaked_open_flagged(self, tmp_path):
        found = lint_tree(
            tmp_path,
            "anywhere/bad.py",
            """
            def load(path):
                handle = open(path)
                return handle.name
            """,
            codes={"RES"},
        )
        assert len(found) == 1
        assert found[0].severity == "warning"

    def test_with_block_clean(self, tmp_path):
        found = lint_tree(
            tmp_path,
            "anywhere/good.py",
            """
            def load(path):
                with open(path) as handle:
                    return handle.name
            """,
            codes={"RES"},
        )
        assert found == []

    def test_self_owned_and_returned_clean(self, tmp_path):
        found = lint_tree(
            tmp_path,
            "anywhere/owned.py",
            """
            import socket


            class Server:
                def __init__(self):
                    self._sock = socket.socket()


            def opener(path):
                return open(path)
            """,
            codes={"RES"},
        )
        assert found == []

    def test_try_finally_clean(self, tmp_path):
        found = lint_tree(
            tmp_path,
            "anywhere/finally_.py",
            """
            def load(path):
                handle = open(path)
                try:
                    return handle.read(100)
                finally:
                    handle.close()
            """,
            codes={"RES"},
        )
        assert found == []


class TestExcRule:
    def test_silent_pass_flagged(self, tmp_path):
        found = lint_tree(
            tmp_path,
            "service/bad.py",
            """
            def run(step):
                try:
                    step()
                except Exception:
                    pass
            """,
            codes={"EXC"},
        )
        assert len(found) == 1

    def test_counted_handler_clean(self, tmp_path):
        found = lint_tree(
            tmp_path,
            "service/good.py",
            """
            def run(step, stats):
                try:
                    step()
                except Exception:
                    stats["errors"] += 1
            """,
            codes={"EXC"},
        )
        assert found == []

    def test_narrow_except_clean(self, tmp_path):
        found = lint_tree(
            tmp_path,
            "service/narrow.py",
            """
            def run(step):
                try:
                    step()
                except KeyError:
                    pass
            """,
            codes={"EXC"},
        )
        assert found == []

    def test_out_of_scope_dir_not_flagged(self, tmp_path):
        found = lint_tree(
            tmp_path,
            "analysis/fine.py",
            """
            def run(step):
                try:
                    step()
                except Exception:
                    pass
            """,
            codes={"EXC"},
        )
        assert found == []


class TestWaivers:
    def test_same_line_waiver(self, tmp_path):
        found = lint_tree(
            tmp_path,
            "sim/waived.py",
            """
            import time

            def tick():
                return time.time()  # reprolint: disable=DET
            """,
            codes={"DET"},
        )
        assert found == []

    def test_comment_line_above_waiver(self, tmp_path):
        found = lint_tree(
            tmp_path,
            "sim/waived2.py",
            """
            import time

            def tick():
                # This adapter is the wall-clock boundary by design.
                # reprolint: disable=DET
                return time.time()
            """,
            codes={"DET"},
        )
        assert found == []

    def test_file_level_waiver(self, tmp_path):
        found = lint_tree(
            tmp_path,
            "sim/waived3.py",
            """
            # reprolint: disable-file=DET
            import time

            def tick():
                return time.time()

            def tock():
                return time.monotonic()
            """,
            codes={"DET"},
        )
        assert found == []

    def test_wrong_code_does_not_waive(self, tmp_path):
        found = lint_tree(
            tmp_path,
            "sim/not_waived.py",
            """
            import time

            def tick():
                return time.time()  # reprolint: disable=WIRE
            """,
            codes={"DET"},
        )
        assert len(found) == 1


class TestFrameworkEdges:
    def test_syntax_error_becomes_parse_violation(self, tmp_path):
        found = lint_tree(tmp_path, "sim/broken.py", "def oops(:\n")
        assert [v.rule for v in found] == ["PARSE"]
        assert found[0].severity == "error"

    def test_fingerprint_survives_line_drift(self, tmp_path):
        src = "import time\n\ndef tick():\n    return time.time()\n"
        before = lint_tree(tmp_path, "sim/drift.py", src, codes={"DET"})
        shifted = "\n\n\n" + src
        (tmp_path / "sim" / "drift.py").write_text(shifted)
        after = devtools.lint_paths([tmp_path], tmp_path)
        after = [v for v in after if v.rule == "DET"]
        assert before[0].line != after[0].line
        assert before[0].fingerprint == after[0].fingerprint

    def test_render_json_round_trips(self, tmp_path):
        found = lint_tree(
            tmp_path,
            "sim/bad.py",
            "import time\n\ndef t():\n    return time.time()\n",
        )
        doc = json.loads(devtools.render_json(found))
        assert doc["count"] == len(found) == 1
        assert doc["violations"][0]["rule"] == "DET"
        assert doc["violations"][0]["fingerprint"]


class TestEngineEdgeCases:
    """Syntactic shapes that have historically slipped past naive AST
    walks: decorators, closures, ``async def`` bodies, multi-target
    assignments."""

    def test_decorated_methods_still_scanned(self, tmp_path):
        found = lint_tree(
            tmp_path,
            "sim/deco.py",
            """
            import functools
            import time


            def logged(fn):
                @functools.wraps(fn)
                def inner(*a, **k):
                    return fn(*a, **k)
                return inner


            class Clock:
                @property
                def now(self):
                    return time.time()

                @logged
                def tick(self):
                    return time.time()
            """,
            codes={"DET"},
        )
        # Both the @property getter and the custom-decorated method.
        assert len(found) == 2

    def test_nested_function_body_scanned(self, tmp_path):
        found = lint_tree(
            tmp_path,
            "sim/nested.py",
            """
            import time


            def outer():
                def inner():
                    return time.time()
                return inner
            """,
            codes={"DET"},
        )
        assert len(found) == 1

    def test_async_def_body_scanned(self, tmp_path):
        found = lint_tree(
            tmp_path,
            "service/asyncpump.py",
            """
            async def pump(sock):
                return sock.recv()
            """,
            codes={"WIRE"},
        )
        assert len(found) == 1

    def test_multi_target_assign_leak_flagged(self, tmp_path):
        found = lint_tree(
            tmp_path,
            "service/multi.py",
            """
            def load(path):
                handle = backup = open(path)
                return handle.name, backup
            """,
            codes={"RES"},
        )
        assert len(found) == 1

    def test_multi_target_self_write_flagged_once(self, tmp_path):
        # ``self.a = self.b = 1`` is one write site: one finding, not
        # one per target.
        found = lint_tree(
            tmp_path,
            "service/multilock.py",
            """
            import threading


            class Pair:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.a = 0
                    self.b = 0

                def bump(self):
                    self.a = self.b = 1

                def clear(self):
                    with self._lock:
                        self.a = 0
                        self.b = 0
            """,
            codes={"FLOW-LOCK"},
        )
        assert len(found) == 1
        assert "Pair.bump" in found[0].message


class TestCli:
    def test_rules_table(self, capsys):
        assert main(["lint", "--rules"]) == 0
        out = capsys.readouterr().out
        for code in (
            "DET",
            "WIRE",
            "RES",
            "EXC",
            "FLOW-LOCK",
            "FLOW-BLOCK",
            "FLOW-WIRE",
        ):
            assert code in out

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "sim").mkdir()
        (tmp_path / "sim" / "ok.py").write_text("x = 1\n")
        assert (
            main(["lint", "--root", str(tmp_path), str(tmp_path)]) == 0
        )
        assert "lint: clean" in capsys.readouterr().out

    def test_violating_tree_exits_one(self, tmp_path, capsys):
        (tmp_path / "sim").mkdir()
        (tmp_path / "sim" / "bad.py").write_text(
            "import time\n\ndef t():\n    return time.time()\n"
        )
        assert (
            main(["lint", "--root", str(tmp_path), str(tmp_path)]) == 1
        )
        assert "DET" in capsys.readouterr().out

    def test_json_output(self, tmp_path, capsys):
        (tmp_path / "sim").mkdir()
        (tmp_path / "sim" / "bad.py").write_text(
            "import time\n\ndef t():\n    return time.time()\n"
        )
        assert (
            main(
                ["lint", "--json", "--root", str(tmp_path), str(tmp_path)]
            )
            == 1
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["count"] == 1


class TestRepoGate:
    """The acceptance bar: the repo itself passes, injections fail."""

    def test_repo_is_gate_clean(self, capsys):
        assert main(["lint", "--strict-waivers"]) == 0
        assert "lint: clean" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "relpath, source, rule_code",
        [
            (
                "sim/injected_det.py",
                "import time\n\ndef t():\n    return time.time()\n",
                "DET",
            ),
            (
                "service/injected_wire.py",
                "def pump(sock):\n    return sock.recv()\n",
                "WIRE",
            ),
            ("service/injected_flowlock.py", FLOW_LOCK_BAD, "FLOW-LOCK"),
        ],
    )
    def test_injected_violation_fails_gate(
        self, tmp_path, capsys, relpath, source, rule_code
    ):
        target = tmp_path / relpath
        target.parent.mkdir(parents=True)
        target.write_text(textwrap.dedent(source))
        # What the gate would see had the file landed in-tree.
        code = main(
            [
                "lint",
                "--strict-waivers",
                "--root",
                str(tmp_path),
                str(tmp_path),
            ]
        )
        assert code == 1
        assert rule_code in capsys.readouterr().out


class TestLintGateScript:
    """The lint step as scripts/check.sh runs it; under ``set -e`` its
    exit code is the gate."""

    def test_repo_passes(self):
        result = run_gate()
        assert result.returncode == 0, result.stdout + result.stderr
        assert "lint: clean" in result.stdout

    def test_injected_violation_fails(self, tmp_path):
        bad = tmp_path / "sim" / "bad.py"
        bad.parent.mkdir()
        bad.write_text(
            "import time\n\ndef t():\n    return time.time()\n"
        )
        result = run_gate("--root", str(tmp_path), str(tmp_path))
        assert result.returncode == 1
        assert "DET" in result.stdout
