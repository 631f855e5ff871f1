"""Tests for reprolint (src/repro/devtools): rules, waivers, CLI, and
the acceptance gate itself.

Fixtures are tiny synthetic trees under ``tmp_path`` — rule scoping is
path-based (``sim/`` for DET, ``service/``/``cluster/``/``stream/`` for
WIRE/EXC and the FLOW-BLOCK program pass), so each fixture writes its
bad file under the directory the rule watches. FLOW-BLOCK itself is
exercised in depth in ``test_devtools_flow.py``; here it appears only
where the framework plumbing (registry, CLI, gate) touches it.
"""

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
    found = devtools.lint_report([tmp_path], tmp_path).violations
    if codes is None:
        return found
    return [v for v in found if v.rule in codes]


class TestRegistry:
    def test_all_issue_rules_registered(self):
        # Exactly the four rules with a catch on record: a rule that
        # loses its catch is deleted, never kept switched off.
        codes = [r.code for r in devtools.all_rules()]
        assert codes == ["DET", "EXC", "FLOW-BLOCK", "WIRE"]

    def test_scopes(self):
        by_code = {r.code: r.scope for r in devtools.all_rules()}
        assert by_code == {
            "DET": "module",
            "EXC": "module",
            "FLOW-BLOCK": "program",
            "WIRE": "module",
        }

    def test_every_rule_says_what_keeps_it(self):
        # `repro lint --explain` prints the check's docstring: it must
        # name the bug or invariant the rule is kept for.
        for lint_rule in devtools.all_rules():
            doc = lint_rule.check.__doc__ or ""
            assert len(doc.split()) > 20, lint_rule.code
            assert lint_rule.example, lint_rule.code

    def test_get_rule_unknown(self):
        with pytest.raises(KeyError):
            devtools.get_rule("NOPE")

    def test_duplicate_code_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            devtools.rule("DET", summary="dup")(
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


# The canonical FLOW-BLOCK positive: a blocking call behind a reactor
# timer. Used here (gate injection) and by test_devtools_flow.py.
BLOCK_TIMER_SLEEP = """
import time


class Sweeper:
    def __init__(self, reactor):
        self.reactor = reactor

    def start(self):
        self.reactor.call_later(5.0, self._sweep)

    def _sweep(self):
        self._flush()

    def _flush(self):
        time.sleep(0.1)
"""


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
        assert found[0].render().startswith("sim/broken.py:1:")


class TestEngineEdgeCases:
    """Syntactic shapes that have historically slipped past naive AST
    walks: decorators, closures, ``async def`` bodies."""

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


class TestCli:
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

    @pytest.mark.parametrize(
        "flag", ["--json", "--no-flow", "--strict-waivers", "--rules"]
    )
    def test_deleted_flags_are_argparse_errors(self, flag, capsys):
        # One command, one behaviour: the product-only switches are
        # gone, not hidden.
        with pytest.raises(SystemExit) as info:
            main(["lint", flag])
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestRepoGate:
    """The acceptance bar: the repo itself passes, injections fail."""

    def test_repo_is_gate_clean(self, capsys):
        assert main(["lint"]) == 0
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
            pytest.param(
                "service/injected_flowblock.py",
                BLOCK_TIMER_SLEEP,
                "FLOW-BLOCK",
                id="service/injected_flowblock.py",
            ),
            pytest.param(
                "service/injected_exc.py",
                "try:\n    x = 1\nexcept Exception:\n    pass\n",
                "EXC",
                id="service/injected_exc.py",
            ),
            pytest.param(
                "sim/injected_waiver.py",
                "x = 1  # reprolint: disable=DET\n",
                "WAIVER",
                id="sim/injected_stale_waiver.py",
            ),
            pytest.param(
                "sim/injected_unknown.py",
                "x = 1  # reprolint: disable=RES\n",
                "unknown rule code",
                id="sim/injected_unknown_waiver.py",
            ),
        ],
    )
    def test_injected_violation_fails_gate(
        self, tmp_path, capsys, relpath, source, rule_code
    ):
        target = tmp_path / relpath
        target.parent.mkdir(parents=True)
        target.write_text(textwrap.dedent(source))
        # What the gate would see had the file landed in-tree.
        code = main(["lint", "--root", str(tmp_path), str(tmp_path)])
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
