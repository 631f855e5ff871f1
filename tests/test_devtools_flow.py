"""Tests for the whole-program flow pass (src/repro/devtools/flow):
symbol table, call-graph resolution, the FLOW-BLOCK rule, the
stale-waiver findings, and the CLI/gate plumbing around them.

FLOW-BLOCK gets its seeded fixture — a ``time.sleep`` behind a reactor
timer — plus the negatives that prove the pass stays silent on the
idioms the real serving plane uses, and two seeds into a copy of the
real ``service/`` + ``cluster/`` wiring.
"""

import shutil
import textwrap
from pathlib import Path

import pytest

from repro import devtools
from repro.cli import main
from repro.devtools.flow.symtab import Program
from repro.devtools.lint import LintModule

from .test_devtools_lint import BLOCK_TIMER_SLEEP, gate_command, run_gate

REPO_ROOT = Path(__file__).resolve().parent.parent


def write_tree(tmp_path, files):
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")


def report_tree(tmp_path, files):
    write_tree(tmp_path, files)
    return devtools.lint_report([tmp_path], tmp_path)


def findings(tmp_path, files, code):
    report = report_tree(tmp_path, files)
    return [v for v in report.violations if v.rule == code]


def make_program(files):
    modules = [
        LintModule(Path(rel), rel, textwrap.dedent(src))
        for rel, src in files.items()
    ]
    return Program(modules)


class TestSymtab:
    def test_resolve_dotted_respects_path_boundaries(self):
        program = make_program(
            {
                "service/wire.py": "def encode():\n    return 1\n",
                "service/hardwire.py": "def encode():\n    return 2\n",
            }
        )
        info = program.resolve_dotted("service.wire.encode")
        assert info is not None
        assert info.qualname == "service/wire.py::encode"
        # "wire.encode" must not match hardwire.py by string suffix.
        info = program.resolve_dotted("wire.encode")
        assert info is not None
        assert info.module.relpath == "service/wire.py"

    def test_ambiguous_names_resolve_to_nothing(self):
        program = make_program(
            {
                "service/a.py": "class Foo:\n    pass\n",
                "cluster/b.py": "class Foo:\n    pass\n",
            }
        )
        assert program.unique_class("Foo") is None

    def test_same_module_symbol_shadows_project(self):
        files = {
            "service/local.py": (
                "def helper():\n    return 'local'\n"
            ),
            "cluster/other.py": (
                "def helper():\n    return 'other'\n"
            ),
        }
        program = make_program(files)
        module = program.modules[0]
        assert module.relpath == "service/local.py"
        info = program.resolve_name(module, "helper")
        assert info is not None
        assert info.module.relpath == "service/local.py"

    def test_attr_ctors_recorded(self):
        program = make_program(
            {
                "service/app.py": """
                class Router:
                    def route(self):
                        return 1


                class App:
                    def __init__(self):
                        self.router = Router()
                """,
            }
        )
        app = program.unique_class("App")
        assert app is not None
        assert app.attr_ctors == {"router": "Router"}


class TestFlowBlock:
    def test_sleep_behind_timer_flagged(self, tmp_path):
        found = findings(
            tmp_path, {"service/sweep.py": BLOCK_TIMER_SLEEP}, "FLOW-BLOCK"
        )
        assert len(found) == 1
        assert "time.sleep" in found[0].message
        assert "call_later" in found[0].message
        assert "_sweep -> _flush" in found[0].message

    def test_waiver_suppresses(self, tmp_path):
        # A program-scope finding is waived where it lands, like a
        # module one — and the waiver then counts as used.
        waived = BLOCK_TIMER_SLEEP.replace(
            "time.sleep(0.1)",
            "time.sleep(0.1)  # reprolint: disable=FLOW-BLOCK",
        )
        report = report_tree(tmp_path, {"service/sweep.py": waived})
        assert report.violations == []

    def test_unregistered_sleep_not_flagged(self, tmp_path):
        # The same blocking call with no reactor registration is
        # off-loop work (heartbeat threads, drain helpers).
        found = findings(
            tmp_path,
            {
                "service/drain.py": """
                import time


                class Drainer:
                    def drain(self):
                        time.sleep(0.1)
                """,
            },
            "FLOW-BLOCK",
        )
        assert found == []

    def test_lambda_callback_resolved(self, tmp_path):
        found = findings(
            tmp_path,
            {
                "service/lam.py": """
                import time


                class App:
                    def __init__(self, reactor):
                        self.reactor = reactor

                    def go(self):
                        self.reactor.call_soon(lambda: time.sleep(1))
                """,
            },
            "FLOW-BLOCK",
        )
        assert len(found) == 1

    def test_partial_callback_resolved(self, tmp_path):
        found = findings(
            tmp_path,
            {
                "service/part.py": """
                import functools
                import subprocess


                class App:
                    def __init__(self, reactor):
                        self.reactor = reactor

                    def go(self):
                        self.reactor.call_soon(
                            functools.partial(self._spawn, "ls")
                        )

                    def _spawn(self, cmd):
                        subprocess.run(cmd)
                """,
            },
            "FLOW-BLOCK",
        )
        assert len(found) == 1
        assert "subprocess" in found[0].message

    def test_setblocking_false_exempts_connect(self, tmp_path):
        source = """
        class Conn:
            def __init__(self, reactor, sock, addr):
                self._sock = sock
                self._addr = addr
                reactor.call_soon(self._kick)

            def _kick(self):
                self._sock.connect(self._addr)
        """
        found = findings(
            tmp_path, {"service/conn.py": source}, "FLOW-BLOCK"
        )
        assert len(found) == 1
        assert "connect" in found[0].message
        # The module-wide non-blocking setup is the sanctioned idiom.
        exempt = source + (
            "\n"
            "    def setup(self):\n"
            "        self._sock.setblocking(False)\n"
        )
        found = findings(
            tmp_path, {"service/conn.py": exempt}, "FLOW-BLOCK"
        )
        assert found == []

    @pytest.mark.parametrize(
        "call, blocks",
        [
            ("process.join()", True),
            ("process.join(timeout=grace)", True),
            ("pipe.poll(timeout)", True),
            ("event.wait(t)", True),
            ('b"".join(parts)', False),
            ("sep.join(parts)", False),
        ],
        ids=["join", "join-timeout", "poll", "wait", "bytes-join", "str-join"],
    )
    def test_wait_matcher(self, tmp_path, call, blocks):
        source = f"""
        class Retire:
            def __init__(self, reactor):
                reactor.call_soon(self._tick)

            def _tick(self, process, pipe, event, parts, sep, grace, t):
                timeout = grace
                return {call}
        """
        found = findings(tmp_path, {"cluster/wait.py": source}, "FLOW-BLOCK")
        assert len(found) == blocks
        if blocks:
            assert "waits on the loop thread" in found[0].message

    def test_callback_assignment_is_a_root(self, tmp_path):
        found = findings(
            tmp_path,
            {
                "service/sel.py": """
                from pathlib import Path


                class Conn:
                    def __init__(self, state):
                        self.state = state

                    def wire(self, conn):
                        conn.callback = self._on_ready

                    def _on_ready(self):
                        return Path("spool").read_text()
                """,
            },
            "FLOW-BLOCK",
        )
        assert len(found) == 1
        assert "read_text" in found[0].message


    def test_base_class_hooks_reach_subclass_overrides(self, tmp_path):
        # The shape of aio.Link: the base class registers its own
        # event callback and calls hooks its subclasses fill in — the
        # blocking call sits in an override, and in an inherited
        # helper reached from a subclass method.
        files = {
            "service/link.py": """
            import time


            class Link:
                def open(self, reactor, sock):
                    reactor.register(sock, 1, self._on_event)

                def _on_event(self, mask):
                    self.on_frame(mask)

                def on_frame(self, frame):
                    pass

                def _stall(self):
                    time.sleep(0.1)
            """,
            "cluster/upstream.py": """
            import time

            from ..service.link import Link


            class Upstream(Link):
                def on_frame(self, frame):
                    time.sleep(0.1)
                    self._stall()
            """,
        }
        found = findings(tmp_path, files, "FLOW-BLOCK")
        assert sorted(v.path for v in found) == [
            "cluster/upstream.py", "service/link.py"
        ]
        assert "_on_event -> on_frame" in found[0].message
        assert "on_frame -> _stall" in found[1].message


def stale(report):
    return [v for v in report.violations if v.rule == "WAIVER"]


class TestStaleWaivers:
    """A waiver that suppresses nothing is a finding like any other:
    rule ``WAIVER``, at the waiver's line."""

    def test_unknown_code_reported(self, tmp_path):
        report = report_tree(
            tmp_path,
            {"sim/odd.py": "x = 1  # reprolint: disable=NOPE\n"},
        )
        (issue,) = report.violations
        assert (issue.rule, issue.path, issue.line) == (
            "WAIVER", "sim/odd.py", 1
        )
        assert "'disable=NOPE' (unknown rule code)" in issue.message

    def test_deleted_rule_code_is_unknown(self, tmp_path):
        # A waiver for a rule this tree no longer has is stale too.
        report = report_tree(
            tmp_path,
            {"service/old.py": "x = 1  # reprolint: disable=FLOW-LOCK\n"},
        )
        (issue,) = report.violations
        assert "unknown rule code" in issue.message

    def test_unused_waiver_reported(self, tmp_path):
        report = report_tree(
            tmp_path,
            {"sim/clean.py": "x = 1  # reprolint: disable=DET\n"},
        )
        (issue,) = report.violations
        assert issue.rule == "WAIVER"
        assert "'disable=DET' (matched no violation)" in issue.message

    def test_used_waiver_not_reported(self, tmp_path):
        report = report_tree(
            tmp_path,
            {
                "sim/waived.py": """
                import time


                def tick():
                    return time.time()  # reprolint: disable=DET
                """,
            },
        )
        assert report.violations == []

    def test_file_waiver_tracked(self, tmp_path):
        report = report_tree(
            tmp_path,
            {"sim/noop.py": "# reprolint: disable-file=DET\nx = 1\n"},
        )
        (issue,) = stale(report)
        assert "matched no violation" in issue.message

    def test_docstring_prose_is_not_a_waiver(self, tmp_path):
        report = report_tree(
            tmp_path,
            {
                "sim/doc.py": (
                    '"""Explains the syntax:\n\n'
                    "    # reprolint: disable=DET\n"
                    '"""\nx = 1\n'
                ),
            },
        )
        assert report.violations == []

    def test_timings_populated(self, tmp_path):
        report = report_tree(tmp_path, {"sim/x.py": "x = 1\n"})
        assert set(report.timings) == {
            "parse",
            "module_rules",
            "flow",
            "total",
        }
        assert report.timings["total"] >= 0


class TestCliFlow:
    def test_explain_prints_rule_card(self, capsys):
        assert main(["lint", "--explain", "FLOW-BLOCK"]) == 0
        out = capsys.readouterr().out
        assert "scope: program" in out
        assert "TestRepoWiringMutations" in out  # the catch on record
        assert "example finding:" in out
        assert "disable=FLOW-BLOCK" in out

    def test_explain_unknown_rule_fails(self, capsys):
        assert main(["lint", "--explain", "NOPE"]) != 0
        assert "no such rule" in capsys.readouterr().err

    def test_stale_waiver_exits_one(self, tmp_path, capsys):
        write_tree(
            tmp_path,
            {"sim/clean.py": "x = 1  # reprolint: disable=DET\n"},
        )
        # Never advisory: the stale waiver is printed with the
        # findings and fails the run, with no flag asking for it.
        assert main(["lint", "--root", str(tmp_path), str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "sim/clean.py:1:1: WAIVER stale waiver" in out
        assert "lint: clean" not in out


class TestLintGateFlow:
    """The flow pass and the waiver check through the lint step as
    scripts/check.sh runs it (``run_gate``)."""

    def test_flow_violation_fails_gate(self, tmp_path):
        write_tree(tmp_path, {"service/sweep.py": BLOCK_TIMER_SLEEP})
        result = run_gate(
            "--root", str(tmp_path), str(tmp_path / "service")
        )
        assert result.returncode == 1
        assert "FLOW-BLOCK" in result.stdout

    def test_stale_waiver_fails_gate(self, tmp_path):
        write_tree(
            tmp_path,
            {"sim/clean.py": "x = 1  # reprolint: disable=DET\n"},
        )
        result = run_gate("--root", str(tmp_path), str(tmp_path))
        assert result.returncode == 1
        assert "stale waiver" in result.stdout

    def test_budget_overrun_fails(self, tmp_path):
        # check.sh budgets the full sweep at 10 s of wall clock; the
        # same command under a budget no interpreter start-up fits in
        # is killed and fails the step.
        assert gate_command()[:2] == ["timeout", "10"]
        write_tree(tmp_path, {"sim/x.py": "x = 1\n"})
        result = run_gate(
            "--root", str(tmp_path), str(tmp_path), budget="0.01"
        )
        assert result.returncode == 124

    def test_timings_line_printed(self, tmp_path):
        write_tree(tmp_path, {"sim/x.py": "x = 1\n"})
        result = run_gate("--root", str(tmp_path), str(tmp_path))
        assert result.returncode == 0
        assert "lint timings:" in result.stderr
        assert "flow=" in result.stderr


class TestRepoFlowClean:
    def test_full_repo_report_is_clean(self):
        report = devtools.lint_report(
            [REPO_ROOT / "src" / "repro"], REPO_ROOT
        )
        # No finding, and every DET/EXC/WIRE waiver in src/ still
        # matches something (a stale one would be a WAIVER finding).
        assert report.violations == []


class TestRepoWiringMutations:
    """FLOW-BLOCK's catch on record — it follows the serving plane's
    real wiring: seed one ``time.sleep`` into a copy of ``service/`` +
    ``cluster/`` and it must fire (the unmutated copy is clean)."""

    def _report(self, tmp_path, relpath=None, old=None, new=None):
        for package in ("service", "cluster"):
            shutil.copytree(
                REPO_ROOT / "src" / "repro" / package,
                tmp_path / "repro" / package,
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        if relpath is not None:
            target = tmp_path / "repro" / relpath
            source = target.read_text(encoding="utf-8")
            assert source.count(old) == 1, (relpath, old)
            target.write_text(source.replace(old, new), encoding="utf-8")
        return devtools.lint_report([tmp_path], tmp_path)

    def test_unmutated_copy_is_clean(self, tmp_path):
        assert self._report(tmp_path).violations == []

    def test_sleep_in_router_reply_handler_flagged(self, tmp_path):
        report = self._report(
            tmp_path,
            "cluster/router.py",
            "        sub = self._head(request_id)\n"
            "        if not isinstance(reply, dict):\n",
            "        sub = self._head(request_id)\n"
            "        time.sleep(0.01)\n"
            "        if not isinstance(reply, dict):\n",
        )
        (found,) = report.violations
        assert found.rule == "FLOW-BLOCK"
        assert found.path == "repro/cluster/router.py"
        # Reached through the Link's event and frame callbacks.
        assert "_on_event -> _read -> _parse -> on_message" in found.message

    def test_sleep_in_server_records_flagged(self, tmp_path):
        report = self._report(
            tmp_path,
            "service/server.py",
            "        epoch = self._epochs.current\n"
            "        if epoch.number != self._epoch:\n",
            "        time.sleep(0.01)\n"
            "        epoch = self._epochs.current\n"
            "        if epoch.number != self._epoch:\n",
        )
        (found,) = report.violations
        assert found.rule == "FLOW-BLOCK"
        assert found.path == "repro/service/server.py"
        # Reached from the request path: the door's dispatcher.
        assert "-> _records)" in found.message

    def test_sleep_in_router_batch_scatter_flagged(self, tmp_path):
        report = self._report(
            tmp_path,
            "cluster/router.py",
            "        partition, slots = self._partition, self._slots\n",
            "        time.sleep(0.01)\n"
            "        partition, slots = self._partition, self._slots\n",
        )
        (found,) = report.violations
        assert found.rule == "FLOW-BLOCK"
        assert found.path == "repro/cluster/router.py"
        assert "handle ->" in found.message

    def test_sleep_in_backend_deadline_flagged(self, tmp_path):
        report = self._report(
            tmp_path,
            "cluster/router.py",
            "        queue = self.pending or self.waiting\n",
            "        time.sleep(0.01)\n"
            "        queue = self.pending or self.waiting\n",
        )
        (found,) = report.violations
        assert found.rule == "FLOW-BLOCK"
        assert found.path == "repro/cluster/router.py"
        # The loop's one sweep, through each link's expire hook.
        assert "path _sweep -> expire" in found.message

    def test_sleep_in_ping_timer_flagged(self, tmp_path):
        report = self._report(
            tmp_path,
            "cluster/router.py",
            "    def _beat(self) -> None:\n",
            "    def _beat(self) -> None:\n        time.sleep(0.01)\n",
        )
        (found,) = report.violations
        assert found.rule == "FLOW-BLOCK"
        assert "call_later()" in found.message
        assert "path _beat" in found.message
