"""Tests for the whole-program flow pass (src/repro/devtools/flow):
symbol table, call-graph resolution, the three FLOW-* rules, the
stale-waiver check, and the CLI/gate plumbing around them.

Each rule gets the seeded fixture the issue demands — an unlocked
write three calls below the public entry (FLOW-LOCK), a ``time.sleep``
behind a reactor timer (FLOW-BLOCK), an encoded frame tag no decoder
handles (FLOW-WIRE) — plus the negatives that prove the pass stays
silent on the idioms the real serving plane uses.
"""

import shutil
import textwrap
from pathlib import Path

import pytest

from repro import devtools
from repro.cli import main
from repro.devtools.flow import get_program
from repro.devtools.lint import LintModule, ProgramContext

from .test_devtools_lint import gate_command, run_gate

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
    return get_program(ProgramContext(modules))


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

    def test_program_cached_on_context(self):
        modules = [
            LintModule(Path("service/x.py"), "service/x.py", "x = 1\n")
        ]
        context = ProgramContext(modules)
        assert get_program(context) is get_program(context)


LOCK_THREE_DEEP = """
import threading


class Engine:
    def __init__(self):
        self._lock = threading.Lock()
        self.hits = 0

    def record(self):
        self._step_a()

    def _step_a(self):
        self._step_b()

    def _step_b(self):
        self.hits += 1

    def reset(self):
        with self._lock:
            self.hits = 0
"""


class TestFlowLock:
    def test_unlocked_write_three_calls_deep(self, tmp_path):
        found = findings(
            tmp_path, {"service/eng.py": LOCK_THREE_DEEP}, "FLOW-LOCK"
        )
        assert len(found) == 1
        assert "self.hits" in found[0].message
        assert "record -> _step_a -> _step_b" in found[0].message

    def test_lock_held_in_caller_covers_callee(self, tmp_path):
        found = findings(
            tmp_path,
            {
                "service/eng.py": """
                import threading


                class Engine:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.hits = 0

                    def record(self):
                        with self._lock:
                            self._bump()

                    def _bump(self):
                        self.hits += 1
                """,
            },
            "FLOW-LOCK",
        )
        assert found == []

    def test_lock_free_class_is_silent(self, tmp_path):
        # No lock attribute at all (Reactor-style loop-owned state):
        # the class demonstrates no discipline, so none is enforced.
        found = findings(
            tmp_path,
            {
                "service/loop.py": """
                import threading


                class Reactor:
                    def __init__(self):
                        self.pending = 0

                    def tick(self):
                        self.pending += 1
                """,
            },
            "FLOW-LOCK",
        )
        assert found == []

    def test_thread_target_counts_as_entry(self, tmp_path):
        # _worker is private, but handing it to Thread(target=...)
        # makes it run lock-free later — it is an entry point.
        found = findings(
            tmp_path,
            {
                "service/bg.py": """
                import threading


                class Pump:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.moved = 0

                    def start(self):
                        thread = threading.Thread(target=self._worker)
                        thread.start()

                    def _worker(self):
                        self.moved += 1

                    def drain(self):
                        with self._lock:
                            self.moved = 0
                """,
            },
            "FLOW-LOCK",
        )
        assert len(found) == 1
        assert "_worker" in found[0].message

    def test_unguarded_attr_not_flagged(self, tmp_path):
        # self.name is never written under the lock anywhere, so the
        # class claims no discipline for it — only self.hits counts.
        found = findings(
            tmp_path,
            {
                "service/eng.py": """
                import threading


                class Engine:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.hits = 0
                        self.name = ""

                    def rename(self, name):
                        self.name = name

                    def reset(self):
                        with self._lock:
                            self.hits = 0
                """,
            },
            "FLOW-LOCK",
        )
        assert found == []

    def test_waiver_suppresses(self, tmp_path):
        waived = LOCK_THREE_DEEP.replace(
            "self.hits += 1",
            "self.hits += 1  # reprolint: disable=FLOW-LOCK",
        )
        found = findings(
            tmp_path, {"service/eng.py": waived}, "FLOW-LOCK"
        )
        assert found == []


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


class TestFlowBlock:
    def test_sleep_behind_timer_flagged(self, tmp_path):
        found = findings(
            tmp_path, {"service/sweep.py": BLOCK_TIMER_SLEEP}, "FLOW-BLOCK"
        )
        assert len(found) == 1
        assert "time.sleep" in found[0].message
        assert "call_later" in found[0].message
        assert "_sweep -> _flush" in found[0].message

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


class TestFlowWire:
    def test_encoded_ft_without_decoder_flagged(self, tmp_path):
        files = {
            "service/enc.py": """
            FT_PING = 7


            def encode_frame(ftype, payload):
                return bytes([ftype]) + payload


            def send(payload):
                return encode_frame(FT_PING, payload)
            """,
        }
        found = findings(tmp_path, dict(files), "FLOW-WIRE")
        assert len(found) == 1
        assert "FT_PING" in found[0].message
        # A decoder branch in another serving module satisfies it.
        files["cluster/dec.py"] = """
        from ..service.enc import FT_PING


        def dispatch(ftype, payload):
            if ftype == FT_PING:
                return payload
            return None
        """
        found = findings(tmp_path, files, "FLOW-WIRE")
        assert found == []

    def test_codec_attribute_tags_need_a_dispatch_table(self, tmp_path):
        """A per-family codec emits ``self.ft_*`` attributes, not
        ``FT_*`` constants; the tag counts as decoded once some
        serving module compares against it or keys a table on it."""
        files = {
            "service/codec.py": """
            class Codec:
                def __init__(self, ft_request, ft_reply):
                    self.ft_request = ft_request
                    self.ft_reply = ft_reply

                def request(self, payload):
                    return encode_frame(self.ft_request, payload)

                def reply(self, payload):
                    return encode_frame(self.ft_reply, payload)


            def encode_frame(ftype, payload):
                return bytes([ftype]) + payload
            """,
        }
        found = findings(tmp_path, dict(files), "FLOW-WIRE")
        assert sorted(v.message.split()[0] for v in found) == [
            "ft_reply", "ft_request"
        ]
        files["service/dispatch.py"] = """
        def by_request(codecs):
            return {codec.ft_request: codec for codec in codecs}


        def is_reply(codec, ftype):
            return ftype == codec.ft_reply
        """
        assert findings(tmp_path, files, "FLOW-WIRE") == []

    def test_every_frame_reader_must_handle_constant_tags(self, tmp_path):
        """A tag encoded as a constant travels both ways: a decoder
        branch in one reader says nothing about the other one."""
        files = {
            "service/enc.py": """
            FT_MSG = 0


            def encode_binary_frame(ftype, payload):
                return bytes([ftype]) + payload


            def encode_msg(payload):
                return encode_binary_frame(FT_MSG, payload)
            """,
            "service/client.py": """
            from .enc import FT_MSG


            def read_reply(sock):
                ftype, payload = recv_binary_frame(sock)
                if ftype == FT_MSG:
                    return payload
                return None
            """,
            "service/loop.py": """
            def on_readable(buffer, on_packed):
                ftype, payload = decode_binary_frame(buffer)
                on_packed(ftype, payload)
            """,
        }
        found = findings(tmp_path, dict(files), "FLOW-WIRE")
        assert [v.path for v in found] == ["service/loop.py"]
        assert "FT_MSG" in found[0].message
        files["service/loop.py"] = """
        from .enc import FT_MSG


        def on_readable(buffer, on_message, on_packed):
            ftype, payload = decode_binary_frame(buffer)
            if ftype == FT_MSG:
                on_message(payload)
            else:
                on_packed(ftype, payload)
        """
        assert findings(tmp_path, files, "FLOW-WIRE") == []

    def test_repo_codec_is_conformant(self):
        # The real wire modules pass their own conformance bar.
        report = devtools.lint_report(
            [REPO_ROOT / "src" / "repro" / "service"], REPO_ROOT
        )
        assert [
            v for v in report.violations if v.rule == "FLOW-WIRE"
        ] == []


class TestStaleWaivers:
    def test_unknown_code_reported(self, tmp_path):
        report = report_tree(
            tmp_path,
            {
                "sim/odd.py": (
                    "x = 1  # reprolint: disable=NOPE\n"
                ),
            },
        )
        assert len(report.waiver_issues) == 1
        issue = report.waiver_issues[0]
        assert issue.code == "NOPE"
        assert issue.reason == "unknown rule code"

    def test_unused_waiver_reported(self, tmp_path):
        report = report_tree(
            tmp_path,
            {
                "sim/clean.py": (
                    "x = 1  # reprolint: disable=DET\n"
                ),
            },
        )
        assert len(report.waiver_issues) == 1
        assert report.waiver_issues[0].code == "DET"
        assert report.waiver_issues[0].reason == "matched no violation"

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
        assert report.waiver_issues == []
        assert report.violations == []

    def test_file_waiver_tracked(self, tmp_path):
        report = report_tree(
            tmp_path,
            {
                "sim/noop.py": (
                    "# reprolint: disable-file=DET\nx = 1\n"
                ),
            },
        )
        assert len(report.waiver_issues) == 1
        assert report.waiver_issues[0].reason == "matched no violation"

    def test_flow_waiver_not_stale_when_flow_skipped(self, tmp_path):
        # Module-rules-only runs (repro lint --no-flow) must not flag
        # FLOW waivers the skipped pass would have used.
        waived = LOCK_THREE_DEEP.replace(
            "self.hits += 1",
            "self.hits += 1  # reprolint: disable=FLOW-LOCK",
        )
        write_tree(tmp_path, {"service/eng.py": waived})
        module_rules = [
            r for r in devtools.all_rules() if r.scope == "module"
        ]
        report = devtools.lint_report(
            [tmp_path], tmp_path, rules=module_rules
        )
        assert report.waiver_issues == []

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
        assert report.waiver_issues == []

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
        assert "example finding:" in out
        assert "disable=FLOW-BLOCK" in out

    def test_explain_unknown_rule_fails(self, capsys):
        assert main(["lint", "--explain", "NOPE"]) != 0
        assert "no such rule" in capsys.readouterr().err

    def test_no_flow_skips_program_rules(self, tmp_path, capsys):
        write_tree(tmp_path, {"service/eng.py": LOCK_THREE_DEEP})
        argv = ["lint", "--root", str(tmp_path), str(tmp_path)]
        assert main(argv) == 1
        assert "FLOW-LOCK" in capsys.readouterr().out
        assert main(argv + ["--no-flow"]) == 0

    def test_strict_waivers_fails_on_stale(self, tmp_path, capsys):
        write_tree(
            tmp_path,
            {"sim/clean.py": "x = 1  # reprolint: disable=DET\n"},
        )
        argv = ["lint", "--root", str(tmp_path), str(tmp_path)]
        # Advisory by default: warn on stderr, exit clean.
        assert main(argv) == 0
        assert "stale waiver" in capsys.readouterr().err
        assert main(argv + ["--strict-waivers"]) == 1


class TestLintGateFlow:
    """The flow pass and the waiver check through the lint step as
    scripts/check.sh runs it (``run_gate``)."""

    def test_flow_violation_fails_gate(self, tmp_path):
        write_tree(tmp_path, {"service/eng.py": LOCK_THREE_DEEP})
        result = run_gate(
            "--root", str(tmp_path), str(tmp_path / "service")
        )
        assert result.returncode == 1
        assert "FLOW-LOCK" in result.stdout

    def test_stale_waiver_fails_gate(self, tmp_path):
        write_tree(
            tmp_path,
            {"sim/clean.py": "x = 1  # reprolint: disable=DET\n"},
        )
        result = run_gate("--root", str(tmp_path), str(tmp_path))
        assert result.returncode == 1
        assert "stale waiver" in result.stderr

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
        assert report.violations == []
        assert report.waiver_issues == []


class TestRepoWiringMutations:
    """The flow rules follow the serving plane's real wiring: seed
    one defect into a copy of ``service/`` + ``cluster/`` and the rule
    that owns it must fire (the unmutated copy is clean)."""

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

    def test_dropping_the_frame_readers_msg_branch_flagged(self, tmp_path):
        report = self._report(
            tmp_path,
            "service/aio.py",
            "                    if ftype == FT_MSG:\n",
            "                    if ftype == -1:\n",
        )
        (found,) = report.violations
        assert found.rule == "FLOW-WIRE"
        assert found.path == "repro/service/aio.py"
        assert "FT_MSG" in found.message
