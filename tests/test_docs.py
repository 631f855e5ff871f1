"""The prose, held to the tree it describes (well under a second).

CHANGES.md once reached 101 KB in 57 lines, and EXPERIMENTS.md went on
naming a bench two PRs after it was deleted: nothing read the docs
back. This does, the way ``TestParserSurface`` pins the CLI and
``test_frozen_bench_surface.py`` the benchmark's view of ``src/`` —
every ``repro <subcommand>`` and ``--flag`` README.md, DESIGN.md and
EXPERIMENTS.md quote resolves against the live parser, every repo path
they quote exists, every ``DESIGN.md §N`` cited from ``src/`` or from
them is a live heading, every quoted section name (``DESIGN.md §7
"Links"``) starts a heading or a bold lead of its doc, the three keep
within a byte bound, and CHANGES.md keeps to its entry format.
"""

import os
import re
from pathlib import Path

import pytest

from repro.cli import _build_parser
from tests.test_cli import _surface

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")

#: CHANGES.md's format (ROADMAP item 7).
MAX_COLUMNS = 100
MAX_ENTRY_LINES = 15

#: README.md + DESIGN.md + EXPERIMENTS.md, in bytes: a fact that gains
#: a second home, or a retelling of a past run, has to push another out.
MAX_DOC_BYTES = 102_562

#: Quoted file names that are not in the tree on purpose.
NOT_IN_TREE = {
    "report.json",  # what ``repro load --out`` writes
    "greylist.txt",  # what ``repro run --export-dir`` writes
    "hardwire.py",  # DESIGN.md §8's counter-example of a suffix match
}

#: Flags of tools the docs quote beside ``repro``'s: anything a script
#: under ``scripts/`` or the serving benchmark's ``run.py`` declares,
#: plus pytest-benchmark's.
OTHER_TOOLS = ("scripts/*.py", "benchmarks/serving/run.py")
PYTEST_FLAGS = {"--benchmark-only", "--benchmark-disable"}

_COMMAND = re.compile(
    r"(?:`|-m )repro(?:\.cli)? ([a-z][a-z-]*)((?:[^`\n\\]|\\\n)*)"
)
_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
_PATH = re.compile(
    r"(?<![\w./~<-])((?:[\w.-]+/)*[\w.-]+\.(?:py|sh|md|json|toml|txt))"
    r"(?![\w<*])"
)
_SECTION = re.compile(r"DESIGN(?:\.md)? §(\d+)")
#: ``DESIGN.md §7 "Links"``, ``EXPERIMENTS.md, "Same bytes"``: a doc, an
#: optional section, and a quoted name that may wrap a line.
_QUOTED = re.compile(
    r'\b(README|DESIGN|EXPERIMENTS)(?:\.md)?`?(?: §(\d+))?,?\s+\(?"([^"]{1,80})"'
)
_LEAD = re.compile(r"^#+ (?:\d+\. )?(.+)$|\*\*([^*]+)\*\*", re.M)
_FENCED = re.compile(r"^```.*?^```", re.M | re.S)


@pytest.fixture(scope="module")
def docs():
    return {name: (ROOT / name).read_text("utf-8") for name in DOCS}


@pytest.fixture(scope="module")
def flags_of():
    """``{subcommand path: its --flags}`` from ``TestParserSurface``'s
    walk of the live parser."""
    return {
        path: {
            option
            for line in described
            if line.startswith("--")
            for option in line.split()[0].split("/")
        }
        for path, described in _surface(_build_parser()).items()
    }


def test_the_docs_keep_within_their_bytes():
    total = sum((ROOT / name).stat().st_size for name in DOCS)
    assert total <= MAX_DOC_BYTES


class TestChangesFormat:
    def test_no_line_over_100_columns(self):
        lines = (ROOT / "CHANGES.md").read_text("utf-8").splitlines()
        long = [
            f"line {number}: {len(line)} columns"
            for number, line in enumerate(lines, 1)
            if len(line) > MAX_COLUMNS
        ]
        assert not long

    def test_no_entry_over_15_lines(self):
        entries, current = {}, None
        for line in (ROOT / "CHANGES.md").read_text("utf-8").splitlines():
            started = re.match(r"PR \d+", line)
            if started:
                current = line.split(":")[0]
                assert current not in entries, f"two entries for {current}"
            if current and line.strip():
                entries[current] = entries.get(current, 0) + 1
        assert len(entries) > 20  # the walk found the entries
        assert not {
            entry: count
            for entry, count in entries.items()
            if count > MAX_ENTRY_LINES
        }


class TestQuotedCommands:
    def test_every_subcommand_and_its_flags_resolve(self, docs, flags_of):
        top = {path.split()[0] for path in flags_of}
        seen, broken = 0, []
        for name, text in docs.items():
            for match in _COMMAND.finditer(text):
                seen += 1
                command, rest = match.groups()
                if command not in top:
                    broken.append(f"{name}: no subcommand `repro {command}`")
                    continue
                # ``repro scenarios run --seed``: the flags are the
                # nested subcommand's (either one's when none is said).
                nested = " ".join([command, *rest.split()[:1]])
                paths = [nested] if nested in flags_of else [
                    path for path in flags_of if path.split()[0] == command
                ]
                known = set().union(*(flags_of[path] for path in paths))
                for flag in _FLAG.findall(rest):
                    if flag not in known:
                        broken.append(
                            f"{name}: `repro {command}` takes no {flag}"
                        )
        assert seen > 40  # the walk found the commands
        assert not broken

    def test_every_flag_belongs_to_a_tool_the_docs_quote(self, docs, flags_of):
        known = set(PYTEST_FLAGS).union(*flags_of.values())
        for pattern in OTHER_TOOLS:
            for script in ROOT.glob(pattern):
                known.update(
                    re.findall(r'"(--[a-z][a-z0-9-]*)"', script.read_text())
                )
        unknown = {
            f"{name}: {flag}"
            for name, text in docs.items()
            for flag in _FLAG.findall(text)
            if flag not in known
        }
        assert not unknown


class TestQuotedPaths:
    def test_every_repo_path_exists(self, docs):
        tree = set()
        for directory, subdirs, files in os.walk(ROOT):
            subdirs[:] = [sub for sub in subdirs if not sub.startswith(".")]
            inside = Path(directory).relative_to(ROOT).as_posix()
            tree.update(f"/{inside}/{file}" for file in files)
        seen, missing = 0, set()
        for name, text in docs.items():
            for path in _PATH.findall(text):
                seen += 1
                if path not in NOT_IN_TREE and not any(
                    known.endswith(f"/{path}") for known in tree
                ):
                    missing.add(f"{name}: {path}")
        assert seen > 150  # the walk found the paths
        assert not missing

    def test_every_design_section_cited_is_a_live_heading(self, docs):
        headings = set(
            re.findall(r"^## (\d+)\. ", docs["DESIGN.md"], flags=re.M)
        )
        assert len(headings) >= 9
        cited = {
            (name, number)
            for name, text in docs.items()
            for number in _SECTION.findall(text)
        }
        for source in (ROOT / "src").rglob("*.py"):
            cited.update(
                (str(source.relative_to(ROOT)), number)
                for number in _SECTION.findall(source.read_text("utf-8"))
            )
        assert any(name.startswith("src/") for name, _ in cited)
        assert not {
            f"{name}: §{number}"
            for name, number in cited
            if number not in headings
        }

    def test_every_quoted_section_name_leads_a_heading_or_a_bold_run(
        self, docs
    ):
        sources = dict(docs)
        for tree in ("src", "tests", "scripts"):
            for path in sorted((ROOT / tree).rglob("*")):
                if path.suffix in (".py", ".sh"):
                    sources[str(path.relative_to(ROOT))] = path.read_text("utf-8")
        seen, dangling = 0, set()
        for source, text in sources.items():
            for doc, section, quoted in _QUOTED.findall(text):
                seen += 1
                name = " ".join(re.sub(r"#:?", " ", quoted).split())
                body = docs[f"{doc}.md"]
                if section:
                    part = re.search(
                        rf"^## {section}\. .*?(?=^## |\Z)", body, re.M | re.S
                    )
                    body = part.group() if part else ""
                leads = (
                    " ".join((heading or bold).split())
                    for heading, bold in _LEAD.findall(_FENCED.sub("", body))
                )
                if not any(lead.startswith(name) for lead in leads):
                    where = f" §{section}" if section else ""
                    dangling.add(f'{source}: {doc}.md{where} "{name}"')
        assert seen > 10  # the walk found the references
        assert not dangling
