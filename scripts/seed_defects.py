#!/usr/bin/env python3
"""Seed one defect at a time into a copy of a checkout and record what
catches it: the evidence a lint rule is kept or deleted on.

    scripts/seed_defects.py                  # this checkout
    scripts/seed_defects.py -k lock          # seeds whose name has "lock"
    git archive <commit> | tar -x -C /tmp/p && scripts/seed_defects.py --tree /tmp/p

``src/``, ``tests/``, ``scripts/`` and ``benchmarks/serving/`` (the
bench corpus some tests read) of ``--tree`` are copied to a temporary
directory once. Per seed, its text substitutions are applied to the
copy (a seed whose text is not in that tree is reported ``n/a``), the
*copy's own* ``python -m repro.cli lint`` and the seed's tier-1 tests
are run (hypothesis with the ``seeded`` profile: a failure is reported,
not shrunk), and the seeded file is put back. One markdown table row comes
out: the rule codes that fired, and how many of the named tests
failed. EXPERIMENTS.md ("Seeded defects")
holds the table of the commit that last changed the rule set.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, NamedTuple, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]

UNLOCK = "if True:"  # what a removed ``with <lock>:`` line becomes
#: The live-replay fault: epoch swaps under four querying clients.
SWAPS = "tests/test_faults.py::test_fault[log-swaps-under-load]"


class Seed(NamedTuple):
    name: str
    relpath: str  # under src/repro/
    edits: Tuple[Tuple[Optional[str], str], ...]  # (old, new); old None = new file
    tests: Tuple[str, ...] = ()  # pytest arguments, run from the copy


def unlock(name: str, relpath: str, lock: str, body: str, *tests: str) -> Seed:
    """Take the ``with <lock>:`` line off the block starting ``body``."""
    indent = " " * (len(body) - len(body.lstrip()) - 4)
    old = f"{indent}with self.{lock}:\n{body}"
    return Seed(name, relpath, ((old, f"{indent}{UNLOCK}\n{body}"),), tests)


SEEDS: List[Seed] = [
    # Locks the epoch swap and the log cursor rest on.
    unlock("lock: EpochIndex.apply", "stream/epoch.py", "_write_lock",
           "            epoch = self._current\n", "tests/test_stream_service.py",
           SWAPS),
    unlock("lock: LogFollower.stop", "stream/follower.py", "_lock",
           "            thread, self._thread = self._thread, None\n",
           "tests/test_stream_service.py", SWAPS),
    unlock("lock: UpdateLogReader.poll", "stream/log.py", "_lock",
           "            blob = self._unread()\n",
           "tests/test_stream_log.py"),
    unlock("lock: UpdateLogWriter.append_deltas", "stream/log.py", "_lock",
           "            batch = DeltaBatch(self._next_seq",
           "tests/test_stream_log.py"),
    # Resources: the leaked pipe end.
    Seed("leak: ShardProcess.started keeps the start pipe open", "cluster/shard.py",
         (("        with pipe:\n", f"        {UNLOCK}\n"),),
         ("tests/test_cluster.py::TestProcessMode",)),
    # Codec pairing: the frame reader loses its FT_MSG branch.
    Seed("wire: Link._parse drops the FT_MSG branch", "service/aio.py",
         (("                    if ftype == FT_MSG:\n",
           "                    if ftype == -1:\n"),),
         ("tests/test_service_binary.py", "-k", "EveryFrameType or Negotiation")),
    # The binary framing's one parser, behind the loop and the client
    # alike: a first byte that is not the magic must break the stream.
    Seed("wire: decode_binary_frame loses its magic check", "service/wire.py",
         (("_BIN_HEADER.unpack_from(buffer)\n    if magic != BINARY_MAGIC:\n",
           "_BIN_HEADER.unpack_from(buffer)\n    if False:\n"),),
         ("tests/test_service_binary.py", "-k", "BadMagic or bad_magic")),
    # Blocking calls on the loop (TestRepoWiringMutations' four seeds,
    # then a wait in the split cutover).
    Seed("block: time.sleep in the router's reply handler", "cluster/router.py",
         (("        sub = self._head(request_id)\n"
           "        if not isinstance(reply, dict):\n",
           "        sub = self._head(request_id)\n        time.sleep(0.01)\n"
           "        if not isinstance(reply, dict):\n"),)),
    Seed("block: time.sleep in the router's probe timer", "cluster/router.py",
         (("    def _beat(self) -> None:\n",
           "    def _beat(self) -> None:\n        time.sleep(0.01)\n"),)),
    Seed("block: time.sleep in the server's records routine", "service/server.py",
         (("        epoch = self._epochs.current\n"
           "        if epoch.number != self._epoch:\n",
           "        time.sleep(0.01)\n        epoch = self._epochs.current\n"
           "        if epoch.number != self._epoch:\n"),)),
    Seed("block: time.sleep in the router's batch scatter", "cluster/router.py",
         (("        partition, slots = self._partition, self._slots\n",
           "        time.sleep(0.01)\n"
           "        partition, slots = self._partition, self._slots\n"),)),
    Seed("block: ShardProcess.stop() in the cutover's retire phase",
         "cluster/local.py",
         (("        backend.terminate()\n", "        backend.stop()\n"),)),
    # Each per-module rule's own fixture.
    Seed("det: time.time() in sim/", "sim/seeded.py",
         ((None, "import time\n\ndef tick():\n    return time.time()\n"),)),
    Seed("wire: json.loads with no size bound in service/", "service/seeded.py",
         ((None, "import json\n\ndef decode(payload):\n"
                 "    return json.loads(payload)\n"),)),
    Seed("exc: except Exception: pass in cluster/", "cluster/seeded.py",
         ((None, "def run(step):\n    try:\n        step()\n"
                 "    except Exception:\n        pass\n"),)),
    # This round's bugs, re-seeded by reverting the fix.
    # One admission rule for every backend: one below its slot's mark
    # (a restarted primary, a lagging replica) must not answer.
    Seed("bug: a backend below its slot's mark is admitted", "cluster/router.py",
         (("backend.seq >= self.mark\n", "backend.seq >= 0\n"),),
         ("tests/test_faults.py", "-k", "restart-under-follow or replica-lagging")),
    # No request is stranded: a control reply is judged where it enters,
    # and what a gather raises fails its own request, not the link.
    Seed("bug: a control reply enters unchecked", "cluster/router.py",
         (("        seq = _seq_of(sub.request, result)[1] if ok else 0\n",
           "        seq = 0\n"),),
         ("tests/test_faults.py", "-k", "malformed")),
    Seed("bug: a raising gather is charged to the backend", "cluster/router.py",
         (("            finish(*args)\n        except Exception as exc:\n",
           "            finish(*args)\n        except ZeroDivisionError as exc:\n"),),
         ("tests/test_faults.py", "-k", "gather-callback-raises")),
    Seed("bug: a failed hello keeps its codec", "service/server.py",
         (("conn.codec = slot.codec  #", "#"),), ("tests/test_faults.py", "-k", "gather-callback")),
    Seed("bug: a batch's ok message reply enters unchecked", "cluster/router.py",
         (("if ok and sub.request is None:", "if False:"),), ("tests/test_faults.py", "-k", "as-message")),
    Seed("bug: mid-log damage read as a torn tail", "stream/log.py",
         (("        except zlib.error as exc:\n"
           "            raise UpdateLogError(\n"
           "                f\"corrupt record at byte {base + pos}: {exc}\"\n"
           "            ) from None\n",
           "        except zlib.error:\n            break\n"),),
         ("tests/test_stream_log.py", "tests/test_faults.py",
          "-k", "Corruption or Fuzz or log-damage-mid-file")),
    # An append that fails part-way takes its bytes back: a retry behind
    # a partial member would corrupt the log for every reader.
    Seed("bug: a failed append leaves its partial member", "stream/log.py",
         (("            os.truncate(self._path, size)\n", "            pass\n"),),
         ("tests/test_faults.py", "-k", "log-append-fails")),
    # Epoch 0 is on the day it is given, day 0 included.
    Seed("bug: epoch 0 of a day-0 log reports the default day", "stream/epoch.py",
         (("        if day is None:\n", "        if not day:\n"),),
         ("tests/test_stream_service.py", "tests/test_serving_node.py", "-k", "day_0")),
    # A batch folds every delta of an address, not only its last: the
    # replay property runs on the served fold, so it sees this.
    Seed("bug: EpochIndex._updated_intervals keeps only an address's last "
         "delta of a batch", "stream/epoch.py",
         (("by_ip.setdefault(delta.ip, []).append(delta)",
           "by_ip[delta.ip] = [delta]"),),
         ("tests/test_stream_delta.py", "-k", "Replay")),
    Seed("bug: LogFollower.start() after stop()", "stream/follower.py",
         (("            if self._stop.is_set():\n", "            if False:\n"),),
         ("tests/test_stream_service.py", "-k",
          "a_stopped_follower_does_not_start_again")),
    # A snapshot served from a mapping of its own file: truncated in
    # place under a loaded index, the next query dies of SIGBUS.
    Seed("bug: a served snapshot maps its file, not a sealed copy",
         "service/snapshot.py",
         (("sealed = _sealed_copy(handle.fileno(), size)\n",
           "sealed = os.dup(handle.fileno())\n"),),
         ("tests/test_faults.py", "-k", "snapshot-truncated")),
    # The one verdict cache serves every codec and op: a table kept
    # past its epoch would answer all of them stale after a swap.
    Seed("bug: the verdict cache's table outlives its epoch",
         "service/server.py",
         (("        if epoch.number != self._epoch:\n",
           "        if self._epoch is None:\n"),),
         ("tests/test_packed_cache.py", "-k", "AcrossEpochs")),
    # A table carried into the next epoch: only the records of the
    # addresses its batch did not rewrite may cross, each restamped.
    Seed("bug: the carry keeps a changed address's record",
         "service/wire.py",
         (("map(int.to_bytes, changed, repeat(width)",
           "map(int.to_bytes, (), repeat(width)"),),
         ("tests/test_packed_cache.py", "tests/test_faults.py", "-k",
          "AcrossEpochs or Carry or log-swaps-under-load")),
    Seed("bug: a carried record keeps its old stamp", "service/wire.py",
         (("            _STAMP.pack(epoch, seq).join,\n",
           "            b\"\".join,\n"),
          ("slice(at + _STAMP.size, None)", "slice(at, None)")),
         ("tests/test_packed_cache.py", "tests/test_faults.py", "-k",
          "AcrossEpochs or Carry or log-swaps-under-load")),
    # The server counts for the engine, and only what reached it.
    Seed("bug: a packed-cache hit counted as an engine query",
         "service/server.py",
         (("counters.add(prefix + \"queries\", len(fresh))\n",
           "counters.add(prefix + \"queries\", len(keys))\n"),),
         ("tests/test_query_records.py", "-k",
          "test_misses_and_hits_are_counted_where_they_were")),
    # A shard's key directory is its parent's, rebased: one row off and
    # a search starts past the key it looks for.
    Seed("bug: key directory rebased one row off in a slice",
         "service/columns.py",
         (("map(sub, directory[lo:hi], repeat(start))",
           "map(sub, directory[lo:hi], repeat(start - 1))"),),
         ("tests/test_query_records.py", "tests/test_index_columns.py",
          "-k", "Directory or shard_slice or ByteIdentity")),
    # Every successor is a fold: the offsets of a run of rows copied
    # past a changed row move by what that change added or dropped.
    Seed("bug: a fold copies a run of offsets without its shift",
         "service/columns.py",
         (("_rebased(offsets[start + 1:stop + 1].cast(\"B\"), shift)",
           "_rebased(offsets[start + 1:stop + 1].cast(\"B\"), 0)"),),
         ("tests/test_index_columns.py", "tests/test_query_records.py",
          "-k", "update_chain or ByteIdentity")),
    # The record loop is the one evaluation: a policy slip there must
    # show in the adversary lab's scores.
    Seed("bug: a DDoS list no longer blocks a reused address",
         "service/index.py",
         (("                key |= 12 if hard else 4\n",
           "                key |= 4\n"),),
         ("tests/test_adversary.py", "-k", "golden")),
    # Every peer that will not finish ends in a declared state: a
    # trickled frame is no progress, and an accept short of a descriptor
    # unwatches the listener until the loop's next sweep.
    Seed("bug: every read refreshes a link's clock", "service/aio.py",
         (("        if not held or len(self.inbuf) < held + size:\n",
           "        if True:\n"),),
         ("tests/test_faults.py", "-k", "peer-trickles-frame")),
    Seed("bug: a send that moves bytes leaves a link's clock alone",
         "service/aio.py",
         (("                del out[:sent]\n"
           "                self.last_activity = time.monotonic()\n",
           "                del out[:sent]\n"),),
         ("tests/test_faults.py", "-k", "peer-trickles-frame")),
    Seed("bug: an accept at the fd limit leaves the listener watched",
         "service/aio.py",
         (("                    self.reactor.unregister(self._listener)\n", ""),),
         ("tests/test_faults.py", "-k", "fd-limit-reached")),
    # Why a peer was dropped is counted, and a reply is not news: only
    # a flip of a backend's health is an event.
    Seed("bug: a closed connection goes uncounted", "service/aio.py",
         (("        self.server.closes[cause.partition(\":\")[0]] += 1\n", ""),),
         ("tests/test_faults.py", "-k", "peers-dropped-counted")),
    Seed("bug: every batch reply records a backend event", "cluster/router.py",
         (("        if not self.healthy:\n            self._flip(True, \"\")\n"
           "        self._succeed(",
           "        self._flip(True, \"\")\n        self._succeed("),),
         ("tests/test_cluster.py", "-k", "no_backend_event")),
    # The router partitions a batch in one bisect pass of its request
    # records over the range starts: the address before a range's
    # first is the range before's.
    Seed("bug: range starts packed one low send a range's last address "
         "a shard high",
         "cluster/router.py",
         (("starts = [start.to_bytes(width, \"big\")",
           "starts = [(start - 1).to_bytes(width, \"big\")"),),
         ("tests/test_cluster.py", "-k", "ScatterGather")),
    # A shard refuses its own part of a frame with a bad has_day byte,
    # which the router would degrade: the router refuses the frame.
    Seed("bug: the router forwards a frame with a bad has_day byte",
         "cluster/router.py",
         (("            codec.check_requests(keys)\n", "            pass\n"),),
         ("tests/test_hostile_requests.py",)),
    # A day outside i32 is answered from its address's default-day
    # record: that day's listing must not leak into the answer.
    Seed("bug: unlisted_on keeps the default day's listing",
         "service/wire.py",
         (("        \"listed\": False,\n        \"lists\": [],\n", ""),),
         ("tests/test_query_records.py::TestWideDays",
          "tests/test_reply_pins.py")),
]

_FINDING = re.compile(r"^\S+:\d+:\d+: ([A-Z][A-Z-]*)", re.M)


def apply(seed: Seed, target: Path) -> bool:
    for old, new in seed.edits:
        if old is None:
            target.write_text(new, encoding="utf-8")
            continue
        text = target.read_text(encoding="utf-8")
        if text.count(old) != 1:
            return False
        target.write_text(text.replace(old, new), encoding="utf-8")
    return True


def _profile(copy: Path) -> List[str]:
    """Run hypothesis with the ``seeded`` profile (no shrinking) where
    the tree's ``tests/conftest.py`` registers it; a tree from before it
    runs hypothesis as it is."""
    conftest = copy / "tests" / "conftest.py"
    registered = conftest.exists() and '"seeded"' in conftest.read_text()
    return ["--hypothesis-profile=seeded"] if registered else []


def run_seed(seed: Seed, copy: Path) -> str:
    """Seed ``copy``, see what catches it, and put ``copy`` back."""
    target = copy / "src" / "repro" / seed.relpath
    original = target.read_bytes() if target.exists() else None
    try:
        if not apply(seed, target):
            return f"| {seed.name} | n/a (text not in this tree) | |"
        env = {**os.environ, "PYTHONPATH": str(copy / "src"),
               "PYTHONDONTWRITEBYTECODE": "1"}
        lint = subprocess.run(
            [sys.executable, "-m", "repro.cli", "lint"],
            cwd=copy, env=env, capture_output=True, text=True,
        )
        fired = sorted(set(_FINDING.findall(lint.stdout))) or ["clean"]
        tests = "not run"
        if seed.tests:
            result = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                 "-o", "addopts=", *_profile(copy), *seed.tests],
                cwd=copy, env=env, capture_output=True, text=True,
            )
            tail = result.stdout.strip().splitlines()[-1:] or [""]
            tests = (
                "no such test" if result.returncode in (4, 5)
                else tail[0].strip("= ")
            )
        return f"| {seed.name} | {', '.join(fired)} | {tests} |"
    finally:
        if original is None:
            target.unlink(missing_ok=True)
        else:
            target.write_bytes(original)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, default=ROOT,
                        help="checkout to seed (default: this one)")
    parser.add_argument("-k", metavar="TEXT", default="",
                        help="only seeds whose name contains TEXT")
    args = parser.parse_args()
    print("| seed | `repro lint` | tier-1 tests named for it |")
    print("|---|---|---|")
    with tempfile.TemporaryDirectory(prefix="seeded-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests", "scripts", "benchmarks/serving"):
            if not (args.tree / part).is_dir():
                continue
            shutil.copytree(
                args.tree / part, copy / part,
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        shutil.copy(args.tree / "pyproject.toml", copy)
        for seed in SEEDS:
            if args.k in seed.name:
                print(run_seed(seed, copy), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
