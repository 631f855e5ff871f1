"""Online reuse-aware blocklist reputation service.

Real blocklist consumers do not read batch reports — they ask, per
connection, "is this address listed *right now*, and should I act on
it?". This package turns the study's batch artefact
(:class:`~repro.core.reuse.ReuseAnalysis`) into that servable product:

* :mod:`repro.service.index` — :class:`ReputationIndex`, the
  read-optimised immutable compilation of a full run (per-IP sorted
  listing intervals, NAT/dynamic classification, AS rollups) with a
  binary snapshot format so a server starts without re-running the
  pipeline;
* :mod:`repro.service.engine` — :class:`QueryEngine`, the query layer:
  the index's record loop is its one evaluation, answering as packed
  wire records (every served answer) or as those records decoded into
  :class:`Verdict` objects (point/batch, for library callers); it keeps
  no state (the server's packed-record cache is the stack's one
  verdict cache, and the server counts what reaches the engine);
* :mod:`repro.service.wire` — the length-prefixed JSON framing both
  ends speak;
* :mod:`repro.service.server` / :mod:`repro.service.client` — the
  event-loop TCP server, :class:`ServingNode` (the one assembly every
  serving process runs, on its main thread) and the matching client.

``repro serve`` and ``repro query`` expose the whole stack from the
command line.
"""

from .client import ReputationClient, ServiceError, TransportError
from .engine import QueryEngine, Verdict
from .index import ReputationIndex, SnapshotError
from .server import PROTOCOL_VERSION, ReputationServer, ServingNode
from .wire import MAX_FRAME_BYTES

__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "QueryEngine",
    "ReputationClient",
    "ReputationIndex",
    "ReputationServer",
    "ServiceError",
    "ServingNode",
    "SnapshotError",
    "TransportError",
    "Verdict",
]
