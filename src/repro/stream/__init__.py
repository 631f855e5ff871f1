"""Streaming blocklist ingestion with zero-downtime index updates.

The paper's blocklists are living objects — listings churn daily, and
the churn is precisely why reused addresses get unjustly blocked. This
package lets the online service ingest that churn continuously instead
of serving a frozen batch artefact:

* :mod:`repro.stream.delta` — :class:`ListingDelta` /
  :class:`DeltaBatch` records, the day-advance generator that replays
  a scenario's simulated churn as an ordered event stream, and the
  span fold that applies it;
* :mod:`repro.stream.log` — the append-only gzip-member update log
  with sequence numbers, checksums and crash-safe truncated-tail
  recovery;
* :mod:`repro.stream.epoch` — :class:`EpochIndex`, the copy-on-write
  incremental wrapper that publishes immutable index epochs via an
  atomic pointer swap (readers never lock, never see a torn state);
* :mod:`repro.stream.follower` — the background thread tailing a log
  into epoch swaps under a live server.

``repro stream`` emits an update log from a cached run;
``repro serve --follow`` replays one into a running server.
"""

from .delta import DeltaBatch, ListingDelta, day_advance_batches
from .epoch import Epoch, EpochIndex, index_as_of
from .follower import LogFollower
from .log import (
    UpdateLogError,
    UpdateLogReader,
    UpdateLogWriter,
    read_update_log,
    write_update_log,
)

__all__ = [
    "DeltaBatch",
    "Epoch",
    "EpochIndex",
    "ListingDelta",
    "LogFollower",
    "UpdateLogError",
    "UpdateLogReader",
    "UpdateLogWriter",
    "day_advance_batches",
    "index_as_of",
    "read_update_log",
    "write_update_log",
]
