"""Sharded, replicated serving for the reputation service.

One process and one index copy cap the single-server stack of
:mod:`repro.service`; real deployments consult blocklists per flow, so
query capacity must scale horizontally. This package partitions one
address family's space across worker shards and puts a
protocol-identical router in front (a cluster is one family on one
port; serving both takes two):

* :mod:`repro.cluster.partition` — :class:`PartitionMap`, the
  deterministic /24-aligned split of the address space (no dynamic-
  prefix verdict ever straddles shards);
* :mod:`repro.cluster.shard` — :class:`ShardProcess`, the one shard
  host: a forked worker running the existing service stack over
  ``ReputationIndex.restrict(...)``, each shard independently tailing
  the shared update log (filtered to its range, epochs in lockstep),
  ended by ``stop`` (SIGTERM, drain) or ``kill`` (SIGKILL, a crash);
* :mod:`repro.cluster.router` — :class:`Router`, the scatter-gather
  front speaking the unchanged wire protocol downstream and the
  binary codec only upstream: point routing, batched fan-out with
  in-order merge, merged ``stats``/``hello`` with min/max epoch,
  ``hello`` probes down each backend's own link, one admission rule
  (a backend below the seq its shard has served does not answer; its
  ``stats`` row states the cause), replica failover, and explicit
  ``SHARD_UNAVAILABLE`` degradation instead of failed batches;
* :mod:`repro.cluster.local` — :class:`LocalCluster`, the one-machine
  bootstrapper behind ``repro cluster`` and the tests, and the online
  shard split: a phase machine on the router's loop;
* :mod:`repro.cluster.elastic` — :class:`HotRangeDetector` /
  :class:`AutoSplitter`, the closed loop — a timer on the same loop —
  that watches per-shard load and splits sustained hot ranges.
"""

from .elastic import AutoSplitter, HotRangeDetector
from .local import LocalCluster
from .partition import MAX_SHARDS, PartitionMap, ShardRange
from .router import SHARD_UNAVAILABLE, Backend, Router, ShardSlot
from .shard import ShardProcess, filter_batch

__all__ = [
    "AutoSplitter",
    "Backend",
    "HotRangeDetector",
    "LocalCluster",
    "MAX_SHARDS",
    "PartitionMap",
    "Router",
    "SHARD_UNAVAILABLE",
    "ShardProcess",
    "ShardRange",
    "ShardSlot",
    "filter_batch",
]
