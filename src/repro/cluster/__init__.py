"""The client path to the networked service: one gateway or N shards.

The layer over :mod:`repro.net`: the
:class:`~repro.cluster.ring.HashRing` deterministically assigns candidate
ranges and report batches to shards, the
:class:`~repro.cluster.coordinator.ClusterCoordinator` exposes the
aggregation-server protocol over N
:class:`~repro.net.client.GatewayConnection`\\ s and runs the round-close
barrier (collect every shard's raw state, merge with the
:class:`~repro.service.shards.LevelShard` algebra, estimate once),
:func:`~repro.cluster.loadgen.run_loadgen` is the multiprocess load
generator, and :func:`~repro.cluster.launcher.launch_cluster`
spawns/supervises the shard processes.  A single address is a 1-shard
cluster, i.e. a plain gateway: it estimates itself, with no export
barrier.  The subsystem's invariant: fixed-seed discovery over an
N-shard cluster is **bit-identical** — estimates, transcripts, exact
wire-bit totals — to single-gateway and in-memory service runs.
"""

from repro.cluster.coordinator import (
    ClusterConnection,
    ClusterCoordinator,
    parse_cluster_addresses,
    run_over_cluster,
)
from repro.cluster.launcher import ClusterHandle, LauncherError, launch_cluster
from repro.cluster.loadgen import LoadgenReport, run_loadgen
from repro.cluster.ring import DEFAULT_VNODES, HashRing

__all__ = [
    "ClusterConnection",
    "ClusterCoordinator",
    "ClusterHandle",
    "DEFAULT_VNODES",
    "HashRing",
    "LauncherError",
    "LoadgenReport",
    "launch_cluster",
    "parse_cluster_addresses",
    "run_loadgen",
    "run_over_cluster",
]
