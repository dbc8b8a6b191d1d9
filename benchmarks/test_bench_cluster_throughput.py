"""Cluster-throughput microbenchmark: shard scaling of the gateway tier.

Stands up in-process shard gateways (1 then 2 — the cheapest honest
scaling probe) and drives each topology with the same
:func:`~repro.cluster.loadgen.run_loadgen` workload through
:class:`~repro.cluster.coordinator.ClusterConnection` routing, recording
per shard count:

* ``reports_per_sec`` — end-to-end throughput (client perturb + encode +
  ring routing + TCP + shard decode + cross-shard merge barrier),
* ``p50/p95/p99`` batch latency in milliseconds (send→ack round trip),
* ``upload_bytes`` — exact bytes the run put on the wire (identical
  across shard counts: routing is transport).

Both tiers honour ``REPRO_BENCH_BACKEND`` / ``REPRO_BENCH_WORKERS``
(default: ``thread``).  Results persist machine-readably to
``benchmarks/results/cluster_throughput.json`` (schema:
``docs/reproducing.md``) with the shared calibrated trend block
(:mod:`repro.perf.trend`) vs the last committed run.  Assertions pin
well-formedness and the wire invariant, not absolute speed; on low-core
runners the multi-shard topologies record entry-level skips with a
reason (a cluster benchmark on one core measures scheduling, not
sharding) while the 1-shard topology still records a real calibrated
measurement.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.net.gateway import start_gateway
from repro.cluster.loadgen import run_loadgen
from repro.perf.calibrate import effective_cores
from repro.perf.gate import ARTIFACT_SCHEMAS

USERS_PER_ROUND = 10_000
ROUNDS = 2
BATCH_SIZE = 2_048
LEVEL = 6
CONNECTIONS = 2

SHARD_COUNTS = (1, 2)


def _bench_backend() -> tuple[str, int | None]:
    spec = os.environ.get("REPRO_BENCH_BACKEND") or "thread"
    workers = os.environ.get("REPRO_BENCH_WORKERS")
    return spec, (int(workers) if workers else None)


def test_cluster_throughput_profile(calibration):
    """Measure reports/sec and latency percentiles vs shard count.

    On a <2-core runner a multi-shard "scaling" number would only measure
    scheduling, so multi-shard topologies record an entry-level skip with
    the reason — but the 1-shard topology still runs and records a real,
    calibrated measurement instead of the whole benchmark bailing out.
    """
    cores = effective_cores()
    backend, workers = _bench_backend()
    entries = []
    for n_shards in SHARD_COUNTS:
        if n_shards > 1 and cores < 2:
            entries.append(
                {
                    "shards": n_shards,
                    "skipped_reason": (
                        f"cluster scaling needs >= 2 cores to mean anything, "
                        f"runner has {cores}"
                    ),
                }
            )
            continue
        handles = [
            start_gateway(decode_backend=backend, decode_workers=workers)
            for _ in range(n_shards)
        ]
        try:
            report = run_loadgen(
                ",".join(handle.address for handle in handles),
                dataset="rdb",
                scale="small",
                level=LEVEL,
                rounds=ROUNDS,
                batch_size=BATCH_SIZE,
                users_per_round=USERS_PER_ROUND,
                connections=CONNECTIONS,
                backend=backend,
                max_workers=workers,
                seed=0,
                include_gateway_stats=False,
            )
        finally:
            for handle in handles:
                handle.close()
        entries.append(
            {
                "shards": n_shards,
                "connections": CONNECTIONS,
                "rounds": ROUNDS,
                "n_reports": report.n_reports,
                "n_batches": report.n_batches,
                "seconds": report.elapsed_seconds,
                "reports_per_sec": round(report.reports_per_sec),
                "p50_ms": report.latency_ms["p50"],
                "p95_ms": report.latency_ms["p95"],
                "p99_ms": report.latency_ms["p99"],
                "upload_bytes": report.upload_bits // 8,
            }
        )

    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / "cluster_throughput.json"
    # Warn-only calibrated trend vs the committed artifact (read before this
    # run overwrites it); enforcement belongs to `repro bench gate`.
    trend = ARTIFACT_SCHEMAS["cluster_throughput"].trend(
        entries, path, calibration=calibration
    )
    for warning in trend.warnings:
        print(f"\nWARNING (trend): {warning}")
    payload = {
        "backend": backend,
        "max_workers": os.environ.get("REPRO_BENCH_WORKERS"),
        "level": LEVEL,
        "batch_size": BATCH_SIZE,
        "users_per_round": USERS_PER_ROUND,
        "connections": CONNECTIONS,
        "entries": entries,
        "trend": trend.to_dict(),
        "calibration": calibration.to_dict(),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\n===== cluster_throughput =====\n{json.dumps(payload, indent=2)}\n")

    assert len(entries) == len(SHARD_COUNTS)
    measured = [entry for entry in entries if "skipped_reason" not in entry]
    assert measured, "at least the 1-shard topology must run on any machine"
    for entry in measured:
        assert entry["n_reports"] == CONNECTIONS * ROUNDS * USERS_PER_ROUND
        assert entry["reports_per_sec"] > 0
        assert 0 < entry["p50_ms"] <= entry["p95_ms"] <= entry["p99_ms"]
    # Routing is transport: the exact wire bytes must not depend on the
    # shard count (the cluster half of the bit-identity invariant).  Only
    # checkable when more than one topology actually ran.
    if len(measured) > 1:
        assert len({entry["upload_bytes"] for entry in measured}) == 1
