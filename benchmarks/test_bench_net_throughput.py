"""Network-runtime throughput microbenchmark: gateway + load generator.

Stands up an :class:`~repro.net.gateway.AggregationGateway` on an
ephemeral localhost port and drives it with
:func:`~repro.cluster.loadgen.run_loadgen` at several connection counts,
recording per connection count:

* ``reports_per_sec`` — end-to-end throughput (client perturb + encode +
  TCP + gateway decode + shard accumulate),
* ``p50/p95/p99`` batch latency in milliseconds (send→ack round trip),
* ``upload_bytes`` — exact bytes the run put on the wire.

The gateway's decode fan-out and the load generator's client pools both
honour ``REPRO_BENCH_BACKEND`` / ``REPRO_BENCH_WORKERS`` (default:
``thread`` — a serial loadgen would serialise the connections and measure
nothing).  Results persist machine-readably to
``benchmarks/results/net_throughput.json`` for the performance trajectory;
assertions pin well-formedness, not absolute speed (CI machines vary).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.net.gateway import start_gateway
from repro.cluster.loadgen import run_loadgen
from repro.perf.gate import ARTIFACT_SCHEMAS

#: Reports per (connection, round) and rounds per connection: sized so the
#: quick profile finishes in a few seconds while still crossing several
#: wire batches per round.
USERS_PER_ROUND = 20_000
ROUNDS = 2
BATCH_SIZE = 4_096
LEVEL = 6

CONNECTION_COUNTS = (1, 2, 4)


def _bench_backend() -> tuple[str, int | None]:
    spec = os.environ.get("REPRO_BENCH_BACKEND") or "thread"
    workers = os.environ.get("REPRO_BENCH_WORKERS")
    return spec, (int(workers) if workers else None)


def test_net_throughput_profile(calibration):
    """Measure reports/sec and latency percentiles vs connection count."""
    backend, workers = _bench_backend()
    entries = []
    with start_gateway(decode_backend=backend, decode_workers=workers) as handle:
        for connections in CONNECTION_COUNTS:
            report = run_loadgen(
                handle.address,
                dataset="rdb",
                scale="small",
                level=LEVEL,
                rounds=ROUNDS,
                batch_size=BATCH_SIZE,
                users_per_round=USERS_PER_ROUND,
                connections=connections,
                backend=backend,
                max_workers=workers,
                seed=0,
            )
            entries.append(
                {
                    "connections": connections,
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
    path = results_dir / "net_throughput.json"
    # Warn-only calibrated trend vs the committed artifact (read before this
    # run overwrites it); enforcement belongs to `repro bench gate`.
    trend = ARTIFACT_SCHEMAS["net_throughput"].trend(
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
        "entries": entries,
        "trend": trend.to_dict(),
        "calibration": calibration.to_dict(),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\n===== net_throughput =====\n{json.dumps(payload, indent=2)}\n")

    assert len(entries) == len(CONNECTION_COUNTS)
    for entry in entries:
        # Every connection streams its full sampled population each round.
        assert entry["n_reports"] == entry["connections"] * ROUNDS * USERS_PER_ROUND
        assert entry["reports_per_sec"] > 0
        assert entry["upload_bytes"] > 0
        assert 0 < entry["p50_ms"] <= entry["p95_ms"] <= entry["p99_ms"]
