"""Ingestion-throughput microbenchmark of the online aggregation service.

Streams a synthetic population through ``ClientPool`` → ``AggregationServer``
rounds at several batch sizes and records, per (oracle, batch size):

* ``reports_per_sec`` — end-to-end ingestion throughput (perturb + encode +
  wire decode + shard accumulate),
* ``peak_batch_bytes`` / ``accumulator_bytes`` — the service memory model:
  the report buffer is bounded by the batch, the server state by the domain,
* ``wire_bytes`` — exact bytes the stream put on the wire.

Results persist machine-readably to
``benchmarks/results/service_throughput.json`` for the performance
trajectory.  The in-process server counts every batch inline, so the
artifact's ``backend`` / ``max_workers`` fields are always ``"serial"`` /
``null``.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.ldp.registry import make_oracle
from repro.perf.gate import ARTIFACT_SCHEMAS
from repro.service.clients import ClientPool
from repro.service.protocol import encode_report_batch
from repro.service.server import AggregationServer
from repro.trie.candidate_domain import CandidateDomain

#: Population and domain of the synthetic ingestion workload.
N_USERS = 200_000
DOMAIN_BITS = 6  # 64 candidates + dummy

BATCH_SIZES = (2_048, 16_384, 65_536)

#: (oracle, population) pairs: OLH decoding is O(n·d), so it runs a smaller
#: stream to keep the quick profile in seconds.
WORKLOADS = (("krr", N_USERS), ("oue", 50_000), ("olh", 50_000))


def _batch_buffer_bytes(batch) -> int:
    """In-memory size of one batch's report buffer.

    Packed unary batches expose ``nbytes`` directly — going through
    ``np.asarray`` would inflate them to the dense matrix (and pay for
    the unpack inside the timed loop).
    """
    reports = batch.reports
    if isinstance(reports, tuple):
        return int(sum(np.asarray(part).nbytes for part in reports))
    nbytes = getattr(reports, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    return int(np.asarray(reports).nbytes)


def _run_stream(oracle_name: str, n_users: int, batch_size: int):
    """One full ingestion stream; returns (result, peak_batch_bytes, server)."""
    oracle = make_oracle(oracle_name, epsilon=4.0)
    domain = CandidateDomain.full_domain(DOMAIN_BITS, include_dummy=True)
    items = np.random.default_rng(0).integers(0, 1 << DOMAIN_BITS, size=n_users)
    pool = ClientPool(items, name="bench", batch_size=batch_size)
    server = AggregationServer()

    round_id = server.open_round(party="bench", level=DOMAIN_BITS, oracle=oracle,
                                 domain=domain)
    peak_batch_bytes = 0
    for batch in pool.iter_report_batches(oracle, domain, DOMAIN_BITS, rng=1):
        peak_batch_bytes = max(peak_batch_bytes, _batch_buffer_bytes(batch))
        server.ingest(round_id, encode_report_batch(batch))
    result = server.finalize_round(round_id)
    return result, peak_batch_bytes, server


def _stream_once(oracle_name: str, n_users: int, batch_size: int) -> dict:
    # Pass 1 (untimed) runs the identical stream under tracemalloc: it
    # records the true Python-level peak allocation of the configuration
    # AND doubles as the warmup for pass 2 — first-touch page faults and
    # allocator growth otherwise dominate single-batch timings.
    tracemalloc.start()
    _run_stream(oracle_name, n_users, batch_size)
    tracemalloc_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    # Best-of-3 timing: a single stream is one scheduler hiccup away from
    # a misleading number, especially for the one-batch configurations.
    elapsed = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        result, peak_batch_bytes, server = _run_stream(
            oracle_name, n_users, batch_size
        )
        elapsed = min(elapsed, time.perf_counter() - start)

    assert result.n_users == n_users
    return {
        "oracle": oracle_name,
        "n_users": n_users,
        "batch_size": batch_size,
        "n_batches": -(-n_users // batch_size),
        "seconds": round(elapsed, 4),
        "reports_per_sec": round(n_users / max(elapsed, 1e-9)),
        "peak_batch_bytes": peak_batch_bytes,
        "tracemalloc_peak_bytes": int(tracemalloc_peak),
        "accumulator_bytes": int(result.support_counts.nbytes),
        "wire_bytes": server.upload_bits() // 8,
    }


def test_service_ingestion_throughput(calibration):
    """Measure ingestion throughput vs batch size and persist the profile.

    Asserts the memory model rather than absolute speed (CI machines vary):
    the accumulator stays ``O(domain)`` and the report buffer scales with
    the batch, not the population.
    """
    entries = [
        _stream_once(oracle_name, n_users, batch_size)
        for oracle_name, n_users in WORKLOADS
        for batch_size in BATCH_SIZES
    ]

    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / "service_throughput.json"
    # Warn-only calibrated trend vs the committed artifact (read before this
    # run overwrites it); enforcement belongs to `repro bench gate`.
    trend = ARTIFACT_SCHEMAS["service_throughput"].trend(
        entries, path, calibration=calibration
    )
    for warning in trend.warnings:
        print(f"\nWARNING (trend): {warning}")
    payload = {
        "backend": "serial",
        "max_workers": None,
        "domain_size": (1 << DOMAIN_BITS) + 1,
        "entries": entries,
        "trend": trend.to_dict(),
        "calibration": calibration.to_dict(),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\n===== service_throughput =====\n{json.dumps(payload, indent=2)}\n")

    domain_size = (1 << DOMAIN_BITS) + 1
    for entry in entries:
        assert entry["reports_per_sec"] > 0
        # Server state is O(domain): one 64-bit counter per candidate.
        assert entry["accumulator_bytes"] == domain_size * 8
        # The report buffer never exceeds one batch of reports (OUE's bit
        # matrix is the widest: batch × domain booleans).
        assert entry["peak_batch_bytes"] <= entry["batch_size"] * (domain_size + 16)
    # Throughput profile exists for every configured workload.
    assert len(entries) == len(WORKLOADS) * len(BATCH_SIZES)
