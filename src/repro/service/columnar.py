"""Columnar batch summarisation: wire payload → O(domain) count vector.

The one way every execution mode counts a report batch: decode the raw
payload zero-copy (:func:`repro.service.protocol.decode_report_batch`),
fold it through the oracle's ``support_counts`` kernel (packed popcount
for unary oracles, the blocked hash scan for OLH, ``bincount`` for k-RR),
and return a :class:`BatchSummary` — the batch header plus an
``O(domain_size)`` ``int64`` count vector.  The in-process
:meth:`~repro.service.server.AggregationServer.ingest` runs it inline; the
network gateway runs it on its engine workers, so only count vectors —
never report buffers — cross back to the single-threaded accumulator.

Counts are exact, so a summary equals the oracle's support counts of the
decoded batch on every backend — the contract
``tests/test_columnar_equivalence.py`` pins for all registered oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ldp.registry import make_oracle
from repro.service.protocol import (
    ReportBatch,
    WireFormatError,
    decode_report_batch,
    split_report_batch,
)


@dataclass(frozen=True)
class BatchSummary:
    """One report batch reduced to its header and exact support counts.

    Carries the :class:`~repro.service.protocol.ReportBatch` header
    fields the server validates a batch against its round with (party /
    level / oracle_name / epsilon / domain_size).
    """

    party: str
    level: int
    oracle_name: str
    epsilon: float
    domain_size: int
    value_domain: int
    n_users: int
    counts: np.ndarray


def summarize_batch(batch: ReportBatch) -> BatchSummary:
    """Reduce a decoded batch to its exact per-candidate support counts."""
    try:
        oracle = make_oracle(batch.oracle_name, batch.epsilon)
    except (KeyError, ValueError) as exc:
        # A decodable header can still declare parameters the library
        # refuses (epsilon <= 0); as everywhere on the wire boundary,
        # that is a wire error, never an internal crash.
        message = str(exc.args[0]) if exc.args else str(exc)
        raise WireFormatError(
            f"batch declares an unusable oracle: {message}"
        ) from exc
    counts = oracle.support_counts(batch.reports, batch.domain_size)
    return BatchSummary(
        party=batch.party,
        level=batch.level,
        oracle_name=batch.oracle_name,
        epsilon=batch.epsilon,
        domain_size=batch.domain_size,
        value_domain=batch.value_domain,
        n_users=batch.n_users,
        counts=np.asarray(counts, dtype=np.int64),
    )


def summarize_report_payload(payload: bytes) -> BatchSummary:
    """Decode one wire payload and summarise it, all inside the worker.

    Module-level (hence picklable) — the unit of the gateway's columnar
    decode fan-out on any execution backend.  The decode is zero-copy:
    report views alias ``payload`` and die with the summary's scope;
    only the ``O(domain_size)`` counts travel back.
    """
    return summarize_batch(decode_report_batch(payload))


__all__ = [
    "BatchSummary",
    "split_report_batch",
    "summarize_batch",
    "summarize_report_payload",
]
