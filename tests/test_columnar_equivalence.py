"""Columnar decode path ≡ reference fallback, bit for bit.

The columnar hot path (engine workers summarise wire batches into
``O(domain)`` count vectors, :mod:`repro.service.columnar`) must be
indistinguishable from the reference decode-then-ingest path in every
observable: estimates, support counts, message transcripts, and exact
wire-bit accounting.  This module pins that equivalence

* in memory (``AggregationServer.ingest`` vs ``summarize`` +
  ``ingest_summary``), for every registered oracle,
* over a **live TCP gateway** (which always decodes columnar) vs an
  in-process ``AggregationServer`` fed the same batches, for every
  registered oracle, on the serial and thread decode backends.

CI runs this module as its own smoke step: a kernel regression that
breaks bit-identity fails here first, with the oracle named.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.coordinator import ClusterCoordinator
from repro.ldp import available_oracles, make_oracle
from repro.net import start_gateway
from repro.service.clients import ClientPool
from repro.service.columnar import BatchSummary, summarize_report_payload
from repro.service.protocol import encode_report_batch, wire_bits
from repro.service.server import AggregationServer
from repro.trie.candidate_domain import CandidateDomain

N_BITS = 6
N_USERS = 700
BATCH_SIZE = 128
EPSILON = 3.0


def _domain() -> CandidateDomain:
    return CandidateDomain.full_domain(N_BITS, include_dummy=True)


def _items(seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 1 << N_BITS, size=N_USERS)


def _wire_batches(oracle_name: str) -> list[bytes]:
    """The canonical wire payloads of one deterministic report stream."""
    oracle = make_oracle(oracle_name, epsilon=EPSILON)
    pool = ClientPool(_items(), name="party-a", batch_size=BATCH_SIZE)
    return [
        encode_report_batch(batch)
        for batch in pool.iter_report_batches(oracle, _domain(), N_BITS, rng=17)
    ]


def _assert_results_identical(reference, candidate):
    np.testing.assert_array_equal(candidate.support_counts, reference.support_counts)
    np.testing.assert_array_equal(
        candidate.estimated_counts, reference.estimated_counts
    )
    np.testing.assert_array_equal(
        candidate.estimated_frequencies, reference.estimated_frequencies
    )
    assert candidate.n_users == reference.n_users
    assert candidate.metadata == reference.metadata


def _transcript(server_or_remote):
    return [
        (m.direction, m.party, m.kind, m.payload_bits, m.level)
        for m in server_or_remote.messages
    ]


# --------------------------------------------------------------------------- #
# In-memory: ingest ≡ summarize + ingest_summary
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("oracle_name", available_oracles())
def test_summary_ingest_is_bit_identical_in_memory(oracle_name):
    payloads = _wire_batches(oracle_name)
    oracle = make_oracle(oracle_name, epsilon=EPSILON)
    domain = _domain()

    reference = AggregationServer()
    ref_round = reference.open_round(
        party="party-a", level=N_BITS, oracle=oracle, domain=domain
    )
    columnar = AggregationServer()
    col_round = columnar.open_round(
        party="party-a", level=N_BITS, oracle=oracle, domain=domain
    )

    for payload in payloads:
        n_ref = reference.ingest(ref_round, payload)
        summary = summarize_report_payload(payload)
        assert isinstance(summary, BatchSummary)
        n_col = columnar.ingest_summary(
            col_round, summary, payload_bits=wire_bits(payload)
        )
        assert n_col == n_ref

    _assert_results_identical(
        reference.finalize_round(ref_round), columnar.finalize_round(col_round)
    )
    assert columnar.upload_bits() == reference.upload_bits()
    assert columnar.broadcast_bits() == reference.broadcast_bits()
    assert _transcript(columnar) == _transcript(reference)


@pytest.mark.parametrize("oracle_name", available_oracles())
def test_summary_counts_equal_decoded_support_counts(oracle_name):
    """Worker-side invariant: a summary IS the batch's support counts."""
    from repro.service.protocol import decode_report_batch

    for payload in _wire_batches(oracle_name):
        batch = decode_report_batch(payload)
        summary = summarize_report_payload(payload)
        oracle = make_oracle(oracle_name, epsilon=EPSILON)
        np.testing.assert_array_equal(
            summary.counts,
            np.asarray(
                oracle.support_counts(batch.reports, batch.domain_size),
                dtype=np.int64,
            ),
        )
        assert summary.n_users == batch.n_users
        assert summary.party == batch.party
        assert summary.oracle_name == batch.oracle_name


# --------------------------------------------------------------------------- #
# Live gateway (columnar) ≡ in-process AggregationServer (decode-then-ingest)
# --------------------------------------------------------------------------- #
def _run_round_on(server, oracle_name: str):
    oracle = make_oracle(oracle_name, epsilon=EPSILON)
    try:
        round_id = server.open_round(
            party="party-a", level=N_BITS, oracle=oracle, domain=_domain()
        )
        pool = ClientPool(_items(), name="party-a", batch_size=BATCH_SIZE)
        for batch in pool.iter_report_batches(oracle, _domain(), N_BITS, rng=17):
            server.ingest_batch(round_id, batch)
        result = server.finalize_round(round_id)
        return result, _transcript(server), server.upload_bits(), server.broadcast_bits()
    finally:
        server.shutdown()


@pytest.mark.parametrize("backend", ["serial", "thread"])
@pytest.mark.parametrize("oracle_name", available_oracles())
def test_gateway_columnar_equals_fallback(oracle_name, backend):
    workers = 2 if backend == "thread" else None
    ref_result, ref_transcript, ref_up, ref_down = _run_round_on(
        AggregationServer(decode_backend=backend, decode_workers=workers),
        oracle_name,
    )
    with start_gateway(decode_backend=backend, decode_workers=workers) as columnar:
        col_result, col_transcript, col_up, col_down = _run_round_on(
            ClusterCoordinator(columnar.address), oracle_name
        )

    _assert_results_identical(ref_result, col_result)
    assert col_transcript == ref_transcript
    # Exact wire bits: the columnar path changes what the *workers* do,
    # never what crosses the network.
    assert (col_up, col_down) == (ref_up, ref_down)
