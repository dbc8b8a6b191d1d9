"""Columnar decode path ≡ independent references, bit for bit.

Every execution mode counts a batch the same way: summarise the wire
payload into its ``O(domain)`` support counts
(:mod:`repro.service.columnar`), then merge.  This module pins that path
against references that do not share it, in every observable: estimates,
support counts, message transcripts, and exact wire-bit accounting

* in memory: ``AggregationServer.ingest`` vs the oracle's own
  ``support_counts`` summed over the decoded stream and estimated once,
  for every registered oracle,
* over a **live TCP gateway** (decode fanned out over engine workers) vs
  an in-process ``AggregationServer`` fed the same batches, for every
  registered oracle, on the serial and thread decode backends.

CI runs this module as its own smoke step: a kernel regression that
breaks bit-identity fails here first, with the oracle named.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.coordinator import ClusterCoordinator
from repro.federation.messages import MessageDirection
from repro.ldp import available_oracles, make_oracle
from repro.ldp.packed import PackedUnaryReports
from repro.net import start_gateway
from repro.service.clients import ClientPool
from repro.service.columnar import summarize_report_payload
from repro.service.protocol import decode_report_batch, encode_report_batch, wire_bits
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
# In-memory: ingest ≡ the oracle's support_counts summed over the stream
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("oracle_name", available_oracles())
def test_server_ingest_equals_summed_support_counts(oracle_name):
    payloads = _wire_batches(oracle_name)
    oracle = make_oracle(oracle_name, epsilon=EPSILON)
    domain = _domain()

    server = AggregationServer()
    round_id = server.open_round(
        party="party-a", level=N_BITS, oracle=oracle, domain=domain
    )
    expected_counts = np.zeros(domain.size, dtype=np.int64)
    expected_users = 0
    for payload in payloads:
        batch = decode_report_batch(payload)
        # Unary batches are counted from the dense matrix, so the packed
        # kernel the server runs is checked against a plain column sum.
        reports = (
            batch.reports.unpack()
            if isinstance(batch.reports, PackedUnaryReports)
            else batch.reports
        )
        expected_counts += oracle.support_counts(reports, domain.size)
        expected_users += oracle.n_reports(reports)
        assert server.ingest(round_id, payload) == batch.n_users

    result = server.finalize_round(round_id)
    np.testing.assert_array_equal(result.support_counts, expected_counts)
    assert result.n_users == expected_users == N_USERS
    np.testing.assert_array_equal(
        result.estimated_counts,
        oracle.estimate_counts(expected_counts, expected_users, domain.size),
    )
    upload_bits = sum(wire_bits(payload) for payload in payloads)
    assert server.upload_bits() == upload_bits
    assert result.metadata["upload_bits"] == upload_bits
    assert result.metadata["n_batches"] == len(payloads)
    uploads = [m for m in _transcript(server) if m[2] == "report_batch"]
    assert uploads == [
        (MessageDirection.PARTY_TO_SERVER, "party-a", "report_batch",
         wire_bits(payload), N_BITS)
        for payload in payloads
    ]


@pytest.mark.parametrize("oracle_name", available_oracles())
def test_summary_counts_equal_decoded_support_counts(oracle_name):
    """Worker-side invariant: a summary IS the batch's support counts."""
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
# Live gateway (engine fan-out) ≡ in-process AggregationServer
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
        AggregationServer(), oracle_name
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
