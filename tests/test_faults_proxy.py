"""Chaos-proxy behaviour against a live gateway (ISSUE 8).

Covers the proxy's relay semantics (transparent when quiet, frame-exact
faults when not) and the two satellite regressions:

* **Straggler vs the finalize barrier** — without a per-operation
  deadline, a shard that trickles frames slower than the socket timeout
  stretches a cluster finalize indefinitely; with ``op_timeout`` the
  barrier surfaces the structured ``shard_unavailable`` error fast.
* **Duplicated acks mid-pipeline** — acknowledgement frames duplicated
  on the wire must neither double-count a batch nor mint send credit;
  the connection counts them (``duplicate_acks``) and the round's result
  stays bit-identical to the clean run.
"""

from __future__ import annotations

import socket
import time

import numpy as np
import pytest

from repro.cluster.coordinator import ClusterConnection
from repro.faults.profile import FaultProfile, compose
from repro.faults.proxy import FaultProxy, parse_proxy_target
from repro.ldp.registry import make_oracle
from repro.net import start_gateway
from repro.net.client import GatewayConnection
from repro.net.framing import (
    FRAME_ESTIMATE,
    FRAME_REPORT_BATCH,
    FRAME_ROUND_CONTROL,
    FRAME_SHARD_STATE,
    FrameError,
    WireFormatError,
)
from repro.service.protocol import ReportBatch, RoundBroadcast, encode_report_batch
from repro.service.server import ServiceError
from repro.trie.candidate_domain import CandidateDomain

#: The failure surface a chaos cell may legitimately present.
STRUCTURED = (ServiceError, WireFormatError, FrameError, ConnectionError, OSError, EOFError)


@pytest.fixture(scope="module")
def gateway():
    with start_gateway() as handle:
        yield handle


def _open_round(connection, *, level: int = 4, party: str = "alpha"):
    domain = CandidateDomain.full_domain(level)
    round_id, _ = connection.open_round(
        RoundBroadcast(
            party=party,
            level=level,
            oracle_name="krr",
            epsilon=4.0,
            domain_size=domain.size,
            prefixes=tuple(domain.prefixes),
        )
    )
    return round_id, domain


def _payload(domain, *, seed: int = 0, party: str = "alpha", level: int = 4) -> bytes:
    oracle = make_oracle("krr", 4.0)
    gen = np.random.default_rng(seed)
    values = gen.integers(0, domain.size, size=32)
    reports = oracle.perturb(values, domain.size, gen)
    return encode_report_batch(
        ReportBatch(
            party=party, level=level, oracle_name=oracle.name, epsilon=4.0,
            domain_size=domain.size,
            value_domain=oracle.report_value_domain(domain.size),
            n_users=len(values), reports=reports,
        )
    )


def _run_round(address: str, *, n_batches: int = 6, **connection_kwargs):
    """One deterministic round; returns (estimate, connection counters)."""
    with GatewayConnection(address, timeout=10.0, **connection_kwargs) as connection:
        round_id, domain = _open_round(connection)
        for seed in range(n_batches):
            connection.send_batch(round_id, _payload(domain, seed=seed))
        estimate = connection.finalize(round_id)
        return estimate, connection.duplicate_acks


class TestRelay:
    def test_quiet_profile_is_transparent(self, gateway):
        """All-zero probabilities: the proxy is a pure relay — the round's
        estimate is bit-identical to the direct connection's and no fault
        event is ever counted."""
        direct, _ = _run_round(gateway.address)
        with FaultProxy(gateway.address, FaultProfile(name="quiet")) as proxy:
            proxied, _ = _run_round(proxy.address)
            assert proxy.n_faults == 0
        assert np.array_equal(proxied.estimated_counts, direct.estimated_counts)
        assert np.array_equal(proxied.estimated_frequencies, direct.estimated_frequencies)

    def test_latency_injection_changes_timing_never_results(self, gateway):
        direct, _ = _run_round(gateway.address)
        slow = FaultProfile(name="lag", delay_ms=5.0, direction="up")
        with FaultProxy(gateway.address, slow) as proxy:
            proxied, _ = _run_round(proxy.address)
            # Plain latency is not a fault event: nothing to count.
            assert proxy.n_faults == 0
        assert np.array_equal(proxied.estimated_counts, direct.estimated_counts)

    def test_slow_loris_trickle_still_converges(self, gateway):
        direct, _ = _run_round(gateway.address, n_batches=2)
        loris = FaultProfile(
            name="loris", bytes_per_sec=20_000, direction="up",
            kinds=(FRAME_REPORT_BATCH,),
        )
        with FaultProxy(gateway.address, loris) as proxy:
            proxied, _ = _run_round(proxy.address, n_batches=2)
        assert np.array_equal(proxied.estimated_counts, direct.estimated_counts)

    def test_parse_proxy_target(self):
        assert parse_proxy_target("127.0.0.1:80") == ("127.0.0.1", 80)
        assert parse_proxy_target(("h", 9)) == ("h", 9)
        with pytest.raises(ValueError, match="host:port"):
            parse_proxy_target("no-port")


class TestFaultInjection:
    def test_corruption_is_always_protocol_visible(self, gateway):
        """A flipped byte inside the report frame's routing fields must
        surface as a structured error (or a bounded timeout) — never as a
        silently wrong estimate."""
        chaos = FaultProfile(
            name="corrupt", seed=5, corrupt=1.0, corrupt_window=8,
            direction="up", kinds=(FRAME_REPORT_BATCH,), max_faults=1,
        )
        with FaultProxy(gateway.address, chaos) as proxy:
            with pytest.raises(STRUCTURED):
                _run_round(proxy.address, op_timeout=1.5)
            assert proxy.counters.get("corrupt") == 1

    def test_disconnect_mid_round_breaks_the_connection(self, gateway):
        chaos = FaultProfile(
            name="cut", seed=3, disconnect=1.0, direction="up",
            kinds=(FRAME_REPORT_BATCH,), max_faults=1,
        )
        with FaultProxy(gateway.address, chaos) as proxy:
            with pytest.raises((ConnectionError, OSError, EOFError)):
                _run_round(proxy.address, op_timeout=2.0)
            assert proxy.counters.get("disconnect") == 1

    def test_truncation_tears_the_stream(self, gateway):
        chaos = FaultProfile(
            name="tear", seed=7, truncate=1.0, direction="up",
            kinds=(FRAME_REPORT_BATCH,), max_faults=1,
        )
        with FaultProxy(gateway.address, chaos) as proxy:
            with pytest.raises(STRUCTURED):
                _run_round(proxy.address, op_timeout=2.0)
            assert proxy.counters.get("truncate") == 1

    def test_composed_layers_apply_in_order(self, gateway):
        """A delay layer composed with a corrupt layer: the corrupt layer
        still fires (composition does not mask), and the chain's counters
        attribute the events."""
        chain = compose(
            FaultProfile(name="lag", delay_ms=2.0, direction="up"),
            FaultProfile(
                name="corrupt", seed=5, corrupt=1.0, corrupt_window=8,
                direction="up", kinds=(FRAME_REPORT_BATCH,), max_faults=1,
            ),
        )
        with FaultProxy(gateway.address, chain) as proxy:
            with pytest.raises(STRUCTURED):
                _run_round(proxy.address, op_timeout=1.5)
            assert proxy.counters.get("corrupt") == 1


class TestStragglerDeadline:
    """Satellite regression: a straggling shard vs the finalize barrier.

    The barrier only runs over two or more shards, so the barrier tests put
    the straggler in front of one shard of two.  A lone gateway estimates
    itself: there the straggled frame is its ``FRAME_ESTIMATE`` reply.
    """

    STRAGGLE = FaultProfile(
        name="straggler", straggle=1.0, straggle_ms=1500.0,
        direction="down", kinds=(FRAME_SHARD_STATE,),
    )

    def test_straggler_without_deadline_stretches_the_barrier(self, gateway):
        """The bug shape: per-read socket timeouts never trip on a shard
        that trickles within them, so the barrier just... waits."""
        with FaultProxy(gateway.address, self.STRAGGLE) as proxy, start_gateway() as peer:
            with ClusterConnection(
                [proxy.address, peer.address], timeout=10.0
            ) as connection:
                round_id, domain = _open_round(connection)
                connection.send_batch(round_id, _payload(domain))
                start = time.perf_counter()
                estimate = connection.finalize(round_id)
                elapsed = time.perf_counter() - start
        assert estimate.estimated_counts.size  # slow, but it did answer
        assert elapsed >= 1.4  # the straggle stretched the barrier

    def test_op_timeout_surfaces_shard_unavailable_fast(self, gateway):
        """The fix: one deadline over the whole export operation turns the
        straggler into a fast, structured ``shard_unavailable``."""
        with FaultProxy(gateway.address, self.STRAGGLE) as proxy, start_gateway() as peer:
            with ClusterConnection(
                [proxy.address, peer.address], timeout=10.0, op_timeout=0.4
            ) as connection:
                round_id, domain = _open_round(connection)
                connection.send_batch(round_id, _payload(domain))
                start = time.perf_counter()
                with pytest.raises(ServiceError) as err:
                    connection.finalize(round_id)
                elapsed = time.perf_counter() - start
        assert err.value.code == "shard_unavailable"
        assert elapsed < 1.2  # bounded by op_timeout, not the straggle

    def test_op_timeout_bounds_a_lone_gateway_straggler(self, gateway):
        """One address is a plain gateway: a straggled estimate reply
        surfaces as the transport timeout itself, within ``op_timeout``."""
        straggle = FaultProfile(
            name="straggler", straggle=1.0, straggle_ms=1500.0,
            direction="down", kinds=(FRAME_ESTIMATE,),
        )
        with FaultProxy(gateway.address, straggle) as proxy:
            with ClusterConnection(
                [proxy.address], timeout=10.0, op_timeout=0.4
            ) as connection:
                round_id, domain = _open_round(connection)
                connection.send_batch(round_id, _payload(domain))
                start = time.perf_counter()
                with pytest.raises(socket.timeout):
                    connection.finalize(round_id)
                elapsed = time.perf_counter() - start
        assert elapsed < 1.2  # bounded by op_timeout, not the straggle

    def test_nested_operations_share_the_outer_deadline(self, gateway):
        """finalize() calls drain(): the inner operation must run under
        the already-armed deadline, not extend it."""
        with GatewayConnection(gateway.address, timeout=10.0) as connection:
            with connection._operation_deadline(5.0):
                outer = connection._deadline
                with connection._operation_deadline(99.0):
                    assert connection._deadline == outer
            assert connection._deadline is None


class TestDuplicateAcks:
    """Satellite regression: duplicated acks interleaved mid-pipeline."""

    def test_duplicated_acks_are_counted_not_double_counted(self, gateway):
        direct, direct_dups = _run_round(gateway.address)
        assert direct_dups == 0
        chaos = FaultProfile(
            name="dup", duplicate=1.0, direction="down",
            kinds=(FRAME_ROUND_CONTROL,), ops=("batch_ack",),
        )
        with FaultProxy(gateway.address, chaos) as proxy:
            proxied, duplicate_acks = _run_round(proxy.address)
            assert proxy.counters.get("duplicate", 0) >= 1
        # Every ack arrived twice: the replays were observed and ignored.
        assert duplicate_acks >= 1
        assert np.array_equal(proxied.estimated_counts, direct.estimated_counts)
        assert np.array_equal(proxied.estimated_frequencies, direct.estimated_frequencies)


class TestErrorInterleave:
    """Satellite regression: an error frame mid-pipelined upload."""

    def test_rejected_batch_surfaces_and_closes_the_logical_round(self):
        """A gateway rejection whose error frame interleaves with earlier
        batch acks must surface as its structured error, and a later
        finalize must report ``round_closed`` — not a misleading
        ``shard_mismatch`` from totals the failure skewed."""
        with start_gateway(connection_credits=2) as handle:
            with ClusterConnection(handle.address, timeout=5.0) as connection:
                round_id, domain = _open_round(connection)
                connection.send_batch(round_id, _payload(domain))
                bad = _payload(CandidateDomain.full_domain(5), level=5)
                with pytest.raises(ServiceError) as err:
                    # The rejection races the pipeline: keep pushing until
                    # the credit loop reads the error frame.
                    connection.send_batch(round_id, bad)
                    for seed in range(8):
                        connection.send_batch(round_id, _payload(domain, seed=seed))
                    connection.finalize(round_id)
                assert err.value.code != "shard_mismatch"
                with pytest.raises(ServiceError) as closed:
                    connection.finalize(round_id)
                assert closed.value.code == "round_closed"

    def test_error_frame_returns_the_failed_batch_credit(self):
        """The client ledger drops the rejected seq when the error frame
        names it, so the pipeline never waits on an ack that cannot come."""
        with start_gateway() as handle:
            with GatewayConnection(handle.address, timeout=5.0) as connection:
                round_id, domain = _open_round(connection)
                bad = _payload(CandidateDomain.full_domain(5), level=5)
                with pytest.raises(ServiceError):
                    connection.send_batch(round_id, bad)
                    connection.drain(deadline=3.0)
                assert connection.outstanding == 0
