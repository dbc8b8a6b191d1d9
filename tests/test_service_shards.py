"""Shard merge algebra: any partition of a report batch ingests to the same
counts as the whole, for every registered oracle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ldp.registry import available_oracles, make_oracle
from repro.service.shards import LevelShard, ShardError

DOMAIN = 29
N_USERS = 400


def _perturbed(oracle_name: str):
    oracle = make_oracle(oracle_name, epsilon=3.0)
    values = np.random.default_rng(2).integers(0, DOMAIN, size=N_USERS)
    reports = oracle.perturb(values, DOMAIN, np.random.default_rng(3))
    return oracle, reports


def _ingest(shard: LevelShard, reports) -> None:
    """Fold a report batch into ``shard`` the way the server does: exact
    support counts in, via the shard's one entry point."""
    oracle = shard.oracle
    shard.ingest_counts(
        oracle.support_counts(reports, shard.domain_size), oracle.n_reports(reports)
    )


def _slice_reports(reports, start: int, stop: int):
    """Slice a report batch along the user axis, whatever its shape."""
    if isinstance(reports, tuple):  # OLH: (seeds, buckets)
        return tuple(part[start:stop] for part in reports)
    return reports[start:stop]


def _random_partitions(rng: np.random.Generator, n: int, count: int = 5):
    """A few random partitions of range(n) into contiguous pieces."""
    for _ in range(count):
        n_cuts = int(rng.integers(1, 6))
        cuts = np.sort(rng.integers(0, n + 1, size=n_cuts))
        bounds = [0, *cuts.tolist(), n]
        yield [
            (bounds[i], bounds[i + 1])
            for i in range(len(bounds) - 1)
        ]


class TestMergeAlgebra:
    @pytest.mark.parametrize("oracle_name", available_oracles())
    def test_any_partition_equals_whole(self, oracle_name):
        oracle, reports = _perturbed(oracle_name)
        whole = LevelShard(oracle, DOMAIN)
        _ingest(whole, reports)
        rng = np.random.default_rng(11)
        for partition in _random_partitions(rng, N_USERS):
            pieces = []
            for start, stop in partition:
                shard = LevelShard(oracle, DOMAIN)
                _ingest(shard, _slice_reports(reports, start, stop))
                pieces.append(shard)
            merged = pieces[0]
            for shard in pieces[1:]:
                merged = merged.merge(shard)
            assert np.array_equal(merged.counts, whole.counts)
            assert merged.n_users == whole.n_users == N_USERS

    @pytest.mark.parametrize("oracle_name", available_oracles())
    def test_merge_is_commutative(self, oracle_name):
        oracle, reports = _perturbed(oracle_name)
        left, right = LevelShard(oracle, DOMAIN), LevelShard(oracle, DOMAIN)
        _ingest(left, _slice_reports(reports, 0, 150))
        _ingest(right, _slice_reports(reports, 150, N_USERS))
        ab = LevelShard(oracle, DOMAIN)
        _ingest(ab, _slice_reports(reports, 0, 150))
        ab.merge(right)
        ba = LevelShard(oracle, DOMAIN)
        _ingest(ba, _slice_reports(reports, 150, N_USERS))
        ba.merge(left)
        assert np.array_equal(ab.counts, ba.counts)
        assert ab.n_users == ba.n_users

    @pytest.mark.parametrize("oracle_name", available_oracles())
    def test_batched_ingest_equals_one_shot(self, oracle_name):
        oracle, reports = _perturbed(oracle_name)
        whole = LevelShard(oracle, DOMAIN)
        _ingest(whole, reports)
        streamed = LevelShard(oracle, DOMAIN)
        for start in range(0, N_USERS, 64):
            _ingest(streamed, _slice_reports(reports, start, min(start + 64, N_USERS)))
        assert np.array_equal(streamed.counts, whole.counts)
        assert streamed.n_batches == 7


class TestCompatibilityChecks:
    def test_oracle_mismatch(self):
        krr = LevelShard(make_oracle("krr", 2.0), DOMAIN)
        oue = LevelShard(make_oracle("oue", 2.0), DOMAIN)
        with pytest.raises(ShardError, match="oracle"):
            krr.merge(oue)

    def test_epsilon_mismatch(self):
        a = LevelShard(make_oracle("krr", 2.0), DOMAIN)
        b = LevelShard(make_oracle("krr", 3.0), DOMAIN)
        with pytest.raises(ShardError, match="epsilon"):
            a.merge(b)

    def test_domain_mismatch(self):
        a = LevelShard(make_oracle("krr", 2.0), DOMAIN)
        b = LevelShard(make_oracle("krr", 2.0), DOMAIN + 1)
        with pytest.raises(ShardError, match="domain"):
            a.merge(b)

    def test_ingest_counts_rejects_a_wrong_shape_vector(self):
        shard = LevelShard(make_oracle("krr", 2.0), DOMAIN)
        with pytest.raises(ShardError, match="shape"):
            shard.ingest_counts(np.zeros(DOMAIN - 1, dtype=np.int64), 1)
        assert shard.n_users == 0 and shard.n_batches == 0
