"""Deterministic consistent-hash ring over the candidate domain.

The cluster coordinator (:mod:`repro.cluster.coordinator`) shards the
heavy-hitter service horizontally: each shard gateway owns a slice of the
candidate domain, and report batches route to the shard owning the slice
their routing key hashes into.  The ring is the assignment function, and
it carries three load-bearing properties the property tests pin
(``tests/test_cluster_ring.py``):

* **determinism** — the ring is a pure function of ``(n_shards, seed,
  n_vnodes)``: every process that builds it from the same parameters
  routes identically, so a coordinator restart (or an independent
  observer recomputing the routing) never disagrees with the original;
* **disjoint full cover** — :meth:`HashRing.candidate_ranges` partitions
  ``range(domain_size)`` exactly: every candidate has exactly one owner,
  for every shard count;
* **minimal movement** — growing ``N → N+1`` shards only *adds* virtual
  nodes, so a key either keeps its owner or moves to the **new** shard;
  no key moves between two old shards, and the expected fraction that
  moves is ``1/(N+1)``.

Correctness of the merged result does **not** depend on which shard a
batch lands on — the :class:`~repro.service.shards.LevelShard` algebra is
commutative and exact, so *any* partition of the report stream merges to
identical counts.  The ring buys balanced load and a stable ownership
story; the merge algebra buys bit-identity.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import json

from repro.utils.validation import check_positive

#: Virtual nodes per shard.  64 vnodes keep the max/mean ownership skew
#: within ~2x for small clusters while keeping ring construction and the
#: per-key bisect trivially cheap (the ring has ``n_shards * 64`` points).
DEFAULT_VNODES = 64


def _hash64(seed: int, key: str) -> int:
    """Stable 64-bit hash of ``key`` under ``seed`` (blake2b, not Python's
    per-process-salted ``hash``)."""
    digest = hashlib.blake2b(
        f"{seed}:{key}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """Consistent-hash assignment of string keys to ``n_shards`` shards.

    Parameters
    ----------
    n_shards:
        Number of shards on the ring (>= 1).
    seed:
        Hash seed.  Two rings with the same ``(n_shards, seed, n_vnodes)``
        are identical; different seeds give independent assignments.
    n_vnodes:
        Virtual nodes per shard (>= 1); more vnodes, smoother balance.

    Examples
    --------
    >>> ring = HashRing(3, seed=0)
    >>> ring.owner_of_candidate(17) == HashRing(3, seed=0).owner_of_candidate(17)
    True
    >>> sorted({shard for _, _, shard in ring.candidate_ranges(64)}) == [0, 1, 2]
    True
    """

    def __init__(self, n_shards: int, *, seed: int = 0, n_vnodes: int = DEFAULT_VNODES):
        check_positive("n_shards", n_shards)
        check_positive("n_vnodes", n_vnodes)
        self.n_shards = int(n_shards)
        self.seed = int(seed)
        self.n_vnodes = int(n_vnodes)
        # Sorted by (hash, shard): on the vanishingly rare exact hash
        # collision the lower shard index wins deterministically, and —
        # because a grown ring only appends *higher* indices — a collision
        # can never flip ownership between two pre-existing shards.
        points = sorted(
            (_hash64(self.seed, f"vnode:{shard}:{replica}"), shard)
            for shard in range(self.n_shards)
            for replica in range(self.n_vnodes)
        )
        self._hashes = [h for h, _ in points]
        self._shards = [s for _, s in points]

    # ------------------------------------------------------------------ #
    # Ownership
    # ------------------------------------------------------------------ #
    def owner(self, key: str) -> int:
        """The shard owning ``key``: the first vnode clockwise of its hash."""
        idx = bisect.bisect_right(self._hashes, _hash64(self.seed, str(key)))
        return self._shards[idx % len(self._shards)]

    def owner_of_candidate(self, candidate: int) -> int:
        """The shard owning candidate-domain slot ``candidate``."""
        return self.owner(f"candidate:{int(candidate)}")

    def route_batch(self, round_key: str, seq: int, domain_size: int) -> int:
        """The shard a report batch routes to.

        The batch key hashes onto a candidate-domain slot and the batch
        goes to that slot's owner — batch routing and candidate-range
        ownership are the same assignment.  Deterministic in
        ``(round_key, seq)``, so a replayed stream routes identically.
        """
        check_positive("domain_size", domain_size)
        slot = _hash64(self.seed, f"batch:{round_key}:{int(seq)}") % int(domain_size)
        return self.owner_of_candidate(slot)

    def candidate_ranges(self, domain_size: int) -> list[tuple[int, int, int]]:
        """Coalesced ``(start, stop, shard)`` runs covering ``range(domain_size)``.

        The runs are disjoint, ordered, and cover every candidate exactly
        once — the disjoint-full-cover property of the ring.
        """
        check_positive("domain_size", domain_size)
        ranges: list[tuple[int, int, int]] = []
        for candidate in range(int(domain_size)):
            shard = self.owner_of_candidate(candidate)
            if ranges and ranges[-1][2] == shard and ranges[-1][1] == candidate:
                start, _, _ = ranges[-1]
                ranges[-1] = (start, candidate + 1, shard)
            else:
                ranges.append((candidate, candidate + 1, shard))
        return ranges

    # ------------------------------------------------------------------ #
    # Identity
    # ------------------------------------------------------------------ #
    @functools.cached_property
    def version(self) -> str:
        """Stable fingerprint of the assignment function.

        Two rings route identically iff their versions match; the
        coordinator stamps each round with the ring version at open and
        refuses to finalize across a version change
        (``ring_version_mismatch``).  Computed once: a ring's parameters
        never change after construction.
        """
        document = json.dumps(
            {"n_shards": self.n_shards, "seed": self.seed, "n_vnodes": self.n_vnodes},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(document.encode("utf-8")).hexdigest()[:16]

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"HashRing(n_shards={self.n_shards}, seed={self.seed}, "
            f"n_vnodes={self.n_vnodes}, version={self.version!r})"
        )
