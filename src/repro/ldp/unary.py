"""Shared implementation of the unary-encoding oracles (OUE, SUE).

Both unary oracles one-hot encode the user's value into a length-``d``
bit vector and flip bits independently; they differ only in the keep/flip
probabilities ``(p, q)``.  Everything mechanical about unary reports —
sparse perturbation, dense and packed report forms, support counting
over either form — lives here so the concrete oracles stay what they
are on paper: a pair of probabilities.
"""

from __future__ import annotations

import numpy as np

from repro.ldp.base import FrequencyOracle
from repro.ldp.packed import PackedUnaryReports, sample_unary_reports
from repro.utils.rng import RandomState


class UnaryEncodingOracle(FrequencyOracle):
    """Base class for unary (bit-vector) frequency oracles.

    Reports exist in two interchangeable forms with identical bits:

    * the dense ``(n_users, domain_size)`` boolean matrix (the historical
      representation, used by the in-memory simulation path), and
    * :class:`~repro.ldp.packed.PackedUnaryReports`, the packbits wire
      form the online service keeps end to end.

    Both :meth:`perturb` and :meth:`perturb_packed` consume the generator
    identically, so the two forms are bit-identical for a fixed seed.
    """

    def perturb(
        self, values: np.ndarray, domain_size: int, rng: RandomState = None
    ) -> np.ndarray:
        """Return an ``(n_users, domain_size)`` boolean report matrix."""
        p, q = self.support_probabilities(domain_size)
        return sample_unary_reports(values, domain_size, rng, p, q, packed=False)

    def perturb_packed(
        self, values: np.ndarray, domain_size: int, rng: RandomState = None
    ) -> PackedUnaryReports:
        """Perturb straight into packed wire form — the ``(n, d)`` matrix
        is never materialised.  Bit-identical to ``packbits(perturb(...))``
        for the same seed."""
        p, q = self.support_probabilities(domain_size)
        return sample_unary_reports(values, domain_size, rng, p, q, packed=True)

    def support_counts(self, reports, domain_size: int) -> np.ndarray:
        if isinstance(reports, PackedUnaryReports):
            if reports.domain_size != int(domain_size):
                raise ValueError(
                    f"packed reports cover domain size {reports.domain_size}, "
                    f"expected {domain_size}"
                )
            return reports.column_counts()
        reports = np.asarray(reports, dtype=bool)
        if reports.ndim != 2 or reports.shape[1] != domain_size:
            raise ValueError(
                f"expected an (n, {domain_size}) report matrix, got shape {reports.shape}"
            )
        return reports.sum(axis=0).astype(np.int64)
