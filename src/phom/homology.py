"""The GF(2) coboundary operator of a filtration.

Over GF(2) a simplex's boundary is just the set of its facets, which the
filtration stores, and its coboundary the set of its cofaces. The
reduction in ``persistence`` reads coboundary rows, which
``coboundary(f, k)`` makes when dimension k is reduced, and only then:
the transpose of the (k + 1)-simplices' facets, with cofaces as
positions among them.
"""

from __future__ import annotations

import numpy as np

from .vr import Filtration

__all__ = ["coboundary"]


def coboundary(f: Filtration, k: int) -> tuple:
    """Coboundary rows of the k-simplices, k < max_dim: (indptr, cofaces).
    cofaces[indptr[j]:indptr[j + 1]] are the positions among the
    (k + 1)-simplices of the j-th k-simplex's cofaces, ascending, as
    int32; indptr is int64."""
    facets = f.facets[k + 1]
    # one int64 key per (facet, coface) pair, facet << 32 | coface:
    # sorting the keys groups the pairs by facet, cofaces ascending
    keys = np.left_shift(facets, 32, dtype=np.int64)
    keys |= np.arange(len(facets))[:, None]
    keys = keys.ravel()
    keys.sort()
    indptr = np.searchsorted(keys, np.arange(len(f.facets[k]) + 1) << 32)
    return indptr, keys.astype(np.int32)  # the low word: the coface
