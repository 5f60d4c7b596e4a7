"""Boundary operators over GF(2), stored once, as the filtration's facets.

Over GF(2) a simplex's boundary is just the set of its facets and its
coboundary the set of its cofaces. A BoundaryMatrix shares the
filtration's facet arrays and stores no array of its own. The reduction
in ``persistence`` reads coboundary rows, which ``coboundary(k)`` makes
when dimension k is reduced, and only then: the transpose of the
(k + 1)-simplices' facets, with cofaces as positions among them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .vr import Filtration

__all__ = [
    "BoundaryMatrix",
    "build_boundary_matrix",
]


@dataclass(frozen=True, eq=False)
class BoundaryMatrix:
    """Sparse GF(2) boundary operator in filtration order, made of the
    filtration's own arrays (see Filtration for the facets' layout)."""

    facets: tuple  # facets[k]: int32 array of shape (n_k, k + 1)
    dims: np.ndarray  # int8 simplex dimension per simplex
    births: np.ndarray  # float64 birth scale per simplex

    @property
    def n_columns(self) -> int:
        return len(self.dims)

    @property
    def columns(self) -> tuple:
        """Every boundary column, the facets of one simplex ascending, as a
        tuple of ints: built on demand for inspection and tests; the
        engine reads coboundary rows."""
        columns = [()] * self.n_columns
        for k in range(1, len(self.facets)):
            below = np.flatnonzero(self.dims == k - 1)
            rows = np.sort(below[self.facets[k]], axis=1).tolist()
            for j, row in zip(np.flatnonzero(self.dims == k).tolist(), rows):
                columns[j] = tuple(row)
        return tuple(columns)

    def coboundary(self, k: int) -> tuple:
        """Coboundary rows of the k-simplices, k < max_dim: (indptr, cofaces).
        cofaces[indptr[j]:indptr[j + 1]] are the positions among the
        (k + 1)-simplices of the j-th k-simplex's cofaces, ascending, as
        int32; indptr is int64."""
        facets = self.facets[k + 1]
        # one int64 key per (facet, coface) pair, facet << 32 | coface:
        # sorting the keys groups the pairs by facet, cofaces ascending
        keys = np.left_shift(facets, 32, dtype=np.int64)
        keys |= np.arange(len(facets))[:, None]
        keys = keys.ravel()
        keys.sort()
        indptr = np.searchsorted(keys, np.arange(len(self.facets[k]) + 1) << 32)
        return indptr, keys.astype(np.int32)  # the low word: the coface


def build_boundary_matrix(f: Filtration) -> BoundaryMatrix:
    """The boundary operator of a filtration, which shares its arrays.

    A facet index outside the dimension below means the filtration is not
    face-closed, which build_vr can never produce; that is an internal
    invariant violation, not bad input, hence RuntimeError.
    """
    for k in range(1, len(f.facets)):
        below = len(f.facets[k - 1])
        if f.facets[k].size and not 0 <= f.facets[k].min() <= f.facets[k].max() < below:
            raise RuntimeError(f"face closure violated: {k}-simplex facet outside [0, {below})")
    return BoundaryMatrix(facets=f.facets, dims=f.dims, births=f.births)
