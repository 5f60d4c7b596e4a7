"""Boundary operators over GF(2), stored as coboundary rows.

Over GF(2) a simplex's coboundary is just the set of its cofaces'
filtration indices. The operator is stored once, as the compressed sparse
rows that the reduction in ``persistence`` reads: row i is
cofaces[indptr[i]:indptr[i + 1]], ascending, one int32 per nonzero. The
filtration already holds every simplex's facets, so the rows are the
transpose of those facet arrays, taken one dimension at a time.
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
    """Sparse GF(2) boundary operator in filtration order, by rows.

    Row i lists the filtration indices of simplex i's cofaces, sorted
    ascending; all of them follow i. Top-dimension rows are empty.
    """

    indptr: np.ndarray  # int64, n_columns + 1 offsets into cofaces
    cofaces: np.ndarray  # int32 coface indices, row after row
    dims: np.ndarray  # int8 simplex dimension per simplex
    births: np.ndarray  # float64 birth scale per simplex

    @property
    def n_columns(self) -> int:
        return len(self.dims)

    @property
    def columns(self) -> tuple:
        """Every boundary column, the facets of one simplex ascending, as a
        tuple of ints: a transpose built on demand for inspection and
        tests; the engine reads indptr and cofaces."""
        # a stable sort keeps each column's facets in ascending row order
        order = np.argsort(self.cofaces, kind="stable")
        flat = np.repeat(np.arange(self.n_columns), np.diff(self.indptr))[order].tolist()
        bounds = np.cumsum(np.bincount(self.cofaces, minlength=self.n_columns)).tolist()
        return tuple(tuple(flat[a:b]) for a, b in zip([0] + bounds, bounds))


def build_boundary_matrix(f: Filtration) -> BoundaryMatrix:
    """Assemble the coboundary rows of every simplex of a filtration.

    A facet index outside the dimension below means the filtration is not
    face-closed, which build_vr can never produce; that is an internal
    invariant violation, not bad input, hence RuntimeError.
    """
    dims = f.dims
    counts = np.zeros(len(dims), dtype=np.int64)
    by_dim = []  # by_dim[k]: the cofaces of the k-simplices, simplex by simplex
    for k in range(1, len(f.facets)):
        here = np.flatnonzero(dims == k).astype(np.int32)
        below = len(f.facets[k - 1])
        keys = f.facets[k].astype(np.int64)
        if len(keys) and not 0 <= keys.min() <= keys.max() < below:
            raise RuntimeError(f"face closure violated: {k}-simplex facet outside [0, {below})")
        counts[dims == k - 1] = np.bincount(keys.ravel(), minlength=below)
        # one int64 key per (facet, coface) pair, facet * len(here) + coface
        # row: sorting the keys groups the pairs by facet, cofaces ascending
        keys *= len(here)
        keys += np.arange(len(here))[:, None]
        keys = keys.ravel()
        keys.sort()
        keys %= len(here)
        by_dim.append(here[keys])
    indptr = np.zeros(len(dims) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    cofaces = np.empty(int(indptr[-1]), dtype=np.int32)
    for k, rows in enumerate(by_dim):
        # the k-simplices' rows, in filtration order, fill exactly the slots
        # of the k-simplices' rows
        cofaces[np.repeat(dims == k, counts)] = rows
    return BoundaryMatrix(indptr=indptr, cofaces=cofaces, dims=dims, births=f.births)
