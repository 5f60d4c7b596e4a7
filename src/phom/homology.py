"""Boundary matrices over GF(2).

Over GF(2) a boundary column is just the set of its facets' filtration
indices. The matrix is stored in compressed sparse column form, column j
being indices[indptr[j]:indptr[j + 1]], ascending: one int32 per nonzero
and no Python object per column. It is assembled one dimension at a time
from the filtration's packed vertex rows; ``vr.facet_rows`` finds each
facet by its combinatorial-number-system key, and the facet's position
among the rows of its dimension gives its filtration index. Homology is
computed from this matrix in ``persistence``, which builds on this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .vr import Filtration, facet_rows

__all__ = [
    "BoundaryMatrix",
    "build_boundary_matrix",
]


@dataclass(frozen=True, eq=False)
class BoundaryMatrix:
    """Sparse GF(2) boundary matrix in filtration order.

    Column j lists the filtration indices of simplex j's facets, sorted
    ascending; all of them precede j. Vertex columns are empty.
    """

    indptr: np.ndarray  # int64, n_columns + 1 offsets into indices
    indices: np.ndarray  # int32 facet indices, column after column
    dims: np.ndarray  # int8 simplex dimension per column
    births: np.ndarray  # float64 birth scale per column

    @property
    def n_columns(self) -> int:
        return len(self.dims)

    @property
    def columns(self) -> tuple:
        """Every column as a tuple of ints: a Python object per column, for
        inspection and tests; the engine reads indptr and indices."""
        flat = self.indices.tolist()
        bounds = self.indptr.tolist()
        return tuple(tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))


def build_boundary_matrix(f: Filtration) -> BoundaryMatrix:
    """Assemble the facet-index columns of every simplex of a filtration.

    A missing facet means the filtration is not face-closed, which build_vr
    can never produce; that is an internal invariant violation, not bad
    input, hence RuntimeError.
    """
    dims = f.dims
    indptr = np.zeros(len(dims) + 1, dtype=np.int64)
    np.cumsum(np.where(dims > 0, dims + 1, 0), out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=np.int32)
    below = np.flatnonzero(dims == 0)
    for k in range(1, len(f.rows)):
        here = np.flatnonzero(dims == k)
        cofaces = f.rows[k]
        facets = facet_rows(cofaces, f.rows[k - 1], f.n_vertices)
        missing = np.argwhere(facets < 0)
        if len(missing):
            j, i = missing[0]
            raise RuntimeError(
                "filtration violates face closure: "
                f"{np.delete(cofaces[j], i).tolist()} missing for {cofaces[j].tolist()}"
            )
        indices[indptr[here][:, None] + np.arange(k + 1)] = np.sort(below[facets], axis=1)
        below = here
    return BoundaryMatrix(indptr=indptr, indices=indices, dims=dims, births=f.births)
