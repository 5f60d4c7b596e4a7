"""Boundary matrices over GF(2) and Betti numbers.

Over GF(2) a boundary column is just the set of its facets' filtration
indices. The matrix is stored in compressed sparse column form, column j
being indices[indptr[j]:indptr[j + 1]], ascending: one int32 per nonzero
and no Python object per column. It is assembled one dimension at a time
from the filtration's packed vertex rows; ``vr.facet_rows`` finds each
facet by its combinatorial-number-system key, and the facet's position
among the rows of its dimension gives its filtration index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .vr import Filtration, facet_rows

__all__ = [
    "BoundaryMatrix",
    "build_boundary_matrix",
    "betti_numbers",
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


def build_boundary_matrix(f: Filtration, size: int | None = None) -> BoundaryMatrix:
    """Assemble the facet-index columns of the first ``size`` simplices of
    a filtration (default: all of them). A prefix of a filtration is a
    filtration, so this is the boundary matrix of the complex at that cut.

    A missing facet means the filtration is not face-closed, which build_vr
    can never produce; that is an internal invariant violation, not bad
    input, hence RuntimeError.
    """
    dims = f.dims[:size]
    indptr = np.zeros(len(dims) + 1, dtype=np.int64)
    np.cumsum(np.where(dims > 0, dims + 1, 0), out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=np.int32)
    below = np.flatnonzero(dims == 0)
    for k in range(1, len(f.rows)):
        here = np.flatnonzero(dims == k)
        cofaces = f.rows[k][: len(here)]
        facets = facet_rows(cofaces, f.rows[k - 1][: len(below)], f.n_vertices)
        missing = np.argwhere(facets < 0)
        if len(missing):
            j, i = missing[0]
            raise RuntimeError(
                "filtration violates face closure: "
                f"{np.delete(cofaces[j], i).tolist()} missing for {cofaces[j].tolist()}"
            )
        indices[indptr[here][:, None] + np.arange(k + 1)] = np.sort(below[facets], axis=1)
        below = here
    return BoundaryMatrix(indptr=indptr, indices=indices, dims=dims, births=f.births[:size])


def betti_numbers(f: Filtration, eps: float, max_k: int) -> list[int]:
    """Betti numbers beta_0..beta_max_k of the complex at scale eps.

    beta_k = dim ker d_k - rank d_{k+1} over GF(2), realized by reducing
    the boundary matrix of the prefix born at or below eps and counting
    unpaired k-simplices. Requires (k+1)-simplices in the filtration,
    hence max_k < f.max_dim.
    """
    if not 0 <= max_k < f.max_dim:
        raise InputError(
            f"max_k must be in [0, {f.max_dim - 1}] for this filtration, got {max_k}"
        )
    if eps > f.eps_max:
        raise InputError(f"eps {eps} exceeds the filtration's eps_max {f.eps_max}")
    from .persistence import reduce as _reduce  # deferred: persistence builds on this module

    bm = build_boundary_matrix(f, f.prefix_length(eps))
    pairing = _reduce(bm)
    dims = bm.dims[np.asarray(pairing.unpaired, dtype=np.int64)]
    return np.bincount(dims[dims <= max_k], minlength=max_k + 1).tolist()
