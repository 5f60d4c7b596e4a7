"""Boundary matrices over GF(2) and Betti numbers.

Rank computations run over GF(2), where a column is just the set of its
facet indices and column addition is symmetric difference.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .vr import Filtration

__all__ = [
    "BoundaryMatrix",
    "build_boundary_matrix",
    "betti_numbers",
]


@dataclass(frozen=True)
class BoundaryMatrix:
    """Sparse GF(2) boundary matrix in filtration order.

    Column j lists the filtration indices of simplex j's facets, sorted
    ascending; all of them precede j. Vertex columns are empty.
    """

    columns: tuple  # of tuple[int, ...]
    dims: tuple  # simplex dimension per column
    births: tuple  # birth scale per column
    filtration: Filtration

    @property
    def n_columns(self) -> int:
        return len(self.columns)

    def column(self, j: int) -> tuple:
        return self.columns[j]


def build_boundary_matrix(f: Filtration) -> BoundaryMatrix:
    """Assemble facet-index columns for every simplex of a filtration.

    A missing facet means the filtration is not face-closed, which build_vr
    can never produce; that is an internal invariant violation, not bad
    input, hence RuntimeError.
    """
    index = {s: i for i, (s, _) in enumerate(f.simplices)}
    columns = []
    dims = []
    births = []
    for j, (s, b) in enumerate(f.simplices):
        dims.append(s.dim)
        births.append(b)
        if s.dim == 0:
            columns.append(())
            continue
        col = []
        for facet in s.facets():
            i = index.get(facet)
            if i is None:
                raise RuntimeError(
                    f"filtration violates face closure: {facet!r} missing for {s!r}"
                )
            col.append(i)
        col.sort()
        columns.append(tuple(col))
    return BoundaryMatrix(
        columns=tuple(columns), dims=tuple(dims), births=tuple(births), filtration=f
    )


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

    cut = f.prefix_length(eps)
    prefix = Filtration(
        simplices=f.simplices[:cut],
        eps_max=eps,
        max_dim=f.max_dim,
        n_vertices=f.n_vertices,
        edge_rule=f.edge_rule,
    )
    bm = build_boundary_matrix(prefix)
    pairing = _reduce(bm)
    betti = [0] * (max_k + 1)
    for i in pairing.unpaired:
        k = bm.dims[i]
        if k <= max_k:
            betti[k] += 1
    return betti
