"""Vietoris-Rips filtration construction.

A simplex enters the filtration at the smallest scale admitting all of its
edges. Two edge conventions are supported: under ``paper-2eps`` a pair
(i, j) is admitted once d(i, j) <= 2*eps, so its birth scale is d/2;
under ``diameter-eps`` the rule is d(i, j) <= eps and the birth is d
itself. Tooling in the wild uses both, and published simplex counts only
make sense under one of them, so the convention is an explicit argument
everywhere.

A filtration is a few packed numpy arrays, not a Python object per
simplex: per dimension, each simplex's facets as int32 positions among
the simplices one dimension down, which is all the boundary operator
reads, and over all simplices a float64 births array and an int8 dims
array, everything in filtration order. ``build_vr`` grows cliques by
joining siblings (Zomorodian 2010) and records each simplex's facets as
it is made, so no simplex is ever looked up by its vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ResourceError
from .geometry import DEFAULT_MEMORY_BUDGET_BYTES, DistanceMatrix

__all__ = [
    "Filtration",
    "EDGE_RULES",
    "PAPER_2EPS",
    "DIAMETER_EPS",
    "build_vr",
    "ESTIMATED_BYTES_PER_SIMPLEX",
]

PAPER_2EPS = "paper-2eps"
DIAMETER_EPS = "diameter-eps"
EDGE_RULES = (PAPER_2EPS, DIAMETER_EPS)

# Budget guard: refuse to enumerate complexes whose run would not fit in
# memory. A whole persist or betti run peaks (tracemalloc) at 109-122 B per
# simplex on the reference complexes, highest on k2=5000 mode 3, in the
# boundary matrix or in reduce; build_vr peaks at 67-73 B. 192 is kept over
# a rounded-up 128, which would raise the default cap (~44.7M simplices
# against 8 GiB) while a cap above the host's memory is an open question.
ESTIMATED_BYTES_PER_SIMPLEX = 192

# build_vr joins siblings for a block of whole simplices at a time, at
# most this many candidate pairs (or the n - 1 one simplex can have), so
# that the int32 candidate arrays stay near 2 MB however large the complex.
_BLOCK_PAIRS = 1 << 16


def _birth_scale(rule: str) -> float:
    if rule == PAPER_2EPS:
        return 0.5
    if rule == DIAMETER_EPS:
        return 1.0
    raise InputError(f"unknown edge rule {rule!r}; choose one of {EDGE_RULES}")


@dataclass(frozen=True, eq=False)
class Filtration:
    """Simplices with birth scales, sorted by (birth, dim, vertex order).

    The sort guarantees that every face precedes its cofaces, so a prefix
    cut at any birth threshold is itself a valid filtration. ``facets[k]``
    holds the facets of the k-simplices in filtration order: entry [j, i]
    is the position among the (k - 1)-simplices, in filtration order, of
    the facet of the j-th k-simplex that omits its i-th vertex. Vertices
    have no facets, and the j-th 0-simplex is vertex j. ``births`` and
    ``dims`` run over all simplices. The arrays are read-only.
    """

    facets: tuple  # facets[k]: int32 array of shape (n_k, k + 1), k = 0..max_dim
    births: np.ndarray  # float64 birth scale per simplex
    # int8 dimension per simplex: a k-simplex brings 2**(k + 1) - 1 faces,
    # so the simplex budget keeps every non-empty dimension far below 128
    dims: np.ndarray
    eps_max: float
    max_dim: int

    def __post_init__(self):
        for a in (*self.facets, self.births, self.dims):
            a.flags.writeable = False

    def __len__(self) -> int:
        return len(self.births)

    def counts_by_dim(self) -> dict[int, int]:
        return {k: len(r) for k, r in enumerate(self.facets) if len(r)}


def build_vr(
    dm: DistanceMatrix,
    eps_max: float,
    max_dim: int,
    edge_rule: str = PAPER_2EPS,
    max_simplices: int | None = None,
) -> Filtration:
    """Enumerate every simplex of dimension <= max_dim born at or below
    eps_max, sorted into filtration order.

    Cliques grow one dimension at a time by joining siblings: the
    (k - 1)-simplices p = q + {a} and s = q + {b}, a < b, with the same
    parent q (vertices share the empty parent) make the k-simplex p + {b}
    exactly when a and b are adjacent. Siblings are contiguous in
    lexicographic order and each p is joined with those after it, so the
    children come out in that order too; one stable sort by birth then
    gives the (birth, dim, vertices) order. A child's facet k is p, its
    facet k - 1 is s, and facet i < k - 1 is p's facet i plus b, found by
    its key: the child of q and v has key q * n + v, ascending in
    lexicographic order. Every edge of the child lies in p or s or is
    (a, b), so its birth is the largest of theirs. The running simplex
    count must stay within ``max_simplices`` (default: an 8 GiB memory
    budget) before a block of children gets its facets, or ResourceError
    is raised.
    """
    if not 0.0 < eps_max < math.inf:
        raise InputError(f"eps_max must be positive and finite, got {eps_max}")
    n = dm.n
    if not 0 <= max_dim <= n - 1:
        raise InputError(f"max_dim must be in [0, {n - 1}], got {max_dim}")
    scale = _birth_scale(edge_rule)
    if max_simplices is None:
        max_simplices = DEFAULT_MEMORY_BUDGET_BYTES // ESTIMATED_BYTES_PER_SIMPLEX
    if max_simplices < 1:
        raise InputError(f"max_simplices must be positive, got {max_simplices}")
    if max_simplices < n:
        raise ResourceError(
            f"budget of {max_simplices} simplices cannot hold {n} vertices"
        )

    d = dm.entries
    # admit a pair when its distance is <= eps_max / scale
    adjacent = d <= eps_max / scale
    # per dimension, in lexicographic order: the facets, and the births
    # before the edge rule's scale (the largest pairwise distance)
    facets = [np.empty((n, 0), dtype=np.int32)]
    raw = [np.zeros(n)]
    # the parents and last vertices of the dimension being grown from
    parent = np.zeros(n, dtype=np.int32)
    top = np.arange(n, dtype=np.int32)
    count = n
    for k in range(1, max_dim + 1):
        keys = parent * np.int64(n) + top
        # the siblings after simplex j run to the end of its parent's
        # children; cum[j] counts those of the simplices before j
        later = np.cumsum(np.bincount(parent))[parent] - np.arange(1, len(top) + 1)
        cum = np.concatenate(([0], np.cumsum(later)))
        new_facets, new_births, new_top = [], [], []
        lo = 0
        # whole simplices per block; an empty dimension makes one empty block
        while lo < len(top) or not new_facets:
            hi = int(np.searchsorted(cum, cum[lo] + _BLOCK_PAIRS, "right")) - 1
            hi = min(max(hi, lo + 1), len(top))
            first = np.repeat(np.arange(lo, hi, dtype=np.int32), later[lo:hi])
            second = first + np.arange(len(first), dtype=np.int32)
            second += np.repeat((cum[lo] - cum[lo:hi] + 1).astype(np.int32), later[lo:hi])
            keep = adjacent[top[first], top[second]]
            first, second = first[keep], second[keep]
            count += len(first)
            if count > max_simplices:
                raise ResourceError(
                    f"simplex budget exceeded: more than {max_simplices} "
                    f"simplices at dimension {k} (override with max_simplices)"
                )
            a, b = top[first], top[second]
            fac = np.empty((len(first), k + 1), dtype=np.int32)
            fac[:, k - 1], fac[:, k] = second, first
            for i in range(k - 1):
                fac[:, i] = np.searchsorted(keys, facets[-1][first, i] * np.int64(n) + b)
            new_facets.append(fac)
            new_births.append(np.max([raw[-1][first], raw[-1][second], d[a, b]], axis=0))
            new_top.append(b)
            lo = hi
        facets.append(np.concatenate(new_facets))
        raw.append(np.concatenate(new_births))
        parent, top = facets[-1][:, k], np.concatenate(new_top)
        del keys, later, cum, first, second, a, b, new_facets, new_births, new_top
    del parent, top

    sizes = [len(b) for b in raw]
    births = np.concatenate(raw)
    order = np.argsort(births, kind="stable")
    dims = np.repeat(np.arange(max_dim + 1, dtype=np.int8), sizes)[order]
    offsets = np.cumsum([0] + sizes)
    # rank[lex] is the filtration position among the simplices of the
    # dimension below; the stable sort leaves vertices in index order
    rank = np.arange(n, dtype=np.int32)
    for k in range(1, max_dim + 1):
        lex = order[dims == k] - offsets[k]
        facets[k] = rank[facets[k]]
        facets[k] = facets[k][lex]
        rank = np.empty(len(lex), dtype=np.int32)
        rank[lex] = np.arange(len(lex), dtype=np.int32)
    return Filtration(
        facets=tuple(facets),
        births=births[order] * scale,
        dims=dims,
        eps_max=float(eps_max),
        max_dim=max_dim,
    )
