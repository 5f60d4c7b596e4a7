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
the simplices one dimension down, the boundary operator over GF(2),
and over all simplices a float64 births array and an int8 dims array,
everything in filtration order. ``build_vr`` grows cliques by joining
siblings (Zomorodian 2010) and records each simplex's facets as it is
made, so no simplex is ever looked up by its vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ResourceError
from . import geometry
from .geometry import BLOCK_CELLS, DistanceMatrix, check_budget

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
# memory. A whole persist run peaks (tracemalloc) at 68-85 B per simplex
# on the reference complexes and lat-lon, highest on lat-lon, in reduce on
# each; build_vr peaks at 53-57 B, and so does a betti run on each, as it
# reduces only the strong-collapse core. 192 is kept over a rounded-up 128,
# which would raise the default cap (~44.7M simplices against 8 GiB) while
# a cap above the host's memory is an open question.
ESTIMATED_BYTES_PER_SIMPLEX = 192


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

    A facet index outside the dimension below means the filtration is not
    face-closed, which build_vr can never produce; that is an internal
    invariant violation, not bad input, hence RuntimeError.
    """

    facets: tuple  # facets[k]: int32 array of shape (n_k, k + 1), k = 0..max_dim
    births: np.ndarray  # float64 birth scale per simplex
    # int8 dimension per simplex: a k-simplex brings 2**(k + 1) - 1 faces,
    # so the simplex budget keeps every non-empty dimension far below 128
    dims: np.ndarray
    eps_max: float

    def __post_init__(self):
        for k in range(1, len(self.facets)):
            below, facets = len(self.facets[k - 1]), self.facets[k]
            if facets.size and not 0 <= facets.min() <= facets.max() < below:
                raise RuntimeError(f"face closure violated: {k}-simplex facet outside [0, {below})")
        for a in (*self.facets, self.births, self.dims):
            a.flags.writeable = False

    def __len__(self) -> int:
        return len(self.births)

    @property
    def max_dim(self) -> int:
        """The top dimension, read off the facets: len(self.facets) - 1."""
        return len(self.facets) - 1

    @property
    def n_columns(self) -> int:
        """The boundary operator's column count, one per simplex: len(self)."""
        return len(self)

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
    children come out in that order too. A child's facet k is p, its
    facet k - 1 is s, and facet i < k - 1 is the child of p's and s's
    facets i, read from the child index the dimension below made (the
    edge (a, b), a triangle's facet 0, is binary-searched). Every edge
    lies in p, s or facet 0, so the birth is the largest of theirs, as a
    rank among the distinct edge lengths; one sort by rank then gives the
    (birth, dim, vertices) order. The running simplex count must stay
    within ``max_simplices`` (default: the memory budget over
    ESTIMATED_BYTES_PER_SIMPLEX) before a block of children gets its
    facets, or ResourceError is raised.
    """
    if not 0.0 < eps_max < math.inf:
        raise InputError(f"eps_max must be positive and finite, got {eps_max}")
    n = dm.n
    if not 0 <= max_dim <= n - 1:
        raise InputError(f"max_dim must be in [0, {n - 1}], got {max_dim}")
    scale = _birth_scale(edge_rule)
    if max_simplices is None:  # geometry's budget, read when called
        max_simplices = geometry.DEFAULT_MEMORY_BUDGET_BYTES // ESTIMATED_BYTES_PER_SIMPLEX
    elif max_simplices < 1:
        raise InputError(f"max_simplices must be positive, got {max_simplices}")
    if max_simplices < n:
        raise ResourceError(
            f"budget of {max_simplices} simplices cannot hold {n} vertices"
        )

    d = dm.entries
    # admit a pair when its distance, read in place, is <= eps_max / scale
    reach = eps_max / scale
    # per dimension, in lexicographic order: the facets, and the births as
    # ranks among the distinct values of {0} and the edge lengths
    facets = [np.empty((n, 0), dtype=np.int32)]
    ranks = [np.zeros(n, dtype=np.int32)]
    values = np.zeros(1)
    # the parents and last vertices of the dimension being grown from, and
    # the child index over the candidates that made it, with their offsets
    parent = np.zeros(n, dtype=np.int32)
    top = np.arange(n, dtype=np.int32)
    index = cum_below = None
    count = n
    for k in range(1, max_dim + 1):
        # the siblings after simplex j run to the end of its parent's
        # children; cum[j] counts those of the simplices before j
        later = np.cumsum(np.bincount(parent))[parent] - np.arange(1, len(top) + 1)
        cum = np.concatenate(([0], np.cumsum(later)))
        keys = parent * np.int64(n) + top if k == 2 else None
        child = None
        if 2 <= k < max_dim:
            check_budget(4 * int(cum[-1]), f"the child index of dimension {k}")
            child = np.empty(int(cum[-1]), dtype=np.int32)
        new_facets, new_ranks, new_top = [], [], []
        lo, start = 0, count
        # whole simplices per block; an empty dimension makes one empty block
        while lo < len(top) or not new_facets:
            hi = int(np.searchsorted(cum, cum[lo] + BLOCK_CELLS, "right")) - 1
            hi = min(max(hi, lo + 1), len(top))
            first = np.repeat(np.arange(lo, hi, dtype=np.int32), later[lo:hi])
            second = first + np.arange(len(first), dtype=np.int32)
            second += np.repeat((cum[lo] - cum[lo:hi] + 1).astype(np.int32), later[lo:hi])
            keep = d[top[first], top[second]] <= reach
            if child is not None:
                # the lexicographic position of each candidate's child
                child[cum[lo] : cum[hi]] = np.cumsum(keep) + (count - start - 1)
            first, second = first[keep], second[keep]
            count += len(first)
            if count > max_simplices:
                raise ResourceError(
                    f"simplex budget exceeded: more than {max_simplices} "
                    f"simplices at dimension {k} (override with max_simplices)"
                )
            b = top[second]
            fac = np.empty((len(first), k + 1), dtype=np.int32)
            fac[:, k - 1], fac[:, k] = second, first
            if k == 2:
                fac[:, 0] = np.searchsorted(keys, top[first] * np.int64(n) + b)
            elif k > 2:
                # p's and s's facets i are siblings, and their child is facet i
                for i in range(k - 1):
                    x, y = facets[-1][first, i], facets[-1][second, i]
                    fac[:, i] = index[cum_below[x] + (y - x - 1)]
                del x, y
            new_facets.append(fac)
            r = ranks[-1]
            new_ranks.append(np.maximum(np.maximum(r[first], r[second]), r[fac[:, 0]]))
            new_top.append(b)
            lo = hi
        facets.append(np.concatenate(new_facets))
        ranks.append(np.concatenate(new_ranks))
        if k == 1:
            # the loop ranked each edge 0, as its vertices are; rank by length
            lengths = d[facets[1][:, 1], facets[1][:, 0]]
            values = np.sort(np.concatenate(([0.0], lengths)))
            values = values[np.concatenate(([True], values[1:] != values[:-1]))]
            ranks[1] = np.searchsorted(values, lengths).astype(np.int32)
        parent, top = facets[-1][:, k], np.concatenate(new_top)
        index, cum_below = child, cum
        del later, cum, child, keys, first, second, keep, b, fac, new_facets, new_ranks, new_top
    del parent, top, index, cum_below

    # positions run over dimensions and then lexicographically, so one
    # sort of the unique keys (rank, position) gives the stable birth order
    sizes = [len(r) for r in ranks]
    order = np.concatenate(ranks, dtype=np.int64) << 32 | np.arange(sum(sizes))
    del ranks
    order.sort()
    births = (values * scale)[order >> 32]
    order &= 0xFFFFFFFF
    dims = np.repeat(np.arange(max_dim + 1, dtype=np.int8), sizes)[order]
    offsets = np.cumsum([0] + sizes)
    # rank[lex] is the filtration position among the simplices of the
    # dimension below; the sort leaves vertices in index order
    rank = np.arange(n, dtype=np.int32)
    for k in range(1, max_dim + 1):
        lex = order[dims == k] - offsets[k]
        # one column at a time, so the dimension is never copied whole
        for column in facets[k].T:
            column[:] = np.take(rank, np.take(column, lex))
        rank = np.empty(len(lex), dtype=np.int32)
        rank[lex] = np.arange(len(lex), dtype=np.int32)
    return Filtration(facets=tuple(facets), births=births, dims=dims, eps_max=float(eps_max))
