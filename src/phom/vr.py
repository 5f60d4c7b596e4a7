"""Vietoris-Rips filtration construction.

A simplex enters the filtration at the smallest scale admitting all of its
edges. Two edge conventions are supported: under ``paper-2eps`` a pair
(i, j) is admitted once d(i, j) <= 2*eps, so its birth scale is d/2;
under ``diameter-eps`` the rule is d(i, j) <= eps and the birth is d
itself. Tooling in the wild uses both, and published simplex counts only
make sense under one of them, so the convention is an explicit argument
everywhere.

A filtration is a few packed numpy arrays, not a Python object per
simplex: per dimension k, the ascending int32 vertex rows of the
k-simplices, and over all simplices a float64 births array and an int8
dims array, everything in filtration order. Simplices are told apart by
arithmetic instead of a dictionary: the k-simplex v_0 < ... < v_k has the
combinatorial-number-system key C(v_0, 1) + C(v_1, 2) + ... +
C(v_k, k + 1), a bijection onto [0, C(n, k + 1)) (Bauer, Ripser: efficient
computation of Vietoris-Rips persistence barcodes, 2021, section 5), and
``facet_rows`` finds facets by binary search over sorted keys. There is
no other representation: nothing in the package builds a Python object
per simplex.
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
    "facet_rows",
    "ESTIMATED_BYTES_PER_SIMPLEX",
]

PAPER_2EPS = "paper-2eps"
DIAMETER_EPS = "diameter-eps"
EDGE_RULES = (PAPER_2EPS, DIAMETER_EPS)

# Budget guard: refuse to enumerate complexes whose run would not fit in
# memory. The estimate is the tracemalloc peak of a whole persist or betti
# run per simplex, at most 172.8 B on the reference complexes (k2=1e4
# mode 3), rounded up to a multiple of 32; the default cap is ~44.7M
# simplices against 8 GiB.
ESTIMATED_BYTES_PER_SIMPLEX = 192

# build_vr forms the common-neighbour mask for a block of parents at a
# time, this many cells (bytes) per block, so that the mask stays small
# however many parents a dimension has.
_MASK_CELLS = 1 << 22
# Keys are int64: the keys of dimension k run from 0 to C(n, k + 1) - 1.
_KEY_LIMIT = 2**63


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
    cut at any birth threshold is itself a valid filtration. ``rows[k]``
    holds the vertex rows of the k-simplices in filtration order;
    ``births`` and ``dims`` run over all simplices. The arrays are read-only.
    """

    rows: tuple  # rows[k]: int32 array of shape (n_k, k + 1), k = 0..max_dim
    births: np.ndarray  # float64 birth scale per simplex
    dims: np.ndarray  # int8 dimension per simplex (the key-range guard keeps k < 66)
    eps_max: float
    max_dim: int
    n_vertices: int

    def __post_init__(self):
        for a in (*self.rows, self.births, self.dims):
            a.flags.writeable = False

    def __len__(self) -> int:
        return len(self.births)

    def counts_by_dim(self) -> dict[int, int]:
        return {k: len(r) for k, r in enumerate(self.rows) if len(r)}


def _binomials(n: int, k: int) -> np.ndarray:
    """table[v, j] = C(v, j) for 0 <= v < n and 0 <= j <= k."""
    table = np.zeros((n, k + 1), dtype=np.int64)
    table[:, 0] = 1
    for j in range(1, k + 1):
        np.cumsum(table[:-1, j - 1], out=table[1:, j])
    return table


def _keys(rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Combinatorial-number-system key of each ascending vertex row
    (v_0, ..., v_k): the sum of C(v_j, j + 1)."""
    keys = np.zeros(len(rows), dtype=np.int64)
    for j in range(rows.shape[1]):
        keys += table[rows[:, j], j + 1]
    return keys


def facet_rows(cofaces: np.ndarray, faces: np.ndarray, n: int) -> np.ndarray:
    """Locate every facet of a set of k-simplices among (k-1)-simplices.

    Both arguments are ascending vertex rows over n vertices. Entry [j, i]
    of the result is the row of ``faces`` that equals ``cofaces[j]``
    without its i-th vertex, or -1 where ``faces`` has no such row. Facets
    are matched by key with a binary search over the sorted face keys.
    """
    k = cofaces.shape[1] - 1
    out = np.full(cofaces.shape, -1, dtype=np.int64)
    if len(faces) == 0:
        return out
    table = _binomials(n, k)
    face_keys = _keys(faces, table)
    sorter = np.argsort(face_keys)
    sorted_keys = face_keys[sorter]
    for i in range(k + 1):
        keys = _keys(np.delete(cofaces, i, axis=1), table)
        pos = np.minimum(np.searchsorted(sorted_keys, keys), len(faces) - 1)
        found = sorted_keys[pos] == keys
        out[found, i] = sorter[pos[found]]
    return out


def build_vr(
    dm: DistanceMatrix,
    eps_max: float,
    max_dim: int,
    edge_rule: str = PAPER_2EPS,
    max_simplices: int | None = None,
) -> Filtration:
    """Enumerate every simplex of dimension <= max_dim born at or below
    eps_max, sorted into filtration order.

    Cliques grow one dimension at a time. The simplices one dimension up
    from a simplex add one vertex above its last that is adjacent to all
    of its vertices: the AND of their upper-triangular adjacency rows,
    read off with np.nonzero. Parents are taken in lexicographic order, so
    the new rows are lexicographic too, and one stable sort by birth then
    gives the (birth, dim, vertices) order. Before each dimension k is
    built, its key range C(n, k + 1) must fit in int64; before a block of
    rows is materialized, the running simplex count must stay within
    ``max_simplices`` (default: an 8 GiB memory budget). Either failing
    raises ResourceError.
    """
    if not 0.0 < eps_max < math.inf:
        raise InputError(f"eps_max must be positive and finite, got {eps_max}")
    n = dm.n
    if not 0 <= max_dim <= n - 1:
        raise InputError(f"max_dim must be in [0, {n - 1}], got {max_dim}")
    scale = _birth_scale(edge_rule)
    if max_simplices is None:
        max_simplices = DEFAULT_MEMORY_BUDGET_BYTES // ESTIMATED_BYTES_PER_SIMPLEX
    if max_simplices < n:
        raise ResourceError(
            f"budget of {max_simplices} simplices cannot hold {n} vertices"
        )

    d = dm.entries
    # admit a pair when its distance is <= eps_max / scale
    adjacent = np.triu(d <= eps_max / scale, 1)
    rows = [np.arange(n, dtype=np.int32)[:, None]]
    # births before the edge rule's scale: the largest pairwise distance
    raw = [np.zeros(n)]
    count = n
    block = max(1, _MASK_CELLS // n)
    for k in range(1, max_dim + 1):
        parents, parent_births = rows[-1], raw[-1]
        if len(parents) == 0:
            rows.append(np.empty((0, k + 1), dtype=np.int32))
            raw.append(np.empty(0))
            continue
        if math.comb(n, k + 1) > _KEY_LIMIT:
            raise ResourceError(
                f"dimension {k} on {n} vertices needs keys up to C({n}, {k + 1}), "
                "beyond the 64-bit range"
            )
        new_rows, new_births = [], []
        for lo in range(0, len(parents), block):
            p = parents[lo : lo + block]
            mask = adjacent[p[:, 0]]
            for i in range(1, k):
                mask &= adjacent[p[:, i]]
            count += int(np.count_nonzero(mask))
            if count > max_simplices:
                raise ResourceError(
                    f"simplex budget exceeded: more than {max_simplices} "
                    f"simplices at dimension {k} (override with max_simplices)"
                )
            which, top = np.nonzero(mask)
            r = np.empty((len(top), k + 1), dtype=np.int32)
            r[:, :k] = p[which]
            r[:, k] = top
            b = parent_births[lo : lo + block][which]
            for i in range(k):
                np.maximum(b, d[r[:, i], top], out=b)
            new_rows.append(r)
            new_births.append(b)
        rows.append(np.concatenate(new_rows))
        raw.append(np.concatenate(new_births))

    sizes = [len(r) for r in rows]
    births = np.concatenate(raw)
    order = np.argsort(births, kind="stable")
    dims = np.repeat(np.arange(max_dim + 1, dtype=np.int8), sizes)[order]
    offsets = np.cumsum([0] + sizes)
    return Filtration(
        rows=tuple(r[order[dims == k] - offsets[k]] for k, r in enumerate(rows)),
        births=births[order] * scale,
        dims=dims,
        eps_max=float(eps_max),
        max_dim=max_dim,
        n_vertices=n,
    )
