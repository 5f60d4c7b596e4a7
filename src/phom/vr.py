"""Vietoris-Rips filtration construction.

A simplex enters the filtration at the smallest scale admitting all of its
edges. Two edge conventions are supported: under ``paper-2eps`` a pair
(i, j) is admitted once d(i, j) <= 2*eps, so its birth scale is d/2;
under ``diameter-eps`` the rule is d(i, j) <= eps and the birth is d
itself. Tooling in the wild uses both, and published simplex counts only
make sense under one of them, so the convention is an explicit argument
everywhere.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, ResourceError
from .geometry import DistanceMatrix

__all__ = [
    "Simplex",
    "Filtration",
    "EDGE_RULES",
    "PAPER_2EPS",
    "DIAMETER_EPS",
    "simplex_birth",
    "build_vr",
    "fully_connected_eps",
    "DEFAULT_MEMORY_BUDGET_BYTES",
    "ESTIMATED_BYTES_PER_SIMPLEX",
]

PAPER_2EPS = "paper-2eps"
DIAMETER_EPS = "diameter-eps"
EDGE_RULES = (PAPER_2EPS, DIAMETER_EPS)

# Budget guard: refuse to enumerate complexes whose run would not fit in
# memory. The estimate is the tracemalloc peak of a whole persist or betti
# run per simplex, at most 647 B on the reference complexes, rounded up to
# a multiple of 64; the default cap is ~12.2M simplices against 8 GiB.
DEFAULT_MEMORY_BUDGET_BYTES = 8 * 1024**3
ESTIMATED_BYTES_PER_SIMPLEX = 704


def _birth_scale(rule: str) -> float:
    if rule == PAPER_2EPS:
        return 0.5
    if rule == DIAMETER_EPS:
        return 1.0
    raise InputError(f"unknown edge rule {rule!r}; choose one of {EDGE_RULES}")


class Simplex(tuple):
    """Vertex-index tuple, strictly increasing; dimension is len - 1.

    The ascending order is the canonical representative of the simplex's
    orientation class, so equality of Simplex values is equality of
    oriented simplices up to even permutation.
    """

    __slots__ = ()

    def __new__(cls, vertices):
        verts = tuple(vertices)
        if not verts:
            raise InputError("a simplex needs at least one vertex")
        prev = -1
        for v in verts:
            if not isinstance(v, (int, np.integer)) or v <= prev:
                raise InputError(
                    f"vertices must be strictly increasing nonnegative ints, got {verts}"
                )
            prev = v
        return tuple.__new__(cls, (int(v) for v in verts))

    @classmethod
    def _wrap(cls, verts: tuple) -> "Simplex":
        """Internal fast path for already-validated ascending tuples."""
        return tuple.__new__(cls, verts)

    @property
    def dim(self) -> int:
        return len(self) - 1

    def facets(self) -> list["Simplex"]:
        """Codimension-1 faces, in vertex-omission order."""
        if len(self) == 1:
            return []
        return [
            Simplex._wrap(self[:i] + self[i + 1 :]) for i in range(len(self))
        ]

    def __repr__(self) -> str:
        return f"Simplex({list(self)})"


@dataclass(frozen=True)
class Filtration:
    """Simplices with birth scales, sorted by (birth, dim, vertex order).

    The sort guarantees that every face precedes its cofaces, so a prefix
    cut at any birth threshold is itself a valid filtration. Immutable
    after construction.
    """

    simplices: tuple  # of (Simplex, birth) pairs
    eps_max: float
    max_dim: int
    n_vertices: int
    edge_rule: str = PAPER_2EPS
    _index: dict = field(default_factory=dict, repr=False, compare=False)
    _births: tuple = field(default=(), repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_index", {s: i for i, (s, _) in enumerate(self.simplices)}
        )
        object.__setattr__(
            self, "_births", tuple(b for _, b in self.simplices)
        )

    def __len__(self) -> int:
        return len(self.simplices)

    def __iter__(self):
        return iter(self.simplices)

    def index_of(self, simplex: Simplex) -> int:
        try:
            return self._index[simplex]
        except KeyError:
            raise InputError(f"{simplex!r} is not in the filtration") from None

    def simplex_at(self, i: int) -> Simplex:
        return self.simplices[i][0]

    def birth_at(self, i: int) -> float:
        return self._births[i]

    def prefix_length(self, eps: float) -> int:
        """Number of simplices with birth <= eps."""
        return bisect.bisect_right(self._births, eps)

    def counts_by_dim(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for s, _ in self.simplices:
            counts[s.dim] = counts.get(s.dim, 0) + 1
        return counts

    def check_face_closure(self) -> None:
        """Raise unless every facet is present with birth <= its coface's."""
        for s, b in self.simplices:
            for f in s.facets():
                i = self._index.get(f)
                if i is None:
                    raise InputError(f"face {f!r} of {s!r} missing")
                if self._births[i] > b:
                    raise InputError(
                        f"face {f!r} born {self._births[i]} after coface {s!r} at {b}"
                    )


def simplex_birth(s: Simplex, dm: DistanceMatrix, edge_rule: str = PAPER_2EPS) -> float:
    """Smallest scale at which the simplex is present: the largest
    pairwise distance among its vertices, mapped through the edge rule.
    Vertices are born at 0."""
    scale = _birth_scale(edge_rule)
    n = dm.n
    if s[-1] >= n:
        raise InputError(f"vertex {s[-1]} out of range for {n} points")
    worst = 0.0
    for i in range(len(s)):
        for j in range(i + 1, len(s)):
            d = float(dm.entries[s[i], s[j]])
            if d > worst:
                worst = d
    return worst * scale


def build_vr(
    dm: DistanceMatrix,
    eps_max: float,
    max_dim: int,
    edge_rule: str = PAPER_2EPS,
    max_simplices: int | None = None,
) -> Filtration:
    """Enumerate every simplex of dimension <= max_dim born at or below
    eps_max, sorted into filtration order.

    Expansion is incremental: a k-simplex is a (k-1)-simplex plus one
    higher-indexed vertex adjacent to all of its vertices, so candidate
    sets shrink along the way and no subset scan is needed. The running
    simplex count is checked against ``max_simplices`` (default: an 8 GiB
    memory budget) and a ResourceError aborts the enumeration before the
    table outgrows memory.
    """
    if eps_max <= 0.0:
        raise InputError(f"eps_max must be positive, got {eps_max}")
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
    cutoff = eps_max / scale  # admit pair when distance <= cutoff
    higher = []  # sorted higher-indexed neighbors per vertex
    for i in range(n):
        row = d[i]
        idx = np.nonzero(row <= cutoff)[0]
        higher.append([int(j) for j in idx if j > i])
    higher_sets = [set(h) for h in higher]

    entries: list[tuple[float, tuple]] = [(0.0, (i,)) for i in range(n)]
    count = n
    # frontier of (vertices, candidate higher neighbors, birth)
    frontier = [((i,), higher[i], 0.0) for i in range(n) if higher[i]]
    dim = 1
    while dim <= max_dim and frontier:
        nxt = []
        extend_further = dim < max_dim
        for verts, cands, birth in frontier:
            for j in cands:
                b = birth
                for v in verts:
                    dv = d[v, j]
                    if dv > b:
                        b = dv
                new_verts = verts + (j,)
                entries.append((b, new_verts))
                count += 1
                if count > max_simplices:
                    raise ResourceError(
                        f"simplex budget exceeded: more than {max_simplices} "
                        f"simplices at dimension {dim} (override with max_simplices)"
                    )
                if extend_further:
                    # higher[j] holds exactly the valid extensions past j,
                    # so the new candidate set is a plain intersection
                    hset = higher_sets[j]
                    new_cands = [c for c in cands if c in hset]
                    if new_cands:
                        nxt.append((new_verts, new_cands, b))
        frontier = nxt
        dim += 1

    entries.sort(key=lambda e: (e[0], len(e[1]), e[1]))
    simplices = tuple(
        (Simplex._wrap(verts), (float(birth) * scale if len(verts) > 1 else 0.0))
        for birth, verts in entries
    )
    return Filtration(
        simplices=simplices,
        eps_max=float(eps_max),
        max_dim=max_dim,
        n_vertices=n,
        edge_rule=edge_rule,
    )


def fully_connected_eps(dm: DistanceMatrix, edge_rule: str = PAPER_2EPS) -> float:
    """Scale at which all vertices form one simplex: the largest pairwise
    distance mapped through the edge rule (0 for a single point)."""
    return dm.max_distance() * _birth_scale(edge_rule)
