"""Persistence pairing by GF(2) coboundary reduction, barcodes, Betti numbers.

The pairing comes from persistent cohomology. The cocolumns are
coboundary rows, each simplex's cofaces in ascending filtration order,
which ``homology.coboundary`` makes for one dimension at a time.
Dimensions are reduced from 0 upward, each in reverse filtration order,
with a cocolumn's oldest coface (smallest filtration index) as its pivot.
A reduced cocolumn of simplex i with pivot j pairs (i, j): the feature
born with simplex i dies when simplex j enters. These are exactly the
pairs the textbook reduction of the boundary matrix finds (de Silva,
Morozov & Vejdemo-Johansson, Dualities in persistent (co)homology,
2011). Simplices that end up in no pair become infinite bars.

Two shortcuts skip nearly all the work. Clearing: a simplex that died in
a pair found one dimension down has a cocolumn that reduces to zero, so
it is masked out before its dimension's loop, as is one with no cofaces.
Apparent pairs (Bauer, Ripser, 2021, section 3): (sigma, tau) where tau
is sigma's oldest coface and sigma tau's youngest facet. Array operations
find them all before the loop, which visits only the other cocolumns,
about 3% of them on the reference complexes. No cocolumn reduced before
sigma's turn holds tau, as each sums coboundaries of simplices younger
than every facet of tau, so entering the pair early changes nothing.
Only a bool array of the simplices paired so far outlives a dimension;
its rows, its one owner array of apparent and reduced pivots alike and
its reduced cocolumns go when it ends. The test suite checks the
pairing bit for bit against the left-to-right reduction.

Top-dimension simplices have no cofaces in the filtration, so they are
never reduced and nothing could kill a top-dimension cycle: its bar is an
artifact of cutting the complex off, and the barcode (like Ripser's)
stops below max_dim. Betti numbers are read off the barcode: beta_k at
eps counts the k-bars alive at eps (Zomorodian & Carlsson, 2005).

``betti_numbers`` reads them off a smaller complex with the same
homology: the strong-collapse core at eps (Boissonnat & Pritam,
Computing persistent homology of flag complexes via strong collapses,
SoCG 2019). A vertex v whose closed neighbourhood N[v] lies in a
neighbour u's is dominated, and removing it keeps the flag complex's
homotopy type. A round removes every vertex v below some neighbour u in
the strict order "N[v] is a proper subset of N[u], or N[v] = N[u] and
u < v"; each is dominated by a surviving maximum, so the round is a
sequence of strong collapses. H_k depends only on the (k + 1)-skeleton,
so beta_k for k < max_dim is the same for the core cut off at max_dim as
for the whole complex. The rounds stop at the first that would remove
less than a quarter of the edges and triangles left, and drop its
removals: every round before it shrinks the work by a quarter, so all
rounds together cost at most four times the first.
"""

from __future__ import annotations

import math
import warnings
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .geometry import check_budget
from .homology import coboundary
from .vr import Filtration

__all__ = [
    "PersistenceInterval",
    "Barcode",
    "Pairing",
    "reduce",
    "intervals",
    "betti_curve",
    "betti_numbers",
    "write_barcode_csv",
    "read_barcode_csv",
]


# a bar as packed arrays hold it, which is why a dim must fit in int64
_BAR = np.dtype([("dim", np.int64), ("birth", np.float64), ("death", np.float64)])

# Budget guard for betti_curve: `phom betti` on a barcode peaks at 68-69 B
# (tracemalloc) and 82 B (RSS) per count it prints, at 10^6-10^7 counts,
# over the bincount, its list and the formatted line.
_BYTES_PER_BETTI_COUNT = 96


@dataclass(frozen=True, order=True)
class PersistenceInterval:
    """Homological feature of dimension ``dim`` alive on [birth, death).

    death is math.inf for features that outlive the filtration. A feature
    is born at a finite scale and must exist before it can die:
    birth <= death always.
    """

    dim: int
    birth: float
    death: float

    def __post_init__(self):
        if self.dim < 0:
            raise InputError(f"dimension must be nonnegative, got {self.dim}")
        if self.dim >= 2**63:
            raise InputError(f"dimension must fit in int64, got {self.dim}")
        if not math.isfinite(self.birth):
            raise InputError(f"birth must be finite, got {self.birth}")
        if not self.birth <= self.death:
            raise InputError(
                f"interval must satisfy birth <= death, got [{self.birth}, {self.death}]"
            )


class Barcode:
    """Multiset of persistence intervals plus the scale range they were
    produced under, packed as arrays in (dim, birth, death) order: int64
    ``dims``, float64 ``births`` and ``deaths`` (inf for bars that outlive
    the filtration). A sequence of PersistenceInterval values: len,
    indexing and iteration; a slice or boolean mask selects a Barcode."""

    __slots__ = ("dims", "births", "deaths", "eps_max")

    def __init__(self, intervals, eps_max: float):
        bars = np.fromiter(((iv.dim, iv.birth, iv.death) for iv in intervals), _BAR)
        self._pack(bars["dim"], bars["birth"], bars["death"], eps_max)

    @classmethod
    def _from_arrays(cls, dims, births, deaths, eps_max: float) -> Barcode:
        """Barcode of unvalidated bars given as arrays in any order."""
        b = cls.__new__(cls)
        b._pack(dims, births, deaths, eps_max)
        return b

    def _pack(self, dims, births, deaths, eps_max) -> None:
        order = np.lexsort((deaths, births, dims))
        self.dims = dims[order].astype(np.int64)
        self.births, self.deaths, self.eps_max = births[order], deaths[order], eps_max

    def __len__(self) -> int:
        return len(self.dims)

    def __getitem__(self, i):
        if isinstance(i, (int, np.integer)):
            return PersistenceInterval(
                int(self.dims[i]), float(self.births[i]), float(self.deaths[i])
            )
        return Barcode._from_arrays(self.dims[i], self.births[i], self.deaths[i], self.eps_max)

    @property
    def max_dim(self) -> int:
        return int(self.dims[-1]) if len(self.dims) else 0


@dataclass(frozen=True, eq=False)
class Pairing:
    """Reduction outcome: int64 (birth index, death index) pairs of shape
    (n, 2), ascending by birth index, and the int64 indices left unpaired,
    ascending. Together they exactly partition the column set.

    column_additions, cleared_columns and apparent_pairs count the
    reduction's work; they depend on the schedule, not on the pairing.
    """

    pairs: np.ndarray
    unpaired: np.ndarray
    column_additions: int = 0
    cleared_columns: int = 0
    apparent_pairs: int = 0


def reduce(f: Filtration) -> Pairing:
    """Compute the persistence pairing of a filtration by reducing its
    coboundary rows (see the module docstring)."""
    paired = np.zeros(f.n_columns, dtype=bool)  # the simplices paired so far
    found, work = [np.empty((0, 2), dtype=np.int64)], np.zeros(3, dtype=np.int64)
    # top-dimension simplices have no cofaces, so their dimension is skipped
    for k in range(int(f.dims.max(initial=0))):
        pairs, *counts = _reduce_dimension(f, k, paired)
        found.append(pairs)
        work += counts
    pairs = np.concatenate(found)
    return Pairing(pairs[np.argsort(pairs[:, 0])], np.flatnonzero(~paired), *work.tolist())


def _reduce_dimension(f: Filtration, k: int, paired: np.ndarray) -> tuple:
    """Reduce dimension k: its (k-simplex, (k + 1)-simplex) pairs, also
    marked in ``paired``, and its column additions, cleared columns and
    apparent pairs. Its rows, its owner array (each (k + 1)-simplex's
    cocolumn, -1 if none) and its reduced cocolumns go on return."""
    # the dimension's rows; members and owners are positions among the
    # k-simplices, pivots and cofaces among the (k + 1)-simplices
    here, up = np.flatnonzero(f.dims == k), np.flatnonzero(f.dims == k + 1)
    indptr, cofaces = coboundary(f, k)
    # clearing: the only paired k-simplices are deaths one dimension down,
    # whose cocolumns reduce to 0; an empty cocolumn pairs nothing
    cleared = int(paired[here].sum())
    members = np.flatnonzero(~paired[here] & (np.diff(indptr) > 0))
    pivots = cofaces[indptr[members]]
    # apparent pairs: sigma's pivot tau, whose youngest facet is sigma
    owner = f.facets[k + 1][:, 0].copy()  # each tau's youngest facet
    for column in f.facets[k + 1].T[1:]:
        np.maximum(owner, column, out=owner)
    rest = owner[pivots] != members
    owner.fill(-1)  # from here on, the cocolumn whose pivot is tau, or -1
    owner[pivots[~rest]] = members[~rest]
    apparent_pairs = int(np.count_nonzero(~rest))
    members, pivots = members[rest][::-1], pivots[rest][::-1]
    reduced: dict[int, set] = {}  # cocolumns that differ from their original
    additions = 0
    for i, pivot in zip(members.tolist(), pivots.tolist()):
        if owner.item(pivot) >= 0:
            col = set(cofaces[indptr[i] : indptr[i + 1]].tolist())
            while col:
                pivot = min(col)
                o = owner.item(pivot)
                if o < 0:
                    break
                other = reduced.get(o)
                col.symmetric_difference_update(
                    cofaces[indptr[o] : indptr[o + 1]].tolist() if other is None else other
                )
                additions += 1
            if not col:
                continue
            reduced[i] = col
        owner[pivot] = i
    deaths = np.flatnonzero(owner >= 0)
    pairs = np.column_stack([here[owner[deaths]], up[deaths]])
    paired[pairs] = True
    return pairs, additions, cleared, apparent_pairs


def intervals(f: Filtration, min_length: float = 0.0) -> Barcode:
    """Persistence barcode of a filtration, in dimensions below max_dim.

    Pair (i, j) becomes an interval of dimension dim(simplex i) over
    [birth(i), birth(j)); unpaired indices below the top dimension become
    infinite bars. Finite intervals of length <= min_length are dropped,
    so always those of zero length, which persist over no scale: their
    simplices enter at the same scale. Infinite bars are always kept.
    """
    if not min_length >= 0.0:
        raise InputError(f"min_length must be nonnegative, got {min_length}")
    if f.max_dim < 1:
        raise InputError("max_dim (--max-dim) must be at least 1: bars stop below it")
    pairing = reduce(f)
    pairs = pairing.pairs
    # a pair is born below the top dimension, whose simplices have no
    # cofaces; an unpaired top simplex is a cycle of the cut-off skeleton
    unpaired = pairing.unpaired[f.dims[pairing.unpaired] < f.max_dim]
    first = np.concatenate([pairs[:, 0], unpaired])
    birth = f.births[first]
    death = np.concatenate([f.births[pairs[:, 1]], np.full(len(first) - len(pairs), math.inf)])
    length = death - birth
    kept = (length > min_length) | np.isinf(death)
    return Barcode._from_arrays(f.dims[first[kept]], birth[kept], death[kept], f.eps_max)


def betti_curve(b: Barcode, eps: float, max_k: int | None = None) -> list[int]:
    """Counts of intervals alive at eps (birth <= eps < death), per
    dimension 0..max_k. max_k defaults to the largest dimension present."""
    if not 0.0 <= eps < math.inf:
        raise InputError(f"eps must be nonnegative and finite, got {eps}")
    if max_k is None:
        max_k = b.max_dim
    if max_k < 0:
        raise InputError(f"max_k must be nonnegative, got {max_k}")
    check_budget(_BYTES_PER_BETTI_COUNT * (max_k + 1), f"{max_k + 1} Betti numbers")
    alive = (b.births <= eps) & (eps < b.deaths) & (b.dims <= max_k)
    return np.bincount(b.dims[alive], minlength=max_k + 1).tolist()


def betti_numbers(f: Filtration, eps: float, max_k: int) -> list[int]:
    """Betti numbers beta_0..beta_max_k of the Rips complex at scale eps,
    read off the barcode of its strong-collapse core (see the module
    docstring), which stops below the top: max_k < f.max_dim. f must be
    a flag filtration, as build_vr makes."""
    if not 0 <= max_k < f.max_dim:
        raise InputError(
            f"max_k must be in [0, {f.max_dim - 1}] for this filtration, got {max_k}"
        )
    if not 0.0 <= eps <= f.eps_max:
        raise InputError(f"eps must be in [0, {f.eps_max}] for this filtration, got {eps}")
    return betti_curve(intervals(_collapse(f, eps)), eps, max_k)


def _collapse(f: Filtration, eps: float) -> Filtration:
    """The strong-collapse core of f's complex at eps (see the module
    docstring): the simplices born at or below eps whose vertices all
    survive, renumbered per dimension in the same order, with the same
    births. f itself when it stores no triangles or every vertex
    survives. N[v] is a subset of N[u] exactly when the edge vu lies in
    deg(v) - 1 triangles, so no n x n matrix is needed."""
    if f.max_dim < 2:
        return f
    cut = int(np.searchsorted(f.births, eps, "right"))  # born at or below eps
    dims = f.dims[:cut]
    sizes = np.bincount(dims, minlength=f.max_dim + 1)
    n = len(f.facets[0])
    alive = np.ones(n, dtype=bool)
    # the edges' vertices, and the triangles' edges as positions among them
    edges, triangles = f.facets[1][: sizes[1]], f.facets[2][: sizes[2]]
    while True:
        degree = np.bincount(edges.ravel(), minlength=n)
        shared = np.bincount(triangles.ravel(), minlength=len(edges))
        v, u = edges.T  # v > u: an edge's facet 0 omits its smaller vertex
        dv, du = degree[v], degree[u]
        gone = np.zeros(n, dtype=bool)
        gone[v[shared == dv - 1]] = True
        gone[u[(shared == du - 1) & (du < dv)]] = True
        # a simplex's facets 0 and k between them hold all its vertices
        lost = gone[v] | gone[u]
        lost_triangles = lost[triangles[:, 0]] | lost[triangles[:, 2]]
        left = len(edges) + len(triangles)
        if not 0 < left <= 4 * (np.count_nonzero(lost) + np.count_nonzero(lost_triangles)):
            break
        alive &= ~gone
        position = np.cumsum(~lost, dtype=np.int32) - 1
        edges, triangles = edges[~lost], position[triangles[~lost_triangles]]
    if alive.all():
        return f
    # a simplex survives when its facets 0 and k do; renumber per dimension
    keep_all = np.empty(cut, dtype=bool)
    keep_all[dims == 0] = keep = alive
    facets = [f.facets[0][alive]]
    for k in range(1, f.max_dim + 1):
        position = np.cumsum(keep, dtype=np.int32) - 1
        below = f.facets[k][: sizes[k]]
        keep = keep[below[:, 0]] & keep[below[:, k]]
        facets.append(position[below[keep]])
        keep_all[dims == k] = keep
    return Filtration(tuple(facets), f.births[:cut][keep_all], dims[keep_all], f.eps_max)


def write_barcode_csv(b: Barcode, out) -> None:
    """CSV with header dim,birth,death; infinite deaths serialize as
    ``inf``; 9 significant digits. ``out`` is a path, or an open text
    stream that is written to and left open."""
    opened = nullcontext(out) if hasattr(out, "write") else open(out, "w", newline="")
    with opened as fh:
        fh.write("dim,birth,death\n")
        for dim, birth, death in zip(b.dims.tolist(), b.births.tolist(), b.deaths.tolist()):
            fh.write(f"{dim},{birth:.9g},{death:.9g}\n")


def _parse_rows(path, fh):
    """Yield a barcode CSV's bars as (dim, birth, death), each parsed and
    checked in turn."""
    header = fh.readline().strip()
    if header != "dim,birth,death":
        raise InputError(f"{path}: expected header dim,birth,death, got {header!r}")
    for lineno, raw in enumerate(fh, start=2):
        parts = raw.strip().split(",")
        if parts == [""]:
            continue
        try:
            if len(parts) != 3:
                raise InputError("expected 3 fields")
            # validates; InputError is a ValueError, so it names the line too
            bar = PersistenceInterval(int(parts[0]), float(parts[1]), float(parts[2]))
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
        yield bar.dim, bar.birth, bar.death


def read_barcode_csv(path) -> Barcode:
    """Inverse of write_barcode_csv; eps_max, which the file does not store,
    is the largest finite value present, or 0.0. A row numpy refuses, or an
    invalid bar, sends the file to a row-by-row parse that names its line."""
    with open(path, "r", newline="") as fh:
        try:  # a decoding error is a ValueError too
            header = fh.readline().strip()
            with warnings.catch_warnings():  # loadtxt warns on a file without rows
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                rows = np.loadtxt(fh, _BAR, comments=None, delimiter=",", ndmin=1)
            births, deaths = rows["birth"], rows["death"]
            valid = header == "dim,birth,death" and (rows["dim"] >= 0).all()
            valid = valid and np.isfinite(births).all() and (births <= deaths).all()
        except ValueError:
            valid = False
        if not valid:
            fh.seek(0)
            rows = np.fromiter(_parse_rows(path, fh), _BAR)
    births, deaths = rows["birth"], rows["death"]
    top = max(0.0, float(np.where(np.isinf(deaths), births, deaths).max(initial=0.0)))
    return Barcode._from_arrays(rows["dim"], births, deaths, top)
