"""Persistence pairing by GF(2) coboundary reduction, barcodes, Betti numbers.

The pairing comes from persistent cohomology. The cocolumns are the
coboundary rows that ``homology`` builds, each simplex's cofaces in
ascending filtration order. They are reduced one dimension at a time from
0 upward, each dimension in reverse filtration order, with a cocolumn's
oldest coface (smallest filtration index) as its pivot. A reduced
cocolumn of simplex i with pivot j pairs (i, j): the feature born with
simplex i dies when simplex j enters. These are exactly the pairs the
textbook reduction of the boundary matrix finds (de Silva, Morozov &
Vejdemo-Johansson, Dualities in persistent (co)homology, 2011).
Simplices that end up in no pair become infinite bars.

Two shortcuts skip nearly all the work. Clearing: a simplex that died in
a pair found one dimension down has a cocolumn that reduces to zero, so
it is masked out before its dimension's loop, as is one with no cofaces.
Unowned pivots, the shortcut behind Ripser's apparent pairs (Bauer,
Ripser, 2021, sections 3-4): a cocolumn whose pivot no other cocolumn owns
yet is already reduced, so it pairs at once with no column addition. Only
a bool array of the simplices paired so far outlives a dimension; its
pivot map and reduced cocolumns are dropped when it ends. The test suite
checks the pairing bit for bit against the left-to-right reduction of the
boundary matrix.

Top-dimension simplices have no cofaces in the filtration, so they are
never reduced and nothing could kill a top-dimension cycle: its bar is an
artifact of cutting the complex off, and the barcode (like Ripser's)
stops below max_dim. Betti numbers are read off the barcode: beta_k at
eps counts the k-bars alive at eps (Zomorodian & Carlsson, 2005).
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .homology import BoundaryMatrix, build_boundary_matrix
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
        bars = np.array([(iv.dim, iv.birth, iv.death) for iv in intervals]).reshape(-1, 3)
        self._pack(bars[:, 0], bars[:, 1], bars[:, 2], eps_max)

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

    column_additions and cleared_columns count the reduction's work; they
    depend on the schedule, not on the pairing.
    """

    pairs: np.ndarray
    unpaired: np.ndarray
    column_additions: int = 0
    cleared_columns: int = 0


def reduce(bm: BoundaryMatrix) -> Pairing:
    """Compute the persistence pairing of a boundary matrix by reducing its
    coboundary rows (see the module docstring)."""
    indptr, cofaces, dims = bm.indptr, bm.cofaces, bm.dims
    paired = np.zeros(bm.n_columns, dtype=bool)  # the simplices paired so far
    found = [np.empty((0, 2), dtype=np.int64)]
    additions = cleared = 0
    # top-dimension simplices have no cofaces, so their dimension is skipped
    for k in range(int(dims.max(initial=0))):
        members = np.flatnonzero(dims == k)[::-1]
        # clearing: the only paired k-simplices are deaths one dimension down,
        # whose cocolumns reduce to 0; an empty cocolumn pairs nothing
        cleared += int(paired[members].sum())
        members = members[~paired[members] & (indptr[members + 1] > indptr[members])]
        owner: dict[int, int] = {}  # pivot coface -> the simplex whose cocolumn holds it
        reduced: dict[int, set] = {}  # cocolumns that differ from their original
        for i, pivot in zip(members.tolist(), cofaces[indptr[members]].tolist()):
            if pivot in owner:
                col = set(cofaces[indptr[i] : indptr[i + 1]].tolist())
                while col:
                    pivot = min(col)
                    o = owner.get(pivot)
                    if o is None:
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
        births = np.fromiter(owner.values(), np.int64, len(owner))
        pairs = np.column_stack([births, np.fromiter(owner, np.int64, len(owner))])
        paired[pairs] = True
        found.append(pairs)
    pairs = np.concatenate(found)
    return Pairing(pairs[np.argsort(pairs[:, 0])], np.flatnonzero(~paired), additions, cleared)


def intervals(
    f: Filtration, min_length: float = 0.0, keep_zero: bool = False
) -> Barcode:
    """Persistence barcode of a filtration, in dimensions below max_dim.

    Pair (i, j) becomes an interval of dimension dim(simplex i) over
    [birth(i), birth(j)); unpaired indices below the top dimension become
    infinite bars. Zero length intervals are artifacts of simplices
    entering at the same scale and are dropped unless ``keep_zero``;
    finite intervals of length <= min_length are dropped; infinite bars
    are always kept.
    """
    if not min_length >= 0.0:
        raise InputError(f"min_length must be nonnegative, got {min_length}")
    if f.max_dim < 1:
        raise InputError("max_dim (--max-dim) must be at least 1: bars stop below it")
    bm = build_boundary_matrix(f)
    pairing = reduce(bm)
    pairs = pairing.pairs
    # a pair is born below the top dimension, whose simplices have no
    # cofaces; an unpaired top simplex is a cycle of the cut-off skeleton
    unpaired = pairing.unpaired[bm.dims[pairing.unpaired] < f.max_dim]
    first = np.concatenate([pairs[:, 0], unpaired])
    birth = bm.births[first]
    death = np.concatenate([bm.births[pairs[:, 1]], np.full(len(first) - len(pairs), math.inf)])
    length = death - birth
    kept = (length > min_length) | (keep_zero & (length == 0.0)) | np.isinf(death)
    return Barcode._from_arrays(bm.dims[first[kept]], birth[kept], death[kept], f.eps_max)


def betti_curve(b: Barcode, eps: float, max_k: int | None = None) -> list[int]:
    """Counts of intervals alive at eps (birth <= eps < death), per
    dimension 0..max_k. max_k defaults to the largest dimension present."""
    if not 0.0 <= eps < math.inf:
        raise InputError(f"eps must be nonnegative and finite, got {eps}")
    if max_k is None:
        max_k = b.max_dim
    if max_k < 0:
        raise InputError(f"max_k must be nonnegative, got {max_k}")
    alive = (b.births <= eps) & (eps < b.deaths) & (b.dims <= max_k)
    return np.bincount(b.dims[alive], minlength=max_k + 1).tolist()


def betti_numbers(f: Filtration, eps: float, max_k: int) -> list[int]:
    """Betti numbers beta_0..beta_max_k of the complex at scale eps, read
    off the barcode, which stops below the top: max_k < f.max_dim."""
    if not 0 <= max_k < f.max_dim:
        raise InputError(
            f"max_k must be in [0, {f.max_dim - 1}] for this filtration, got {max_k}"
        )
    if not 0.0 <= eps <= f.eps_max:
        raise InputError(f"eps must be in [0, {f.eps_max}] for this filtration, got {eps}")
    return betti_curve(intervals(f), eps, max_k)


def _fmt(x: float) -> str:
    return "inf" if math.isinf(x) else format(x, ".9g")


def write_barcode_csv(b: Barcode, out) -> None:
    """CSV with header dim,birth,death; infinite deaths serialize as
    ``inf``; 9 significant digits. ``out`` is a path, or an open text
    stream that is written to and left open."""
    opened = nullcontext(out) if hasattr(out, "write") else open(out, "w", newline="")
    with opened as fh:
        fh.write("dim,birth,death\n")
        for dim, birth, death in zip(b.dims.tolist(), b.births.tolist(), b.deaths.tolist()):
            fh.write(f"{dim},{_fmt(birth)},{_fmt(death)}\n")


def read_barcode_csv(path) -> Barcode:
    """Inverse of write_barcode_csv. The scale range is not stored in the
    file, so eps_max is recovered as the largest finite value present."""
    dims, births, deaths = [], [], []
    top = 0.0
    with open(path, "r", newline="") as fh:
        header = fh.readline().strip()
        if header != "dim,birth,death":
            raise InputError(f"{path}: expected header dim,birth,death, got {header!r}")
        for lineno, raw in enumerate(fh, start=2):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise InputError(f"{path}:{lineno}: expected 3 fields")
            try:
                dim = int(parts[0])
                birth = float(parts[1])
                death = math.inf if parts[2] == "inf" else float(parts[2])
                # validates; InputError is a ValueError, so it names the line too
                PersistenceInterval(dim=dim, birth=birth, death=death)
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from exc
            dims.append(dim)
            births.append(birth)
            deaths.append(death)
            top = max(top, birth, death if not math.isinf(death) else 0.0)
    return Barcode._from_arrays(np.array(dims), np.array(births), np.array(deaths), top)
