"""Persistence pairing by GF(2) coboundary reduction, barcodes, Betti curves.

The pairing comes from persistent cohomology. The boundary matrix is
transposed once into coboundary rows, and the cocolumns are reduced one
dimension at a time from 0 upward, each dimension in reverse filtration
order, with a cocolumn's oldest coface (smallest filtration index) as its
pivot. A reduced cocolumn of simplex i with pivot j pairs (i, j): the
feature born with simplex i dies when simplex j enters. These are exactly
the pairs the textbook reduction of the boundary matrix finds (de Silva,
Morozov & Vejdemo-Johansson, Dualities in persistent (co)homology, 2011).
Simplices that end up in no pair become infinite bars.

Two shortcuts skip nearly all the work. Clearing: a simplex that died in
a pair found one dimension down has a cocolumn that reduces to zero, so
it is skipped. Unowned pivots, the shortcut behind Ripser's apparent
pairs (Bauer, Ripser, 2021, sections 3-4): a cocolumn whose pivot no
other cocolumn owns yet is already reduced, so it pairs at once with no
column addition. Top-dimension simplices have no cofaces in the
filtration and are never reduced. The test suite checks the pairing bit
for bit against the left-to-right reduction of the boundary matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    "write_barcode_csv",
    "read_barcode_csv",
]


@dataclass(frozen=True, order=True)
class PersistenceInterval:
    """Homological feature of dimension ``dim`` alive on [birth, death).

    death is math.inf for features that outlive the filtration. A feature
    must exist before it can die: birth <= death always.
    """

    dim: int
    birth: float
    death: float

    def __post_init__(self):
        if self.dim < 0:
            raise InputError(f"dimension must be nonnegative, got {self.dim}")
        if not self.birth <= self.death:
            raise InputError(
                f"interval must satisfy birth <= death, got [{self.birth}, {self.death}]"
            )

    @property
    def length(self) -> float:
        return self.death - self.birth

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.death)


@dataclass(frozen=True)
class Barcode:
    """Multiset of persistence intervals plus the scale range and length
    threshold they were produced under."""

    intervals: tuple
    eps_max: float
    min_length: float = 0.0

    def __len__(self) -> int:
        return len(self.intervals)

    def __iter__(self):
        return iter(self.intervals)

    @property
    def max_dim(self) -> int:
        return max((iv.dim for iv in self.intervals), default=0)

    def by_dim(self) -> dict[int, list[PersistenceInterval]]:
        out: dict[int, list[PersistenceInterval]] = {}
        for iv in self.intervals:
            out.setdefault(iv.dim, []).append(iv)
        return out


@dataclass(frozen=True)
class Pairing:
    """Reduction outcome: (birth index, death index) pairs and the indices
    left unpaired. pairs + unpaired exactly partition the column set.

    column_additions and cleared_columns count the reduction's work; they
    depend on the schedule, not on the pairing, so equality ignores them.
    """

    pairs: tuple
    unpaired: tuple
    column_additions: int = field(default=0, compare=False)
    cleared_columns: int = field(default=0, compare=False)


def _coboundary(bm: BoundaryMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Transpose the boundary columns into CSR rows: the cofaces of simplex
    i are cofaces[indptr[i]:indptr[i + 1]], ascending."""
    n = bm.n_columns
    # a stable sort keeps each row's cofaces in ascending column order
    order = np.argsort(bm.indices, kind="stable")
    cofaces = np.repeat(np.arange(n, dtype=np.int32), np.diff(bm.indptr))[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(bm.indices, minlength=n), out=indptr[1:])
    return indptr, cofaces


def reduce(bm: BoundaryMatrix) -> Pairing:
    """Compute the persistence pairing of a boundary matrix by reducing its
    coboundary rows (see the module docstring)."""
    n = bm.n_columns
    indptr, cofaces = _coboundary(bm)
    dims = bm.dims
    first = np.full(n, -1, dtype=np.int32)
    has_cofaces = indptr[1:] > indptr[:-1]
    first[has_cofaces] = cofaces[indptr[:-1][has_cofaces]]

    owner: dict[int, int] = {}  # pivot coface -> simplex whose cocolumn holds it
    reduced: dict[int, set] = {}  # cocolumns that differ from their original
    dead = bytearray(n)  # deaths found so far; clearing skips their cocolumns
    pairs: list[tuple[int, int]] = []
    additions = cleared = 0
    # top-dimension simplices have no cofaces, so their dimension is skipped
    for k in range(int(dims.max(initial=0))):
        members = np.flatnonzero(dims == k)[::-1]
        for i, pivot in zip(members.tolist(), first[members].tolist()):
            if dead[i]:
                cleared += 1
                continue
            if pivot < 0:
                continue
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
            dead[pivot] = 1
            pairs.append((i, pivot))
    paired = np.zeros(n, dtype=bool)
    paired[np.asarray(pairs, dtype=np.int64).reshape(-1)] = True
    pairs.sort()
    return Pairing(
        pairs=tuple(pairs),
        unpaired=tuple(np.flatnonzero(~paired).tolist()),
        column_additions=additions,
        cleared_columns=cleared,
    )


def intervals(
    f: Filtration, min_length: float = 0.0, keep_zero: bool = False
) -> Barcode:
    """Persistence barcode of a filtration.

    Pair (i, j) becomes an interval of dimension dim(simplex i) over
    [birth(i), birth(j)); unpaired indices become infinite bars. Zero
    length intervals are artifacts of simplices entering at the same scale
    and are dropped unless ``keep_zero``; finite intervals of length
    <= min_length are dropped; infinite bars are always kept.
    """
    if min_length < 0.0:
        raise InputError(f"min_length must be nonnegative, got {min_length}")
    bm = build_boundary_matrix(f)
    pairing = reduce(bm)
    births = bm.births.tolist()
    dims = bm.dims.tolist()
    out = []
    for i, j in pairing.pairs:
        birth = births[i]
        death = births[j]
        length = death - birth
        if length == 0.0:
            if not keep_zero:
                continue
        elif length <= min_length:
            continue
        out.append(PersistenceInterval(dim=dims[i], birth=birth, death=death))
    for i in pairing.unpaired:
        out.append(PersistenceInterval(dim=dims[i], birth=births[i], death=math.inf))
    out.sort()
    return Barcode(intervals=tuple(out), eps_max=f.eps_max, min_length=min_length)


def betti_curve(b: Barcode, eps: float, max_k: int | None = None) -> list[int]:
    """Counts of intervals alive at eps (birth <= eps < death), per
    dimension 0..max_k. max_k defaults to the largest dimension present."""
    if eps < 0.0:
        raise InputError(f"eps must be nonnegative, got {eps}")
    if max_k is None:
        max_k = b.max_dim
    counts = [0] * (max_k + 1)
    for iv in b.intervals:
        if iv.dim <= max_k and iv.birth <= eps < iv.death:
            counts[iv.dim] += 1
    return counts


def _fmt(x: float) -> str:
    return "inf" if math.isinf(x) else format(x, ".9g")


def write_barcode_csv(b: Barcode, path) -> None:
    """CSV with header dim,birth,death; infinite deaths serialize as
    ``inf``; 9 significant digits."""
    with open(path, "w", newline="") as fh:
        fh.write("dim,birth,death\n")
        for iv in b.intervals:
            fh.write(f"{iv.dim},{_fmt(iv.birth)},{_fmt(iv.death)}\n")


def read_barcode_csv(path) -> Barcode:
    """Inverse of write_barcode_csv. The scale range is not stored in the
    file, so eps_max is recovered as the largest finite value present."""
    ivs = []
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
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from exc
            ivs.append(PersistenceInterval(dim=dim, birth=birth, death=death))
            top = max(top, birth, death if not math.isinf(death) else 0.0)
    return Barcode(intervals=tuple(ivs), eps_max=top, min_length=0.0)
