"""p-Wasserstein distance between barcodes.

Dimensions are matched independently: intervals of dimension k in one
barcode can only match dimension-k intervals in the other, or drop to the
diagonal, under the L-infinity distance between (birth, death) points.
Infinite bars never reach the diagonal; they match among themselves by
birth, and a mismatch in their count in any dimension makes the barcodes
infinitely far apart (returned as math.inf, not an error). A sum of p-th
powers beyond float range, or below the smallest normal float while the
bars differ, raises ComputationError instead of a wrong distance.

With delta(a) the cost of sending bar a to the diagonal and c(a, b) that
of matching a with b, a partial matching costs every bar's delta plus
r(a, b) = c(a, b) - delta(a) - delta(b) over its pairs, and only pairs
with r < 0 help. So only the negative cells of the n x m reduced costs
are stored, and scipy's sparse LAPJVsp (Jonker & Volgenant 1987) matches
each left bar to one of them or to its own diagonal column, exactly: a
brute-force matcher and a dense assignment in the test suite verify it.
scipy.sparse is imported only where a matching is built and solved, so
runs that compare no barcodes never load scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ComputationError, InputError
from .geometry import BLOCK_CELLS, check_budget
from .persistence import Barcode

__all__ = [
    "MatchingProblem",
    "wasserstein_p",
]

# bytes per cell when every cell is negative: the fill keeps 12 (value and
# column), and the solve peaks at 27.0-27.1 (tracemalloc, 600 x 500 to
# 2,500 x 2,500 bars) in its graph and scipy's copies of it
_BYTES_PER_CELL = 28


@dataclass
class MatchingProblem:
    """Reduced assignment problem for one homology dimension.

    ``left`` and ``right`` are barcodes of finite intervals that share one
    dimension. Costs are raised to the power p, so the solved objective is
    the inner sum of the Wasserstein formula restricted to this dimension;
    a bar whose diagonal cost leaves float range raises ComputationError.
    ``cost`` is the n x (m + n) csr_array the solve hands to scipy: row i
    stores min(r, 0) at the columns j < m where r < 0, then column m + i,
    left bar i's diagonal. ``diagonal`` holds each side's delta.
    """

    left: Barcode
    right: Barcode
    p: float
    cost: "csr_array" = field(init=False, repr=False)
    diagonal: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        from scipy.sparse import csr_array

        left, right, p = self.left, self.right, self.p
        n, m = len(left), len(right)
        # this also keeps n * m, and so every index below, under 2**31
        check_budget(_BYTES_PER_CELL * n * m, f"the matching of {n} against {m} bars")
        dims = np.union1d(left.dims, right.dims)
        if len(dims) > 1:
            raise InputError(f"intervals span several dimensions: {dims.tolist()}")
        if np.isinf(left.deaths).any() or np.isinf(right.deaths).any():
            raise InputError("matching problems hold finite intervals only")
        with np.errstate(over="ignore"):
            self.diagonal = tuple(((b.deaths - b.births) / 2.0) ** p for b in (left, right))
        if any(np.isinf(delta).any() for delta in self.diagonal):
            raise _out_of_range(p)
        # count each row's negative cells, then compute the blocks again
        # to store them, so the arrays are made once at their final size;
        # each row ends in its diagonal column m + i, whose weight is the
        # smallest positive float: LAPJVsp drops explicit zeros, and this
        # weight leaves every real one, and so the optimal matchings, as is
        blocks = self._reduced_costs
        counts = [np.count_nonzero(block < 0.0, axis=1) + 1 for _, _, block in blocks()]
        indptr = np.concatenate([[0], *counts]).cumsum(dtype=np.int32)
        data, columns = np.empty(indptr[-1]), np.empty(indptr[-1], dtype=np.int32)
        ends = indptr[1:] - 1  # each row's diagonal slot
        data[ends], columns[ends] = np.nextafter(0.0, 1.0), np.arange(m, m + n)
        for lo, hi, block in blocks():
            kept = np.flatnonzero(block < 0.0)
            rows = slice(indptr[lo], indptr[hi])
            cells = np.ones(indptr[hi] - indptr[lo], dtype=bool)  # the block's real slots
            cells[ends[lo:hi] - indptr[lo]] = False
            data[rows][cells] = block.ravel()[kept]
            columns[rows][cells] = kept % m
        self.cost = csr_array((data, columns, indptr), shape=(n, m + n))

    def _reduced_costs(self):
        """Yield (lo, hi, block) with block[i, j] = r(left[lo + i], right[j])
        for consecutive row blocks; each block is overwritten by the next."""
        left, right = self.left, self.right
        left_diag, right_diag = self.diagonal
        step = max(1, BLOCK_CELLS // max(len(right), 1))
        scratch = np.empty((2, min(step, len(left)), len(right)))
        for lo in range(0, len(left), step):
            hi = min(lo + step, len(left))
            block, other = scratch[:, : hi - lo]
            np.subtract(left.births[lo:hi, None], right.births, out=block)
            np.abs(block, out=block)
            np.subtract(left.deaths[lo:hi, None], right.deaths, out=other)
            np.abs(other, out=other)
            np.maximum(block, other, out=block)
            with np.errstate(over="ignore"):  # an inf cell is never matched
                np.power(block, self.p, out=block)
            block -= left_diag[lo:hi, None]
            block -= right_diag
            yield lo, hi, block

    def solve(self) -> float:
        """Minimal total p-th-power cost over all partial matchings."""
        left_diag, right_diag = self.diagonal
        n, m = len(left_diag), len(right_diag)
        if not (n and m):
            return float(left_diag.sum() + right_diag.sum())
        from scipy.sparse.csgraph import min_weight_full_bipartite_matching

        rows, cols = min_weight_full_bipartite_matching(self.cost)
        real = cols < m
        rows, cols = rows[real], cols[real]
        left, right = self.left, self.right
        pairs = np.maximum(
            np.abs(left.births[rows] - right.births[cols]),
            np.abs(left.deaths[rows] - right.deaths[cols]),
        ) ** self.p
        unmatched = np.delete(left_diag, rows), np.delete(right_diag, cols)
        return float(np.concatenate([pairs, *unmatched]).sum())


def _out_of_range(p: float) -> ComputationError:
    return ComputationError(f"the p-th powers leave float range at p = {p}; use a smaller p")


def _sorts_after(a: Barcode, b: Barcode) -> bool:
    """Whether a's bars come after b's in lexicographic order of their
    (dim, birth, death) sequences, a proper prefix coming first."""
    n = min(len(a), len(b))
    x, y = (np.stack([c.dims[:n], c.births[:n], c.deaths[:n]]) for c in (a, b))
    differ = np.flatnonzero((x != y).any(axis=0))
    if len(differ) == 0:
        return len(a) > len(b)
    return tuple(x[:, differ[0]]) > tuple(y[:, differ[0]])


def _same_bars(a: Barcode, b: Barcode, dims) -> bool:
    """Whether a and b hold the same bars of positive length in dims, so
    that their distance is 0."""
    a, b = (c[np.isin(c.dims, dims) & (c.deaths > c.births)] for c in (a, b))
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in ("dims", "births", "deaths"))


def _split(b: Barcode, k: int) -> tuple[Barcode, np.ndarray]:
    """The finite bars of dimension k, and the births of its infinite
    bars, ascending as the bars are."""
    in_dim = b.dims == k
    finite = in_dim & np.isfinite(b.deaths)
    return b[finite], b.births[in_dim & ~finite]


def wasserstein_p(b1: Barcode, b2: Barcode, p: float = 2.0, dims=None) -> float:
    """p-Wasserstein distance between two barcodes.

    Each homology dimension is matched independently (optionally
    restricted to the nonempty list ``dims`` of nonnegative dimensions);
    the p-th-power costs of all dimensions sum under a single 1/p root.
    Returns math.inf when any dimension's infinite-bar counts differ. Two
    empty barcodes are at distance 0.
    """
    if not 1.0 <= p < math.inf:
        raise InputError(f"p must satisfy 1 <= p < inf, got {p}")
    if dims is None:
        dims = np.union1d(b1.dims, b2.dims).tolist()
    elif not dims or min(dims) < 0 or len(set(dims)) < len(dims):
        raise InputError(f"dims must list distinct nonnegative dimensions, got {dims}")
    # canonical argument order makes d(a, b) and d(b, a) run the exact
    # same float computation, so symmetry holds to the last bit
    if _sorts_after(b1, b2):
        b1, b2 = b2, b1
    total = 0.0
    try:
        with np.errstate(over="raise"):
            for k in dims:
                left, left_inf = _split(b1, k)
                right, right_inf = _split(b2, k)
                if len(left_inf) != len(right_inf):
                    return math.inf
                # sorted births pair in order, which is optimal for any p >= 1
                # in one dimension
                total += float(np.sum(np.abs(left_inf - right_inf) ** p))
                total += MatchingProblem(left, right, p).solve()
    except FloatingPointError:
        total = math.inf
    # a total beyond float range, or one whose precision has underflowed
    # though the distance is not 0, would print a wrong distance
    if total == math.inf or (total < np.finfo(float).tiny and not _same_bars(b1, b2, dims)):
        raise _out_of_range(p)
    return total ** (1.0 / p)
