"""p-Wasserstein distance between barcodes.

Dimensions are matched independently: intervals of dimension k in one
barcode can only match dimension-k intervals in the other, or drop to the
diagonal, under the L-infinity distance between (birth, death) points.
Infinite bars never reach the diagonal; they match among themselves by
birth, and a mismatch in their count in any dimension makes the barcodes
infinitely far apart (returned as math.inf, not an error). Rather than
print a wrong distance, MatchingProblem never matches a pair whose cost
leaves float range, and refuses (ComputationError) a diagonal cost beyond
it and a total beyond it. wasserstein_p answers 0 for two barcodes with
the same bars before it takes any power, and refuses any other total over
all dimensions beyond float range or below 2.2e-308.

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
    the inner sum of the Wasserstein formula restricted to this dimension.
    A pair cost beyond float range is +inf and never stored; a diagonal
    cost beyond it (when built) and a total beyond it (``solve``) raise
    ComputationError. ``cost`` is the n x (m + n) csr_array the solve
    hands to scipy: row i stores r at the columns j < m where r < 0, then
    column m + i, left bar i's diagonal. If the two sides' largest deltas
    sum beyond float max, an r may fall below -max, so it stores r/2, at
    most -5e-324, instead: the solver only adds, subtracts and compares
    weights, so it picks the same matching unless halving ties r values
    in the subnormal range. ``diagonal`` holds each side's delta. Every
    problem goes to the solver, whether a side is empty or not: with no
    right bars the only full matching sends each left bar to its diagonal.
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
        with np.errstate(over="ignore"):  # halves first, so only the power overflows
            self.diagonal = tuple((b.deaths / 2.0 - b.births / 2.0) ** p for b in (left, right))
        if any(np.isinf(delta).any() for delta in self.diagonal):
            raise _out_of_range(p)
        # count each row's negative cells, then compute the blocks again to
        # store them in arrays made at their final size; each row ends in its
        # diagonal column m + i, weighted by the smallest positive float, as
        # LAPJVsp drops explicit zeros and this leaves the optimal matchings
        blocks = self._reduced_costs
        counts = [np.count_nonzero(block < 0.0, axis=1) + 1 for _, _, block in blocks()]
        indptr = np.concatenate([[0], *counts]).cumsum(dtype=np.int32)
        data, columns = np.empty(indptr[-1]), np.empty(indptr[-1], dtype=np.int32)
        for (lo, hi, block), count in zip(blocks(), counts):
            kept, at = np.flatnonzero(block < 0.0), np.cumsum(count - 1)
            rows = slice(indptr[lo], indptr[hi])
            data[rows] = np.insert(block.ravel()[kept], at, np.nextafter(0.0, 1.0))
            columns[rows] = np.insert(kept % m, at, np.arange(m + lo, m + hi))
        self.cost = csr_array((data, columns, indptr), shape=(n, m + n))

    def _reduced_costs(self):
        """Yield (lo, hi, block) with block[i, j] = r(left[lo + i], right[j]),
        halved as ``cost`` says, for consecutive row blocks; each block is
        overwritten by the next."""
        left, right = self.left, self.right
        left_diag, right_diag = self.diagonal
        halve = math.isinf(float(left_diag.max(initial=0.0)) + float(right_diag.max(initial=0.0)))
        step = max(1, BLOCK_CELLS // max(len(right), 1))
        scratch = np.empty((2, min(step, len(left)), len(right)))
        for lo in range(0, len(left), step):
            hi = min(lo + step, len(left))
            block, other = scratch[:, : hi - lo]
            with np.errstate(over="ignore"):
                np.subtract(left.births[lo:hi, None], right.births, out=block)
                np.abs(block, out=block)
                np.subtract(left.deaths[lo:hi, None], right.deaths, out=other)
                np.abs(other, out=other)
                np.maximum(block, other, out=block)
                np.power(block, self.p, out=block)
            block -= left_diag[lo:hi, None]  # at least -max
            if not halve:
                block -= right_diag
            else:  # keep r < 0 negative where its half rounds to 0
                improving = block < right_diag
                np.subtract(block / 2.0, right_diag / 2.0, out=block)
                np.minimum(block, -5e-324, out=block, where=improving)
            yield lo, hi, block

    def solve(self) -> float:
        """Minimal total p-th-power cost over all partial matchings."""
        from scipy.sparse.csgraph import min_weight_full_bipartite_matching

        left, right = self.left, self.right
        left_diag, right_diag = self.diagonal
        matched = np.stack(min_weight_full_bipartite_matching(self.cost))
        rows, cols = matched[:, matched[1] < len(right)]  # drop diagonal columns
        pairs = np.maximum(
            np.abs(left.births[rows] - right.births[cols]),
            np.abs(left.deaths[rows] - right.deaths[cols]),
        ) ** self.p
        unmatched = np.delete(left_diag, rows), np.delete(right_diag, cols)
        with np.errstate(over="ignore"):
            total = float(np.concatenate([pairs, *unmatched]).sum())
        if total == math.inf:
            raise _out_of_range(self.p)
        return total


def _out_of_range(p: float) -> ComputationError:
    advice = "; use a smaller p" if p > 1 else ""
    return ComputationError(f"the p-th powers leave float range at p = {p}{advice}")


def _sorts_after(a: Barcode, b: Barcode) -> bool:
    """Whether a's bars come after b's in lexicographic order of their
    (dim, birth, death) sequences, a proper prefix coming first."""
    bars = (zip(c.dims, c.births, c.deaths) for c in (a, b))
    return bool(next((x > y for x, y in zip(*bars) if x != y), len(a) > len(b)))


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
    Returns math.inf when any dimension's infinite-bar counts differ.
    Barcodes with the same bars of positive length in ``dims``, two empty
    ones among them, are at distance 0 at every p.
    """
    if not 1.0 <= p < math.inf:
        raise InputError(f"p must satisfy 1 <= p < inf, got {p}")
    if dims is None:
        dims = np.union1d(b1.dims, b2.dims).tolist()
    elif not dims or min(dims) < 0 or len(set(dims)) < len(dims):
        raise InputError(f"dims must list distinct nonnegative dimensions, got {dims}")
    if _same_bars(b1, b2, dims):  # before any power can leave float range
        return 0.0
    # canonical argument order makes d(a, b) and d(b, a) run the exact
    # same float computation, so symmetry holds to the last bit
    if _sorts_after(b1, b2):
        b1, b2 = b2, b1
    total = 0.0
    for k in dims:
        left, left_inf = _split(b1, k)
        right, right_inf = _split(b2, k)
        if len(left_inf) != len(right_inf):
            return math.inf
        # sorted births pair in order, optimal for any p >= 1 in one dimension
        with np.errstate(over="ignore"):
            total += float(np.sum(np.abs(left_inf - right_inf) ** p))
        total += MatchingProblem(left, right, p).solve()
    if total == math.inf or total < np.finfo(float).tiny:
        raise _out_of_range(p)
    return total ** (1.0 / p)
