"""p-Wasserstein distance between barcodes.

Dimensions are matched independently: intervals of dimension k in one
barcode can only match dimension-k intervals in the other, or drop to the
diagonal, under the L-infinity distance between (birth, death) points.
Infinite bars never reach the diagonal; they match among themselves by
birth, and a mismatch in their count in any dimension makes the barcodes
infinitely far apart (returned as math.inf, not an error).

With delta(a) the cost of sending bar a to the diagonal and c(a, b) that
of matching a with b, a partial matching costs every bar's delta plus
r(a, b) = c(a, b) - delta(a) - delta(b) over its pairs, and only pairs
with r < 0 help. So n left and m right bars need no diagonal rows or
columns: scipy's linear_sum_assignment on the n x m matrix of min(r, 0)
solves the problem exactly; a brute-force matcher in the test suite
verifies optimality on small instances. scipy.optimize is bound lazily:
it loads when the first matching is solved, so runs that solve none skip it.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .geometry import check_budget
from .persistence import Barcode

__all__ = [
    "MatchingProblem",
    "wasserstein_p",
]

# importing scipy.optimize takes most of a CLI run's start-up time and
# memory, and only a matching needs it: unless it is imported already, bind
# it lazily (the LazyLoader recipe of the importlib docs)
_optimize = sys.modules.get("scipy.optimize")
if _optimize is None:
    _spec = importlib.util.find_spec("scipy.optimize")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _optimize = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_optimize)


def linear_sum_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """scipy.optimize.linear_sum_assignment, loading scipy on first use."""
    return _optimize.linear_sum_assignment(cost)


# cells of the cost matrix filled per step; the step's scratch block is
# this size, so the fill allocates nothing n x m beyond the matrix
_BLOCK_CELLS = 1 << 15


@dataclass
class MatchingProblem:
    """Reduced assignment problem for one homology dimension.

    ``left`` and ``right`` are barcodes of finite intervals that share one
    dimension. Costs are raised to the power p, so the solved objective is
    the inner sum of the Wasserstein formula restricted to this dimension.
    ``cost`` holds min(r, 0) and ``diagonal`` each side's delta.
    """

    left: Barcode
    right: Barcode
    p: float
    cost: np.ndarray = field(init=False, repr=False)
    diagonal: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        left, right, p = self.left, self.right, self.p
        n, m = len(left), len(right)
        check_budget(8 * n * m, f"the cost matrix of {n} against {m} bars")
        dims = np.union1d(left.dims, right.dims)
        if len(dims) > 1:
            raise InputError(f"intervals span several dimensions: {dims.tolist()}")
        if np.isinf(left.deaths).any() or np.isinf(right.deaths).any():
            raise InputError("matching problems hold finite intervals only")
        self.diagonal = tuple(((b.deaths - b.births) / 2.0) ** p for b in (left, right))
        left_diag, right_diag = self.diagonal
        # scipy solves a tall matrix by copying out its transpose, so a tall
        # problem fills the wide right x left matrix and keeps its transpose;
        # |x - y| == |y - x| and left's delta goes first either way, so every
        # cell holds the same float in both layouts
        row_bars, col_bars = left, right
        left_d = np.broadcast_to(left_diag[:, None], (n, m))
        right_d = np.broadcast_to(right_diag, (n, m))
        if n > m:
            row_bars, col_bars, left_d, right_d = right, left, left_d.T, right_d.T
        c = np.empty(left_d.shape)
        step = max(1, _BLOCK_CELLS // max(len(col_bars), 1))
        scratch = np.empty((min(step, len(row_bars)), len(col_bars)))
        for lo in range(0, len(row_bars), step):
            hi = min(lo + step, len(row_bars))
            block, other = c[lo:hi], scratch[: hi - lo]
            np.subtract(row_bars.births[lo:hi, None], col_bars.births, out=block)
            np.abs(block, out=block)
            np.subtract(row_bars.deaths[lo:hi, None], col_bars.deaths, out=other)
            np.abs(other, out=other)
            np.maximum(block, other, out=block)
            np.power(block, p, out=block)
            block -= left_d[lo:hi]
            block -= right_d[lo:hi]
            np.minimum(block, 0.0, out=block)
        self.cost = c.T if n > m else c

    def solve(self) -> float:
        """Minimal total p-th-power cost over all partial matchings."""
        left_diag, right_diag = self.diagonal
        if not (len(left_diag) and len(right_diag)):
            return float(left_diag.sum() + right_diag.sum())
        if len(left_diag) > len(right_diag):
            # cost is the transpose of a wide matrix; solve that one and
            # list its pairs in left-bar order, as scipy would have
            cols, rows = linear_sum_assignment(self.cost.T)
            order = np.argsort(rows)
            rows, cols = rows[order], cols[order]
        else:
            rows, cols = linear_sum_assignment(self.cost)
        matched = self.cost[rows, cols] < 0.0
        rows, cols = rows[matched], cols[matched]
        left, right = self.left, self.right
        pairs = np.maximum(
            np.abs(left.births[rows] - right.births[cols]),
            np.abs(left.deaths[rows] - right.deaths[cols]),
        ) ** self.p
        unmatched = np.delete(left_diag, rows), np.delete(right_diag, cols)
        return float(np.concatenate([pairs, *unmatched]).sum())


def _sorts_after(a: Barcode, b: Barcode) -> bool:
    """Whether a's bars come after b's in lexicographic order of their
    (dim, birth, death) sequences, a proper prefix coming first."""
    n = min(len(a), len(b))
    x, y = (np.stack([c.dims[:n], c.births[:n], c.deaths[:n]]) for c in (a, b))
    differ = np.flatnonzero((x != y).any(axis=0))
    if len(differ) == 0:
        return len(a) > len(b)
    return tuple(x[:, differ[0]]) > tuple(y[:, differ[0]])


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
    for k in dims:
        left, left_inf = _split(b1, k)
        right, right_inf = _split(b2, k)
        if len(left_inf) != len(right_inf):
            return math.inf
        # sorted births pair in order, which is optimal for any p >= 1 in
        # one dimension
        total += float(np.sum(np.abs(left_inf - right_inf) ** p))
        total += MatchingProblem(left, right, p).solve()
    return total ** (1.0 / p)
