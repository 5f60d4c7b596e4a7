"""p-Wasserstein distance between barcodes.

Dimensions are matched independently: intervals of dimension k in one
barcode can only match dimension-k intervals in the other, or drop to the
diagonal, under the L-infinity distance between (birth, death) points.
Unequal cardinalities are handled by the usual diagonal augmentation:
with n intervals on the left and m on the right, the cost matrix is
(n+m) x (n+m), where the extra rows/columns price sending an interval to
its own diagonal projection and diagonal-to-diagonal slots cost nothing.
Infinite bars never reach the diagonal; they match among themselves by
birth, and a mismatch in their count in any dimension makes the barcodes
infinitely far apart (returned as math.inf, not an error).

The assignment subproblem is solved exactly by scipy's Hungarian-style
linear_sum_assignment; a brute-force matcher in the test suite verifies
optimality on small instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import InputError
from .persistence import Barcode

__all__ = [
    "MatchingProblem",
    "wasserstein_p",
]

# cells of the pair-cost matrix filled per step; the step's scratch block
# is this size, so the fill allocates nothing n x m beyond the matrix
_BLOCK_CELLS = 1 << 15


@dataclass
class MatchingProblem:
    """Diagonal-augmented assignment problem for one homology dimension.

    ``left`` and ``right`` are barcodes of finite intervals that share one
    dimension. Costs are raised to the power p before assignment, so the
    solved objective is the inner sum of the Wasserstein formula
    restricted to this dimension.
    """

    left: Barcode
    right: Barcode
    p: float
    cost: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        left, right, p = self.left, self.right, self.p
        dims = np.union1d(left.dims, right.dims)
        if len(dims) > 1:
            raise InputError(f"intervals span several dimensions: {dims.tolist()}")
        if np.isinf(left.deaths).any() or np.isinf(right.deaths).any():
            raise InputError("matching problems hold finite intervals only")
        n, m = len(left), len(right)
        c = np.zeros((n + m, n + m))
        step = max(1, _BLOCK_CELLS // max(m, 1))
        scratch = np.empty((min(step, n), m))
        for lo in range(0, n, step):
            hi = min(lo + step, n)  # c has n + m rows
            block, other = c[lo:hi, :m], scratch[: hi - lo]
            np.subtract(left.births[lo:hi, None], right.births, out=block)
            np.abs(block, out=block)
            np.subtract(left.deaths[lo:hi, None], right.deaths, out=other)
            np.abs(other, out=other)
            np.maximum(block, other, out=block)
            np.power(block, p, out=block)
        # any diagonal slot accepts a bar at the same price, so each
        # diagonal row and column block is constant; no infinities needed
        c[:n, m:] = (((left.deaths - left.births) / 2.0) ** p)[:, None]
        c[n:, :m] = ((right.deaths - right.births) / 2.0) ** p
        self.cost = c

    def solve(self) -> float:
        """Minimal total p-th-power cost over all matchings."""
        if self.cost.size == 0:
            return 0.0
        rows, cols = linear_sum_assignment(self.cost)
        return float(self.cost[rows, cols].sum())


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
    elif not dims or min(dims) < 0:
        raise InputError(f"dims must be a nonempty list of nonnegative dimensions, got {dims}")
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
        if len(left) or len(right):
            total += MatchingProblem(left, right, p).solve()
    return total ** (1.0 / p)
