"""p-Wasserstein distance between barcodes.

Dimensions are matched independently: intervals of dimension k in one
barcode can only match dimension-k intervals in the other, or drop to the
diagonal. Unequal cardinalities are handled by the usual diagonal
augmentation: with n intervals on the left and m on the right, the cost
matrix is (n+m) x (n+m), where the extra rows/columns price sending an
interval to its own diagonal projection and diagonal-to-diagonal slots
cost nothing. Infinite bars never reach the diagonal; they match among
themselves by birth, and a mismatch in their count in any dimension makes
the barcodes infinitely far apart (returned as math.inf, not an error).

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
from .persistence import Barcode, PersistenceInterval

__all__ = [
    "MatchingProblem",
    "interval_cost",
    "diagonal_cost",
    "wasserstein_p",
]


def interval_cost(a: PersistenceInterval, b: PersistenceInterval) -> float:
    """L-infinity distance between two intervals of the same dimension.

    Finite vs finite compares endpoints; infinite vs infinite compares
    births; a finite bar can never match an infinite one (cost inf).
    """
    if a.dim != b.dim:
        raise InputError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.is_infinite and b.is_infinite:
        return abs(a.birth - b.birth)
    if a.is_infinite or b.is_infinite:
        return math.inf
    return max(abs(a.birth - b.birth), abs(a.death - b.death))


def diagonal_cost(a: PersistenceInterval) -> float:
    """L-infinity distance from a finite interval to the diagonal, attained
    at the midpoint ((b+d)/2, (b+d)/2): half the interval length."""
    if a.is_infinite:
        raise InputError("an infinite bar cannot be dropped to the diagonal")
    return (a.death - a.birth) / 2.0


@dataclass
class MatchingProblem:
    """Diagonal-augmented assignment problem for one homology dimension.

    All intervals must be finite and share one dimension. Costs are raised
    to the power p before assignment, so the solved objective is the inner
    sum of the Wasserstein formula restricted to this dimension.
    """

    left: tuple
    right: tuple
    p: float
    cost: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.left = tuple(self.left)
        self.right = tuple(self.right)
        dims = {iv.dim for iv in self.left} | {iv.dim for iv in self.right}
        if len(dims) > 1:
            raise InputError(f"intervals span several dimensions: {sorted(dims)}")
        if any(iv.is_infinite for iv in self.left + self.right):
            raise InputError("matching problems hold finite intervals only")
        n, m = len(self.left), len(self.right)
        c = np.zeros((n + m, n + m))
        for i, a in enumerate(self.left):
            for j, b in enumerate(self.right):
                c[i, j] = interval_cost(a, b) ** self.p
            # any diagonal slot accepts a at the same price, so the whole
            # row block is constant; no infinities needed
            c[i, m:] = diagonal_cost(a) ** self.p
        for j, b in enumerate(self.right):
            c[n:, j] = diagonal_cost(b) ** self.p
        self.cost = c

    def solve(self) -> float:
        """Minimal total p-th-power cost over all matchings."""
        if self.cost.size == 0:
            return 0.0
        rows, cols = linear_sum_assignment(self.cost)
        return float(self.cost[rows, cols].sum())


def _match_infinite(left, right, p: float) -> float:
    """Optimal pairing of infinite bars: sorted births pair in order,
    which is optimal for any p >= 1 in one dimension."""
    lb = sorted(iv.birth for iv in left)
    rb = sorted(iv.birth for iv in right)
    return sum(abs(a - b) ** p for a, b in zip(lb, rb))


def wasserstein_p(b1: Barcode, b2: Barcode, p: float = 2.0, dims=None) -> float:
    """p-Wasserstein distance between two barcodes.

    Each homology dimension is matched independently (optionally
    restricted to ``dims``); the p-th-power costs of all dimensions sum
    under a single 1/p root. Returns math.inf when any dimension's
    infinite-bar counts differ. Two empty barcodes are at distance 0.
    """
    if p < 1.0:
        raise InputError(f"p must be >= 1, got {p}")
    # canonical argument order makes d(a, b) and d(b, a) run the exact
    # same float computation, so symmetry holds to the last bit
    if sorted(b1.intervals) > sorted(b2.intervals):
        b1, b2 = b2, b1
    groups1 = b1.by_dim()
    groups2 = b2.by_dim()
    if dims is None:
        dims = sorted(set(groups1) | set(groups2))
    total = 0.0
    for k in dims:
        left = groups1.get(k, [])
        right = groups2.get(k, [])
        left_inf = [iv for iv in left if iv.is_infinite]
        right_inf = [iv for iv in right if iv.is_infinite]
        if len(left_inf) != len(right_inf):
            return math.inf
        total += _match_infinite(left_inf, right_inf, p)
        left_fin = tuple(iv for iv in left if not iv.is_infinite)
        right_fin = tuple(iv for iv in right if not iv.is_infinite)
        if left_fin or right_fin:
            total += MatchingProblem(left_fin, right_fin, p).solve()
    return total ** (1.0 / p)
