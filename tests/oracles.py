"""Independent reference implementations used only to check the package.

Everything here is deliberately naive (subset scans, dense elimination,
left-to-right column reduction, closed-form roots, exhaustive matching
enumeration) and shares no code with the package, so agreement between
the two is meaningful. The exceptions are the signed chain algebra and the
dictionary boundary builder: they are built on the package's Simplex on
purpose, so that the check that the boundary of a boundary vanishes
exercises Simplex.facets, and the builder reads filtrations as
(Simplex, birth) pairs.
"""

import itertools
import math

import numpy as np

from phom import Simplex


class SignedChain:
    """Formal integer combination of simplices, kept in canonical form:
    no zero coefficients, each simplex at most once."""

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        acc: dict[Simplex, int] = {}
        for simplex, coeff in terms:
            if not isinstance(simplex, Simplex):
                simplex = Simplex(simplex)
            c = acc.get(simplex, 0) + int(coeff)
            if c:
                acc[simplex] = c
            elif simplex in acc:
                del acc[simplex]
        self._terms = acc

    def terms(self) -> list[tuple[Simplex, int]]:
        """Terms sorted by (dimension, vertices)."""
        return sorted(self._terms.items(), key=lambda t: (t[0].dim, t[0]))

    def coefficient(self, simplex: Simplex) -> int:
        return self._terms.get(simplex, 0)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "SignedChain") -> "SignedChain":
        return SignedChain(list(self._terms.items()) + list(other._terms.items()))

    def __neg__(self) -> "SignedChain":
        return SignedChain((s, -c) for s, c in self._terms.items())

    def __sub__(self, other: "SignedChain") -> "SignedChain":
        return self + (-other)

    def __rmul__(self, k: int) -> "SignedChain":
        return SignedChain((s, k * c) for s, c in self._terms.items())

    def __eq__(self, other) -> bool:
        return isinstance(other, SignedChain) and self._terms == other._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __repr__(self) -> str:
        if self.is_zero:
            return "SignedChain(0)"
        parts = []
        for s, c in self.terms():
            sign = "-" if c < 0 else "+"
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            parts.append(f"{sign} {mag}{list(s)}")
        text = " ".join(parts)
        return f"SignedChain({text.lstrip('+ ')})"


def boundary_signed(s: Simplex) -> SignedChain:
    """Alternating-sign sum of facets: omitting vertex i carries (-1)^i.
    A vertex has empty boundary."""
    if s.dim == 0:
        return SignedChain()
    return SignedChain(
        (facet, -1 if i % 2 else 1) for i, facet in enumerate(s.facets())
    )


def boundary_squared_is_zero(s: Simplex) -> SignedChain:
    """Apply the boundary twice, extending linearly over the first result.

    Always returns the zero chain; exposed as an operation so the identity
    is directly checkable rather than taken on faith.
    """
    total = SignedChain()
    for facet, coeff in boundary_signed(s).terms():
        total = total + coeff * boundary_signed(facet)
    return total


def boundary_columns(simplices):
    """Facet-index columns of (Simplex, birth) pairs given in filtration
    order, each sorted ascending, found through a dictionary from simplex
    to index and Simplex.facets. Raises RuntimeError for a missing facet."""
    index = {s: i for i, (s, _) in enumerate(simplices)}
    columns = []
    for s, _ in simplices:
        col = []
        for facet in s.facets():
            i = index.get(facet)
            if i is None:
                raise RuntimeError(f"{facet!r} missing for {s!r}")
            col.append(i)
        columns.append(tuple(sorted(col)))
    return tuple(columns)


def brute_force_vr(points, eps, max_dim, rule="paper-2eps", entries=None):
    """All vertex subsets passing the max-pairwise-distance rule, as a
    dict {vertex tuple: birth}. Distances come from math.dist, or from the
    matrix ``entries`` when given, which makes births comparable bit for
    bit. Exponential; keep clouds tiny."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    scale = 0.5 if rule == "paper-2eps" else 1.0
    if entries is None:
        def dist(i, j):
            return math.dist(pts[i], pts[j])
    else:
        def dist(i, j):
            return entries[i][j]
    out = {}
    for size in range(1, max_dim + 2):
        for combo in itertools.combinations(range(n), size):
            if size == 1:
                out[combo] = 0.0
                continue
            worst = max(dist(i, j) for i, j in itertools.combinations(combo, 2))
            birth = worst * scale
            if birth <= eps:
                out[combo] = birth
    return out


def gf2_rank(rows):
    """Rank of a GF(2) matrix given as an iterable of uint8 numpy rows."""
    mat = [np.array(r, dtype=np.uint8) % 2 for r in rows]
    rank = 0
    col = 0
    width = len(mat[0]) if mat else 0
    for col in range(width):
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                mat[r] = mat[r] ^ mat[rank]
        rank += 1
        if rank == len(mat):
            break
    return rank


def dense_betti(simplices, max_k):
    """Betti numbers from dense GF(2) boundary-matrix ranks.

    ``simplices`` is an iterable of vertex tuples (face-closed set).
    beta_k = #k-simplices - rank d_k - rank d_{k+1}.
    """
    by_dim = {}
    for s in simplices:
        by_dim.setdefault(len(s) - 1, []).append(tuple(s))
    for d in by_dim:
        by_dim[d].sort()
    index = {d: {s: i for i, s in enumerate(by_dim[d])} for d in by_dim}

    def boundary_rank(k):
        if k not in by_dim or (k - 1) not in by_dim or k == 0:
            return 0
        rows = []
        for s in by_dim[k]:
            row = np.zeros(len(by_dim[k - 1]), dtype=np.uint8)
            for omit in range(len(s)):
                row[index[k - 1][s[:omit] + s[omit + 1 :]]] = 1
            rows.append(row)
        return gf2_rank(rows)

    betti = []
    for k in range(max_k + 1):
        nk = len(by_dim.get(k, []))
        betti.append(nk - boundary_rank(k) - boundary_rank(k + 1))
    return betti


class UnionFind:
    """Path-compressed union-find for counting connected components."""

    def __init__(self, n):
        self.parent = list(range(n))
        self.components = n

    def find(self, a):
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra
            self.components -= 1


def component_count(n, edges):
    uf = UnionFind(n)
    for i, j in edges:
        uf.union(i, j)
    return uf.components


def cubic_eigenvalues(matrix):
    """Real roots of det(A - x I) = 0 for a 3x3 matrix with real spectrum,
    via the trigonometric form of Cardano's method."""
    a = np.asarray(matrix, dtype=float)
    c2 = -float(np.trace(a))
    minors = (
        a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        + a[0, 0] * a[2, 2] - a[0, 2] * a[2, 0]
        + a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1]
    )
    c1 = float(minors)
    c0 = -float(np.linalg.det(a))
    # depressed cubic t^3 + p t + q with x = t - c2/3
    p = c1 - c2 * c2 / 3.0
    q = 2.0 * c2**3 / 27.0 - c2 * c1 / 3.0 + c0
    shift = -c2 / 3.0
    p = min(p, 0.0)  # symmetric input guarantees three real roots
    if p > -1e-30:
        root = math.copysign(abs(q) ** (1.0 / 3.0), -q)
        return sorted([root + shift] * 3)
    m = 2.0 * math.sqrt(-p / 3.0)
    arg = 3.0 * q / (p * m)
    arg = min(1.0, max(-1.0, arg))
    theta = math.acos(arg) / 3.0
    roots = [m * math.cos(theta - 2.0 * math.pi * k / 3.0) + shift for k in range(3)]
    return sorted(roots)


def brute_wasserstein(left, right, p):
    """Exhaustive minimum over all partial matchings of two interval lists.

    Intervals are (birth, death) with death possibly inf; one homology
    dimension at a time. Each left interval matches a distinct right
    interval or its own diagonal projection; unmatched rights go to the
    diagonal too. Infinite bars must pair with infinite bars.
    """
    left = list(left)
    right = list(right)
    inf_l = sorted(b for b, d in left if math.isinf(d))
    inf_r = sorted(b for b, d in right if math.isinf(d))
    if len(inf_l) != len(inf_r):
        return math.inf
    best_inf = math.inf
    for perm in itertools.permutations(range(len(inf_r))):
        cost = sum(abs(inf_l[i] - inf_r[perm[i]]) ** p for i in range(len(inf_l)))
        best_inf = min(best_inf, cost)
    if not inf_l:
        best_inf = 0.0
    fin_l = [(b, d) for b, d in left if not math.isinf(d)]
    fin_r = [(b, d) for b, d in right if not math.isinf(d)]

    def cost_pair(a, b):
        return max(abs(a[0] - b[0]), abs(a[1] - b[1])) ** p

    def cost_diag(a):
        return ((a[1] - a[0]) / 2.0) ** p

    best = [math.inf]

    def assign(i, used, acc):
        if i == len(fin_l):
            rest = sum(cost_diag(fin_r[j]) for j in range(len(fin_r)) if j not in used)
            best[0] = min(best[0], acc + rest)
            return
        assign(i + 1, used, acc + cost_diag(fin_l[i]))  # drop to diagonal
        for j in range(len(fin_r)):
            if j not in used:
                assign(i + 1, used | {j}, acc + cost_pair(fin_l[i], fin_r[j]))

    assign(0, frozenset(), 0.0)
    total = best_inf + best[0]
    return total ** (1.0 / p)


def euler_characteristic_from_counts(counts_by_dim):
    return sum((-1) ** k * n for k, n in counts_by_dim.items())


def left_to_right_pairing(columns):
    """Textbook GF(2) reduction of a boundary matrix given as facet-index
    columns: each column in turn absorbs the earlier reduced column that
    shares its lowest row until the column empties or its low is new.
    Returns (sorted (low, column) pairs, unpaired indices ascending)."""
    low_owner = {}
    reduced = {}
    pairs = []
    for j, column in enumerate(columns):
        col = set(column)
        while col and max(col) in low_owner:
            col ^= reduced[low_owner[max(col)]]
        if col:
            low_owner[max(col)] = j
            reduced[j] = col
            pairs.append((max(col), j))
    paired = {i for pair in pairs for i in pair}
    unpaired = tuple(i for i in range(len(columns)) if i not in paired)
    return tuple(sorted(pairs)), unpaired
