"""Independent reference implementations used only to check the package.

Everything here is deliberately naive (subset scans, dense elimination,
left-to-right column reduction, closed-form roots, exhaustive matching
enumeration, dictionaries and sets of vertex tuples) and imports nothing
from the package, so agreement between the two is meaningful. A simplex
is an ascending tuple of vertex indices. Filtrations are read only
through their public arrays (``simplices``).
"""

import itertools
import math

import numpy as np


def facets(s):
    """Codimension-1 faces of an ascending vertex tuple, in
    vertex-omission order: facet i omits vertex i. A vertex has none."""
    if len(s) == 1:
        return []
    return [s[:i] + s[i + 1 :] for i in range(len(s))]


def simplices(f):
    """(vertex tuple, birth) pairs of a filtration in filtration order, read
    from its packed arrays. Vertex j is the j-th 0-simplex, and a k-simplex
    is its facet k (which omits its last vertex) with the last vertex of
    its facet 0 appended; every facet i is checked to be the tuple without
    vertex i. ``f.dims`` says which dimension comes next."""
    tuples = [[(j,) for j in range(len(f.facets[0]))]]
    for k in range(1, len(f.facets)):
        below, here = tuples[-1], []
        for row in f.facets[k].tolist():
            s = below[row[k]] + below[row[0]][-1:]
            for i, j in enumerate(row):
                assert below[j] == s[:i] + s[i + 1 :], (s, i, below[j])
            here.append(s)
        tuples.append(here)
    per_dim = [iter(t) for t in tuples]
    return [(next(per_dim[k]), b) for k, b in zip(f.dims.tolist(), f.births.tolist())]


def prefix_length(f, eps):
    """Number of simplices with birth <= eps: the filtration is sorted by
    birth, so they are its first ones and form the complex at scale eps."""
    return int(np.searchsorted(f.births, eps, side="right"))


def check_face_closure(pairs):
    """Raise AssertionError unless every facet of every simplex in the
    (vertex tuple, birth) pairs is present with birth <= its coface's."""
    births = dict(pairs)
    for s, b in pairs:
        for facet in facets(s):
            if facet not in births:
                raise AssertionError(f"{facet} missing for {s}")
            if births[facet] > b:
                raise AssertionError(f"{facet} born after {s}")


class SignedChain:
    """Formal integer combination of simplices, kept in canonical form:
    no zero coefficients, each simplex at most once."""

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        acc: dict[tuple, int] = {}
        for simplex, coeff in terms:
            simplex = tuple(int(v) for v in simplex)
            c = acc.get(simplex, 0) + int(coeff)
            if c:
                acc[simplex] = c
            elif simplex in acc:
                del acc[simplex]
        self._terms = acc

    def terms(self) -> list[tuple[tuple, int]]:
        """Terms sorted by (dimension, vertices)."""
        return sorted(self._terms.items(), key=lambda t: (len(t[0]), t[0]))

    def coefficient(self, simplex) -> int:
        return self._terms.get(tuple(simplex), 0)

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


def boundary_signed(s) -> SignedChain:
    """Alternating-sign sum of facets of an ascending vertex tuple:
    omitting vertex i carries (-1)^i. A vertex has empty boundary."""
    return SignedChain(
        (facet, -1 if i % 2 else 1) for i, facet in enumerate(facets(tuple(s)))
    )


def boundary_squared_is_zero(s) -> SignedChain:
    """Apply the boundary twice, extending linearly over the first result.

    Always returns the zero chain; exposed as an operation so the identity
    is directly checkable rather than taken on faith.
    """
    total = SignedChain()
    for facet, coeff in boundary_signed(s).terms():
        total = total + coeff * boundary_signed(facet)
    return total


def boundary_columns(pairs):
    """Facet-index columns of (vertex tuple, birth) pairs given in
    filtration order, each sorted ascending, found through a dictionary
    from simplex to index. Raises RuntimeError for a missing facet."""
    index = {s: i for i, (s, _) in enumerate(pairs)}
    columns = []
    for s, _ in pairs:
        col = []
        for facet in facets(s):
            i = index.get(facet)
            if i is None:
                raise RuntimeError(f"{facet} missing for {s}")
            col.append(i)
        columns.append(tuple(sorted(col)))
    return tuple(columns)


def facet_columns(f):
    """Every boundary column of a filtration, the filtration indices of one
    simplex's facets ascending, as a tuple of ints, read from its packed
    facets and dims arrays; ``boundary_columns`` finds the same columns
    through a dictionary over vertex tuples."""
    columns = [()] * len(f.dims)
    for k in range(1, len(f.facets)):
        below = np.flatnonzero(f.dims == k - 1)
        rows = np.sort(below[f.facets[k]], axis=1).tolist()
        for j, row in zip(np.flatnonzero(f.dims == k).tolist(), rows):
            columns[j] = tuple(row)
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


def fully_connected_eps(entries, rule):
    """Scale at which all vertices form one simplex: the largest entry of a
    distance matrix mapped through the edge rule (0 for a single point)."""
    return float(np.max(entries)) * (0.5 if rule == "paper-2eps" else 1.0)


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


def jacobi_eigh(a):
    """Cyclic Jacobi diagonalization of one small symmetric matrix, one
    rotation at a time: the per-node solver the mass-spring generator ran
    before it swept whole grids. Returns (eigenvalues, eigenvectors as
    columns), unsorted."""
    n = a.shape[0]
    a = a.copy()
    v = np.eye(n)
    scale = max(1.0, float(np.sqrt(np.sum(a * a))))
    for _ in range(50):
        off = math.sqrt(sum(a[p, q] ** 2 for p in range(n) for q in range(n) if p != q))
        if off <= 1e-13 * scale:
            return np.diagonal(a).copy(), v
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] == 0.0:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                a[p, q] = a[q, p] = 0.0
                v = v @ rot
    raise ArithmeticError("Jacobi eigensolver did not converge in 50 sweeps")


def chain_eigenvalues(cfg, t, alpha2, d2):
    """Sorted eigenvalues of M^-1 K for the 3DOF chain at one node, by
    ``jacobi_eigh`` on M^-1/2 K M^-1/2. ``cfg`` is read only through its
    masses and stiffnesses."""
    e = cfg.k2 * ((1.0 - alpha2 * t) * (1.0 - d2))
    k = np.array(
        [
            [cfg.k1 + e, -e, 0.0],
            [-e, e + cfg.k3, -cfg.k3],
            [0.0, -cfg.k3, cfg.k3 + cfg.k4],
        ]
    )
    inv_sqrt_m = 1.0 / np.sqrt(np.array([cfg.m1, cfg.m2, cfg.m3]))
    lams, _ = jacobi_eigh(k * inv_sqrt_m[:, None] * inv_sqrt_m[None, :])
    return np.sort(lams)


def msd_cloud(cfg, embed="eigenvalue"):
    """The mass-spring cloud built one node at a time: (T, alpha2, D2,
    value) row-major over the three linspace grids, each column with a
    positive maximum divided by it. ``embed`` "frequency" takes the
    square root of the mode's eigenvalue."""
    rows = []
    for t in np.linspace(cfg.t_min, cfg.t_max, cfg.t_divs):
        for a in np.linspace(cfg.alpha_min, cfg.alpha_max, cfg.alpha_divs):
            for d in np.linspace(cfg.d_min, cfg.d_max, cfg.d_divs):
                lam = chain_eigenvalues(cfg, t, a, d)[cfg.mode_index - 1]
                rows.append((t, a, d, lam if embed == "eigenvalue" else math.sqrt(lam)))
    coords = np.array(rows, dtype=np.float64)
    for j in range(coords.shape[1]):
        top = coords[:, j].max()
        if top > 0.0:
            coords[:, j] = coords[:, j] / top
    return coords


def read_barcode_rows(path):
    """(dims, births, deaths, eps_max) of a barcode CSV, parsed one row at
    a time with int() and float(): blank lines are skipped, a death of
    ``inf`` is infinite, and eps_max is the largest finite value present,
    or 0.0. A bad header or row raises ValueError naming the file and
    line, with the package's message."""
    dims, births, deaths = [], [], []
    top = 0.0
    with open(path, "r", newline="") as fh:
        header = fh.readline().strip()
        if header != "dim,birth,death":
            raise ValueError(f"{path}: expected header dim,birth,death, got {header!r}")
        for lineno, raw in enumerate(fh, start=2):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 fields")
            try:
                dim = int(parts[0])
                birth = float(parts[1])
                death = math.inf if parts[2] == "inf" else float(parts[2])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            if dim < 0:
                problem = f"dimension must be nonnegative, got {dim}"
            elif not math.isfinite(birth):
                problem = f"birth must be finite, got {birth}"
            elif not birth <= death:
                problem = f"interval must satisfy birth <= death, got [{birth}, {death}]"
            else:
                problem = None
            if problem:
                raise ValueError(f"{path}:{lineno}: {problem}")
            dims.append(dim)
            births.append(birth)
            deaths.append(death)
            top = max(top, birth, death if not math.isinf(death) else 0.0)
    return dims, births, deaths, top


def cost_pair(a, b, p):
    """p-th power of the L-infinity distance between finite intervals
    a = (birth, death) and b."""
    return max(abs(a[0] - b[0]), abs(a[1] - b[1])) ** p


def cost_diag(a, p):
    """p-th power of a finite interval's distance to the diagonal, half
    its length."""
    return ((a[1] - a[0]) / 2.0) ** p


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
    best = [math.inf]

    def assign(i, used, acc):
        if i == len(fin_l):
            rest = sum(cost_diag(fin_r[j], p) for j in range(len(fin_r)) if j not in used)
            best[0] = min(best[0], acc + rest)
            return
        assign(i + 1, used, acc + cost_diag(fin_l[i], p))  # drop to diagonal
        for j in range(len(fin_r)):
            if j not in used:
                assign(i + 1, used | {j}, acc + cost_pair(fin_l[i], fin_r[j], p))

    assign(0, frozenset(), 0.0)
    total = best_inf + best[0]
    return total ** (1.0 / p)


def dense_reduced_costs(left, right, p):
    """The n x m matrix of min(r, 0) for two barcodes of finite intervals,
    every cell filled: r = c(a, b) - delta(a) - delta(b), where c is the
    p-th power of the L-infinity distance and delta that of half a bar's
    length. The float operations are the sparse fill's, cell for cell."""
    c = np.maximum(
        np.abs(left.births[:, None] - right.births),
        np.abs(left.deaths[:, None] - right.deaths),
    )
    delta = [((b.deaths - b.births) / 2.0) ** p for b in (left, right)]
    return np.minimum(c**p - delta[0][:, None] - delta[1], 0.0)


def dense_matching_cost(left, right, p):
    """Minimal total p-th-power cost of matching two barcodes of finite
    intervals, by scipy's dense assignment over every reduced cost: the
    matched pairs (r < 0) are priced again, in left-bar order, and every
    other bar goes to the diagonal."""
    from scipy.optimize import linear_sum_assignment

    left_diag, right_diag = (((b.deaths - b.births) / 2.0) ** p for b in (left, right))
    if not (len(left) and len(right)):
        return float(left_diag.sum() + right_diag.sum())
    cost = dense_reduced_costs(left, right, p)
    rows, cols = linear_sum_assignment(cost)
    matched = cost[rows, cols] < 0.0
    rows, cols = rows[matched], cols[matched]
    pairs = np.maximum(
        np.abs(left.births[rows] - right.births[cols]),
        np.abs(left.deaths[rows] - right.deaths[cols]),
    ) ** p
    unmatched = np.delete(left_diag, rows), np.delete(right_diag, cols)
    return float(np.concatenate([pairs, *unmatched]).sum())


def euler_characteristic_from_counts(counts_by_dim):
    return sum((-1) ** k * n for k, n in counts_by_dim.items())


def apparent_pairs(columns):
    """Apparent pairs of a boundary matrix given as facet-index columns:
    the set of (sigma, tau) where sigma = max(column tau), tau's youngest
    facet, and tau is the smallest j whose column holds sigma, sigma's
    oldest coface."""
    oldest = {}
    for j, column in enumerate(columns):
        for i in column:
            oldest.setdefault(i, j)
    return {(max(col), j) for j, col in enumerate(columns) if col and oldest[max(col)] == j}


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
