import ast
import itertools
import math
import pathlib

import numpy as np
import pytest

import phom
from phom import (
    DIAMETER_EPS,
    PAPER_2EPS,
    InputError,
    PointCloud,
    betti_numbers,
    build_vr,
    distance_matrix,
    gen_sphere_latlon,
)
from phom.homology import coboundary
from oracles import (
    SignedChain,
    boundary_columns,
    boundary_signed,
    boundary_squared_is_zero,
    component_count,
    dense_betti,
    euler_characteristic_from_counts,
    facet_columns,
    prefix_length,
    simplices,
)


def test_oracles_import_nothing_from_phom():
    # the oracles are independent only if they share no code with the
    # package: no import of phom anywhere in the module, not even deferred
    tree = ast.parse(pathlib.Path(__file__).with_name("oracles.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert imported and not {m for m in imported if m.split(".")[0] == "phom"}


def test_package_layering():
    # persistence builds on vr and on homology's coboundary operator, never
    # the other way round, and every import sits at module level where the
    # dependency shows; the one exception is scipy, which the matching in
    # wasserstein.py imports where it is solved, so no other command loads it
    src = pathlib.Path(__file__).parents[1] / "src" / "phom"
    modules = sorted(src.glob("*.py"))
    assert len(modules) > 5
    for path in modules:
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    if not isinstance(node, (ast.Import, ast.ImportFrom)):
                        continue
                    assert (
                        path.name == "wasserstein.py"
                        and isinstance(node, ast.ImportFrom)
                        and node.module.startswith("scipy.")
                    ), f"{path.name}:{node.lineno}: import inside a function"
        if path.name not in ("vr.py", "homology.py"):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                named = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                # resolve a relative import against the package
                base = ".".join(filter(None, ["phom" if node.level else "", node.module]))
                named = [base] + [f"{base}.{alias.name}" for alias in node.names]
            else:
                continue
            assert "phom.persistence" not in named, (
                f"{path.name}:{node.lineno}: imports from phom.persistence"
            )


def test_block_size_has_one_home():
    # every blocked loop sizes its blocks from geometry.BLOCK_CELLS: no
    # other module assigns a module-level name containing BLOCK
    src = pathlib.Path(__file__).parents[1] / "src" / "phom"
    homes = []
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and "BLOCK" in name.id:
                        homes.append((path.name, name.id))
    assert homes == [("geometry.py", "BLOCK_CELLS")]


def test_public_names_have_callers():
    # every public name is used by the program itself, not only by tests:
    # some module other than __init__.py refers to it outside its own
    # top-level definition
    src = pathlib.Path(__file__).parents[1] / "src" / "phom"
    used = set()
    for path in src.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            defined = {getattr(top, "name", None)}
            if isinstance(top, ast.Assign):
                defined = {t.id for t in top.targets if isinstance(t, ast.Name)}
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name not in defined:
                    used.add(name)
    assert sorted(set(phom.__all__) - used) == []


def test_boundary_of_vertex_is_zero():
    assert boundary_signed((0,)).is_zero


def test_boundary_of_edge():
    chain = boundary_signed((0, 1))
    assert chain.coefficient((1,)) == 1
    assert chain.coefficient((0,)) == -1
    assert len(chain) == 2


def test_boundary_of_triangle():
    chain = boundary_signed((0, 1, 2))
    assert chain.coefficient((1, 2)) == 1
    assert chain.coefficient((0, 2)) == -1
    assert chain.coefficient((0, 1)) == 1


def test_boundary_squared_small():
    assert boundary_squared_is_zero((0, 1, 2)).is_zero
    assert boundary_squared_is_zero((0, 1)).is_zero


def test_boundary_squared_exhaustive_to_dim5():
    rng = np.random.default_rng(31)
    for dim in range(6):
        # the canonical vertex set and a few random ascending ones
        vertex_sets = [tuple(range(dim + 1))]
        for _ in range(5):
            verts = np.sort(rng.choice(50, size=dim + 1, replace=False))
            vertex_sets.append(tuple(int(v) for v in verts))
        for verts in vertex_sets:
            assert boundary_squared_is_zero(verts).is_zero


def test_signed_chain_algebra():
    a = SignedChain([((0, 1), 2)])
    b = SignedChain([((0, 1), -2)])
    assert (a + b).is_zero
    assert a - a == SignedChain()
    assert (3 * a).coefficient((0, 1)) == 6
    # commutative addition
    c = SignedChain([((1, 2), 1)])
    assert a + c == c + a


def test_boundary_matrix_single_edge():
    dm = distance_matrix(PointCloud([[0.0], [1.0]]))
    assert facet_columns(build_vr(dm, 1.0, 1)) == ((), (), (0, 1))


def test_boundary_matrix_filled_triangle():
    pts = PointCloud([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    f = build_vr(distance_matrix(pts), 1.0, 2)
    assert len(f) == 7
    assert len(facet_columns(f)[6]) == 3  # the triangle has k+1 = 3 facets


def test_boundary_matrix_panics_on_missing_face():
    # a filtration missing a face is an internal invariant violation,
    # not user input, so it surfaces as a plain RuntimeError as soon as
    # the filtration is made
    from phom import Filtration

    # the triangle's facet 0 points one past the last edge
    with pytest.raises(RuntimeError):
        Filtration(
            facets=(
                np.empty((3, 0), dtype=np.int32),
                np.array([[1, 0], [2, 0]], dtype=np.int32),
                np.array([[2, 1, 0]], dtype=np.int32),
            ),
            births=np.array([0.0, 0.0, 0.0, 0.5, 0.5, 1.0]),
            dims=np.array([0, 0, 0, 1, 1, 2], dtype=np.int8),
            eps_max=1.0,
        )


def test_boundary_matrix_matches_dict_oracle(monkeypatch):
    # build_vr records facets as it grows cliques; the oracle finds them by
    # a dictionary over vertex tuples. The filtration's facet arrays are
    # the boundary operator, and each dimension's coboundary rows, each
    # ascending, must be the transpose of the oracle's columns, with each
    # coface given as its position among the (k + 1)-simplices, on random
    # clouds, on a grid with duplicate points and on a complex that empties
    # out below max_dim, with siblings joined in one block, in blocks of
    # about three simplices so that facet lookups cross block boundaries,
    # and one simplex per block
    rng = np.random.default_rng(41)
    cases = []
    for rule in (PAPER_2EPS, DIAMETER_EPS):
        for _ in range(6):
            pts = rng.uniform(size=(int(rng.integers(5, 25)), 3))
            cases.append((PointCloud(pts), float(rng.uniform(0.3, 0.9)), 3, rule))
    grid = gen_sphere_latlon(8, 5, include_u_endpoint=True, dedupe=False)
    cases.append((grid, 0.9, 3, DIAMETER_EPS))
    # one triangle and a path of three far points: dimensions 3 and 4 are empty
    sparse = PointCloud([[0, 0], [1, 0], [0.5, 0.8], [5, 0], [6, 0], [7, 0]])
    cases.append((sparse, 1.0, 4, DIAMETER_EPS))
    whole = phom.vr.BLOCK_CELLS
    for cloud, eps, max_dim, rule in cases:
        dm = distance_matrix(cloud)
        for pairs in (whole, 3 * dm.n, 1):
            monkeypatch.setattr(phom.vr, "BLOCK_CELLS", pairs)
            f = build_vr(dm, eps, max_dim, edge_rule=rule)
            if cloud is sparse:
                assert f.counts_by_dim() == {0: 6, 1: 5, 2: 1}
            pairs = simplices(f)
            columns = boundary_columns(pairs)
            rows = [[] for _ in columns]
            for j, col in enumerate(columns):
                for i in col:
                    rows[i].append(j)
            for k in range(max_dim):
                indptr, cofaces = coboundary(f, k)
                here = [i for i, (s, _) in enumerate(pairs) if len(s) == k + 1]
                up = [i for i, (s, _) in enumerate(pairs) if len(s) == k + 2]
                assert indptr.dtype == np.int64 and cofaces.dtype == np.int32
                assert indptr.tolist() == np.cumsum([0] + [len(rows[i]) for i in here]).tolist()
                got = [cofaces[a:b].tolist() for a, b in zip(indptr[:-1], indptr[1:])]
                assert all(r == sorted(r) for r in got)
                assert [[up[j] for j in r] for r in got] == [rows[i] for i in here]
            assert facet_columns(f) == columns
            assert f.births.tolist() == [b for _, b in pairs]
            assert f.dims.tolist() == [len(s) - 1 for s, _ in pairs]


def test_boundary_matrix_entries_precede_column():
    rng = np.random.default_rng(4)
    dm = distance_matrix(PointCloud(rng.normal(size=(15, 3))))
    f = build_vr(dm, 0.8, 3)
    for j, col in enumerate(facet_columns(f)):
        assert all(i < j for i in col)
        k = f.dims[j]
        assert len(col) == (0 if k == 0 else k + 1)


def test_boundary_matrix_gf2_product_is_zero():
    # boundary-of-boundary over GF(2): xor of facet columns must vanish
    rng = np.random.default_rng(12)
    dm = distance_matrix(PointCloud(rng.normal(size=(10, 2))))
    f = build_vr(dm, 0.9, 3)
    columns = facet_columns(f)
    assert len(f) <= 200
    for j, col in enumerate(columns):
        acc: set = set()
        for i in col:
            acc ^= set(columns[i])
        assert not acc


def test_betti_circle():
    # 20 points on the unit circle, eps just above half the neighbor gap:
    # one loop, one component
    ang = 2 * np.pi * np.arange(20) / 20
    pts = PointCloud(np.stack([np.cos(ang), np.sin(ang)], axis=1))
    f = build_vr(distance_matrix(pts), 0.16, 2)
    assert betti_numbers(f, 0.16, 1) == [1, 1]


def test_betti_flat_torus():
    # product of two 8-point circles in R^4: one component, two
    # independent loops, one enclosed 2D cavity once the grid squares
    # are triangulated (diagonals enter at 1.5x the neighbor spacing)
    ng = 8
    a = 2 * np.pi * np.arange(ng) / ng
    pts = [
        (np.cos(a[i]), np.sin(a[i]), np.cos(a[j]), np.sin(a[j]))
        for i in range(ng)
        for j in range(ng)
    ]
    from phom import DIAMETER_EPS

    eps = 1.5 * 2.0 * np.sin(np.pi / ng)
    dm = distance_matrix(PointCloud(pts))
    f = build_vr(dm, eps, 3, edge_rule=DIAMETER_EPS)
    assert betti_numbers(f, eps, 2) == [1, 2, 1]


def test_betti_disjoint_points():
    pts = PointCloud([[0.0], [10.0], [20.0], [30.0]])
    f = build_vr(distance_matrix(pts), 1.0, 1)
    assert betti_numbers(f, 1.0, 0) == [4]


def test_betti_validation():
    dm = distance_matrix(PointCloud([[0.0], [1.0]]))
    f = build_vr(dm, 1.0, 1)
    with pytest.raises(InputError):
        betti_numbers(f, 1.0, 1)  # needs (k+1)-simplices: max_k < max_dim
    for eps in (2.0, math.inf, math.nan, -0.5):  # beyond the filtration, or no scale
        with pytest.raises(InputError):
            betti_numbers(f, eps, 0)


def test_betti_matches_dense_gf2_oracle():
    rng = np.random.default_rng(99)
    for _ in range(6):
        pts = rng.uniform(size=(int(rng.integers(5, 11)), 2))
        dm = distance_matrix(PointCloud(pts))
        f = build_vr(dm, 2.0, 4)
        pairs = simplices(f)
        for eps in sorted(set(f.births.tolist())):
            got = betti_numbers(f, eps, 3)
            cut = prefix_length(f, eps)
            present = [s for s, _ in pairs[:cut]]
            assert got == dense_betti(present, 3)


def test_betti0_equals_union_find():
    rng = np.random.default_rng(55)
    pts = rng.normal(size=(18, 2))
    dm = distance_matrix(PointCloud(pts))
    f = build_vr(dm, 3.0, 1)
    pairs = simplices(f)
    for eps in sorted(set(f.births.tolist())):
        edges = [s for s, b in pairs if len(s) == 2 and b <= eps]
        assert betti_numbers(f, eps, 0) == [component_count(18, edges)]


def test_euler_characteristic_identity():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(5, 12))
        pts = rng.uniform(size=(n, 3))
        dm = distance_matrix(PointCloud(pts))
        f = build_vr(dm, 1.5, n - 1)
        births = sorted(set(f.births.tolist()))
        for eps in births[:: max(1, len(births) // 5)]:
            cut = prefix_length(f, eps)
            counts = np.bincount(f.dims[:cut]).tolist()
            chi_counts = euler_characteristic_from_counts(dict(enumerate(counts)))
            betti = betti_numbers(f, eps, n - 2)
            chi_betti = sum((-1) ** k * b for k, b in enumerate(betti))
            assert chi_counts == chi_betti
