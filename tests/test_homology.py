import itertools
import math

import numpy as np
import pytest

from phom import (
    DIAMETER_EPS,
    PAPER_2EPS,
    InputError,
    PointCloud,
    Simplex,
    betti_numbers,
    build_boundary_matrix,
    build_vr,
    distance_matrix,
    gen_sphere_latlon,
)
from oracles import (
    SignedChain,
    boundary_columns,
    boundary_signed,
    boundary_squared_is_zero,
    component_count,
    dense_betti,
)


def test_boundary_of_vertex_is_zero():
    assert boundary_signed(Simplex([0])).is_zero


def test_boundary_of_edge():
    chain = boundary_signed(Simplex([0, 1]))
    assert chain.coefficient(Simplex([1])) == 1
    assert chain.coefficient(Simplex([0])) == -1
    assert len(chain) == 2


def test_boundary_of_triangle():
    chain = boundary_signed(Simplex([0, 1, 2]))
    assert chain.coefficient(Simplex([1, 2])) == 1
    assert chain.coefficient(Simplex([0, 2])) == -1
    assert chain.coefficient(Simplex([0, 1])) == 1


def test_boundary_squared_small():
    assert boundary_squared_is_zero(Simplex([0, 1, 2])).is_zero
    assert boundary_squared_is_zero(Simplex([0, 1])).is_zero


def test_boundary_squared_exhaustive_to_dim5():
    rng = np.random.default_rng(31)
    for dim in range(6):
        # the canonical vertex set and a few random ascending ones
        vertex_sets = [tuple(range(dim + 1))]
        for _ in range(5):
            verts = np.sort(rng.choice(50, size=dim + 1, replace=False))
            vertex_sets.append(tuple(int(v) for v in verts))
        for verts in vertex_sets:
            assert boundary_squared_is_zero(Simplex(verts)).is_zero


def test_signed_chain_algebra():
    a = SignedChain([(Simplex([0, 1]), 2)])
    b = SignedChain([(Simplex([0, 1]), -2)])
    assert (a + b).is_zero
    assert a - a == SignedChain()
    assert (3 * a).coefficient(Simplex([0, 1])) == 6
    # commutative addition
    c = SignedChain([(Simplex([1, 2]), 1)])
    assert a + c == c + a


def test_boundary_matrix_single_edge():
    dm = distance_matrix(PointCloud([[0.0], [1.0]]))
    bm = build_boundary_matrix(build_vr(dm, 1.0, 1))
    assert bm.columns == ((), (), (0, 1))


def test_boundary_matrix_filled_triangle():
    pts = PointCloud([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    bm = build_boundary_matrix(build_vr(distance_matrix(pts), 1.0, 2))
    assert bm.n_columns == 7
    assert len(bm.columns[6]) == 3  # the triangle has k+1 = 3 facets


def test_boundary_matrix_panics_on_missing_face():
    # a filtration missing a face is an internal invariant violation,
    # not user input, so it surfaces as a plain RuntimeError
    from phom import Filtration

    broken = Filtration(
        rows=(
            np.array([[0], [1]], dtype=np.int32),
            np.empty((0, 2), dtype=np.int32),
            np.array([[0, 1, 2]], dtype=np.int32),
        ),
        births=np.array([0.0, 0.0, 1.0]),
        dims=np.array([0, 0, 2], dtype=np.int8),
        eps_max=1.0,
        max_dim=2,
        n_vertices=3,
    )
    with pytest.raises(RuntimeError):
        build_boundary_matrix(broken)


def test_boundary_matrix_matches_dict_oracle():
    # the packed builder finds facets by key; the oracle by a dictionary
    # over Simplex.facets. Columns must agree for whole filtrations and
    # for prefixes, on random clouds and on a grid with duplicate points
    rng = np.random.default_rng(41)
    cases = []
    for rule in (PAPER_2EPS, DIAMETER_EPS):
        for _ in range(6):
            pts = rng.uniform(size=(int(rng.integers(5, 25)), 3))
            cases.append((PointCloud(pts), float(rng.uniform(0.3, 0.9)), 3, rule))
    grid = gen_sphere_latlon(8, 5, include_u_endpoint=True, dedupe=False)
    cases.append((grid, 0.9, 3, DIAMETER_EPS))
    for cloud, eps, max_dim, rule in cases:
        f = build_vr(distance_matrix(cloud), eps, max_dim, edge_rule=rule)
        simplices = f.simplices
        bm = build_boundary_matrix(f)
        assert bm.columns == boundary_columns(simplices)
        assert bm.births.tolist() == [b for _, b in simplices]
        assert bm.dims.tolist() == [s.dim for s, _ in simplices]
        cut = f.prefix_length(eps / 2)
        assert build_boundary_matrix(f, cut).columns == boundary_columns(simplices[:cut])


def test_boundary_matrix_entries_precede_column():
    rng = np.random.default_rng(4)
    dm = distance_matrix(PointCloud(rng.normal(size=(15, 3))))
    bm = build_boundary_matrix(build_vr(dm, 0.8, 3))
    for j, col in enumerate(bm.columns):
        assert all(i < j for i in col)
        k = bm.dims[j]
        assert len(col) == (0 if k == 0 else k + 1)


def test_boundary_matrix_gf2_product_is_zero():
    # boundary-of-boundary over GF(2): xor of facet columns must vanish
    rng = np.random.default_rng(12)
    dm = distance_matrix(PointCloud(rng.normal(size=(10, 2))))
    f = build_vr(dm, 0.9, 3)
    bm = build_boundary_matrix(f)
    assert bm.n_columns <= 200
    for j, col in enumerate(bm.columns):
        acc: set = set()
        for i in col:
            acc ^= set(bm.columns[i])
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
    with pytest.raises(InputError):
        betti_numbers(f, 2.0, 0)  # eps beyond the filtration


def test_betti_matches_dense_gf2_oracle():
    rng = np.random.default_rng(99)
    for _ in range(6):
        pts = rng.uniform(size=(int(rng.integers(5, 11)), 2))
        dm = distance_matrix(PointCloud(pts))
        f = build_vr(dm, 2.0, 4)
        births = sorted({b for _, b in f.simplices})
        for eps in births:
            got = betti_numbers(f, eps, 3)
            cut = f.prefix_length(eps)
            present = [tuple(s) for s, _ in f.simplices[:cut]]
            assert got == dense_betti(present, 3)


def test_betti0_equals_union_find():
    rng = np.random.default_rng(55)
    pts = rng.normal(size=(18, 2))
    dm = distance_matrix(PointCloud(pts))
    f = build_vr(dm, 3.0, 1)
    births = sorted({b for _, b in f.simplices})
    for eps in births:
        edges = [
            (s[0], s[1]) for s, b in f.simplices if s.dim == 1 and b <= eps
        ]
        assert betti_numbers(f, eps, 0) == [component_count(18, edges)]


def test_euler_characteristic_identity():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(5, 12))
        pts = rng.uniform(size=(n, 3))
        dm = distance_matrix(PointCloud(pts))
        f = build_vr(dm, 1.5, n - 1)
        births = sorted({b for _, b in f.simplices})
        for eps in births[:: max(1, len(births) // 5)]:
            cut = f.prefix_length(eps)
            dims = [s.dim for s, _ in f.simplices[:cut]]
            chi_counts = sum((-1) ** d for d in dims)
            betti = betti_numbers(f, eps, n - 2)
            chi_betti = sum((-1) ** k * b for k, b in enumerate(betti))
            assert chi_counts == chi_betti
