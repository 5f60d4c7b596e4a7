import math

import numpy as np
import pytest

from phom import (
    DIAMETER_EPS,
    PAPER_2EPS,
    Filtration,
    InputError,
    PointCloud,
    ResourceError,
    Simplex,
    build_vr,
    distance_matrix,
    fully_connected_eps,
    gen_sphere_latlon,
    simplex_birth,
)
import phom.vr
from oracles import brute_force_vr

SQUARE = PointCloud([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def test_simplex_validation():
    s = Simplex([0, 3, 7])
    assert s.dim == 2 and tuple(s) == (0, 3, 7)
    with pytest.raises(InputError):
        Simplex([3, 0])
    with pytest.raises(InputError):
        Simplex([0, 0])
    with pytest.raises(InputError):
        Simplex([])


def test_simplex_facets_order():
    s = Simplex([1, 4, 6])
    assert [tuple(f) for f in s.facets()] == [(4, 6), (1, 6), (1, 4)]
    assert Simplex([2]).facets() == []


def test_simplex_birth_rules():
    dm = distance_matrix(SQUARE)
    assert simplex_birth(Simplex([3]), dm) == 0.0
    assert simplex_birth(Simplex([0, 1]), dm) == 0.5
    assert simplex_birth(Simplex([0, 1]), dm, DIAMETER_EPS) == 1.0
    # equilateral side 1: all pairs tie
    tri = distance_matrix(
        PointCloud([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    )
    assert math.isclose(simplex_birth(Simplex([0, 1, 2]), tri), 0.5, rel_tol=1e-15)
    with pytest.raises(InputError):
        simplex_birth(Simplex([0, 9]), dm)


def test_build_vr_square_counts():
    dm = distance_matrix(SQUARE)
    assert len(build_vr(dm, 0.6, 2)) == 8  # 4 vertices + 4 sides
    assert len(build_vr(dm, 0.75, 2)) == 14  # + 2 diagonals + 4 triangles


def test_build_vr_sorted_and_face_closed():
    rng = np.random.default_rng(8)
    dm = distance_matrix(PointCloud(rng.normal(size=(20, 3))))
    f = build_vr(dm, 0.9, 3)
    births = [b for _, b in f.simplices]
    keys = [(b, s.dim, tuple(s)) for s, b in f.simplices]
    assert keys == sorted(keys)
    assert all(b == 0.0 for s, b in f.simplices if s.dim == 0)
    f.check_face_closure()
    assert births[: f.n_vertices] == [0.0] * f.n_vertices


def test_build_vr_matches_brute_force():
    rng = np.random.default_rng(123)
    for rule in (PAPER_2EPS, DIAMETER_EPS):
        for _ in range(12):
            pts = rng.uniform(size=(rng.integers(4, 13), rng.integers(2, 4)))
            eps = float(rng.uniform(0.2, 0.8))
            max_dim = int(rng.integers(1, 4))
            f = build_vr(distance_matrix(PointCloud(pts)), eps, max_dim, edge_rule=rule)
            got = {tuple(s): b for s, b in f.simplices}
            want = brute_force_vr(pts, eps, max_dim, rule)
            assert got.keys() == want.keys()
            # births agree up to the summation-order ulp between math.dist
            # and the numpy pipeline
            for key, birth in want.items():
                assert math.isclose(got[key], birth, rel_tol=1e-12, abs_tol=1e-15)


def test_build_vr_order_and_births_bit_for_bit():
    # with births taken from the same distance matrix, the subset scan
    # sorted by (birth, dim, vertices) is the filtration exactly; the
    # grids repeat points and distances, so ties in birth are common
    rng = np.random.default_rng(124)
    clouds = [
        (PointCloud(rng.uniform(size=(rng.integers(4, 13), 2))), float(rng.uniform(0.2, 0.8)))
        for _ in range(8)
    ]
    clouds.append((gen_sphere_latlon(6, 4, include_u_endpoint=True, dedupe=False), 1.1))
    lattice = [[x, y] for x in range(3) for y in range(3)]
    clouds.append((PointCloud(lattice + lattice), 1.5))
    for rule in (PAPER_2EPS, DIAMETER_EPS):
        for cloud, eps in clouds:
            dm = distance_matrix(cloud)
            max_dim = min(3, dm.n - 1)
            want = brute_force_vr(cloud.coords, eps, max_dim, rule, entries=dm.entries)
            order = sorted(want.items(), key=lambda t: (t[1], len(t[0]), t[0]))
            f = build_vr(dm, eps, max_dim, edge_rule=rule)
            assert [(tuple(s), b) for s, b in f] == order


def test_build_vr_budget_is_exact(monkeypatch):
    # the count is checked block by block before rows are materialized:
    # a budget equal to the simplex count passes and one less is refused,
    # whether a dimension is expanded in one block or in many
    rng = np.random.default_rng(10)
    dm = distance_matrix(PointCloud(rng.normal(size=(30, 2))))
    whole = build_vr(dm, 1.2, 4)
    total = len(whole)
    for cells in (phom.vr._MASK_CELLS, 3 * dm.n):
        monkeypatch.setattr(phom.vr, "_MASK_CELLS", cells)
        f = build_vr(dm, 1.2, 4, max_simplices=total)
        assert f.simplices == whole.simplices
        with pytest.raises(ResourceError):
            build_vr(dm, 1.2, 4, max_simplices=total - 1)


def test_build_vr_key_range_guard():
    # 13 coincident-ish points among 200: the 12-dimensional clique is
    # tiny, but its keys would run to C(200, 13) > 2**63
    rng = np.random.default_rng(11)
    far = np.array([[10.0 * x, 10.0 * y] for x in range(17) for y in range(11)])
    pts = np.concatenate([rng.uniform(0.0, 0.01, size=(13, 2)), far + 100.0])
    dm = distance_matrix(PointCloud(pts))
    assert dm.n == 200
    assert build_vr(dm, 1.0, 11).counts_by_dim()[11] == 13
    with pytest.raises(ResourceError):
        build_vr(dm, 1.0, 12)


def test_build_vr_monotone_in_eps():
    rng = np.random.default_rng(77)
    pts = rng.normal(size=(15, 2))
    dm = distance_matrix(PointCloud(pts))
    eps_grid = sorted(rng.uniform(0.1, 2.0, size=4))
    sets = [
        {tuple(s) for s, _ in build_vr(dm, e, 2).simplices} for e in eps_grid
    ]
    for small, large in zip(sets, sets[1:]):
        assert small <= large


def test_build_vr_deterministic():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(25, 3))
    dm = distance_matrix(PointCloud(pts))
    a = build_vr(dm, 0.8, 3)
    b = build_vr(dm, 0.8, 3)
    assert a.simplices == b.simplices


def test_build_vr_budget():
    rng = np.random.default_rng(9)
    dm = distance_matrix(PointCloud(rng.normal(size=(30, 2))))
    with pytest.raises(ResourceError):
        build_vr(dm, 5.0, 5, max_simplices=1000)
    # a budget smaller than the vertex count dies immediately
    with pytest.raises(ResourceError):
        build_vr(dm, 0.1, 1, max_simplices=10)


def test_build_vr_validation():
    dm = distance_matrix(SQUARE)
    with pytest.raises(InputError):
        build_vr(dm, -1.0, 2)
    with pytest.raises(InputError):
        build_vr(dm, 0.5, 4)  # max_dim > n-1
    with pytest.raises(InputError):
        build_vr(dm, 0.5, 2, edge_rule="half-eps")


def test_fully_connected_eps():
    single = distance_matrix(PointCloud([[1.0, 2.0]]))
    assert fully_connected_eps(single) == 0.0
    pair = distance_matrix(PointCloud([[0.0], [2.0]]))
    assert fully_connected_eps(pair) == 1.0
    assert fully_connected_eps(pair, DIAMETER_EPS) == 2.0
    dm = distance_matrix(SQUARE)
    assert math.isclose(fully_connected_eps(dm), math.sqrt(2) / 2, rel_tol=1e-15)


def test_filtration_prefix_and_lookup():
    dm = distance_matrix(SQUARE)
    f = build_vr(dm, 1.0, 2)
    assert f.prefix_length(0.0) == 4
    assert f.prefix_length(0.5) == 8
    assert f.index_of(Simplex([0, 1])) >= 4
    with pytest.raises(InputError):
        f.index_of(Simplex([0, 2, 3, 9]))
    counts = f.counts_by_dim()
    assert counts[0] == 4 and counts[1] == 6 and counts[2] == 4


def test_check_face_closure_rejects_missing_and_late_faces():
    def packed(edges, edge_births):
        return Filtration(
            rows=(
                np.array([[0], [1], [2]], dtype=np.int32),
                np.array(edges, dtype=np.int32).reshape(-1, 2),
                np.array([[0, 1, 2]], dtype=np.int32),
            ),
            births=np.array([0.0, 0.0, 0.0, *edge_births, 1.0]),
            dims=np.array([0, 0, 0] + [1] * len(edges) + [2], dtype=np.int8),
            eps_max=2.0,
            max_dim=2,
            n_vertices=3,
        )

    packed([[0, 1], [0, 2], [1, 2]], [0.5, 0.6, 0.7]).check_face_closure()
    with pytest.raises(InputError):
        packed([[0, 1], [0, 2]], [0.5, 0.6]).check_face_closure()
    with pytest.raises(InputError):
        packed([[0, 1], [0, 2], [1, 2]], [0.5, 0.6, 1.5]).check_face_closure()
