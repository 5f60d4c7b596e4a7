import math
import tracemalloc

import numpy as np
import pytest

from phom import (
    DIAMETER_EPS,
    PAPER_2EPS,
    Filtration,
    InputError,
    PointCloud,
    ResourceError,
    build_vr,
    distance_matrix,
    gen_fibonacci_sphere,
    gen_sphere_latlon,
)
import phom.vr
from oracles import brute_force_vr, check_face_closure, prefix_length, simplices

SQUARE = PointCloud([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def test_build_vr_square_counts():
    dm = distance_matrix(SQUARE)
    assert len(build_vr(dm, 0.6, 2)) == 8  # 4 vertices + 4 sides
    assert len(build_vr(dm, 0.75, 2)) == 14  # + 2 diagonals + 4 triangles


def test_build_vr_sorted_and_face_closed():
    rng = np.random.default_rng(8)
    dm = distance_matrix(PointCloud(rng.normal(size=(20, 3))))
    f = build_vr(dm, 0.9, 3)
    pairs = simplices(f)
    keys = [(b, len(s), s) for s, b in pairs]
    assert keys == sorted(keys)
    assert all(b == 0.0 for s, b in pairs if len(s) == 1)
    check_face_closure(pairs)
    n = f.counts_by_dim()[0]
    assert [s for s, _ in pairs[:n]] == [(j,) for j in range(n)]
    assert [b for _, b in pairs[:n]] == [0.0] * n


def test_build_vr_matches_brute_force():
    rng = np.random.default_rng(123)
    for rule in (PAPER_2EPS, DIAMETER_EPS):
        for _ in range(12):
            pts = rng.uniform(size=(rng.integers(4, 13), rng.integers(2, 4)))
            eps = float(rng.uniform(0.2, 0.8))
            max_dim = int(rng.integers(1, 4))
            f = build_vr(distance_matrix(PointCloud(pts)), eps, max_dim, edge_rule=rule)
            got = dict(simplices(f))
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
            assert simplices(f) == order


def test_build_vr_child_index_matches_brute_force(monkeypatch):
    # facets i < k - 1 come from a child index that dimension k - 1 fills
    # for k >= 3, and births from ranks; from max_dim 4 on one index is
    # read while the next is filled. The grids tie births, and the order
    # must be the subset scan's bit for bit, whether a dimension grows in
    # one block, in blocks of a few simplices or one simplex per block. No
    # index is built at max_dim 0, 1 and 2, and the hub's spokes make
    # candidates for dimension 2 but no triangle, so it is empty below
    # max_dim
    rng = np.random.default_rng(125)
    lattice = [[x, y] for x in range(3) for y in range(3)]
    angles = 2 * np.pi * np.arange(5) / 5
    hub = np.concatenate([[[0.0, 0.0]], np.stack([np.cos(angles), np.sin(angles)], 1)])
    clouds = [
        (PointCloud(lattice + lattice), {DIAMETER_EPS: 1.5, PAPER_2EPS: 1.0}, 6),
        (PointCloud(np.round(rng.uniform(size=(14, 2)), 1)), {DIAMETER_EPS: 0.45, PAPER_2EPS: 0.25}, 6),
        (PointCloud(hub), {DIAMETER_EPS: 1.1, PAPER_2EPS: 0.55}, 2),
    ]
    whole = phom.vr.BLOCK_CELLS
    for cloud, eps, largest in clouds:
        dm = distance_matrix(cloud)
        for rule in (PAPER_2EPS, DIAMETER_EPS):
            want = brute_force_vr(cloud.coords, eps[rule], 5, rule, entries=dm.entries)
            assert max(len(s) for s in want) == largest
            for max_dim in (0, 1, 2, 4, 5):
                order = sorted(
                    ((s, b) for s, b in want.items() if len(s) <= max_dim + 1),
                    key=lambda t: (t[1], len(t[0]), t[0]),
                )
                for pairs in (whole, 7, 1):
                    monkeypatch.setattr(phom.vr, "BLOCK_CELLS", pairs)
                    f = build_vr(dm, eps[rule], max_dim, edge_rule=rule)
                    assert simplices(f) == order


def test_build_vr_budget_is_exact(monkeypatch):
    # the count is checked block by block before facets are made: a
    # budget equal to the simplex count passes and one less is refused,
    # whether a dimension is grown in one block, in many, or one simplex
    # per block
    rng = np.random.default_rng(10)
    dm = distance_matrix(PointCloud(rng.normal(size=(30, 2))))
    whole = build_vr(dm, 1.2, 4)
    total = len(whole)
    for pairs in (phom.vr.BLOCK_CELLS, 3 * dm.n, 1):
        monkeypatch.setattr(phom.vr, "BLOCK_CELLS", pairs)
        f = build_vr(dm, 1.2, 4, max_simplices=total)
        assert simplices(f) == simplices(whole)
        with pytest.raises(ResourceError):
            build_vr(dm, 1.2, 4, max_simplices=total - 1)


def test_build_vr_child_index_budget(monkeypatch):
    # the child index costs 4 B per candidate pair of its dimension: the
    # square's six edges make four pairs for dimension 2, so a 16 B memory
    # budget holds the index and 15 B refuses it before it is made; the
    # simplex cap is given, as these budgets price no simplex at all
    dm = distance_matrix(SQUARE)
    monkeypatch.setattr(phom.geometry, "DEFAULT_MEMORY_BUDGET_BYTES", 16)
    f = build_vr(dm, 0.75, 3, max_simplices=15)
    assert f.counts_by_dim() == {0: 4, 1: 6, 2: 4, 3: 1}
    monkeypatch.setattr(phom.geometry, "DEFAULT_MEMORY_BUDGET_BYTES", 15)
    with pytest.raises(ResourceError, match="child index of dimension 2"):
        build_vr(dm, 0.75, 3, max_simplices=15)


def test_build_vr_default_cap_reads_the_budget(monkeypatch):
    # the default simplex cap is what geometry's memory budget leaves after
    # the distance matrix, over the price of a simplex, read when build_vr
    # is called: 192,000 B past the matrix caps the 4,202 simplices of the
    # 500-point sphere at 0.25 to 1,000
    dm = distance_matrix(gen_fibonacci_sphere(500))
    assert len(build_vr(dm, 0.25, 3, DIAMETER_EPS)) == 4_202
    price = phom.vr.ESTIMATED_BYTES_PER_SIMPLEX
    budget = dm.entries.nbytes + 1_000 * price
    monkeypatch.setattr(phom.geometry, "DEFAULT_MEMORY_BUDGET_BYTES", budget)
    with pytest.raises(ResourceError, match="more than 1000 simplices"):
        build_vr(dm, 0.25, 3, DIAMETER_EPS)
    assert len(build_vr(dm, 0.25, 3, DIAMETER_EPS, max_simplices=4_202)) == 4_202
    # a budget below one vertex's price is a resource limit, not bad input
    budget = dm.entries.nbytes + price - 1
    monkeypatch.setattr(phom.geometry, "DEFAULT_MEMORY_BUDGET_BYTES", budget)
    with pytest.raises(ResourceError, match="budget of 0 simplices"):
        build_vr(dm, 0.25, 3, DIAMETER_EPS)


def test_build_vr_default_cap_leaves_room_for_the_matrix(monkeypatch):
    # the 500-point matrix holds 8 * 500^2 = 2,000,000 B, so a budget one
    # byte short of it plus 4,202 simplices' price refuses the complex,
    # which the whole budget over the price alone would admit
    dm = distance_matrix(gen_fibonacci_sphere(500))
    assert dm.entries.nbytes == 2_000_000
    need = 2_000_000 + 4_202 * phom.vr.ESTIMATED_BYTES_PER_SIMPLEX
    monkeypatch.setattr(phom.geometry, "DEFAULT_MEMORY_BUDGET_BYTES", need - 1)
    with pytest.raises(ResourceError, match="more than 4201 simplices"):
        build_vr(dm, 0.25, 3, DIAMETER_EPS)
    monkeypatch.setattr(phom.geometry, "DEFAULT_MEMORY_BUDGET_BYTES", need)
    assert len(build_vr(dm, 0.25, 3, DIAMETER_EPS)) == 4_202


def test_build_vr_hub_budget_counts_simplices(monkeypatch):
    # a centre with five points on a unit circle around it, at a scale
    # that admits the spokes but no chord (2 sin 36 deg = 1.18): the spokes
    # are siblings, so dimension 2 has C(5, 2) = 10 candidate pairs and no
    # triangle, and the budget counts the 11 simplices, not the candidates
    angles = 2 * np.pi * np.arange(5) / 5
    pts = np.concatenate([[[0.0, 0.0]], np.stack([np.cos(angles), np.sin(angles)], 1)])
    dm = distance_matrix(PointCloud(pts))
    for pairs in (phom.vr.BLOCK_CELLS, 1):
        monkeypatch.setattr(phom.vr, "BLOCK_CELLS", pairs)
        for rule, eps in ((DIAMETER_EPS, 1.1), (PAPER_2EPS, 0.55)):
            f = build_vr(dm, eps, 2, edge_rule=rule, max_simplices=11)
            assert f.counts_by_dim() == {0: 6, 1: 5}
            want = brute_force_vr(pts, eps, 2, rule, entries=dm.entries)
            assert dict(simplices(f)) == want
            with pytest.raises(ResourceError):
                build_vr(dm, eps, 2, edge_rule=rule, max_simplices=10)


def test_build_vr_high_dimension_among_many_vertices():
    # 13 coincident-ish points among 200: the 12-dimensional clique is one
    # simplex, however large C(200, 13) is, and it matches the subset scan
    rng = np.random.default_rng(11)
    far = np.array([[10.0 * x, 10.0 * y] for x in range(17) for y in range(11)])
    pts = np.concatenate([rng.uniform(0.0, 0.01, size=(13, 2)), far + 100.0])
    dm = distance_matrix(PointCloud(pts))
    assert dm.n == 200
    assert build_vr(dm, 1.0, 11).counts_by_dim()[11] == 13
    f = build_vr(dm, 1.0, 12)
    assert f.counts_by_dim()[12] == 1
    got = dict(simplices(f))
    want = brute_force_vr(pts[:13], 1.0, 12, entries=dm.entries)
    assert len(got) == len(want) + 187
    assert {s: b for s, b in got.items() if len(s) > 1} == {
        s: b for s, b in want.items() if len(s) > 1
    }


def test_build_vr_monotone_in_eps():
    rng = np.random.default_rng(77)
    pts = rng.normal(size=(15, 2))
    dm = distance_matrix(PointCloud(pts))
    eps_grid = sorted(rng.uniform(0.1, 2.0, size=4))
    sets = [
        {s for s, _ in simplices(build_vr(dm, e, 2))} for e in eps_grid
    ]
    for small, large in zip(sets, sets[1:]):
        assert small <= large


def test_build_vr_deterministic():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(25, 3))
    dm = distance_matrix(PointCloud(pts))
    a = build_vr(dm, 0.8, 3)
    b = build_vr(dm, 0.8, 3)
    assert simplices(a) == simplices(b)


def test_build_vr_reads_distances_in_place():
    # adjacency is read off the distance matrix, never copied into an
    # n x n mask: on a sparse 3,000-point sphere build_vr peaks far below
    # n^2 bytes above its input (about 2 MB; a bool mask alone is 9 MB)
    n = 3000
    dm = distance_matrix(gen_fibonacci_sphere(n))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        f = build_vr(dm, 0.1, 3, DIAMETER_EPS)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert f.counts_by_dim() == {0: 3000, 1: 10134, 2: 8276, 3: 1140}
    assert peak < n * n


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
    for eps in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(InputError):
            build_vr(dm, eps, 2)
    with pytest.raises(InputError):
        build_vr(dm, 0.5, 4)  # max_dim > n-1
    with pytest.raises(InputError):
        build_vr(dm, 0.5, 2, edge_rule="half-eps")


def test_filtration_prefix_and_lookup():
    dm = distance_matrix(SQUARE)
    f = build_vr(dm, 1.0, 2)
    assert prefix_length(f, 0.0) == 4
    assert prefix_length(f, 0.5) == 8
    assert (0, 1) in [s for s, _ in simplices(f)[4:8]]
    counts = f.counts_by_dim()
    assert counts[0] == 4 and counts[1] == 6 and counts[2] == 4


def test_check_face_closure_rejects_missing_and_late_faces():
    # the oracle behind the face-closure checks above must itself refuse a
    # missing face and a face born after its coface
    triangle = (0, 1, 2)
    edges = [((0, 1), 0.5), ((0, 2), 0.6), ((1, 2), 0.7)]
    vertices = [((0,), 0.0), ((1,), 0.0), ((2,), 0.0)]
    check_face_closure(vertices + edges + [(triangle, 1.0)])
    with pytest.raises(AssertionError, match="missing"):
        check_face_closure(vertices + edges[:2] + [(triangle, 1.0)])
    with pytest.raises(AssertionError, match="born after"):
        check_face_closure(vertices + edges[:2] + [((1, 2), 1.5), (triangle, 1.0)])


def test_simplices_oracle_reads_facets():
    # the oracle rebuilds vertex tuples from the facet arrays and refuses
    # facets that are not the tuple without one vertex
    def packed(triangle_facets):
        return Filtration(
            facets=(
                np.empty((3, 0), dtype=np.int32),
                np.array([[1, 0], [2, 0], [2, 1]], dtype=np.int32),
                np.array([triangle_facets], dtype=np.int32),
            ),
            births=np.array([0.0, 0.0, 0.0, 0.5, 0.6, 0.7, 1.0]),
            dims=np.array([0, 0, 0, 1, 1, 1, 2], dtype=np.int8),
            eps_max=2.0,
        )

    assert [s for s, _ in simplices(packed([2, 1, 0]))] == [
        (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)
    ]
    with pytest.raises(AssertionError):
        simplices(packed([1, 2, 0]))
