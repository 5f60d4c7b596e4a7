import math

import numpy as np
import pytest

from phom import (
    DIAMETER_EPS,
    Barcode,
    InputError,
    PersistenceInterval,
    PointCloud,
    betti_curve,
    build_boundary_matrix,
    build_vr,
    distance_matrix,
    gen_fibonacci_sphere,
    intervals,
    read_barcode_csv,
    reduce,
    write_barcode_csv,
)
from oracles import dense_betti, left_to_right_pairing, prefix_length, simplices

SQUARE = PointCloud([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def make_filtration(pts, eps, max_dim):
    return build_vr(distance_matrix(PointCloud(pts)), eps, max_dim)


def test_interval_validation():
    iv = PersistenceInterval(0, 0.0, math.inf)
    assert math.isinf(iv.death) and iv.death - iv.birth == math.inf
    with pytest.raises(InputError):
        PersistenceInterval(0, 2.0, 1.0)
    with pytest.raises(InputError):
        PersistenceInterval(-1, 0.0, 1.0)


def test_reduce_single_vertex():
    bm = build_boundary_matrix(make_filtration([[0.0]], 1.0, 0))
    pairing = reduce(bm)
    assert pairing.pairs.tolist() == [] and pairing.unpaired.tolist() == [0]


def test_reduce_two_vertices_one_edge():
    bm = build_boundary_matrix(make_filtration([[0.0], [1.0]], 1.0, 1))
    pairing = reduce(bm)
    # the later vertex dies when the edge arrives; the earlier survives
    assert pairing.pairs.tolist() == [[1, 2]]
    assert pairing.unpaired.tolist() == [0]


def test_reduce_filled_triangle():
    pts = [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]]
    bm = build_boundary_matrix(make_filtration(pts, 1.0, 2))
    pairing = reduce(bm)
    assert len(pairing.pairs) == 3  # (v,e) x2 and (e,t)
    assert pairing.unpaired.tolist() == [0]
    dims = [(bm.dims[i], bm.dims[j]) for i, j in pairing.pairs]
    assert dims.count((0, 1)) == 2 and dims.count((1, 2)) == 1


def test_reduce_conservation():
    rng = np.random.default_rng(17)
    for _ in range(10):
        pts = rng.uniform(size=(int(rng.integers(3, 12)), 2))
        bm = build_boundary_matrix(make_filtration(pts, 1.2, 3))
        pairing = reduce(bm)
        assert 2 * len(pairing.pairs) + len(pairing.unpaired) == bm.n_columns


def test_reduce_strategies_agree():
    # the cohomology reduction against the left-to-right oracle, bit for bit
    rng = np.random.default_rng(29)
    cases = []
    for _ in range(10):
        pts = rng.uniform(size=(int(rng.integers(4, 14)), 3))
        cases.append(make_filtration(pts, 1.0, 3))
    fib = gen_fibonacci_sphere(500)
    cases.append(build_vr(distance_matrix(fib), 0.25, 3, edge_rule=DIAMETER_EPS))
    assert len(cases[-1]) == 4202
    # the 3-skeleton of a 4-simplex is a 3-sphere, so one tetrahedron
    # stays unpaired at the top dimension
    cases.append(make_filtration(np.eye(5), 1.0, 3))
    for f in cases:
        bm = build_boundary_matrix(f)
        pairing = reduce(bm)
        pairs, unpaired = left_to_right_pairing(bm.columns)
        assert pairing.pairs.tolist() == [list(p) for p in pairs]
        assert pairing.unpaired.tolist() == list(unpaired)
        # every death below the top is met again one dimension up, and cleared
        deaths_below_top = np.count_nonzero(bm.dims[pairing.pairs[:, 1]] < f.max_dim)
        assert pairing.cleared_columns == deaths_below_top
    assert bm.dims[pairing.unpaired].tolist() == [0, 3]


def test_reduce_returns_packed_arrays():
    # the 3-skeleton of the 4-simplex: 30 simplices, 14 pairs, 2 unpaired
    pairing = reduce(build_boundary_matrix(make_filtration(np.eye(5), 1.0, 3)))
    assert pairing.pairs.dtype == np.int64 and pairing.pairs.shape == (14, 2)
    assert pairing.unpaired.dtype == np.int64 and pairing.unpaired.shape == (2,)
    assert np.all(np.diff(pairing.pairs[:, 0]) > 0)
    # an empty pairing keeps its shape
    empty = reduce(build_boundary_matrix(make_filtration([[0.0]], 1.0, 0)))
    assert empty.pairs.dtype == np.int64 and empty.pairs.shape == (0, 2)


def test_intervals_two_points():
    dm = distance_matrix(PointCloud([[0.0], [3.0]]))
    barcode = intervals(build_vr(dm, 2.0, 1))
    assert [(iv.dim, iv.birth, iv.death) for iv in barcode] == [
        (0, 0.0, 1.5),
        (0, 0.0, math.inf),
    ]


def test_intervals_stop_below_max_dim():
    # a top-dimension simplex has no cofaces that could kill its cycle: the
    # 3-skeleton of the 4-simplex keeps one tetrahedron unpaired and the
    # square's four triangles one triangle, yet neither is Rips homology
    for f in (make_filtration(np.eye(5), 1.0, 3), build_vr(distance_matrix(SQUARE), 1.0, 2)):
        assert len(f.facets[f.max_dim])
        barcode = intervals(f, keep_zero=True)
        assert barcode.dims.tolist() and max(barcode.dims.tolist()) < f.max_dim
    assert betti_curve(intervals(make_filtration(np.eye(5), 1.0, 3)), 1.0, 2) == [1, 0, 0]


def test_intervals_refuse_max_dim_0():
    # a filtration of vertices only has no dimension below its top
    with pytest.raises(InputError, match="max_dim"):
        intervals(make_filtration([[0.0], [1.0]], 1.0, 0))


def test_intervals_square_loop():
    barcode = intervals(build_vr(distance_matrix(SQUARE), 1.0, 2))
    loops = [iv for iv in barcode if iv.dim == 1]
    assert len(loops) == 1
    assert loops[0].birth == 0.5
    assert math.isclose(loops[0].death, math.sqrt(2) / 2, rel_tol=1e-15)


def test_intervals_zero_length_dropped_and_kept():
    # equilateral triangle: both non-surviving vertices die at the same
    # scale the edges arrive, leaving a zero bar only under keep_zero
    pts = [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]]
    f = make_filtration(pts, 1.0, 2)
    plain = intervals(f)
    kept = intervals(f, keep_zero=True)
    assert len(kept) >= len(plain)
    assert all(iv.death - iv.birth > 0.0 for iv in plain)


def test_intervals_min_length_filter():
    f = build_vr(distance_matrix(SQUARE), 1.0, 2)
    filtered = intervals(f, min_length=0.3)
    assert all(iv.death - iv.birth > 0.3 for iv in filtered)
    # the loop [0.5, 0.707) is shorter than 0.3 and disappears
    assert not [iv for iv in filtered if iv.dim == 1]
    # infinite bars survive any threshold
    assert [iv for iv in filtered if math.isinf(iv.death)]
    # nan would compare false and silently drop every finite bar
    for bad in (-0.1, math.nan):
        with pytest.raises(InputError):
            intervals(f, min_length=bad)


def test_unique_infinite_bar_per_component():
    pts = [[0.0, 0.0], [0.5, 0.0], [10.0, 0.0], [10.5, 0.0], [20.0, 0.0]]
    f = make_filtration(pts, 1.0, 1)
    barcode = intervals(f)
    inf_bars = [iv for iv in barcode if math.isinf(iv.death) and iv.dim == 0]
    assert len(inf_bars) == 3  # three far-apart clusters never merge


def test_betti_curve_examples():
    bc = Barcode((PersistenceInterval(0, 0.0, math.inf),), eps_max=1.0)
    assert betti_curve(bc, 0.0) == [1]
    assert betti_curve(bc, 123.0) == [1]
    with pytest.raises(InputError):
        betti_curve(bc, 0.5, max_k=-1)
    for eps in (-1.0, math.nan, math.inf):
        with pytest.raises(InputError):
            betti_curve(bc, eps)
    square = intervals(build_vr(distance_matrix(SQUARE), 1.0, 2))
    assert betti_curve(square, 0.6)[1] == 1
    assert betti_curve(square, 0.8)[1] == 0


def test_betti_curve_matches_betti_numbers():
    # against the dense GF(2) ranks of each prefix complex; every fourth
    # scale and the last, since the oracle's cost grows with the prefix
    rng = np.random.default_rng(41)
    for _ in range(8):
        n = int(rng.integers(4, 16))
        pts = rng.uniform(size=(n, 2))
        f = make_filtration(pts, 1.5, 3)
        barcode = intervals(f)
        pairs = simplices(f)
        scales = sorted(set(f.births.tolist()))
        for eps in {*scales[::4], scales[-1]}:
            present = [s for s, _ in pairs[: prefix_length(f, eps)]]
            assert betti_curve(barcode, eps, max_k=2) == dense_betti(present, 2)


def test_barcode_csv_round_trip(tmp_path):
    barcode = intervals(build_vr(distance_matrix(SQUARE), 1.0, 2), keep_zero=True)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_barcode_csv(barcode, p1)
    again = read_barcode_csv(p1)
    write_barcode_csv(again, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert b"inf" in p1.read_bytes()


def test_barcode_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("dim,b,d\n0,0,1\n")
    with pytest.raises(InputError):
        read_barcode_csv(path)


def test_barcode_csv_rejects_bad_rows(tmp_path):
    path = tmp_path / "bad.csv"
    for row in ("0,inf,inf", "0,-inf,1", "0,nan,1", "0,2,1", "-1,0,1"):
        path.write_text(f"dim,birth,death\n0,0,inf\n{row}\n")
        with pytest.raises(InputError, match=f"{path}:3: "):
            read_barcode_csv(path)


def test_barcode_csv_formats_9_digits(tmp_path):
    barcode = Barcode(
        (PersistenceInterval(0, 1.0 / 3.0, 2.0 / 3.0),), eps_max=1.0
    )
    path = tmp_path / "c.csv"
    write_barcode_csv(barcode, path)
    assert path.read_text() == "dim,birth,death\n0,0.333333333,0.666666667\n"
