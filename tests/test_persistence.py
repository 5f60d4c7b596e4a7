import math
import tracemalloc

import numpy as np
import pytest

from phom import (
    DIAMETER_EPS,
    EDGE_RULES,
    PAPER_2EPS,
    Barcode,
    InputError,
    PersistenceInterval,
    PointCloud,
    betti_curve,
    betti_numbers,
    build_vr,
    distance_matrix,
    gen_fibonacci_sphere,
    gen_sphere_latlon,
    intervals,
    read_barcode_csv,
    reduce,
    write_barcode_csv,
)
import phom.persistence
from phom.cli import main
from oracles import (
    apparent_pairs,
    dense_betti,
    facet_columns,
    left_to_right_pairing,
    prefix_length,
    simplices,
)

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
    with pytest.raises(InputError, match="int64"):
        PersistenceInterval(2**63, 0.0, 1.0)


def test_barcode_packs_dims_as_int64():
    # dims never pass through float64, which would round 2**53 + 1
    with pytest.raises(InputError, match="int64"):
        Barcode([PersistenceInterval(2**63, 0, 1)], 1.0)
    for dim in (2**53 + 1, 2**63 - 1):
        b = Barcode([PersistenceInterval(dim, 0, 1)], 1.0)
        assert b.dims.dtype == np.int64 and b[0] == PersistenceInterval(dim, 0.0, 1.0)
        assert b.max_dim == dim


def test_reduce_single_vertex():
    pairing = reduce(make_filtration([[0.0]], 1.0, 0))
    assert pairing.pairs.tolist() == [] and pairing.unpaired.tolist() == [0]


def test_reduce_two_vertices_one_edge():
    pairing = reduce(make_filtration([[0.0], [1.0]], 1.0, 1))
    # the later vertex dies when the edge arrives; the earlier survives
    assert pairing.pairs.tolist() == [[1, 2]]
    assert pairing.unpaired.tolist() == [0]


def test_reduce_filled_triangle():
    pts = [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]]
    f = make_filtration(pts, 1.0, 2)
    pairing = reduce(f)
    assert len(pairing.pairs) == 3  # (v,e) x2 and (e,t)
    assert pairing.unpaired.tolist() == [0]
    dims = [(f.dims[i], f.dims[j]) for i, j in pairing.pairs]
    assert dims.count((0, 1)) == 2 and dims.count((1, 2)) == 1


def test_reduce_conservation():
    rng = np.random.default_rng(17)
    for _ in range(10):
        pts = rng.uniform(size=(int(rng.integers(3, 12)), 2))
        f = make_filtration(pts, 1.2, 3)
        pairing = reduce(f)
        assert 2 * len(pairing.pairs) + len(pairing.unpaired) == len(f)


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
    # births tie on a grid with duplicate points and on a lattice cloud,
    # where vertex order decides the filtration order the apparent pairs
    # are read from
    grid = gen_sphere_latlon(8, 5, include_u_endpoint=True, dedupe=False)
    cases.append(build_vr(distance_matrix(grid), 0.9, 3, edge_rule=DIAMETER_EPS))
    lattice = PointCloud(rng.integers(0, 3, size=(14, 3)).astype(float))
    cases.append(build_vr(distance_matrix(lattice), 1.0, 3, edge_rule=PAPER_2EPS))
    # the 3-skeleton of a 4-simplex is a 3-sphere, so one tetrahedron
    # stays unpaired at the top dimension
    cases.append(make_filtration(np.eye(5), 1.0, 3))
    for f in cases:
        pairing = reduce(f)
        columns = facet_columns(f)
        pairs, unpaired = left_to_right_pairing(columns)
        assert pairing.pairs.tolist() == [list(p) for p in pairs]
        assert pairing.unpaired.tolist() == list(unpaired)
        # apparent pairs are persistence pairs, and reduce counts every one
        apparent = apparent_pairs(columns)
        assert pairing.apparent_pairs == len(apparent)
        assert apparent <= set(pairs)
        # every death below the top is met again one dimension up, and cleared
        deaths_below_top = np.count_nonzero(f.dims[pairing.pairs[:, 1]] < f.max_dim)
        assert pairing.cleared_columns == deaths_below_top
    assert f.dims[pairing.unpaired].tolist() == [0, 3]


def test_reduce_returns_packed_arrays():
    # the 3-skeleton of the 4-simplex: 30 simplices, 14 pairs, 2 unpaired
    pairing = reduce(make_filtration(np.eye(5), 1.0, 3))
    assert pairing.pairs.dtype == np.int64 and pairing.pairs.shape == (14, 2)
    assert pairing.unpaired.dtype == np.int64 and pairing.unpaired.shape == (2,)
    assert np.all(np.diff(pairing.pairs[:, 0]) > 0)
    # an empty pairing keeps its shape
    empty = reduce(make_filtration([[0.0]], 1.0, 0))
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


def test_betti_curve_peak_within_priced_cost(tmp_path, capsys):
    # the whole `phom betti` path over 10^6 counts stays within the price
    # its budget guard charges per count
    path = tmp_path / "bc.csv"
    path.write_text("dim,birth,death\n0,0,inf\n1,0.1,0.5\n")
    counts = 10**6
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert main(["betti", str(path), "--eps", "0.2", "--max-k", str(counts - 1)]) == 0
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out.startswith("[1,1,0,")
    assert peak <= phom.persistence._BYTES_PER_BETTI_COUNT * counts


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


def _spy_on_intervals(monkeypatch) -> list:
    """The filtrations betti_numbers hands to intervals, in call order."""
    seen, real = [], phom.persistence.intervals

    def spy(f, *args, **kwargs):
        seen.append(f)
        return real(f, *args, **kwargs)

    monkeypatch.setattr(phom.persistence, "intervals", spy)
    return seen


def test_betti_numbers_collapsed_core_is_exact(monkeypatch):
    # betti_numbers reads the barcode of the strong-collapse core, which
    # must give the full complex's numbers: at every third scale and at
    # eps_max, under both edge rules and max_dim 2-4, on random clouds, a
    # third of them with duplicated points, which are always dominated;
    # against the dense GF(2) ranks too where the cloud is small
    seen = _spy_on_intervals(monkeypatch)
    rng = np.random.default_rng(26)
    collapsed = 0
    for trial in range(30):
        max_dim, rule = 2 + trial % 3, EDGE_RULES[trial % 2]
        n = int(rng.integers(5, 31 - 5 * max_dim))
        pts = rng.uniform(size=(n, int(rng.integers(1, 4))))
        if trial % 3 == 1:
            pts = np.concatenate([pts, pts[rng.integers(0, n, size=1 + n // 3)]])
        f = build_vr(distance_matrix(PointCloud(pts)), 0.6, max_dim, edge_rule=rule)
        barcode = intervals(f)
        pairs = simplices(f) if len(pts) <= 10 else None
        scales = sorted(set(f.births.tolist()))
        for eps in {*scales[::3], f.eps_max}:
            got = betti_numbers(f, eps, max_dim - 1)
            collapsed += seen[-1] is not f
            assert got == betti_curve(barcode, eps, max_dim - 1), (trial, eps)
            if pairs is not None:
                present = [s for s, _ in pairs[: prefix_length(f, eps)]]
                assert got == dense_betti(present, max_dim - 1), (trial, eps)
    assert collapsed >= 100  # the core path ran, not only the pass-through


def test_betti_numbers_collapses_only_when_it_pays(monkeypatch):
    # a collapse round that would remove less than a quarter of the edges
    # and triangles left is dropped, and with it the rounds after it; when
    # no vertex goes, or no triangles are stored, intervals gets f itself
    seen = _spy_on_intervals(monkeypatch)
    # a densely sampled segment: with no stop rule, each round would peel
    # the 14 vertices at its two ends, for 143 rounds
    x = np.linspace(0.0, 1.0, 2000)
    segment = PointCloud(np.stack([x, 0.001 * np.sin(50 * x)], axis=1))
    f = build_vr(distance_matrix(segment), 0.004, 2, edge_rule=DIAMETER_EPS)
    assert betti_numbers(f, 0.004, 1) == [1, 0] and seen[-1] is f
    # nothing on the Fibonacci sphere is dominated
    f = build_vr(distance_matrix(gen_fibonacci_sphere(500)), 0.25, 3, edge_rule=DIAMETER_EPS)
    assert betti_numbers(f, 0.25, 2) == [1, 0, 1] and seen[-1] is f
    f = make_filtration(np.zeros((3, 1)), 1.0, 1)
    assert betti_numbers(f, 1.0, 0) == [1] and seen[-1] is f
    # the raw lat-lon grid's 20 copies of each pole and its repeated seam
    # column go in the first round
    raw = gen_sphere_latlon(20, 10, include_u_endpoint=True, dedupe=False)
    f = build_vr(distance_matrix(raw), 0.5, 3, edge_rule=DIAMETER_EPS)
    assert betti_numbers(f, 0.5, 2) == [1, 0, 1]
    assert len(f) == 112094 and len(seen[-1]) == 3802
    assert seen[-1].counts_by_dim()[0] == 154 and seen[-1].max_dim == 3


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
