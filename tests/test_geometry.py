import math
import tracemalloc

import numpy as np
import pytest

from phom import (
    InputError,
    PointCloud,
    ResourceError,
    distance_matrix,
    euclidean_distance,
    read_point_csv,
    rescale_unit_box,
    write_point_csv,
)


def test_euclidean_identity_and_345():
    assert euclidean_distance((0, 0), (0, 0)) == 0.0
    assert euclidean_distance((0, 0), (3, 4)) == 5.0


def test_euclidean_4d_direct_sum():
    # sqrt(1+1+1+1) = 2
    assert euclidean_distance((1, 1, 1, 1), (0, 0, 0, 0)) == 2.0


def test_euclidean_dimension_mismatch():
    with pytest.raises(InputError):
        euclidean_distance((1, 2), (1, 2, 3))


def test_euclidean_zero_iff_equal():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p = rng.normal(size=3)
        q = rng.normal(size=3)
        d = euclidean_distance(p, q)
        assert (d == 0.0) == bool(np.all(p == q))
        assert euclidean_distance(p, p) == 0.0


def test_pointcloud_validation():
    with pytest.raises(InputError):
        PointCloud([])
    with pytest.raises(InputError):
        PointCloud([[1, 2], [3]])
    with pytest.raises(InputError):
        PointCloud([[1.0, float("nan")]])
    pc = PointCloud([[1.0, 2.0]])
    assert pc.dim == 2 and len(pc) == 1


def test_distance_matrix_small():
    one = distance_matrix(PointCloud([[0.0, 0.0]]))
    assert one.n == 1 and one.entries[0, 0] == 0.0
    two = distance_matrix(PointCloud([[0.0], [1.0]]))
    assert two.entries[0, 1] == 1.0 and two.entries[1, 0] == 1.0


def test_distance_matrix_refuses_oversized():
    # 33,000 points need an 8.7 GB matrix, over the 8 GiB budget: refused
    # before anything of that size is allocated
    cloud = PointCloud(np.arange(33_000.0)[:, None])
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="budget"):
            distance_matrix(cloud)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 1024


def test_distance_matrix_invariants_random():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        pts = rng.normal(size=(10, rng.integers(1, 5)))
        m = distance_matrix(PointCloud(pts)).entries
        assert np.array_equal(m, m.T)
        assert np.all(np.diagonal(m) == 0.0)
        assert np.all(m >= 0.0)
        # triangle inequality with 1e-12 relative slack
        lhs = m[:, :, None]
        rhs = m[:, None, :] + m[None, :, :]
        assert np.all(lhs <= rhs + 1e-12 * (1.0 + rhs))


def test_distance_matrix_blocking_agrees():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(40, 3))
    a = distance_matrix(PointCloud(pts), block=7).entries
    b = distance_matrix(PointCloud(pts), block=1000).entries
    assert np.array_equal(a, b)


def test_rescale_examples():
    assert rescale_unit_box(PointCloud([[2.0, 4.0]])).points == [(1.0, 1.0)]
    got = rescale_unit_box(PointCloud([[1.0, 0.0], [2.0, 10.0]]))
    assert got.points == [(0.5, 0.0), (1.0, 1.0)]


def test_rescale_zero_dimension_untouched():
    got = rescale_unit_box(PointCloud([[0.0, 3.0], [0.0, 6.0]]))
    assert got.points == [(0.0, 0.5), (0.0, 1.0)]


def test_rescale_idempotent_and_bounded():
    rng = np.random.default_rng(11)
    for _ in range(100):
        pts = rng.normal(size=(8, 3)) * rng.uniform(0.1, 100)
        once = rescale_unit_box(PointCloud(pts))
        twice = rescale_unit_box(once)
        assert np.array_equal(once.coords, twice.coords)
        assert np.all(np.abs(once.coords) <= 1.0)
    nonneg = rng.uniform(0.0, 50.0, size=(30, 4))
    scaled = rescale_unit_box(PointCloud(nonneg))
    assert np.all(scaled.coords >= 0.0) and np.all(scaled.coords <= 1.0)


def test_point_csv_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    cloud = PointCloud(rng.normal(size=(17, 4)))
    path = tmp_path / "pts.csv"
    write_point_csv(cloud, path)
    again = read_point_csv(path)
    assert np.array_equal(cloud.coords, again.coords)
    text = path.read_bytes()
    assert b"\r" not in text and text.count(b"\n") == 17


def test_point_csv_rejects_ragged(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(InputError):
        read_point_csv(path)


def test_point_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,two\n")
    with pytest.raises(InputError):
        read_point_csv(path)
