import math
import tracemalloc

import numpy as np
import pytest

from phom import (
    DistanceMatrix,
    InputError,
    PointCloud,
    ResourceError,
    distance_matrix,
    geometry,
    read_point_csv,
    write_point_csv,
)


def test_euclidean_identity_and_345():
    m = distance_matrix(PointCloud([[0.0, 0.0], [0.0, 0.0], [3.0, 4.0]])).entries
    assert m[0, 1] == 0.0
    assert m[0, 2] == 5.0


def test_euclidean_4d_direct_sum():
    # sqrt(1+1+1+1) = 2
    assert distance_matrix(PointCloud([[1, 1, 1, 1], [0, 0, 0, 0]])).entries[0, 1] == 2.0


def test_euclidean_zero_iff_equal():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p = rng.normal(size=3)
        q = rng.normal(size=3)
        m = distance_matrix(PointCloud([p, q, p])).entries
        assert (m[0, 1] == 0.0) == bool(np.all(p == q))
        assert m[0, 2] == 0.0


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


def test_constructors_leave_caller_arrays_alone():
    x = np.random.default_rng(13).random((5, 3))
    cloud = PointCloud(x)
    d = distance_matrix(cloud).entries.copy()
    dm = DistanceMatrix(d)
    assert x.flags.writeable and d.flags.writeable
    x0, d0 = x.copy(), d.copy()
    x[0, 0] = 7.0
    d[0, 1] = d[1, 0] = 7.0
    assert np.array_equal(cloud.coords, x0) and np.array_equal(dm.entries, d0)
    # a read-only matrix, as distance_matrix makes, is kept without a copy
    assert DistanceMatrix(dm.entries).entries is dm.entries


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


def test_distance_matrix_blocking_agrees(monkeypatch):
    cloud = PointCloud(np.random.default_rng(3).normal(size=(40, 3)))
    monkeypatch.setattr(geometry, "_BLOCK_ROWS", 7)
    a = distance_matrix(cloud).entries
    monkeypatch.setattr(geometry, "_BLOCK_ROWS", 1000)
    b = distance_matrix(cloud).entries
    assert np.array_equal(a, b)


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
