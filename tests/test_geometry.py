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
    gen_fibonacci_sphere,
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
    # the path is priced at 9 n^2 bytes: the matrix and one n x n bool
    # check. 33,000 points need an 8.7 GB matrix alone, and 31,000 points a
    # 7.7 GB one that fits the 8 GiB budget while 9 n^2 (8.6 GB) does not:
    # both are refused before anything of that size is allocated
    assert 8 * 31_000**2 <= geometry.DEFAULT_MEMORY_BUDGET_BYTES < 9 * 31_000**2
    for n in (33_000, 31_000):
        cloud = PointCloud(np.arange(float(n))[:, None])
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError, match="budget"):
                distance_matrix(cloud)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024


def test_distance_matrix_refuses_squared_distances_beyond_float_range():
    # finite points whose difference, square or sum of squares overflows are
    # refused by name, and numpy's overflow warning (an error in this suite)
    # is never raised
    for pts in (
        [[1e200, 0.0], [-1e200, 0.0]],
        [[1e308], [-1e308]],
        [[1.5e154], [0.0]],
        [[1e154, 1e154], [0.0, 0.0]],
    ):
        with pytest.raises(InputError, match="float range"):
            distance_matrix(PointCloud(pts))
    assert distance_matrix(PointCloud([[1e154], [0.0]])).entries[0, 1] == 1e154


def test_distance_matrix_peak_within_priced_cost():
    # blocks of at most BLOCK_CELLS coordinate differences, so the peak
    # above the input is the 8 n^2 B matrix and the n^2 B bool that each
    # of DistanceMatrix's checks makes in turn, within 1 MiB
    n = 3000
    cloud = gen_fibonacci_sphere(n)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dm = distance_matrix(cloud)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert dm.n == n
    assert peak <= 9 * n * n + 1024**2


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
    # each distance is a sum over its own row's last axis, so the block
    # size never changes a bit: blocks of 7 rows, of one row (n * d over
    # BLOCK_CELLS) and one block, at d = 3 and at d = 9, where numpy sums
    # the last axis pairwise
    rng = np.random.default_rng(3)
    for d in (3, 9):
        cloud = PointCloud(rng.normal(size=(40, d)))
        results = []
        for cells in (7 * 40 * d, 40 * d - 1, 40 * 40 * d):
            monkeypatch.setattr(geometry, "BLOCK_CELLS", cells)
            results.append(distance_matrix(cloud).entries)
        assert all(np.array_equal(results[-1], r) for r in results)


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
