"""Point clouds, the Euclidean metric, distance matrices, and rescaling.

All operations are pure functions over immutable inputs; nothing here
mutates its arguments, so everything is safe to share across threads.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, ResourceError

__all__ = [
    "DEFAULT_MEMORY_BUDGET_BYTES",
    "PointCloud",
    "DistanceMatrix",
    "euclidean_distance",
    "distance_matrix",
    "rescale_unit_box",
    "read_point_csv",
    "write_point_csv",
]

# Resource guards refuse a run or array predicted to exceed this many bytes,
# so an oversized input fails with ResourceError, not the kernel's OOM kill.
DEFAULT_MEMORY_BUDGET_BYTES = 8 * 1024**3


class PointCloud:
    """A finite set of points in R^d.

    Invariants: at least one point, every point has the same dimension
    d >= 1, and all coordinates are finite.
    """

    __slots__ = ("_coords",)

    def __init__(self, points):
        try:
            coords = np.asarray(points, dtype=np.float64)
        except (ValueError, TypeError) as exc:
            raise InputError(f"malformed point list: {exc}") from exc
        if coords.ndim == 1 and coords.size > 0:
            coords = coords.reshape(1, -1)
        if coords.ndim != 2 or coords.shape[0] < 1 or coords.shape[1] < 1:
            raise InputError(
                "point cloud needs at least one point of dimension >= 1"
            )
        if not np.all(np.isfinite(coords)):
            raise InputError("point cloud contains non-finite coordinates")
        coords.setflags(write=False)
        self._coords = coords

    @property
    def coords(self) -> np.ndarray:
        """Read-only (n, d) coordinate array."""
        return self._coords

    @property
    def points(self) -> list[tuple[float, ...]]:
        return [tuple(row) for row in self._coords]

    @property
    def dim(self) -> int:
        return self._coords.shape[1]

    def __len__(self) -> int:
        return self._coords.shape[0]

    def __getitem__(self, i) -> np.ndarray:
        return self._coords[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, PointCloud) and np.array_equal(
            self._coords, other._coords
        )

    def __repr__(self) -> str:
        return f"PointCloud(n={len(self)}, dim={self.dim})"


class DistanceMatrix:
    """Symmetric nonnegative n x n matrix with a zero diagonal."""

    __slots__ = ("_entries",)

    def __init__(self, entries):
        m = np.asarray(entries, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise InputError("distance matrix must be square and nonempty")
        if not np.array_equal(m, m.T):
            raise InputError("distance matrix must be exactly symmetric")
        if np.any(np.diagonal(m) != 0.0):
            raise InputError("distance matrix diagonal must be zero")
        if np.any(m < 0.0) or not np.all(np.isfinite(m)):
            raise InputError("distances must be finite and nonnegative")
        m.setflags(write=False)
        self._entries = m

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def n(self) -> int:
        return self._entries.shape[0]

    def __getitem__(self, ij) -> float:
        return float(self._entries[ij])

    def max_distance(self) -> float:
        """Largest pairwise distance (the diameter of the cloud)."""
        return float(self._entries.max())

    def __repr__(self) -> str:
        return f"DistanceMatrix(n={self.n})"


def euclidean_distance(p, q) -> float:
    """Euclidean distance between two coordinate vectors of equal dimension."""
    a = np.asarray(p, dtype=np.float64)
    b = np.asarray(q, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise InputError(
            f"dimension mismatch: {a.shape} vs {b.shape}"
        )
    return float(np.sqrt(np.sum((a - b) ** 2)))


def distance_matrix(cloud: PointCloud, block: int = 256) -> DistanceMatrix:
    """Full matrix of pairwise Euclidean distances.

    Computed from coordinate differences (not the Gram-matrix identity) so
    small distances keep full relative accuracy. It is exactly symmetric with
    a zero diagonal, since x_i - x_j and x_j - x_i square to the same floats,
    summed in the same order. Over the memory budget it raises ResourceError.
    """
    x = cloud.coords
    n = len(cloud)
    if 8 * n * n > DEFAULT_MEMORY_BUDGET_BYTES:
        raise ResourceError(
            f"{n} points need a {8 * n * n}-byte distance matrix, "
            f"over the {DEFAULT_MEMORY_BUDGET_BYTES}-byte memory budget"
        )
    d = np.empty((n, n), dtype=np.float64)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        diff = x[lo:hi, None, :] - x[None, :, :]
        d[lo:hi] = np.sqrt(np.sum(diff * diff, axis=-1))
    return DistanceMatrix(d)


def rescale_unit_box(cloud: PointCloud) -> PointCloud:
    """Divide every coordinate by its dimension's largest absolute value.

    Dimensions that are identically zero are left unchanged, which keeps
    the operation total. Output lies in [-1, 1]^d, and in [0, 1]^d for
    nonnegative input. Idempotent: the per-dimension maximum of the result
    is exactly 1 (or 0), so a second application divides by 1.
    """
    x = cloud.coords.copy()
    scale = np.max(np.abs(x), axis=0)
    nonzero = scale > 0.0
    x[:, nonzero] = x[:, nonzero] / scale[nonzero]
    return PointCloud(x)


def read_point_csv(path) -> PointCloud:
    """Parse a point-cloud CSV: one point per line, comma-separated floats,
    no header. Ragged rows are rejected."""
    rows = []
    width = None
    with open(path, "r", newline="") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            fields = line.split(",")
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise InputError(
                    f"{path}:{lineno}: ragged row ({len(fields)} fields, expected {width})"
                )
            try:
                rows.append([float(f) for f in fields])
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from exc
    if not rows:
        raise InputError(f"{path}: no points found")
    return PointCloud(rows)


def write_point_csv(cloud: PointCloud, path) -> None:
    """Write a point-cloud CSV (LF line endings, shortest exact decimals)."""
    with open(path, "w", newline="") as fh:
        for row in cloud.coords:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")
