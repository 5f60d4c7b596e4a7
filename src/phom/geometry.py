"""Point clouds, their Euclidean distance matrices, and point-cloud CSV files.

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
    "distance_matrix",
    "read_point_csv",
    "write_point_csv",
]

# Resource guards refuse a run or array predicted to exceed this many bytes,
# so an oversized input fails with ResourceError, not the kernel's OOM kill.
DEFAULT_MEMORY_BUDGET_BYTES = 8 * 1024**3


def check_budget(nbytes: int, what: str) -> None:
    if nbytes > DEFAULT_MEMORY_BUDGET_BYTES:
        raise ResourceError(
            f"{what} needs {nbytes} bytes, "
            f"over the {DEFAULT_MEMORY_BUDGET_BYTES}-byte memory budget"
        )


# Every blocked loop sizes its blocks from this: distance_matrix's rows,
# build_vr's candidate sibling pairs and the Wasserstein cost fill hold at
# most this many elements per block array (one row or one simplex's pairs
# at least), so their temporaries stay near 256 KB however large the input.
BLOCK_CELLS = 1 << 15


class PointCloud:
    """A finite set of points in R^d.

    Invariants: at least one point, every point has the same dimension
    d >= 1, and all coordinates are finite.
    """

    __slots__ = ("_coords",)

    def __init__(self, points):
        try:
            coords = np.array(points, dtype=np.float64)
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
        """Read-only (n, d) copy of the input coordinates."""
        return self._coords

    @property
    def dim(self) -> int:
        return self._coords.shape[1]

    def __len__(self) -> int:
        return self._coords.shape[0]

    def __repr__(self) -> str:
        return f"PointCloud(n={len(self)}, dim={self.dim})"


class DistanceMatrix:
    """Symmetric nonnegative n x n matrix with a zero diagonal. A writeable
    input is copied; a read-only one, as distance_matrix passes, is kept."""

    __slots__ = ("_entries",)

    def __init__(self, entries):
        m = np.asarray(entries, dtype=np.float64)
        if m.flags.writeable:
            m = m.copy()
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

    def __repr__(self) -> str:
        return f"DistanceMatrix(n={self.n})"


def distance_matrix(cloud: PointCloud) -> DistanceMatrix:
    """Full matrix of pairwise Euclidean distances.

    Computed from coordinate differences (not the Gram-matrix identity) so
    small distances keep full relative accuracy. It is exactly symmetric with
    a zero diagonal, since x_i - x_j and x_j - x_i square to the same floats,
    summed in the same order. Over the memory budget it raises ResourceError.
    """
    x = cloud.coords
    n, dim = x.shape
    # 8 B per entry, and the n x n bool each of DistanceMatrix's checks makes
    check_budget(9 * n * n, f"the distance matrix of {n} points")
    d = np.empty((n, n), dtype=np.float64)
    step = max(1, BLOCK_CELLS // (n * dim))
    for lo in range(0, n, step):
        diff = x[lo : lo + step, None, :] - x
        d[lo : lo + step] = np.sqrt(np.sum(diff * diff, axis=-1))
    d.setflags(write=False)
    return DistanceMatrix(d)


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
