"""Built-in point-cloud generators.

Three families: a latitude/longitude sphere sampling, a Fibonacci-spiral
sphere sampling, and the 4D manifold swept out by a natural frequency of a
3DOF mass-spring chain as temperature, thermal-expansion and damage
parameters vary over a grid. Each refuses with ResourceError a cloud
that would not fit in the memory budget, before allocating it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ComputationError, InputError
from .geometry import PointCloud, check_budget

__all__ = [
    "MsdConfig",
    "ModalResult",
    "gen_sphere_latlon",
    "gen_fibonacci_sphere",
    "stiffness_matrix",
    "natural_frequencies",
    "gen_msd_manifold",
    "read_msd_config",
    "write_msd_config",
]

GOLDEN_ANGLE = math.pi * (1.0 + math.sqrt(5.0))

# Budget guards: generating peaks (tracemalloc) at 83 B per point on the
# Fibonacci sphere and 176-184 B on the lat-lon sphere at 10^6 points, and at
# 676-681 B per node on mass-spring grids of 252 to 10^5 nodes, solved at once.
_BYTES_PER_POINT = 256
_BYTES_PER_MSD_NODE = 768


def gen_sphere_latlon(
    n_u: int,
    n_v: int,
    form: str = "standard",
    include_u_endpoint: bool = False,
    dedupe: bool = True,
) -> PointCloud:
    """Sample the unit 2-sphere on a longitude/latitude grid.

    Longitudes default to u = 2*pi*a/n_u for a = 0..n_u-1 (the u = 2*pi
    column duplicates u = 0 and is omitted); ``include_u_endpoint`` keeps
    it, matching graphics-style linspace grids. Latitudes are
    v = pi*b/(n_v-1) for b = 0..n_v-1, poles included.

    ``form`` selects the y component: "standard" uses y = sin(u)sin(v)
    (points lie exactly on the sphere); "y-cos" uses y = sin(u)cos(v),
    a formula that appears in some write-ups but does not stay on the
    sphere. With ``dedupe`` coincident points (the n_u pole copies) are
    merged, keeping first occurrence order.
    """
    if n_u < 3 or n_v < 2:
        raise InputError(f"grid too small: need n_u >= 3, n_v >= 2, got ({n_u}, {n_v})")
    if form not in ("standard", "y-cos"):
        raise InputError(f"unknown sphere form {form!r}")
    check_budget(_BYTES_PER_POINT * n_u * n_v, f"a {n_u} x {n_v} grid")
    if include_u_endpoint:
        us = np.linspace(0.0, 2.0 * math.pi, n_u)
    else:
        us = 2.0 * math.pi * np.arange(n_u) / n_u
    pts = []
    for b in range(n_v):
        v = math.pi * b / (n_v - 1)
        sv, cv = math.sin(v), math.cos(v)
        # exact poles so duplicate detection needs no tolerance
        if b == 0:
            sv, cv = 0.0, 1.0
        elif b == n_v - 1:
            sv, cv = 0.0, -1.0
        for u in us:
            x = math.cos(u) * sv + 0.0
            y = (math.sin(u) * sv if form == "standard" else math.sin(u) * cv) + 0.0
            z = cv
            pts.append((x, y, z))
    if dedupe:
        pts = list(dict.fromkeys(pts))
    return PointCloud(pts)


def gen_fibonacci_sphere(n_p: int) -> PointCloud:
    """Sample the unit 2-sphere along a Fibonacci spiral.

    Point j uses the golden-angle longitude theta_j = j*pi*(1+sqrt(5)) and
    a latitude chosen so cos(phi) is uniformly spaced over (-1, 1) by the
    midpoint rule, cos(phi_j) = 1 - (2j+1)/n_p.
    """
    if n_p < 1:
        raise InputError(f"need at least one point, got {n_p}")
    check_budget(_BYTES_PER_POINT * n_p, f"a cloud of {n_p} points")
    j = np.arange(n_p, dtype=np.float64)
    theta = j * GOLDEN_ANGLE
    cphi = 1.0 - (2.0 * j + 1.0) / n_p
    sphi = np.sqrt(np.maximum(0.0, 1.0 - cphi * cphi))
    pts = np.stack(
        [np.cos(theta) * sphi, np.sin(theta) * sphi, cphi], axis=1
    )
    return PointCloud(pts)


@dataclass(frozen=True)
class MsdConfig:
    """Parameters of the 3DOF mass-spring chain and its evaluation grid.

    The middle spring's stiffness is k2*(1 - alpha2*T)*(1 - D2): thermal
    expansion and damage both soften it. Division counts are grid sizes
    inclusive of both endpoints.
    """

    m1: float = 10.0
    m2: float = 10.0
    m3: float = 10.0
    k1: float = 10000.0
    k2: float = 10000.0
    k3: float = 10000.0
    k4: float = 10000.0
    t_min: float = 250.0
    t_max: float = 500.0
    t_divs: int = 7
    alpha_min: float = 0.0
    alpha_max: float = 0.005
    alpha_divs: int = 6
    d_min: float = 0.0
    d_max: float = 1.0
    d_divs: int = 6
    mode_index: int = 1

    def __post_init__(self):
        # every check is written so that nan fails it; an int is finite, and
        # math.isfinite would overflow on one too large for a float
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise InputError(f"{name} must be finite, got {value}")
        if not all(m > 0.0 for m in (self.m1, self.m2, self.m3)):
            raise InputError("masses must be positive")
        if not all(k >= 0.0 for k in (self.k1, self.k2, self.k3, self.k4)):
            raise InputError("stiffnesses must be nonnegative")
        for name, divs in (("t", self.t_divs), ("alpha", self.alpha_divs), ("d", self.d_divs)):
            if not divs >= 2:
                raise InputError(f"{name}_divs must be >= 2, got {divs}")
        ranges = (
            (self.t_min, self.t_max), (self.alpha_min, self.alpha_max), (self.d_min, self.d_max)
        )
        if not all(lo <= hi for lo, hi in ranges):
            raise InputError("grid ranges must satisfy min <= max")
        if not (0.0 <= self.d_min and self.d_max <= 1.0):
            raise InputError("damage D2 must lie in [0, 1]")
        if self.mode_index not in (1, 2, 3):
            raise InputError(f"mode_index must be 1, 2 or 3, got {self.mode_index}")
        f = self.min_stiffness_factor()
        if f < 0.0:
            # The default grid itself reaches this region (alpha2*T up to
            # 2.5), so a hard error would reject the shipped configuration;
            # the eigenvalue embedding stays well defined regardless.
            warnings.warn(
                f"grid reaches negative effective stiffness (min factor {f:.4g}); "
                "natural frequencies are imaginary there",
                stacklevel=2,
            )

    def grid_t(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.t_divs)

    def grid_alpha(self) -> np.ndarray:
        return np.linspace(self.alpha_min, self.alpha_max, self.alpha_divs)

    def grid_d(self) -> np.ndarray:
        return np.linspace(self.d_min, self.d_max, self.d_divs)

    def min_stiffness_factor(self) -> float:
        """Smallest (1 - alpha2*T)*(1 - D2) over the whole grid."""
        f = [
            (1.0 - a * t) * (1.0 - d)
            for t in (self.t_min, self.t_max)
            for a in (self.alpha_min, self.alpha_max)
            for d in (self.d_min, self.d_max)
        ]
        return min(f)

    def with_mode(self, mode_index: int) -> "MsdConfig":
        return replace(self, mode_index=mode_index)


@dataclass(frozen=True, eq=False)
class ModalResult:
    """Eigenvalues of M^-1 K, three per grid node sorted ascending.

    ``eigenvalues`` may contain negative entries when the caller allowed an
    unphysical (negative-stiffness) configuration; ``omegas``, their square
    roots, is only defined when all eigenvalues are nonnegative.
    """

    eigenvalues: np.ndarray

    @property
    def omegas(self) -> np.ndarray:
        low = self.eigenvalues[..., 0]
        if np.any(low < 0.0):
            first = low.flat[np.argmax(low < 0.0)]
            raise ComputationError(f"negative eigenvalue {first:.6g}: no real natural frequency")
        return np.sqrt(self.eigenvalues)


def stiffness_matrix(cfg: MsdConfig, t, alpha2, d2, allow_negative: bool = False) -> np.ndarray:
    """Stiffness matrices of the chain with the softened middle spring.

    ``t``, ``alpha2`` and ``d2`` broadcast against each other; the result
    has their shape followed by (3, 3). Raises InputError naming the first
    node, in row-major order, whose effective stiffness factor
    (1 - alpha2*t)*(1 - d2) is negative, unless ``allow_negative`` is set
    (needed to evaluate the full default grid, whose corner reaches
    factor -1.5).
    """
    t, alpha2, d2 = np.broadcast_arrays(t, alpha2, d2)
    factor = (1.0 - alpha2 * t) * (1.0 - d2)
    if not allow_negative and np.any(factor < 0.0):
        i = np.argmax(factor < 0.0)
        raise InputError(
            f"negative effective stiffness: (1 - {alpha2.flat[i]}*{t.flat[i]})"
            f"*(1 - {d2.flat[i]}) = {factor.flat[i]:.6g}"
        )
    e = cfg.k2 * factor
    k = np.zeros(e.shape + (3, 3))
    k[..., 0, 0] = cfg.k1 + e
    k[..., 0, 1] = k[..., 1, 0] = -e
    k[..., 1, 1] = e + cfg.k3
    k[..., 1, 2] = k[..., 2, 1] = -cfg.k3
    k[..., 2, 2] = cfg.k3 + cfg.k4
    return k


def _jacobi_eigh(a: np.ndarray):
    """Cyclic Jacobi diagonalization of a stack of symmetric 3x3 matrices.

    Sweeps rotate away each off-diagonal entry in turn until a matrix's
    off-diagonal Frobenius norm drops below 1e-13 relative to its norm,
    in at most 50 sweeps. Each matrix is frozen once its own test holds
    and skips each rotation whose entry is already 0, so it goes through
    the operations it would go through alone. Returns eigenvalues (N, 3)
    and eigenvectors as columns (N, 3, 3), unsorted.
    """
    lams = np.empty(a.shape[:2])
    vecs = np.empty_like(a)
    live = np.arange(len(a))
    v = np.broadcast_to(np.eye(3), a.shape).copy()
    scale = np.fmax(1.0, np.sqrt(np.sum((a * a).reshape(-1, 9), axis=1)))
    for _ in range(50):
        # the off-diagonal squares, summed from (0, 1) to (2, 1) in row-major order
        sq = a[:, [0, 0, 1, 1, 2, 2], [1, 2, 0, 2, 0, 1]] ** 2
        off = np.sqrt(sq[:, 0] + sq[:, 1] + sq[:, 2] + sq[:, 3] + sq[:, 4] + sq[:, 5])
        done = off <= 1e-13 * scale  # nan fails this, so a nan matrix never freezes
        lams[live[done]] = np.diagonal(a[done], axis1=1, axis2=2)
        vecs[live[done]] = v[done]
        live, a, v, scale = live[~done], a[~done], v[~done], scale[~done]
        if not len(live):
            return lams, vecs
        for p, q in ((0, 1), (0, 2), (1, 2)):
            i = np.flatnonzero(a[:, p, q] != 0.0)
            tau = (a[i, q, q] - a[i, p, p]) / (2.0 * a[i, p, q])
            t = 1.0 / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
            t[tau < 0.0] *= -1.0
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            rot = np.broadcast_to(np.eye(3), (len(i), 3, 3)).copy()
            rot[:, p, p] = rot[:, q, q] = c
            rot[:, p, q], rot[:, q, p] = s, -s
            a[i] = rot.transpose(0, 2, 1) @ a[i] @ rot
            a[i, p, q] = a[i, q, p] = 0.0
            v[i] = v[i] @ rot
    raise ComputationError("Jacobi eigensolver did not converge in 50 sweeps")


def natural_frequencies(cfg: MsdConfig, t, alpha2, d2, allow_negative: bool = False) -> ModalResult:
    """Eigenvalues of M^-1 K for the chain at every node of a grid.

    ``t``, ``alpha2`` and ``d2`` broadcast as in ``stiffness_matrix``, and
    the eigenvalues take their shape followed by (3,). Solved on the
    symmetrized matrices M^-1/2 K M^-1/2 (similar to M^-1 K, so same
    spectrum) by cyclic Jacobi rotations. Each eigenpair is verified
    against the residual bound |M^-1 K x - lam x| <= 1e-9 |K|.
    """
    k = stiffness_matrix(cfg, t, alpha2, d2, allow_negative=allow_negative)
    m = np.array([cfg.m1, cfg.m2, cfg.m3])
    inv_sqrt_m = 1.0 / np.sqrt(m)
    lams, vecs = _jacobi_eigh((k * inv_sqrt_m[:, None] * inv_sqrt_m[None, :]).reshape(-1, 3, 3))
    order = np.argsort(lams, axis=1)
    lams = np.take_along_axis(lams, order, axis=1)
    x = inv_sqrt_m[:, None] * np.take_along_axis(vecs, order[:, None, :], axis=2)
    x = x / np.sqrt(np.sum(x * x, axis=1))[:, None, :]
    a = k.reshape(-1, 3, 3) / m[:, None]  # M^-1 K
    resid = np.sqrt(np.sum((a @ x - lams[:, None, :] * x) ** 2, axis=1))
    bound = 1e-9 * np.sqrt(np.sum((k * k).reshape(-1, 9), axis=1))
    node, pair = np.nonzero(resid > bound[:, None])
    if len(node):
        raise ComputationError(
            f"eigenpair residual {resid[node[0], pair[0]]:.3g} exceeds bound {bound[node[0]]:.3g}"
        )
    return ModalResult(eigenvalues=lams.reshape(k.shape[:-1]))


def gen_msd_manifold(cfg: MsdConfig, embed: str = "eigenvalue") -> PointCloud:
    """4D cloud (T, alpha2, D2, value) over the full parameter grid.

    One point per grid node, row-major over (T, alpha2, D2). ``embed``
    selects the fourth coordinate: "eigenvalue" uses the mode's eigenvalue
    of M^-1 K directly (negative on unphysical nodes, which the default
    grid contains); "frequency" uses its square root and therefore rejects
    grids that reach negative effective stiffness.

    Every dimension whose largest value over the cloud is positive is
    then divided by that value; the others are left as they are. An
    all-positive cloud lands inside [0, 1]^4. A negative eigenvalue range
    survives scaling (only its magnitude changes), which is what makes
    the unphysical region visible as a far-away cluster.
    """
    if embed not in ("eigenvalue", "frequency"):
        raise InputError(f"unknown embed choice {embed!r}")
    n = cfg.t_divs * cfg.alpha_divs * cfg.d_divs
    check_budget(_BYTES_PER_MSD_NODE * n, f"a grid of {n} nodes")
    allow = embed == "eigenvalue"
    grid = np.meshgrid(cfg.grid_t(), cfg.grid_alpha(), cfg.grid_d(), indexing="ij")
    modal = natural_frequencies(cfg, *grid, allow_negative=allow)
    value = modal.eigenvalues if allow else modal.omegas
    coords = np.stack([g.ravel() for g in grid] + [value[..., cfg.mode_index - 1].ravel()], axis=1)
    top = coords.max(axis=0)
    np.divide(coords, top, out=coords, where=top > 0.0)
    return PointCloud(coords)


# --- plain-text config files (`name = value`, one per line) ---

_INT_FIELDS = {f.name for f in fields(MsdConfig) if f.type == "int"}  # annotations are strings
_FIELD_NAMES = [f.name for f in fields(MsdConfig)]


def read_msd_config(path) -> MsdConfig:
    """Parse a key-value config file; unknown keys are rejected."""
    values = {}
    with open(path, "r") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InputError(f"{path}:{lineno}: expected `name = value`")
            name, _, text = line.partition("=")
            name = name.strip()
            text = text.strip()
            if name not in _FIELD_NAMES:
                raise InputError(f"{path}:{lineno}: unknown key {name!r}")
            try:
                values[name] = int(text) if name in _INT_FIELDS else float(text)
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from exc
    return MsdConfig(**values)


def write_msd_config(cfg: MsdConfig, path) -> None:
    with open(path, "w") as fh:
        for name in _FIELD_NAMES:
            fh.write(f"{name} = {getattr(cfg, name)!r}\n")
