import math
import tracemalloc
import warnings

import numpy as np
import pytest

import phom.generators
from phom import (
    ComputationError,
    InputError,
    MsdConfig,
    gen_fibonacci_sphere,
    gen_msd_manifold,
    gen_sphere_latlon,
    natural_frequencies,
    read_msd_config,
    stiffness_matrix,
    write_msd_config,
)
from oracles import cubic_eigenvalues, msd_cloud


def paper_cfg(**overrides):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return MsdConfig(**overrides)


# --- spheres ---

def test_latlon_poles_once():
    pts = gen_sphere_latlon(4, 3).coords.tolist()
    assert pts.count([0.0, 0.0, 1.0]) == 1
    assert pts.count([0.0, 0.0, -1.0]) == 1


def test_latlon_z_bounded():
    cloud = gen_sphere_latlon(7, 5)
    assert np.all(np.abs(cloud.coords[:, 2]) <= 1.0)


def test_latlon_count_after_dedup():
    # interior rows contribute n_u each, the two pole rows one point each
    assert len(gen_sphere_latlon(20, 11)) == 182
    assert len(gen_sphere_latlon(22, 11)) == 200


def test_latlon_standard_form_on_sphere():
    cloud = gen_sphere_latlon(9, 7)
    norms = np.linalg.norm(cloud.coords, axis=1)
    assert np.all(np.abs(norms - 1.0) <= 1e-12)


def test_latlon_u_endpoint_and_duplicates():
    raw = gen_sphere_latlon(20, 10, include_u_endpoint=True, dedupe=False)
    assert len(raw) == 200


def test_latlon_grid_too_small():
    with pytest.raises(InputError):
        gen_sphere_latlon(2, 5)
    with pytest.raises(InputError):
        gen_sphere_latlon(5, 1)


def test_fibonacci_basics():
    assert len(gen_fibonacci_sphere(500)) == 500
    single = gen_fibonacci_sphere(1)
    assert math.isclose(np.linalg.norm(single.coords[0]), 1.0, abs_tol=1e-12)


def test_fibonacci_norms_and_spread():
    cloud = gen_fibonacci_sphere(100)
    norms = np.linalg.norm(cloud.coords, axis=1)
    assert np.all(np.abs(norms - 1.0) <= 1e-12)
    d = cloud.coords[:, None, :] - cloud.coords[None, :, :]
    dist = np.sqrt((d * d).sum(-1))
    np.fill_diagonal(dist, 9.0)
    assert dist.min() > 0.1


def test_fibonacci_distinct_at_a_million():
    cloud = gen_fibonacci_sphere(1_000_000)
    assert len(np.unique(cloud.coords, axis=0)) == 1_000_000


# --- mass-spring chain ---

def test_stiffness_matrix_nominal():
    cfg = paper_cfg()
    k = stiffness_matrix(cfg, 0.0, 0.0, 0.0)
    expect = np.array(
        [[20000.0, -10000.0, 0.0], [-10000.0, 20000.0, -10000.0], [0.0, -10000.0, 20000.0]]
    )
    assert np.array_equal(k, expect)


def test_stiffness_matrix_full_damage():
    cfg = paper_cfg()
    k = stiffness_matrix(cfg, 300.0, 0.001, 1.0)
    expect = np.array(
        [[10000.0, 0.0, 0.0], [0.0, 10000.0, -10000.0], [0.0, -10000.0, 20000.0]]
    )
    assert np.array_equal(k, expect)


def test_stiffness_matrix_self_intersection_pair():
    # alpha2*T = 1 wipes the middle spring exactly like D2 = 1
    cfg = paper_cfg()
    a = stiffness_matrix(cfg, 250.0, 0.004, 0.0)
    b = stiffness_matrix(cfg, 300.0, 0.001, 1.0)
    assert np.array_equal(a, b)


def test_stiffness_matrix_negative_factor_computed():
    # the unphysical region gets its matrices; only the frequency
    # embedding refuses it, off MsdConfig.min_stiffness_factor()
    cfg = paper_cfg()
    k = stiffness_matrix(cfg, 500.0, 0.005, 0.0)
    assert k[0, 0] == 10000.0 + 10000.0 * (1.0 - 2.5)
    t = np.array([[250.0, 500.0], [250.0, 500.0]])
    alpha = np.array([[0.001, 0.003], [0.005, 0.005]])
    k = stiffness_matrix(cfg, t, alpha, 0.0)
    assert k.shape == (2, 2, 3, 3)
    assert np.array_equal(k[1, 1], stiffness_matrix(cfg, 500.0, 0.005, 0.0))


def test_natural_frequencies_toeplitz():
    cfg = paper_cfg()
    lams = natural_frequencies(cfg, 0.0, 0.0, 0.0)
    expect = [1000.0 * (2.0 - math.sqrt(2.0)), 2000.0, 1000.0 * (2.0 + math.sqrt(2.0))]
    for got, want in zip(lams, expect):
        assert math.isclose(got, want, rel_tol=1e-12)
    for got, want in zip(np.sqrt(lams), expect):
        assert math.isclose(got, math.sqrt(want), rel_tol=1e-12)


def test_natural_frequencies_decoupled():
    # D2 = 1 kills the middle spring, so the system splits into the first
    # mass alone (k1/m = 1000) and a 2x2 block whose smaller eigenvalue
    # 1500 - 500*sqrt(5) is the global minimum; the cubic oracle agrees
    cfg = paper_cfg()
    lams = natural_frequencies(cfg, 300.0, 0.001, 1.0)
    want = sorted([1000.0, 1500.0 - 500.0 * math.sqrt(5.0), 1500.0 + 500.0 * math.sqrt(5.0)])
    for got, ref in zip(lams, want):
        assert math.isclose(got, ref, rel_tol=1e-12)
    m = np.diag([cfg.m1, cfg.m2, cfg.m3])
    k = stiffness_matrix(cfg, 300.0, 0.001, 1.0)
    oracle = cubic_eigenvalues(np.linalg.inv(m) @ k)
    for got, ref in zip(lams, oracle):
        assert math.isclose(got, ref, rel_tol=1e-9)


def test_natural_frequencies_stiffness_scaling():
    cfg = paper_cfg()
    hard = paper_cfg(k1=40000.0, k2=40000.0, k3=40000.0, k4=40000.0)
    base = natural_frequencies(cfg, 300.0, 0.0005, 0.25)
    scaled = natural_frequencies(hard, 300.0, 0.0005, 0.25)
    for a, b in zip(np.sqrt(base), np.sqrt(scaled)):
        assert math.isclose(2.0 * a, b, rel_tol=1e-12)


def test_natural_frequencies_vs_cardano_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        cfg = paper_cfg(
            m1=rng.uniform(1, 50),
            m2=rng.uniform(1, 50),
            m3=rng.uniform(1, 50),
            k1=rng.uniform(100, 50000),
            k2=rng.uniform(100, 50000),
            k3=rng.uniform(100, 50000),
            k4=rng.uniform(100, 50000),
        )
        t = rng.uniform(250, 500)
        alpha = rng.uniform(0, 1.0 / t)  # keep the factor nonnegative
        d2 = rng.uniform(0, 1)
        lams = natural_frequencies(cfg, t, alpha, d2)
        m = np.diag([cfg.m1, cfg.m2, cfg.m3])
        k = stiffness_matrix(cfg, t, alpha, d2)
        want = cubic_eigenvalues(np.linalg.inv(m) @ k)
        for got, ref in zip(lams, want):
            assert math.isclose(got, ref, rel_tol=1e-8, abs_tol=1e-8)


def test_frequency_embedding_refuses_negative_eigenvalue(monkeypatch):
    # the frequency embedding takes the eigenvalues' square roots, so a
    # negative lowest eigenvalue, which no physical grid yields, has no
    # natural frequency; the eigenvalue embedding passes it through
    cfg = paper_cfg(alpha_max=0.002)
    real = phom.generators.natural_frequencies
    plain = gen_msd_manifold(cfg).coords

    def negative_last_node(*args, **kwargs):
        lams = real(*args, **kwargs)
        lams[-1, -1, -1, 0] = -12.5
        return lams

    monkeypatch.setattr(phom.generators, "natural_frequencies", negative_last_node)
    for mode in (1, 2):  # the lowest eigenvalue is checked whatever the mode
        with pytest.raises(ComputationError) as err:
            gen_msd_manifold(cfg.with_mode(mode), embed="frequency")
        assert str(err.value) == "negative eigenvalue -12.5: no real natural frequency"
    coords = gen_msd_manifold(cfg).coords
    # the largest lowest eigenvalue, at the stiffest node, scales the column
    assert coords[-1, 3] == -12.5 / real(cfg, cfg.t_min, 0.0, 0.0)[0]
    assert np.array_equal(coords[:-1], plain[:-1])
    assert np.array_equal(coords[-1, :3], plain[-1, :3])


def test_msd_config_validation():
    with pytest.raises(InputError):
        paper_cfg(m1=0.0)
    with pytest.raises(InputError):
        paper_cfg(k2=-1.0)
    with pytest.raises(InputError):
        paper_cfg(t_divs=1)
    with pytest.raises(InputError):
        paper_cfg(mode_index=4)
    with pytest.raises(InputError):
        paper_cfg(d_max=1.5)
    # nan compares false, so each check must be written to fail on it;
    # inf parameters would write points instead of failing
    for name in ("m1", "k1", "t_min", "t_max", "alpha_max", "d_min", "d_max"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(InputError, match=name):
                paper_cfg(**{name: bad})


def test_msd_config_warns_on_unphysical_grid():
    with pytest.warns(UserWarning):
        MsdConfig()  # the default grid reaches factor -1.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        MsdConfig(alpha_max=0.002)  # alpha*T <= 1 everywhere: no warning


def test_msd_manifold_shape_and_grid():
    cloud = gen_msd_manifold(paper_cfg(mode_index=2))
    assert len(cloud) == 252 and cloud.dim == 4
    assert np.all(cloud.coords <= 1.0)
    assert np.all(cloud.coords[:, :3] >= 0.0)


def test_msd_manifold_point_count_matches_divisions():
    cfg = paper_cfg(t_divs=3, alpha_divs=4, d_divs=5, alpha_max=0.002)
    assert len(gen_msd_manifold(cfg)) == 3 * 4 * 5


def test_msd_manifold_modes_share_parameters():
    a = gen_msd_manifold(paper_cfg(mode_index=1)).coords
    b = gen_msd_manifold(paper_cfg(mode_index=3)).coords
    assert np.array_equal(a[:, :3], b[:, :3])
    assert not np.array_equal(a[:, 3], b[:, 3])


def test_msd_manifold_frequency_embedding():
    cfg = paper_cfg(alpha_max=0.002, mode_index=2)
    lam = gen_msd_manifold(cfg, embed="eigenvalue").coords[:, 3]
    om = gen_msd_manifold(cfg, embed="frequency").coords[:, 3]
    assert np.all(om > 0.0) and np.all(lam > 0.0)
    # frequency is the root of the eigenvalue, so the scaled columns differ
    assert not np.allclose(lam, om)


def test_msd_manifold_frequency_rejects_unphysical_grid():
    with pytest.raises(InputError) as err:
        gen_msd_manifold(paper_cfg(mode_index=1), embed="frequency")
    assert str(err.value) == (
        "grid reaches negative effective stiffness (min factor -1.5); "
        "natural frequencies are imaginary there"
    )


def test_msd_manifold_frequency_refusal_matches_every_node():
    # the refusal reads only the grid's corners; it must fire exactly when
    # some node's factor, computed as stiffness_matrix computes it, is < 0
    rng = np.random.default_rng(11)
    refused = 0
    for i in range(300):
        t_min = rng.uniform(0, 400)
        t_max = t_min + rng.uniform(0, 400)
        alpha_min = rng.uniform(0, 0.004)
        alpha_max = alpha_min + rng.uniform(0, 0.004)
        if i % 3 == 0:  # alpha2*T = 1 at a corner, or one ulp of alpha2 past it
            alpha_max = float(np.nextafter(1.0 / t_max, 1.0)) if i % 2 else 1.0 / t_max
            alpha_min = min(alpha_min, alpha_max)
        d_min = rng.uniform(0, 1)
        d_max = 1.0 if i % 4 == 0 else rng.uniform(d_min, 1)
        cfg = paper_cfg(
            t_min=t_min, t_max=t_max, t_divs=int(rng.integers(2, 6)),
            alpha_min=alpha_min, alpha_max=alpha_max, alpha_divs=int(rng.integers(2, 6)),
            d_min=d_min, d_max=d_max, d_divs=int(rng.integers(2, 6)),
        )
        t, a, d = np.meshgrid(cfg.grid_t(), cfg.grid_alpha(), cfg.grid_d(), indexing="ij")
        negative = bool(np.any((1.0 - a * t) * (1.0 - d) < 0.0))
        if negative:
            with pytest.raises(InputError, match="negative effective stiffness"):
                gen_msd_manifold(cfg, embed="frequency")
            refused += 1
        else:
            assert len(gen_msd_manifold(cfg, embed="frequency")) == t.size
    assert 50 < refused < 250


def assert_matches_oracle(cfg, embed="eigenvalue"):
    got = gen_msd_manifold(cfg, embed=embed).coords
    assert got.tobytes() == msd_cloud(cfg, embed=embed).tobytes(), cfg


def test_msd_manifold_matches_per_node_oracle():
    # the grid is solved as one stack; every cloud is the per-node
    # reference's, byte for byte
    for k2 in (10000.0, 5000.0):
        for mode in (1, 2, 3):
            assert_matches_oracle(paper_cfg(k2=k2, mode_index=mode))
    assert_matches_oracle(paper_cfg(alpha_max=0.001, d_max=0.5, mode_index=2), "frequency")
    assert_matches_oracle(paper_cfg(t_divs=20, alpha_divs=20, d_divs=25, mode_index=2))


def test_msd_manifold_random_configs_match_oracle():
    rng = np.random.default_rng(7)
    for _ in range(60):
        params = {name: rng.uniform(1, 50) for name in ("m1", "m2", "m3")}
        params.update({name: rng.uniform(100, 50000) for name in ("k1", "k2", "k3", "k4")})
        t_min, d_min = rng.uniform(0, 300), rng.uniform(0, 0.5)
        cfg = paper_cfg(
            **params,
            t_min=t_min,
            t_max=t_min + rng.uniform(0, 300),
            alpha_max=rng.uniform(0, 0.01),
            d_min=d_min,
            d_max=rng.uniform(d_min, 1.0),
            t_divs=int(rng.integers(2, 7)),
            alpha_divs=int(rng.integers(2, 7)),
            d_divs=int(rng.integers(2, 7)),
            mode_index=int(rng.integers(1, 4)),
        )
        assert_matches_oracle(cfg)
        if cfg.min_stiffness_factor() >= 0.0:
            assert_matches_oracle(cfg, "frequency")


def test_natural_frequencies_array_matches_scalar_calls():
    cfg = paper_cfg()
    t, a, d = np.meshgrid(cfg.grid_t(), cfg.grid_alpha(), cfg.grid_d(), indexing="ij")
    lams = natural_frequencies(cfg, t, a, d)
    assert lams.shape == t.shape + (3,)
    for node in np.ndindex(t.shape):
        one = natural_frequencies(cfg, t[node], a[node], d[node])
        assert one.shape == (3,)
        assert one.tobytes() == lams[node].tobytes()
    assert stiffness_matrix(cfg, 300.0, 0.001, 0.5).shape == (3, 3)
    assert natural_frequencies(cfg, np.empty((0, 2)), 0.0, 0.0).shape == (0, 2, 3)


def test_jacobi_nan_stack_does_not_converge():
    # nan fails the convergence test instead of passing it, so a nan node
    # raises instead of returning nan eigenvalues
    with pytest.raises(ComputationError, match="did not converge in 50 sweeps"):
        phom.generators._jacobi_eigh(np.full((2, 3, 3), np.nan))
    with pytest.raises(ComputationError, match="did not converge in 50 sweeps"):
        natural_frequencies(paper_cfg(), np.array([300.0, np.nan]), 0.001, 0.5)


def test_natural_frequencies_residual_check(monkeypatch):
    solve = phom.generators._jacobi_eigh

    def perturbed(a):
        lams, vecs = solve(a)
        return lams * (1.0 + 1e-6), vecs

    monkeypatch.setattr(phom.generators, "_jacobi_eigh", perturbed)
    with pytest.raises(ComputationError, match=r"eigenpair residual \S+ exceeds bound \S+"):
        natural_frequencies(paper_cfg(), np.array([300.0, 400.0]), 0.001, 0.5)


def test_msd_manifold_peak_memory_within_priced_cost():
    # the budget guard prices a grid at _BYTES_PER_MSD_NODE per node; the
    # stacked solve of 10^4 nodes must peak within that
    cfg = paper_cfg(t_divs=20, alpha_divs=20, d_divs=25, mode_index=2)
    tracemalloc.start()
    try:
        gen_msd_manifold(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 10_000 <= phom.generators._BYTES_PER_MSD_NODE


def test_self_intersection_family():
    # equal effective-stiffness factors give identical spectra
    cfg = paper_cfg()
    pairs = []
    for t in cfg.grid_t():
        for a in cfg.grid_alpha():
            for d in cfg.grid_d():
                pairs.append(((1.0 - a * t) * (1.0 - d), (t, a, d)))
    by_factor = {}
    for f, node in pairs:
        by_factor.setdefault(round(f, 12), []).append(node)
    checked = 0
    for nodes in by_factor.values():
        if len(nodes) < 2:
            continue
        base = natural_frequencies(cfg, *nodes[0])
        for other in nodes[1:]:
            got = natural_frequencies(cfg, *other)
            for x, y in zip(base, got):
                assert math.isclose(x, y, rel_tol=1e-10, abs_tol=1e-10)
            checked += 1
    assert checked > 10  # the default grid really does self-intersect


def test_config_file_round_trip(tmp_path):
    cfg = paper_cfg(k2=5000.0, mode_index=3)
    path = tmp_path / "msd.cfg"
    write_msd_config(cfg, path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        again = read_msd_config(path)
    assert again == cfg
    # every field is parsed as its annotated type, not only to an equal value
    assert [type(v) for v in vars(again).values()] == [type(v) for v in vars(cfg).values()]


def test_config_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "msd.cfg"
    path.write_text("k9 = 100\n")
    with pytest.raises(InputError):
        read_msd_config(path)
