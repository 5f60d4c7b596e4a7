import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from phom import (
    Barcode,
    ComputationError,
    InputError,
    MatchingProblem,
    PersistenceInterval,
    ResourceError,
    read_barcode_csv,
    wasserstein_p,
)
from oracles import (
    brute_wasserstein,
    cost_diag,
    cost_pair,
    dense_matching_cost,
    dense_reduced_costs,
)


def iv(dim, birth, death):
    return PersistenceInterval(dim, birth, death)


def bc(*ivs):
    return Barcode(tuple(ivs), eps_max=max((x.birth for x in ivs), default=0.0) + 10.0)


def random_barcode(rng, max_n=12, dims=(0, 1), allow_inf=True):
    out = []
    for _ in range(int(rng.integers(0, max_n + 1))):
        d = int(rng.choice(dims))
        birth = float(rng.uniform(0, 2))
        if allow_inf and rng.random() < 0.15:
            out.append(iv(d, birth, math.inf))
        else:
            out.append(iv(d, birth, birth + float(rng.uniform(0, 2))))
    return bc(*out) if out else Barcode((), eps_max=1.0)


def random_finite(rng, dim, n):
    births = rng.uniform(0, 2, n)
    return bc(*(iv(dim, b, b + d) for b, d in zip(births.tolist(), rng.uniform(0, 2, n).tolist())))


def assert_cost_cell(got, want, p):
    # p = 1 is exact; numpy squares with x*x where Python calls pow, so
    # p = 2 may differ by one unit in the last place
    if p == 1.0:
        assert got == want
    else:
        assert abs(got - want) <= math.ulp(want)


def assert_reduced_cell(got, a, b, p):
    # the cell is min(c - delta(a) - delta(b), 0): under p = 2 each of the
    # three terms may be one ulp off, and each of the two subtractions
    # rounds by half an ulp on either side, so 5 ulps of the largest term
    pair, da, db = cost_pair(a, b, p), cost_diag(a, p), cost_diag(b, p)
    want = min(pair - da - db, 0.0)
    if p == 1.0:
        assert got == want
    else:
        assert abs(got - want) <= 5 * math.ulp(max(pair, da + db))


def test_matching_problem_pair_cost_cells():
    rng = np.random.default_rng(3)
    left = bc(iv(0, 0, 1), iv(0, 0, 1), *random_finite(rng, 0, 30))
    right = bc(iv(0, 0, 1), iv(0, 0, 2), *random_finite(rng, 0, 25))
    for p in (1.0, 2.0):
        cost = MatchingProblem(left, right, p).cost.toarray()[:, : len(right)]
        for i, a in enumerate(left):
            for j, b in enumerate(right):
                assert_reduced_cell(cost[i, j], (a.birth, a.death), (b.birth, b.death), p)
    # equal bars save both diagonal costs, and the L-infinity distance
    # takes the larger endpoint gap: (0, 1) against (0, 2) costs 1, not 2
    cost = MatchingProblem(bc(iv(0, 0, 1)), bc(iv(0, 0, 1), iv(0, 0, 2)), 1.0).cost.toarray()
    assert cost[0, 0] == -1.0 and cost[0, 1] == -0.5
    # infinite bars are priced by birth alone
    assert wasserstein_p(bc(iv(1, 0, math.inf)), bc(iv(1, 0.3, math.inf)), 1.0) == 0.3
    # a finite bar is never matched to an infinite one: matched by birth,
    # (0, inf) with (0, 2) and (1, inf) with (1, 2) would cost 0
    left = bc(iv(0, 0, math.inf), iv(0, 1, 2))
    right = bc(iv(0, 1, math.inf), iv(0, 0, 2))
    assert wasserstein_p(left, right, 1.0) == 2.0


def test_matching_problem_diagonal_cost_cells():
    # with one side empty every bar goes to the diagonal
    rng = np.random.default_rng(4)
    left = bc(iv(0, 0, 2), iv(0, 0.7, 0.7), *random_finite(rng, 0, 20))
    right = bc(iv(0, 0.5, math.sqrt(2) / 2), *random_finite(rng, 0, 15))
    empty = Barcode((), eps_max=1.0)
    for p in (1.0, 2.0):
        for a in (*left, *right):
            want = cost_diag((a.birth, a.death), p)
            assert_cost_cell(MatchingProblem(bc(a), empty, p).solve(), want, p)
            assert_cost_cell(MatchingProblem(empty, bc(a), p).solve(), want, p)
        for side in (left, right):
            want = math.fsum(cost_diag((a.birth, a.death), p) for a in side)
            assert math.isclose(MatchingProblem(side, empty, p).solve(), want, rel_tol=1e-12)
    # half the length, and nothing for a zero-length bar
    assert MatchingProblem(bc(iv(0, 0, 2), iv(0, 0.7, 0.7)), empty, 1.0).solve() == 1.0
    assert MatchingProblem(empty, bc(iv(0, 0.7, 0.7)), 1.0).solve() == 0.0
    assert MatchingProblem(empty, empty, 2.0).solve() == 0.0


def test_matching_problem_cost_fill_memory():
    # the fill works one row block at a time and stores the negative
    # cells in arrays made at their final size: nothing n x m is allocated,
    # and nothing beyond the sparse graph but two scratch blocks
    rng = np.random.default_rng(11)
    left, right = random_finite(rng, 1, 1500), random_finite(rng, 1, 1462)
    MatchingProblem(left[:2], right[:2], 2.0)  # scipy.sparse loaded already
    tracemalloc.start()
    try:
        prob = MatchingProblem(left, right, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cost = prob.cost
    assert cost.shape == (1500, 1500 + 1462)
    assert peak <= cost.data.nbytes + cost.indices.nbytes + cost.indptr.nbytes + 2**20


def test_matching_problem_refuses_oversized_matrix():
    # 33,000**2 cells at the measured bytes per cell are far over the 8 GiB
    # default memory budget, so the problem is refused before anything is
    # allocated
    rng = np.random.default_rng(12)
    left, right = random_finite(rng, 0, 33_000), random_finite(rng, 0, 33_000)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="budget"):
            MatchingProblem(left, right, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**14


def test_matching_problem_rejects_mixed_dims():
    with pytest.raises(InputError):
        MatchingProblem(bc(iv(0, 0, 1)), bc(iv(1, 0, 1)), 2.0)
    with pytest.raises(InputError):
        MatchingProblem(bc(iv(0, 0, math.inf)), bc(), 2.0)


def test_matching_problem_cost_matrix_shape():
    rng = np.random.default_rng(13)
    for n, m in ((2, 1), (1, 2), (7, 7), (0, 3), (3, 0)):
        left, right = random_finite(rng, 0, n), random_finite(rng, 0, m)
        prob = MatchingProblem(left, right, 2.0)
        # one diagonal column per left bar, and no real cell a matching
        # would avoid
        assert prob.cost.shape == (n, n + m)
        assert np.all(prob.cost.data[prob.cost.indices < m] < 0.0)


def test_matching_problem_hands_scipy_the_improving_pairs(monkeypatch):
    # the solver gets the cost itself, n rows and m + n columns: the
    # stored cells, every one negative, and then column m + i alone, with
    # the smallest positive weight, for sending left bar i to the diagonal
    import scipy.sparse.csgraph

    seen = []

    def matching(graph):
        seen.append(graph)
        return real(graph)

    real = scipy.sparse.csgraph.min_weight_full_bipartite_matching
    monkeypatch.setattr(scipy.sparse.csgraph, "min_weight_full_bipartite_matching", matching)
    rng = np.random.default_rng(14)
    left, right = random_finite(rng, 1, 40), random_finite(rng, 1, 25)
    tiny = np.nextafter(0.0, 1.0)
    for p in (1.0, 2.0, 3.0):
        tall, wide = MatchingProblem(left, right, p), MatchingProblem(right, left, p)
        for prob in (tall, wide):
            n, m = len(prob.left), len(prob.right)
            dense = dense_reduced_costs(prob.left, prob.right, p)
            assert np.array_equal(prob.cost.toarray()[:, :m], dense)
            seen.clear()
            prob.solve()
            (graph,) = seen
            assert graph is prob.cost
            assert graph.shape == (n, m + n)
            assert np.array_equal(graph.toarray()[:, :m], dense)
            assert np.all(graph.data[graph.indices < m] < 0.0)
            assert np.array_equal(graph.toarray()[:, m:], np.diag(np.full(n, tiny)))
        assert tall.cost.shape == (40, 25 + 40)
        assert math.isclose(tall.solve(), wide.solve(), rel_tol=1e-12)


def test_matching_problem_memory_per_cell():
    # the memory guard prices n * m cells at _BYTES_PER_CELL: the solve's
    # peak, with every cell negative and so stored, must stay within it
    import phom.wasserstein as w

    rng = np.random.default_rng(15)
    sides = [
        bc(*(iv(1, b, 10 + d) for b, d in rng.uniform(0, 0.1, (size, 2)).tolist()))
        for size in (600, 500)
    ]
    MatchingProblem(sides[0][:2], sides[1][:2], 2.0).solve()  # scipy loaded already
    tracemalloc.start()
    try:
        prob = MatchingProblem(*sides, 2.0)
        prob.solve()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert prob.cost.size == 600 * 500 + 600
    assert peak <= w._BYTES_PER_CELL * 600 * 500


def test_wasserstein_matches_dense_oracle_bit_for_bit():
    # the sparse solve returns, to the last bit, what a dense assignment
    # over every reduced cost returns: random bars, bars tied on a quarter
    # lattice, identical sides and empty sides, at p = 1, 2 and 3
    import phom.wasserstein as w

    class DenseProblem(MatchingProblem):
        def solve(self):
            return dense_matching_cost(self.left, self.right, self.p)

    def lattice(rng, n):
        ends = np.sort(rng.integers(0, 9, (n, 2)), axis=1) / 4.0
        return bc(*(iv(int(rng.integers(0, 2)), b, d) for b, d in ends.tolist()))

    empty = Barcode((), eps_max=1.0)
    rng = np.random.default_rng(2026)
    cases = []
    for i in range(1200):
        kind = i % 4
        if kind == 0:
            a, b = random_barcode(rng, max_n=30), random_barcode(rng, max_n=30)
        elif kind == 1:
            a, b = lattice(rng, int(rng.integers(0, 25))), lattice(rng, int(rng.integers(0, 25)))
        elif kind == 2:
            a = random_barcode(rng, max_n=20) if i % 8 == 2 else lattice(rng, 20)
            b = a
        else:
            a, b = random_barcode(rng, max_n=20, allow_inf=False), empty
            if i % 8 == 7:
                a, b = b, a
        cases.append((a, b))
    for a, b in cases:
        for p in (1.0, 2.0, 3.0):
            got = wasserstein_p(a, b, p)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(w, "MatchingProblem", DenseProblem)
                want = wasserstein_p(a, b, p)
            assert got == want or (math.isinf(got) and math.isinf(want))
        for k in (0, 1):
            left, right = (x[(x.dims == k) & np.isfinite(x.deaths)] for x in (a, b))
            prob = MatchingProblem(left, right, 2.0)
            dense = dense_reduced_costs(left, right, 2.0)
            assert np.array_equal(prob.cost.toarray()[:, : len(right)], dense)


def test_wasserstein_identity_and_symmetry():
    b1 = bc(iv(0, 0, 1), iv(1, 0.2, 0.9))
    assert wasserstein_p(b1, b1, 2.0) == 0.0
    b2 = bc(iv(0, 0, 2))
    assert wasserstein_p(b1, b2, 1.0) == wasserstein_p(b2, b1, 1.0)


def test_wasserstein_direct_match_beats_diagonal():
    b1 = bc(iv(0, 0, 1))
    b2 = bc(iv(0, 0, 2))
    # direct match costs 1; via diagonals 0.5 + 1.0
    assert wasserstein_p(b1, b2, 1.0) == pytest.approx(1.0)


def test_wasserstein_forced_diagonal():
    b1 = bc(iv(1, 0, 2))
    empty = Barcode((), eps_max=1.0)
    assert wasserstein_p(b1, empty, 2.0) == pytest.approx(1.0)
    assert wasserstein_p(empty, empty, 2.0) == 0.0


def test_wasserstein_infinite_mismatch():
    b1 = bc(iv(0, 0, math.inf))
    b2 = bc(iv(0, 0, 1))
    assert math.isinf(wasserstein_p(b1, b2, 2.0))


# barcodes whose diagonal costs leave float range at p = 2 and p = 3
LONG_BARS = bc(iv(0, 0, 1), iv(1, 0, 1e200))
LONG_BAR = bc(iv(1, 0, 2e154))
# (left, right, p, the p-th power of their distance or ComputationError)
FLOAT_RANGE_CASES = (
    (
        bc(iv(1, -1e308, -1e308 + 1e293)),
        bc(iv(1, 1e308, 1e308 + 1e293)),
        1.0,
        9.979201547673599e292,
    ),
    (bc(iv(1, -1e308, 1e308)), bc(iv(1, 1e308, 1e308)), 1.0, 1e308),
    # a reduced cost 1 - 1e308 - 1e308 is below -max, but its half is not
    (bc(iv(1, 0, 2e154)), bc(iv(1, 1, 1 + 2e154)), 2.0, 1.0),
    (bc(iv(1, -1e308, 1e308)), bc(iv(1, -1e308, 1e308)), 1.0, 0.0),
    # two diagonal costs of 1e308 sum beyond float range
    (bc(iv(1, 0, 2e154), iv(1, 1, 2e154)), bc(), 2.0, ComputationError),
    (bc(iv(1, -1e308, 1e308), iv(1, -1e308, 1e308)), bc(), 1.0, ComputationError),
    # equal bars still match where r is -2 * 5e-324, whole or, beside a
    # wide bar, halved
    (bc(iv(1, 0.1, 0.5)), bc(iv(1, 0.1, 0.5)), 462.5, 0.0),
    (
        bc(iv(1, -1e308, 1e308), iv(1, 0, 1e-323)),
        bc(iv(1, -1e308, 1e308), iv(1, 0, 1e-323)),
        1.0,
        0.0,
    ),
    # a barcode against itself is at 0 before any power is taken
    (LONG_BARS, LONG_BARS, 2.0, 0.0),
    (LONG_BAR, LONG_BAR, 3.0, 0.0),
)


def test_wasserstein_refuses_powers_beyond_float_range():
    # 0.2**p underflows past p = 460 and 20**p overflows past p = 236:
    # either would print a wrong distance, so the distance is refused
    inf_bar = iv(0, 0, math.inf)
    near = bc(inf_bar, iv(1, 0.1, 0.5)), bc(inf_bar, iv(1, 0.1, 0.3))
    far = bc(inf_bar, iv(1, 0, 10)), bc(inf_bar, iv(1, 0, 30))
    for p in (2.0, 400.0):
        assert wasserstein_p(*near, p) == pytest.approx(0.2)
    assert wasserstein_p(*far, 200.0) == pytest.approx(15.0)
    for pair, p in ((near, 500.0), (near, 1000.0), (far, 300.0)):
        with pytest.raises(ComputationError, match=f"p = {p}"):
            wasserstein_p(*pair, p)
    # equal bars, or bars that differ only by zero-length ones, are at 0
    for p in (462.5, 1000.0, 1e9):
        assert wasserstein_p(near[0], near[0], p) == 0.0
        assert wasserstein_p(near[0], bc(inf_bar, iv(1, 0.1, 0.5), iv(1, 2, 2)), p) == 0.0
    # a pair cost beyond float range is never matched: the distance holds
    short, remote = bc(iv(1, 0, 1)), bc(iv(1, 1e300, 1.000000000000001e300))
    half = (remote.deaths[0] - remote.births[0]) / 2
    want = (0.5**1.05 + half**1.05) ** (1 / 1.05)
    assert wasserstein_p(short, remote, 1.05) == pytest.approx(want)
    # both entry points share one rule, and no warning escapes (pytest
    # makes one an error): a pair whose cost leaves float range is never
    # matched, even when its endpoint difference overflows at p = 1, and a
    # diagonal of half a length beyond float max is halved first; a
    # barcode compared with itself never reaches a matching
    for left, right, p, want in FLOAT_RANGE_CASES:
        solvers = [lambda: wasserstein_p(left, right, p) ** p]
        if left is not right:
            solvers.append(lambda: MatchingProblem(left, right, p).solve())
        for solve in solvers:
            if want is ComputationError:
                with pytest.raises(ComputationError, match=f"p = {p}"):
                    solve()
            else:
                assert solve() == want


def test_matching_problem_refuses_powers_beyond_float_range():
    # 15**300 overflows the diagonal cost of (0, 30), which would leave an
    # inf - inf cell and an inf cost; used directly, the matching refuses
    # it as wasserstein_p does, and no warning escapes (pytest makes one an
    # error)
    for p in (300, 300.0):
        with pytest.raises(ComputationError) as err:
            MatchingProblem(bc(iv(1, 0, 10)), bc(iv(1, 0, 30)), p)
        assert str(err.value) == f"the p-th powers leave float range at p = {p}; use a smaller p"
    with pytest.raises(ComputationError, match="p = 300.0"):
        MatchingProblem(bc(iv(1, 0, 30)), bc(), 300.0)
    assert MatchingProblem(bc(iv(1, 0, 10)), bc(iv(1, 0, 30)), 200.0).solve() == pytest.approx(
        15.0**200, rel=1e-9
    )
    # at p = 1, the smallest p compare accepts, the error gives no advice
    for left, right, p, want in FLOAT_RANGE_CASES:
        if want is ComputationError:
            with pytest.raises(ComputationError) as err:
                MatchingProblem(left, right, p).solve()
            advice = "; use a smaller p" if p > 1 else ""
            assert str(err.value) == f"the p-th powers leave float range at p = {p}{advice}"


def test_matching_problem_hands_scipy_finite_nonzero_weights(monkeypatch):
    # min_weight_full_bipartite_matching documents its weights as the
    # reals without 0: no weight leaves float range, even where a reduced
    # cost falls below -max, and none rounds to 0
    import scipy.sparse.csgraph

    weights = []

    def matching(graph):
        weights.append(graph.data)
        return real(graph)

    real = scipy.sparse.csgraph.min_weight_full_bipartite_matching
    monkeypatch.setattr(scipy.sparse.csgraph, "min_weight_full_bipartite_matching", matching)
    problems = [
        case[:3]
        for case in FLOAT_RANGE_CASES
        if case[0] is not case[1] and case[3] is not ComputationError
    ]
    rng = np.random.default_rng(16)
    for p in (1.0, 2.0, 3.5) * 20:
        n, m = rng.integers(1, 30, 2)
        problems.append((random_finite(rng, 1, n), random_finite(rng, 1, m), p))
    for left, right, p in problems:
        weights.clear()
        MatchingProblem(left, right, p).solve()
        (data,) = weights
        assert np.all(np.isfinite(data)) and np.all(data != 0.0)


def test_wasserstein_p_validation():
    b = bc(iv(0, 0, 1))
    for p in (0.5, math.inf, math.nan):
        with pytest.raises(InputError):
            wasserstein_p(b, b, p)


def test_wasserstein_dims_filter():
    b1 = bc(iv(0, 0, 1), iv(1, 0, 5))
    b2 = bc(iv(0, 0, 1))
    # dim 1 differs wildly but is excluded
    assert wasserstein_p(b1, b2, 2.0, dims=[0]) == 0.0
    # a dimension absent from both barcodes contributes nothing
    assert wasserstein_p(b1, b2, 2.0, dims=[0, 7]) == 0.0
    for dims in ([], [-3], [0, -1]):
        with pytest.raises(InputError):
            wasserstein_p(b1, b2, 2.0, dims=dims)
    # a repeated dimension would be counted twice
    with pytest.raises(InputError):
        wasserstein_p(b1, b2, 2.0, dims=[1, 1])


def test_wasserstein_matches_brute_force():
    rng = np.random.default_rng(1234)
    for _ in range(60):
        b1 = random_barcode(rng, max_n=6, dims=(0,))
        b2 = random_barcode(rng, max_n=6, dims=(0,))
        for p in (1.0, 2.0):
            got = wasserstein_p(b1, b2, p)
            want = brute_wasserstein(
                [(x.birth, x.death) for x in b1],
                [(x.birth, x.death) for x in b2],
                p,
            )
            if math.isinf(want):
                assert math.isinf(got)
            else:
                assert math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-12)


def test_wasserstein_matches_brute_force_unequal_sizes():
    # rectangular problems in both orientations and with an empty side,
    # sized differently in each dimension
    rng = np.random.default_rng(2024)
    sizes = [(2, 5), (5, 2), (0, 4), (4, 0), (1, 6), (6, 1), (3, 4), (0, 0)]
    for _ in range(6):
        per_dim = [sizes[i] for i in rng.permutation(len(sizes))[:3]]
        sides = [
            [random_finite(rng, k, size[side]) for k, size in enumerate(per_dim)]
            for side in (0, 1)
        ]
        for p in (1.0, 2.0, 3.0):
            total = 0.0
            for a, b in zip(*sides):
                want = brute_wasserstein(
                    [(x.birth, x.death) for x in a], [(x.birth, x.death) for x in b], p
                )
                for x, y in ((a, b), (b, a)):
                    got = MatchingProblem(x, y, p).solve() ** (1.0 / p)
                    assert math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-12)
                total += want**p
            b1, b2 = (bc(*(bar for dim in side for bar in dim)) for side in sides)
            for got in (wasserstein_p(b1, b2, p), wasserstein_p(b2, b1, p)):
                assert math.isclose(got, total ** (1.0 / p), rel_tol=1e-10, abs_tol=1e-12)


def test_wasserstein_metric_axioms():
    rng = np.random.default_rng(77)
    for _ in range(200):
        a = random_barcode(rng)
        b = random_barcode(rng)
        c = random_barcode(rng)
        dab = wasserstein_p(a, b, 2.0)
        dba = wasserstein_p(b, a, 2.0)
        assert dab == dba
        assert wasserstein_p(a, a, 2.0) == 0.0
        dac = wasserstein_p(a, c, 2.0)
        dcb = wasserstein_p(c, b, 2.0)
        if not (math.isinf(dab) or math.isinf(dac) or math.isinf(dcb)):
            assert dab <= dac + dcb + 1e-9


def test_wasserstein_perturbation_stability():
    rng = np.random.default_rng(5)
    for _ in range(50):
        base = random_barcode(rng, max_n=8, allow_inf=False)
        if len(base) == 0:
            continue
        ivs = list(base)
        delta = float(rng.uniform(0, 0.5))
        k = int(rng.integers(0, len(ivs)))
        moved = ivs[k]
        ivs[k] = iv(moved.dim, moved.birth, moved.death + delta)
        shifted = Barcode(tuple(ivs), eps_max=base.eps_max)
        assert wasserstein_p(base, shifted, 1.0) <= delta + 1e-9


def test_wasserstein_scale_equivariance():
    rng = np.random.default_rng(9)
    for _ in range(50):
        a = random_barcode(rng, max_n=8)
        b = random_barcode(rng, max_n=8)
        d1 = wasserstein_p(a, b, 2.0)
        if math.isinf(d1):
            continue
        c = 3.5
        scale = lambda bcode: Barcode(
            tuple(
                iv(x.dim, c * x.birth, c * x.death if not math.isinf(x.death) else math.inf)
                for x in bcode
            ),
            eps_max=c * bcode.eps_max,
        )
        d2 = wasserstein_p(scale(a), scale(b), 2.0)
        assert math.isclose(d2, c * d1, rel_tol=1e-12, abs_tol=1e-12)


def run_python(script, *args):
    """Run ``script`` in a fresh interpreter that imports phom from src/."""
    src = pathlib.Path(__file__).parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


LOADS_SCIPY_ONLY_TO_MATCH = """
import contextlib, io, sys
import phom.cli
assert "scipy" not in sys.modules, "importing phom loaded scipy"

def phom_out(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert phom.cli.main(list(argv)) == 0
    return out.getvalue()

d = sys.argv[1]
phom_out("gen", "sphere", "--nu", "8", "--nv", "5", "--out", f"{d}/s.csv")
phom_out("gen", "fibsphere", "--n", "40", "--out", f"{d}/f.csv")
phom_out("vr", f"{d}/s.csv", "--eps", "0.9", "--max-dim", "2")
phom_out("betti", f"{d}/s.csv", "--eps", "0.9", "--max-k", "2")
for cloud, bars in (("s", "a"), ("f", "b")):
    phom_out("persist", f"{d}/{cloud}.csv", "--eps", "0.9", "--max-dim", "2",
             "--out", f"{d}/{bars}.csv")
phom_out("plot", "barcode", f"{d}/a.csv", "--out", f"{d}/a.svg")
phom_out("plot", "diagram", f"{d}/b.csv", "--out", f"{d}/b.svg")
assert "scipy" not in sys.modules, "scipy loaded before a matching"
assert "scipy.sparse._csr" not in sys.modules, "scipy.sparse loaded before a matching"
assert "scipy.sparse.csgraph._matching" not in sys.modules, "scipy loaded before a matching"
assert "numpy.ma" not in sys.modules, "numpy.ma loaded before a matching"
print(phom_out("compare", f"{d}/a.csv", f"{d}/b.csv"), end="")
assert "scipy.sparse.csgraph._matching" in sys.modules
assert "scipy.optimize" not in sys.modules, "a matching loaded scipy.optimize"
"""


def test_scipy_loads_only_to_solve_a_matching(tmp_path):
    # importing scipy costs most of a CLI run's start-up time and memory:
    # importing phom and running gen, vr, betti, persist and plot must not
    # load scipy at all, and compare must load the sparse matching solver
    # but never scipy.optimize; numpy.ma, which np.unique imports, must
    # wait for compare too
    printed = run_python(LOADS_SCIPY_ONLY_TO_MATCH, tmp_path)
    want = wasserstein_p(read_barcode_csv(tmp_path / "a.csv"), read_barcode_csv(tmp_path / "b.csv"))
    assert 0.0 < want < math.inf
    assert printed == f"d_Wp = {want:.5g}\n"


def test_scipy_imported_first_is_reused():
    # a caller that imported scipy.sparse before phom keeps that module,
    # and the matching solves with it
    script = (
        "import sys, scipy.sparse\n"
        "first = sys.modules['scipy.sparse']\n"
        "import phom\n"
        "bars = [phom.PersistenceInterval(0, 0.0, d) for d in (1.0, 2.0)]\n"
        "left, right = (phom.Barcode((bar,), eps_max=3.0) for bar in bars)\n"
        "print(phom.MatchingProblem(left, right, 1.0).solve())\n"
        "assert sys.modules['scipy.sparse'] is first is scipy.sparse\n"
    )
    assert run_python(script) == "1.0\n"
