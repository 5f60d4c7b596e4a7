import math
import tracemalloc

import numpy as np
import pytest

from phom import (
    Barcode,
    InputError,
    MatchingProblem,
    PersistenceInterval,
    wasserstein_p,
)
from oracles import brute_wasserstein, cost_diag, cost_pair


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


def test_matching_problem_pair_cost_cells():
    rng = np.random.default_rng(3)
    left = bc(iv(0, 0, 1), iv(0, 0, 1), *random_finite(rng, 0, 30))
    right = bc(iv(0, 0, 1), iv(0, 0, 2), *random_finite(rng, 0, 25))
    for p in (1.0, 2.0):
        cost = MatchingProblem(left, right, p).cost
        for i, a in enumerate(left):
            for j, b in enumerate(right):
                want = cost_pair((a.birth, a.death), (b.birth, b.death), p)
                assert_cost_cell(cost[i, j], want, p)
    # equal bars cost nothing, and the L-infinity distance takes the
    # larger endpoint gap
    cost = MatchingProblem(bc(iv(0, 0, 1)), bc(iv(0, 0, 1), iv(0, 0, 2)), 1.0).cost
    assert cost[0, 0] == 0.0 and cost[0, 1] == 1.0
    # infinite bars are priced by birth alone
    assert wasserstein_p(bc(iv(1, 0, math.inf)), bc(iv(1, 0.3, math.inf)), 1.0) == 0.3
    # a finite bar is never matched to an infinite one: matched by birth,
    # (0, inf) with (0, 2) and (1, inf) with (1, 2) would cost 0
    left = bc(iv(0, 0, math.inf), iv(0, 1, 2))
    right = bc(iv(0, 1, math.inf), iv(0, 0, 2))
    assert wasserstein_p(left, right, 1.0) == 2.0


def test_matching_problem_diagonal_cost_cells():
    rng = np.random.default_rng(4)
    left = bc(iv(0, 0, 2), iv(0, 0.7, 0.7), *random_finite(rng, 0, 20))
    right = bc(iv(0, 0.5, math.sqrt(2) / 2), *random_finite(rng, 0, 15))
    n, m = len(left), len(right)
    for p in (1.0, 2.0):
        cost = MatchingProblem(left, right, p).cost
        for i, a in enumerate(left):
            for got in cost[i, m:]:
                assert_cost_cell(got, cost_diag((a.birth, a.death), p), p)
        for j, b in enumerate(right):
            for got in cost[n:, j]:
                assert_cost_cell(got, cost_diag((b.birth, b.death), p), p)
    cost = MatchingProblem(bc(iv(0, 0, 2), iv(0, 0.7, 0.7)), bc(), 1.0).cost
    # half the length, and nothing for a zero-length bar
    assert cost[0, 0] == 1.0 and cost[1, 0] == 0.0


def test_matching_problem_cost_fill_memory():
    # the fill works in place one row block at a time: nothing n x m is
    # allocated beyond the cost matrix itself
    rng = np.random.default_rng(11)
    left, right = random_finite(rng, 1, 1500), random_finite(rng, 1, 1462)
    tracemalloc.start()
    try:
        prob = MatchingProblem(left, right, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert prob.cost.shape == (2962, 2962)
    assert peak <= prob.cost.nbytes + 2**20


def test_matching_problem_rejects_mixed_dims():
    with pytest.raises(InputError):
        MatchingProblem(bc(iv(0, 0, 1)), bc(iv(1, 0, 1)), 2.0)
    with pytest.raises(InputError):
        MatchingProblem(bc(iv(0, 0, math.inf)), bc(), 2.0)


def test_matching_problem_cost_matrix_shape():
    left = bc(iv(0, 0, 1), iv(0, 0.5, 2))
    right = bc(iv(0, 0.1, 1.2))
    prob = MatchingProblem(left, right, 2.0)
    n, m = len(left), len(right)
    assert prob.cost.shape == (n + m, n + m)
    assert np.all(prob.cost >= 0.0)
    # diagonal-to-diagonal slots are free
    assert np.all(prob.cost[n:, m:] == 0.0)


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
                iv(x.dim, c * x.birth, c * x.death if not x.is_infinite else math.inf)
                for x in bcode
            ),
            eps_max=c * bcode.eps_max,
        )
        d2 = wasserstein_p(scale(a), scale(b), 2.0)
        assert math.isclose(d2, c * d1, rel_tol=1e-12, abs_tol=1e-12)
