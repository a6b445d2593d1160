import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from diophlab import counting, montecarlo
from diophlab.counting import (
    Convention,
    CountingKernel,
    MatrixU,
    _exact_open_count,
    count_direct,
    half_space_grid,
    normalize_clt,
)
from diophlab.errors import CapExceededError, ValidationError
from diophlab.lattice import lattice_from_u, siegel_transform_box
from diophlab.oracles import brute_force_block, brute_force_count, slow_reference_count
from diophlab.problem import ApproximationProblem, Norm, validate

P11 = validate(ApproximationProblem(m=1, n=1, weights=(1,), thetas=(0.5,)))
P21 = validate(
    ApproximationProblem(m=2, n=1, weights=(Fraction(1, 2), Fraction(1, 2)), thetas=(1.0, 1.0))
)
U0 = MatrixU(np.zeros((1, 1)))


def test_count_direct_trivial_u0():
    assert count_direct(P11, U0, 10.0).total == 18
    assert count_direct(P11, U0, 10.0, Convention.POSITIVE_Q).total == 9


def test_count_blocks_u0():
    assert CountingKernel(P11, 0, 1).block_counts(U0)[0] == 4
    # q with e <= |q| < e^2 is {3,...,7}: confirmed by the explicit-p oracle
    assert CountingKernel(P11, 1, 2).block_counts(U0)[0] == 10
    assert brute_force_block(P11, U0, 1) == 10


def test_count_frozen_dyadic_irrational():
    u = MatrixU(np.array([[math.sqrt(2) - 1.0], [math.sqrt(3) - 1.0]]))
    res = count_direct(P21, u, 1000.0)
    assert res.total == 60  # frozen from the explicit-p enumerator
    assert brute_force_count(P21, u, 1000.0) == 60


def test_block_additivity_exact():
    rng = np.random.default_rng(99)
    for _ in range(4):
        u = MatrixU(rng.random((2, 1)))
        N = int(rng.integers(3, 9))
        res = count_direct(P21, u, math.e**N)
        assert len(res.per_block) == N
        assert res.total == sum(res.per_block)
        assert res.per_block == tuple(CountingKernel(P21, s, s + 1).block_counts(u)[0] for s in range(N))


def test_sign_symmetry_exact():
    rng = np.random.default_rng(5)
    for _ in range(5):
        u = MatrixU(rng.random((2, 1)))
        T = float(rng.uniform(20, 300))
        both = count_direct(P21, u, T, Convention.BOTH_SIGNS).total
        pos = count_direct(P21, u, T, Convention.POSITIVE_Q).total
        assert both == 2 * pos
        # the oracle enumerates signs literally, so this checks the doubling
        assert brute_force_count(P21, u, T, Convention.POSITIVE_Q) == pos


def test_monotonicity_in_T_and_theta():
    rng = np.random.default_rng(11)
    u = MatrixU(rng.random((2, 1)))
    totals = [count_direct(P21, u, T).total for T in (50.0, 100.0, 200.0, 400.0)]
    assert totals == sorted(totals)
    bigger = validate(
        ApproximationProblem(m=2, n=1, weights=(Fraction(1, 2), Fraction(1, 2)), thetas=(1.5, 1.5))
    )
    assert count_direct(bigger, u, 200.0).total >= count_direct(P21, u, 200.0).total


def test_oracle_equivalence_small():
    rng = np.random.default_rng(17)
    problems = {
        (1, 1): validate(ApproximationProblem(m=1, n=1, weights=(1,), thetas=(0.8,))),
        (2, 1): P21,
        (1, 2): validate(ApproximationProblem(m=1, n=2, weights=(2,), thetas=(0.6,))),
        (2, 2): validate(
            ApproximationProblem(m=2, n=2, weights=(1, 1), thetas=(1.0, 0.7), norm=Norm.EUCLIDEAN)
        ),
    }
    for (m, n), prob in problems.items():
        for _ in range(3):
            u = MatrixU(rng.random((m, n)))
            T = float(rng.uniform(8, 60 if n == 2 else 200))
            assert count_direct(prob, u, T).total == brute_force_count(prob, u, T)


def test_fraction_reference_cross_check():
    rng = np.random.default_rng(23)
    u = MatrixU(rng.random((2, 1)))
    assert count_direct(P21, u, 40.0).total == slow_reference_count(P21, u, 40.0)


def test_boundary_is_exact_not_float():
    # theta = 1, w = 1: at q = 1 the p-interval is exactly (-1, 1), so the
    # endpoints are integers and the strict inequality must exclude them
    p = validate(ApproximationProblem(m=1, n=1, weights=(1,), thetas=(1.0,)))
    res = count_direct(p, U0, 2.0)
    assert res.total == 2  # q = +-1, p = 0 only
    assert slow_reference_count(p, U0, 2.0) == 2


def test_dyadic_u_boundary_storm():
    # low-denominator dyadic u maximizes exact boundary hits; the escalation
    # path must agree with the all-Fraction reference on every one of them
    p = validate(ApproximationProblem(m=2, n=1, weights=(Fraction(1, 2), Fraction(1, 2)), thetas=(1.0, 0.5)))
    grid = [0.0, 0.25, 0.5, 0.75]
    for a in grid:
        for b in grid:
            u = MatrixU(np.array([[a], [b]]))
            assert count_direct(p, u, 30.0).total == slow_reference_count(p, u, 30.0)
    # integer-radius thetas make rho hit integers exactly at square q
    p2 = validate(ApproximationProblem(m=1, n=1, weights=(1,), thetas=(2.0,)))
    for a in grid:
        u = MatrixU(np.array([[a]]))
        assert count_direct(p2, u, 25.0).total == slow_reference_count(p2, u, 25.0)


def test_dyadic_u_boundary_storm_euclidean():
    # the squared-radius exact path and the Euclidean below-T cut, on dyadic u
    p = validate(
        ApproximationProblem(m=2, n=2, weights=(1, 1), thetas=(1.0, 0.5), norm=Norm.EUCLIDEAN)
    )
    grid = [0.0, 0.25, 0.5, 0.75]
    for a in grid:
        for b in grid:
            u = MatrixU(np.array([[a, b], [b, 0.5]]))
            for T in (5.0, 7.5, 10.0):
                want = brute_force_count(p, u, T)
                assert count_direct(p, u, T).total == want
                assert slow_reference_count(p, u, T) == want


P22E = validate(
    ApproximationProblem(m=2, n=2, weights=(1, 1), thetas=(1.0, 0.7), norm=Norm.EUCLIDEAN)
)
P13 = validate(ApproximationProblem(m=1, n=3, weights=(3,), thetas=(0.8,)))


@pytest.mark.parametrize("problem,N", [(P21, 6), (P22E, 3), (P13, 2)], ids=["21", "22-euclid", "13-sup"])
def test_chunk_boundaries_leave_counts_unchanged(monkeypatch, problem, N):
    # a prime chunk length splits shells, survivors and suspicious q at odd places
    rng = np.random.default_rng(41)
    shape = (problem.m, problem.n)
    us = [MatrixU(rng.random(shape)) for _ in range(3)]
    us += [MatrixU(rng.integers(0, 8, shape) / 8) for _ in range(3)]
    kernel = CountingKernel(problem, 0, N)

    def counts():
        return [
            (
                kernel.block_counts(u),
                [siegel_transform_box(problem, lattice_from_u(problem, u), s) for s in range(N)],
            )
            for u in us
        ]

    monkeypatch.setattr(counting, "_CHUNK", 10**9)
    whole = counts()
    monkeypatch.setattr(counting, "_CHUNK", 7)
    assert kernel.q_int.shape[1] > 7
    for (blocks, siegel), (want_blocks, want_siegel) in zip(counts(), whole):
        assert blocks.dtype == want_blocks.dtype and np.array_equal(blocks, want_blocks)
        assert siegel == want_siegel
    assert sum(int(b.sum()) for b, _ in whole) > 0


P21_WIDE = validate(
    ApproximationProblem(m=2, n=1, weights=(Fraction(1, 2), Fraction(1, 2)), thetas=(2.0, 1.5))
)
P13_WIDE = validate(ApproximationProblem(m=1, n=3, weights=(3,), thetas=(2.5,)))
# theta_0 is the least double above sqrt(3)/4: at u_0 = 1/4, q = 3 the real interval
# holds p = 0 by a hair, while the float radius 3^{-1/2} theta_0 may round to 1/4
P21_EDGE = validate(
    ApproximationProblem(m=2, n=1, weights=(Fraction(1, 2), Fraction(1, 2)), thetas=(0.43301270189221935, 2.0))
)


@pytest.mark.parametrize("problem,N", [(P21_WIDE, 6), (P13_WIDE, 2), (P21_EDGE, 3)], ids=["21", "13", "21-edge"])
@pytest.mark.parametrize("chunk", [7, 10**9])
def test_candidate_filter_matches_brute_force(monkeypatch, problem, N, chunk):
    # intervals of width >= 1 near the origin, and a narrow one that float
    # cannot settle: each such q must reach the counting whatever its chunk
    rng = np.random.default_rng(43)
    shape = (problem.m, problem.n)
    us = [MatrixU(rng.random(shape)) for _ in range(3)]
    us += [MatrixU(rng.integers(0, 8, shape) / 8) for _ in range(3)] + [MatrixU(np.full(shape, 0.25))]
    kernel = CountingKernel(problem, 0, N)
    assert kernel.rho.max() >= 1.0 and kernel.q_int.shape[1] > 7
    monkeypatch.setattr(counting, "_CHUNK", chunk)
    for u in us:
        want = [brute_force_block(problem, u, s) for s in range(N)]
        assert kernel.block_counts(u).tolist() == want
        cols, counts = counting.per_q_product_counts(problem, u, kernel.q_int, kernel.radii, kernel.rho)
        assert np.all(np.diff(cols) > 0) and np.all(counts != 0)
        assert 2 * int(counts.sum()) == sum(want)


def test_block_counts_memory_does_not_grow_with_the_grid():
    # only the hits leave a chunk, so one call allocates about two chunk-sized
    # float buffers whatever K; a K-sized per-sample array would cost 8 K bytes
    import tracemalloc

    peaks = []
    for N in (12, 14):
        kernel = CountingKernel(P21, 0, N)
        kernel.block_counts(montecarlo.sample_u_at(5, 0, 2, 1))
        tracemalloc.start()
        try:
            kernel.block_counts(montecarlo.sample_u_at(5, 1, 2, 1))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert kernel.q_int.shape[1] > 2 * counting._CHUNK
    assert peaks[1] <= 1.05 * peaks[0]
    assert max(peaks) <= 24 * counting._CHUNK < 8 * kernel.q_int.shape[1]


def test_ceil_exp_matches_exact_taylor_bracket():
    # sum_{k <= M} x^k / k! < e^x < that sum + x^{M+1} / (M+1)! * (M+2) / (M+2-x)
    assert counting._ceil_exp(0) == 1
    for x in range(1, 41):
        M = 4 * x + 40
        term, low = Fraction(1), Fraction(1)
        for k in range(1, M + 1):
            term *= Fraction(x, k)
            low += term
        high = low + term * Fraction(x, M + 1) * Fraction(M + 2, M + 2 - x)
        assert math.floor(low) == math.floor(high)  # the bracket settles the ceiling
        assert counting._ceil_exp(x) == math.floor(low) + 1


def test_float_path_escalates_almost_never(monkeypatch):
    # the certified bound is ~6e-10 at N = 12, so a random u almost never
    # puts a decision inside it; an integer endpoint still escalates
    # (test_boundary_is_exact_not_float and the dyadic storms)
    calls = []
    exact = counting._exact_open_count

    def counted(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(counting, "_exact_open_count", counted)
    kernel = CountingKernel(P21, 0, 12)
    for i in range(10):
        kernel.block_counts(montecarlo.sample_u_at(12, i, 2, 1))
    assert len(calls) <= 1


def test_exact_open_count_radius_keys():
    # the squared key k^2 must settle every p exactly as the plain key k does
    for c in (Fraction(0), Fraction(1, 4), Fraction(1, 2)):
        for theta, w in ((Fraction(3), Fraction(1)), (Fraction(1), Fraction(1, 2)), (Fraction(5, 2), Fraction(3, 2))):
            for k in (1, 2, 3, 4):
                assert _exact_open_count(c, theta, w, k * k, True) == _exact_open_count(c, theta, w, k, False)
    assert _exact_open_count(Fraction(0), Fraction(3), Fraction(1), 2, False) == 3  # |p| < 3/2
    assert _exact_open_count(Fraction(1, 2), Fraction(1), Fraction(1), 2, False) == 0  # |p + 1/2| < 1/2


def test_block_oracle_euclidean():
    p22 = validate(
        ApproximationProblem(m=2, n=2, weights=(1, 1), thetas=(1.0, 0.7), norm=Norm.EUCLIDEAN)
    )
    rng = np.random.default_rng(3)
    for _ in range(2):
        u = MatrixU(rng.random((2, 2)))
        for s in (0, 1, 2):
            assert CountingKernel(p22, s, s + 1).block_counts(u)[0] == brute_force_block(p22, u, s)


def test_positive_q_requires_n1():
    p = validate(ApproximationProblem(m=1, n=2, weights=(2,), thetas=(0.6,)))
    with pytest.raises(ValidationError, match="n = 1"):
        count_direct(p, MatrixU(np.zeros((1, 2))), 10.0, Convention.POSITIVE_Q)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("squared", [False, True])
@pytest.mark.parametrize(
    "lo,hi", [(1, 1), (1, 4), (2, 5), (3, 9), (5, 4), (0, 2), (4, 4), (2, 2), (3, 3), (24, 25), (18, 18)]
)
def test_half_space_grid_matches_brute_force(monkeypatch, n, squared, lo, hi):
    # the thin squared windows (2, 2), (3, 3), (24, 25) and (18, 18) leave
    # whole leading rows empty, and (3, 3) empties the n = 2 grid
    k = math.isqrt(hi) if squared else hi
    expected = []
    for q in itertools.product(range(-k, k + 1), repeat=n):
        radius = sum(x * x for x in q) if squared else max(abs(x) for x in q)
        lead = next((x for x in q if x != 0), 0)
        if lead > 0 and lo <= radius <= hi:
            expected.append(q)
    # one leading row per slab, several rows per slab, one slab for the box
    for chunk in (1, 4 * (2 * k + 1), 10**9):
        monkeypatch.setattr(counting, "_CHUNK", chunk)
        q, radii = half_space_grid(n, lo, hi, squared, cap=10**6)
        got = [tuple(int(x) for x in col) for col in q.T]
        assert got == sorted(expected)  # lexicographic order, one of each +/- pair
        assert not set(got) & {tuple(-x for x in g) for g in got}
        assert q.shape == (n, len(expected))
        assert radii.dtype == q.dtype == np.int64
        for col, r in zip(got, radii):
            assert r == (sum(x * x for x in col) if squared else max(abs(x) for x in col))


def test_kernel_build_peak_memory_near_its_arrays():
    # the build may not hold the whole (2k+1)^n box or stacked rho temporaries
    import tracemalloc

    CountingKernel(P22E, 0, 5)  # warm the caches of the radial thresholds
    tracemalloc.start()
    try:
        kernel = CountingKernel(P22E, 0, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(a.nbytes for a in (kernel.q_int, kernel.radii, kernel.block_of, kernel.rho))
    assert kernel.q_int.shape[1] > 30_000
    assert peak <= 1.6 * held


def test_half_space_grid_n1_and_cap():
    q, radii = half_space_grid(1, 0, 5, False, cap=10)
    assert q.tolist() == [[1, 2, 3, 4, 5]] and radii.tolist() == [1, 2, 3, 4, 5]
    with pytest.raises(CapExceededError):
        half_space_grid(1, 1, 11, False, cap=10)
    with pytest.raises(CapExceededError):
        half_space_grid(2, 1, 2, False, cap=24)  # the 5 x 5 box
    assert half_space_grid(2, 1, 2, False, cap=25)[0].shape == (2, 12)


def test_enumeration_cap(monkeypatch):
    monkeypatch.setenv("DIOPH_CAP", "1000")
    with pytest.raises(CapExceededError):
        count_direct(P21, MatrixU(np.zeros((2, 1))), 1e6)


def test_matrix_u_validation():
    with pytest.raises(ValidationError):
        MatrixU(np.array([[1.0]]))  # 1 is outside [0, 1)
    with pytest.raises(ValidationError):
        MatrixU(np.array([[-0.1]]))
    with pytest.raises(ValidationError):
        MatrixU(np.array([[math.nan]]))
    with pytest.raises(ValidationError):
        count_direct(P21, MatrixU(np.zeros((1, 1))), 10.0)  # wrong shape
    for T in (1.0, math.inf, math.nan):
        with pytest.raises(ValidationError, match="finite T > 1"):
            count_direct(P21, MatrixU(np.zeros((2, 1))), T)


def test_normalize_clt():
    C = 8.0
    T = math.e**5
    assert normalize_clt(int(C * 5), T, C) == pytest.approx(0.0, abs=1e-9)
    count = C * 5 + math.sqrt(5)
    assert normalize_clt(count, T, C) == pytest.approx(1.0, rel=1e-12)
    # frozen arithmetic on the oracle count of the dyadic-irrational example
    assert normalize_clt(60, 1000.0, 8.0) == pytest.approx(1.8026969070697845, rel=1e-12)
    with pytest.raises(ValidationError):
        normalize_clt(1, 1.0, C)
