import itertools
import math
from collections import Counter
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


def _chunked_counts(problem, u, q, radii, chunk):
    # per_q_product_counts on consecutive pieces of `chunk` columns, joined
    cols, counts = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for start in range(0, q.shape[1], chunk):
        c, k = counting.per_q_product_counts(problem, u, q[:, start : start + chunk], radii[start : start + chunk])
        cols.append(c + start)
        counts.append(k)
    return np.concatenate(cols), np.concatenate(counts)


@pytest.mark.parametrize("problem,N", [(P21, 6), (P22E, 3), (P13, 2)], ids=["21", "22-euclid", "13-sup"])
def test_chunk_boundaries_leave_counts_unchanged(problem, N):
    # the candidates split into pieces of a prime length: shells, survivors and
    # suspicious q fall at odd places, and each piece's error bound comes from
    # its own largest key, yet the counts equal one call over the whole list
    rng = np.random.default_rng(41)
    shape = (problem.m, problem.n)
    us = [MatrixU(rng.random(shape)) for _ in range(3)]
    us += [MatrixU(rng.integers(0, 8, shape) / 8) for _ in range(3)]
    kernel = CountingKernel(problem, 0, N)
    total = 0
    for u in us:
        q, keys, _ = counting._form0_candidates(problem, [u], kernel.lo, kernel.hi)
        assert q.shape[1] > 7
        cols, counts = _chunked_counts(problem, u, q, keys, 7)
        want_cols, want_counts = counting.per_q_product_counts(problem, u, q, keys)
        assert cols.dtype == counts.dtype == np.int64
        assert np.array_equal(cols, want_cols) and np.array_equal(counts, want_counts)
        blocks = np.zeros(kernel.n_shells, dtype=np.int64)
        np.add.at(blocks, kernel.shell_of(keys[cols]), counts)
        assert np.array_equal(2 * blocks, kernel.block_counts(u))
        siegel = [siegel_transform_box(problem, lattice_from_u(problem, u), s) for s in range(N)]
        assert (2 * blocks).tolist() == siegel
        total += int(blocks.sum())
    assert total > 0


def test_whole_window_wider_than_a_slab_matches_block_counts():
    # one per_q_product_counts call over all 162 754 q of (2,1) at N = 12,
    # more than one _CHUNK of columns, binned by shell, against the kernel
    rng = np.random.default_rng(41)
    us = [MatrixU(rng.random((2, 1))) for _ in range(3)]
    us += [MatrixU(rng.integers(0, 8, (2, 1)) / 8) for _ in range(3)]
    kernel = CountingKernel(P21, 0, 12)
    q, radii = half_space_grid(1, kernel.lo, kernel.hi, False)
    assert q.shape[1] == 162_754 > counting._CHUNK
    for u in us:
        cols, counts = counting.per_q_product_counts(P21, u, q, radii)
        assert np.all(np.diff(cols) > 0) and np.all(counts != 0)
        shells = np.zeros(kernel.n_shells, dtype=np.int64)
        np.add.at(shells, kernel.shell_of(radii[cols]), counts)
        assert np.array_equal(2 * shells, kernel.block_counts(u))


def test_no_columns_count_nothing(monkeypatch):
    # an empty call returns two empty int64 arrays, and a kernel whose
    # generator yields no q counts 0 in every shell
    for problem in (P21, P22E, P13):
        u = MatrixU(np.full((problem.m, problem.n), 0.25))
        empty = np.zeros((problem.n, 0), dtype=np.int64), np.zeros(0, dtype=np.int64)
        cols, counts = counting.per_q_product_counts(problem, u, *empty)
        assert cols.dtype == counts.dtype == np.int64 and cols.size == counts.size == 0
        kernel = CountingKernel(problem, 0, 3)
        with monkeypatch.context() as patch:
            patch.setattr(counting, "_form0_candidates", lambda problem, us, lo, hi: (*empty, np.zeros(len(us) + 1, dtype=np.int64)))
            blocks = kernel.block_counts(u)
            batch = kernel.block_counts([u, u])
        assert blocks.dtype == np.int64 and blocks.tolist() == [0, 0, 0]
        assert batch.dtype == np.int64 and batch.tolist() == [[0, 0, 0]] * 2


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
def test_candidate_filter_matches_brute_force(problem, N, chunk):
    # intervals of width >= 1 near the origin, and a narrow one that float
    # cannot settle: each such q must reach the counting, whatever the
    # pieces of columns per_q_product_counts is given
    rng = np.random.default_rng(43)
    shape = (problem.m, problem.n)
    us = [MatrixU(rng.random(shape)) for _ in range(3)]
    us += [MatrixU(rng.integers(0, 8, shape) / 8) for _ in range(3)] + [MatrixU(np.full(shape, 0.25))]
    kernel = CountingKernel(problem, 0, N)
    q, radii = half_space_grid(problem.n, kernel.lo, kernel.hi, counting.squared_radii(problem))
    assert counting.interval_radii(problem, radii).max() >= 1.0 and q.shape[1] > 7
    for u in us:
        want = [brute_force_block(problem, u, s) for s in range(N)]
        assert kernel.block_counts(u).tolist() == want
        cols, counts = _chunked_counts(problem, u, q, radii, chunk)
        assert np.all(np.diff(cols) > 0) and np.all(counts != 0)
        assert 2 * int(counts.sum()) == sum(want)


P11_WIDE = validate(ApproximationProblem(m=1, n=1, weights=(1,), thetas=(300.0,)))
P21_THIRD = validate(
    ApproximationProblem(m=2, n=1, weights=(Fraction(1, 3), Fraction(2, 3)), thetas=(1.0, 1.0))
)
P22S = validate(ApproximationProblem(m=2, n=2, weights=(1, 1), thetas=(1.0, 0.7)))
P12E = validate(ApproximationProblem(m=1, n=2, weights=(2,), thetas=(0.6,), norm=Norm.EUCLIDEAN))
# problem and shell count N of each case of the form-0 candidate generator
GENERATOR_CASES = {
    "21-wide": (P21_WIDE, 6),
    "21-edge": (P21_EDGE, 4),
    "13-wide": (P13_WIDE, 2),
    "11-theta300": (P11_WIDE, 5),
    "21-third": (P21_THIRD, 6),
    "22-sup": (P22S, 3),
    "22-euclid": (P22E, 3),
    "12-euclid": (P12E, 3),
}


def _generator_us(problem, seed):
    # u = 0 and 1/2 put every <u_i, q> on an integer or a half-integer,
    # dyadics of denominator 8, 1024 and 2^20 put many near one, and full
    # 53-bit u almost none
    shape = (problem.m, problem.n)
    rng = np.random.default_rng(seed)
    us = [MatrixU(np.zeros(shape)), MatrixU(np.full(shape, 0.5))]
    us += [MatrixU(rng.integers(0, den, shape) / den) for den in (8, 1024, 2**20)]
    return us + [MatrixU(rng.integers(0, 2**53, shape) / 2**53) for _ in range(2)]


def _scan_counts(kernel, u, convention=Convention.BOTH_SIGNS, below=None):
    # per_q_product_counts over every q of the window, binned by shell
    problem = kernel.problem
    hi = kernel.hi if below is None else min(kernel.hi, below)
    q, radii = half_space_grid(problem.n, kernel.lo, hi, counting.squared_radii(problem))
    cols, counts = counting.per_q_product_counts(problem, u, q, radii)
    out = np.zeros(kernel.n_shells, dtype=np.int64)
    np.add.at(out, kernel.shell_of(radii[cols]), counts)
    return out * (2 if convention is Convention.BOTH_SIGNS else 1)


@pytest.mark.parametrize("case", sorted(GENERATOR_CASES))
@pytest.mark.parametrize("chunk", [7, 1 << 16])
def test_generator_matches_scan_and_oracle(monkeypatch, case, chunk):
    problem, N = GENERATOR_CASES[case]
    monkeypatch.setattr(counting, "_CHUNK", chunk)
    kernel = CountingKernel(problem, 0, N)
    for u in _generator_us(problem, 47):
        got = kernel.block_counts(u)
        assert got.dtype == np.int64 and np.array_equal(got, _scan_counts(kernel, u))
        assert got.tolist() == [brute_force_block(problem, u, s) for s in range(N)]


@pytest.mark.parametrize("case", sorted(GENERATOR_CASES))
def test_generator_single_shell_kernels_above_shell_0(case):
    # s_lo > 0 moves the rows' key lower bound off the box: max(part, lo)
    problem, N = GENERATOR_CASES[case]
    for s in range(1, N):
        kernel = CountingKernel(problem, s, s + 1)
        for u in _generator_us(problem, 53):
            got = kernel.block_counts(u)
            assert np.array_equal(got, _scan_counts(kernel, u))
            assert got[0] == brute_force_block(problem, u, s)


@pytest.mark.parametrize("case", sorted(GENERATOR_CASES))
def test_generator_count_direct_off_threshold(case):
    # T inside the last shell cuts the window below its top key
    problem, N = GENERATOR_CASES[case]
    squared = counting.squared_radii(problem)
    conventions = list(Convention) if problem.n == 1 else [Convention.BOTH_SIGNS]
    for T in (1.37 * math.e ** (N - 1), math.ceil(math.e ** (N - 1)) + 0.5):
        below = counting._sup_radius_below(T, squared)
        for u, convention in itertools.product(_generator_us(problem, 59), conventions):
            res = count_direct(problem, u, T, convention)
            kernel = CountingKernel(problem, 0, len(res.per_block))
            assert res.per_block == tuple(_scan_counts(kernel, u, convention, below))
            assert res.total == brute_force_count(problem, u, T, convention)


def _batched(kernel, us, size, **kwargs):
    # block_counts over consecutive batches of `size` samples, rows stacked
    return np.concatenate([kernel.block_counts(us[a : a + size], **kwargs) for a in range(0, len(us), size)])


@pytest.mark.parametrize("case", sorted(GENERATOR_CASES))
def test_batches_count_each_sample_as_alone(case):
    # a batch call shares its row tables and its form-0 filter bound across
    # the samples; every row must still equal that sample's own count,
    # with and without the "below T" cut, here and in a single-shell kernel
    problem, N = GENERATOR_CASES[case]
    us = _generator_us(problem, 61)
    assert len(us) == 7
    squared = counting.squared_radii(problem)
    below = counting._sup_radius_below(1.37 * math.e ** (N - 1), squared)
    for kernel in (CountingKernel(problem, 0, N), CountingKernel(problem, N - 1, N)):
        for cut in (None, below):
            want = np.stack([_scan_counts(kernel, u, below=cut) for u in us])
            for size in (1, 2, 3, 7):
                got = _batched(kernel, us, size, below=cut)
                assert got.dtype == np.int64 and got.shape == (7, kernel.n_shells)
                assert np.array_equal(got, want), (size, cut)
            assert np.array_equal(kernel.block_counts(us[3], below=cut), want[3])
    if problem.n == 1:
        half = _batched(CountingKernel(problem, 0, N), us, 3, convention=Convention.POSITIVE_Q)
        assert np.array_equal(2 * half, _batched(CountingKernel(problem, 0, N), us, 7))


def test_candidate_offsets_split_the_batch_by_sample():
    # the offsets of a batch call give each sample exactly its own candidates
    for problem, N in ((P21, 9), (P22E, 4), (P13, 2)):
        kernel = CountingKernel(problem, 0, N)
        us = [montecarlo.sample_u_at(7, i, problem.m, problem.n) for i in range(4)]
        q, keys, offsets = counting._form0_candidates(problem, us, kernel.lo, kernel.hi)
        assert offsets.tolist()[0] == 0 and offsets[-1] == keys.size and np.all(np.diff(offsets) > 0)
        for b, u in enumerate(us):
            q_b, keys_b, off_b = counting._form0_candidates(problem, [u], kernel.lo, kernel.hi)
            assert off_b.tolist() == [0, keys_b.size]
            assert np.array_equal(q[:, offsets[b] : offsets[b + 1]], q_b)
            assert np.array_equal(keys[offsets[b] : offsets[b + 1]], keys_b)


def test_batch_size_estimate_tracks_the_candidates():
    # candidates_per_sample is the kernel's u-independent estimate of what a
    # sample draws; montecarlo sizes its batches by it
    for problem, N in ((P21, 11), (P21, 13), (P22E, 5)):
        kernel = CountingKernel(problem, 0, N)
        drawn = [
            counting._form0_candidates(problem, [montecarlo.sample_u_at(3, i, problem.m, problem.n)], kernel.lo, kernel.hi)[1].size
            for i in range(5)
        ]
        assert 0.7 * kernel.candidates_per_sample <= np.mean(drawn) <= 1.3 * kernel.candidates_per_sample


def test_block_counts_memory_does_not_grow_with_the_grid():
    # a call allocates per form-0 candidate (about 4 K^{1/2} of the K q at
    # (2,1)), never per q of the window: one K-sized array costs 8 K bytes;
    # a batch call allocates per candidate of the whole batch
    import tracemalloc

    def traced_peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peaks = []
    for N in (12, 14, 16):
        kernel = CountingKernel(P21, 0, N)
        kernel.block_counts(montecarlo.sample_u_at(5, 0, 2, 1))
        u = montecarlo.sample_u_at(5, 1, 2, 1)
        peaks.append(traced_peak(lambda: kernel.block_counts(u)))
        candidates = counting._form0_candidates(P21, [u], kernel.lo, kernel.hi)[1].size
        assert peaks[-1] <= 128 * candidates + 65536
        batch = [montecarlo.sample_u_at(5, i, 2, 1) for i in range(2, 7)]
        batch_peak = traced_peak(lambda: kernel.block_counts(batch))
        assert batch_peak <= 128 * counting._form0_candidates(P21, batch, kernel.lo, kernel.hi)[1].size + 65536
    window = kernel.hi - kernel.lo + 1  # K at n = 1
    assert candidates < window / 500
    assert peaks[-1] < 8 * window / 30
    assert peaks[-1] < 16 * peaks[0]  # K grows 55-fold from N = 12


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


def test_survivors_escalate_by_their_own_bound(monkeypatch):
    # (2,1) at N = 18: the form-0 filter takes err_0 at the largest key of the
    # call, but each survivor escalates only within the bound of its own
    # ||q||_1, so fewer q escalate than under the call-wide bound (632 for
    # these samples; 299 here), the same q batched or not, with unchanged counts
    calls = []
    exact = counting._exact_open_count

    def counted(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(counting, "_exact_open_count", counted)
    kernel = CountingKernel(P21, 0, 18)
    us = [montecarlo.sample_u_at(5, i, 2, 1) for i in range(10)]
    alone = np.stack([kernel.block_counts(u) for u in us])
    assert alone.sum(axis=1).tolist() == [150, 150, 144, 154, 154, 144, 172, 238, 154, 130]
    alone_calls = calls[:]
    assert len(alone_calls) <= 400
    calls.clear()
    assert np.array_equal(_batched(kernel, us, 5), alone)
    assert Counter(calls) == Counter(alone_calls)  # batches order the forms differently


def test_exact_open_count_radius_keys():
    # the squared key k^2 must settle every p exactly as the plain key k does
    for c in (Fraction(0), Fraction(1, 4), Fraction(1, 2)):
        for theta, w in ((Fraction(3), Fraction(1)), (Fraction(1), Fraction(1, 2)), (Fraction(5, 2), Fraction(3, 2))):
            for k in (1, 2, 3, 4):
                assert _exact_open_count(c, theta, w, k * k, True) == _exact_open_count(c, theta, w, k, False)
    assert _exact_open_count(Fraction(0), Fraction(3), Fraction(1), 2, False) == 3  # |p| < 3/2
    assert _exact_open_count(Fraction(1, 2), Fraction(1), Fraction(1), 2, False) == 0  # |p + 1/2| < 1/2


def _exact_open_count_by_loop(c, theta, w, radius_key, squared):
    # the reference: one exact comparison per p of a float bracket around the interval
    e = 2 if squared else 1
    a, b = w.numerator, w.denominator
    radius = float(theta) * float(radius_key) ** (-float(w) / e)
    center = -float(c)
    lo, hi = math.floor(center - radius) - 2, math.ceil(center + radius) + 2
    return sum(1 for p in range(lo, hi + 1) if abs(p + c) ** (e * b) * radius_key**a < theta ** (e * b))


def test_exact_open_count_matches_the_loop_over_every_p():
    # dyadic, integer and half-integer centres; theta = 4, w = 1 at k = 2, or
    # theta = 3/2, w = 1/2 at k = 1 with c = 1/2, put the endpoints on integers
    centres = [Fraction(x) for x in ("0", "3", "1/2", "-3/2", "5/4", "-7/8", "1/1024")]
    pairs = (("1", "1"), ("4", "1"), ("3/2", "1/2"), ("6", "2"), ("9", "3/2"), ("1/2", "1"))
    forms = [(Fraction(theta), Fraction(w)) for theta, w in pairs]
    for c, (theta, w), k, squared in itertools.product(centres, forms, range(1, 10), (False, True)):
        assert _exact_open_count(c, theta, w, k, squared) == _exact_open_count_by_loop(c, theta, w, k, squared)
    # |p| < 2^40: the cost does not grow with the interval
    assert _exact_open_count(0, 2**40, 1, 1, False) == 2**41 - 1
    # theta = 2^60 +- 1 is 2^60 as a double, so the float guess of each end is
    # one short (+1) or one over (-1) and only the exact walk settles it
    assert _exact_open_count(0, 2**60 + 1, 1, 1, False) == 2**61 + 1
    assert _exact_open_count(0, 2**60 - 1, 1, 1, False) == 2**61 - 3


def test_count_direct_settles_wide_integer_endpoints():
    # u = 0 puts the endpoint 10^6 / q of every q | 10^6 on an integer, so those
    # q escalate; q counts the 2 ceil(10^6 / q) - 1 integers p with |p| < 10^6 / q
    p = validate(ApproximationProblem(m=1, n=1, weights=(1,), thetas=(1e6,)))
    want = 2 * sum(2 * -(-(10**6) // q) - 1 for q in range(1, 21))
    assert count_direct(p, U0, math.e**3).total == want == 14390948


def test_block_oracle_euclidean():
    p22 = validate(
        ApproximationProblem(m=2, n=2, weights=(1, 1), thetas=(1.0, 0.7), norm=Norm.EUCLIDEAN)
    )
    rng = np.random.default_rng(3)
    for _ in range(2):
        u = MatrixU(rng.random((2, 2)))
        for s in (0, 1, 2):
            assert CountingKernel(p22, s, s + 1).block_counts(u)[0] == brute_force_block(p22, u, s)


def test_positive_q_counts_half_of_every_shell():
    # (p, q) <-> (-p, -q) pairs the q > 0 count with the q < 0 one on every sample
    kernel = CountingKernel(P21, 0, 9)
    for i in range(5):
        u = montecarlo.sample_u_at(3, i, 2, 1)
        half = kernel.block_counts(u, Convention.POSITIVE_Q)
        assert half.any() and np.array_equal(2 * half, kernel.block_counts(u))


def test_positive_q_requires_n1(monkeypatch):
    # refused before the q-grid is built: a build would raise AssertionError here
    def no_build(self):
        raise AssertionError("the kernel was built")

    monkeypatch.setattr(CountingKernel, "_build", no_build)
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
        q, radii = half_space_grid(n, lo, hi, squared)
        got = [tuple(int(x) for x in col) for col in q.T]
        assert got == sorted(expected)  # lexicographic order, one of each +/- pair
        assert not set(got) & {tuple(-x for x in g) for g in got}
        assert q.shape == (n, len(expected))
        assert radii.dtype == q.dtype == np.int64
        for col, r in zip(got, radii):
            assert r == (sum(x * x for x in col) if squared else max(abs(x) for x in col))


@pytest.mark.parametrize("problem,s_lo,s_hi", [(P21, 0, 6), (P21, 3, 8), (P22E, 0, 4), (P22E, 2, 5)])
def test_shell_of_thresholds_are_the_radius_ranges(problem, s_lo, s_hi):
    # shell s starts at the key ceil(e^s), or ceil(e^{2s}) for squared keys
    squared = counting.squared_radii(problem)
    radius_range = counting.block_sq_radius_range if squared else counting.block_radius_range
    kernel = CountingKernel(problem, s_lo, s_hi)
    for s in range(s_lo, s_hi):
        start = math.ceil(math.exp(2 * s if squared else s))
        assert radius_range(s)[0] == start
        assert kernel.shell_of(np.array([start]))[0] == s - s_lo
        if s > s_lo:
            assert radius_range(s - 1)[1] == start - 1
            assert kernel.shell_of(np.array([start - 1]))[0] == s - 1 - s_lo
    lo, hi = np.array([radius_range(s) for s in range(s_lo, s_hi)]).T
    radii = half_space_grid(problem.n, kernel.lo, kernel.hi, squared)[1]
    shell = kernel.shell_of(radii)
    assert np.all((lo[shell] <= radii) & (radii <= hi[shell]))


@pytest.mark.parametrize("problem,s_lo,s_hi", [(P21, 3, 8), (P22E, 2, 5)])
def test_multi_shell_kernel_above_shell_0_matches_block_oracle(problem, s_lo, s_hi):
    kernel = CountingKernel(problem, s_lo, s_hi)
    rng = np.random.default_rng(8)
    for _ in range(2):
        u = MatrixU(rng.random((problem.m, problem.n)))
        want = [brute_force_block(problem, u, s) for s in range(s_lo, s_hi)]
        assert kernel.block_counts(u).tolist() == want


def test_kernel_build_peak_memory_near_its_arrays():
    # the kernel keeps no grid, so its build allocates almost nothing; a
    # window joined by half_space_grid may not hold the whole (2k+1)^n box or
    # stacked rho temporaries
    import tracemalloc

    CountingKernel(P22E, 0, 5)  # warm the caches of the radial thresholds
    tracemalloc.start()
    try:
        kernel = CountingKernel(P22E, 0, 5)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        q, radii = half_space_grid(2, kernel.lo, kernel.hi, True)
        rho = counting.interval_radii(P22E, radii)
        grid_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(a.nbytes for a in (q, radii, rho))
    assert q.shape[1] > 30_000
    assert build_peak < 16384 < held / 50
    assert grid_peak <= 1.6 * held


def test_kernel_holds_nothing_sized_by_the_window():
    # the key window and the shell starts only: no q-grid, radius keys or rho,
    # whose windows here hold about 3 10^6, 1.9 10^6 and 3 10^4 q
    for problem, N in ((P21, 15), (P22E, 7), (P13, 3)):
        kernel = CountingKernel(problem, 0, N)
        for name, value in vars(kernel).items():
            assert not isinstance(value, np.ndarray) or value.size < kernel.n_shells, name
        assert not any(hasattr(kernel, a) for a in ("q_int", "radii", "rho"))


def test_kernel_refuses_counts_beyond_int64(monkeypatch):
    # theta = 1e20: q = 1 alone counts 2 10^20 - 1 > 2^63.  (2,1) at thetas 1e9:
    # each q fits, but shell 0 holds 2 ((2 10^9 - 1)^2 + ...) ~ 1.2 10^19 > 2^63.
    # Both are refused before any sample is counted; theta = 1e17 fits.
    def one_form(theta):
        return validate(ApproximationProblem(m=1, n=1, weights=(1,), thetas=(theta,)))

    p21 = validate(ApproximationProblem(m=2, n=1, weights=(Fraction(1, 2),) * 2, thetas=(1e9, 1e9)))
    CountingKernel(one_form(1e17), 0, 3)
    monkeypatch.setattr(counting, "_form0_candidates", None)  # a count would raise TypeError
    for problem in (one_form(1e20), p21):
        with pytest.raises(ValidationError, match="int64"):
            count_direct(problem, MatrixU(np.zeros((problem.m, 1))), math.e**3)


def test_half_space_grid_n1_and_cap(monkeypatch):
    monkeypatch.setenv("DIOPH_CAP", "10")
    q, radii = half_space_grid(1, 0, 5, False)
    assert q.tolist() == [[1, 2, 3, 4, 5]] and radii.tolist() == [1, 2, 3, 4, 5]
    with pytest.raises(CapExceededError):
        half_space_grid(1, 1, 11, False)
    monkeypatch.setenv("DIOPH_CAP", "24")
    with pytest.raises(CapExceededError):
        half_space_grid(2, 1, 2, False)  # the 5 x 5 box
    monkeypatch.setenv("DIOPH_CAP", "25")
    assert half_space_grid(2, 1, 2, False)[0].shape == (2, 12)


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
