import functools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from diophlab import theory
from diophlab.errors import CapExceededError, ValidationError
from diophlab.problem import ApproximationProblem, mean_constant, validate
from diophlab.theory import (
    TheoryConstants,
    constants,
    divisor_sum_check,
    inner_divisor_sum,
    max_pq_partial_sum,
    n_solutions,
    n_solutions_brute,
    overlap_length,
    theta_infinity,
    zeta,
)

P21 = validate(
    ApproximationProblem(m=2, n=1, weights=(Fraction(1, 2), Fraction(1, 2)), thetas=(1.0, 1.0))
)
P22 = validate(ApproximationProblem(m=2, n=2, weights=(1, 1), thetas=(1.0, 1.0)))


def _zeta3_reference():
    # independent oracle: partial sum to 10^6 plus Euler-Maclaurin tail head
    K = 10**6
    terms = [k**-3.0 for k in range(1, K)]
    return math.fsum(terms) + K**-2.0 / 2.0 + 0.5 * K**-3.0 + 3.0 / 12.0 * K**-4.0


def test_zeta_closed_forms():
    assert zeta(2.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-12)
    assert zeta(4.0) == pytest.approx(math.pi**4 / 90.0, abs=1e-12)
    assert zeta(3.0) == pytest.approx(_zeta3_reference(), abs=1e-12)


def test_zeta_rejects_pole():
    with pytest.raises(ValidationError):
        zeta(1.0)
    with pytest.raises(ValidationError):
        zeta(0.5)


def test_constants_values():
    c = constants(P21)
    assert c.C == pytest.approx(8.0, rel=1e-14)
    expected = 16.0 * (2.0 * zeta(2.0) / zeta(3.0) - 1.0)
    assert c.sigma2 == pytest.approx(expected, rel=1e-13)
    assert c.sigma2 == pytest.approx(2.0 * c.C * c.zeta_ratio, rel=1e-14)
    assert not c.m_warning


def test_constants_guards():
    p = validate(ApproximationProblem(m=1, n=1, weights=(1,), thetas=(1.0,)))
    with pytest.raises(ValidationError, match="m \\+ n >= 3"):
        constants(p)
    p12 = validate(ApproximationProblem(m=1, n=2, weights=(2,), thetas=(1.0,)))
    c = constants(p12)
    assert c.m_warning  # computed, but the CLT statement needs m >= 2
    with pytest.raises(ValidationError):
        TheoryConstants(C=-1.0, sigma2=1.0, zeta_ratio=1.0)


def test_overlap_length_examples():
    assert overlap_length(0, 1, 1) == 1.0
    assert overlap_length(5, 1, 1) == 0.0
    assert overlap_length(1, 2, 1) == pytest.approx(math.log(2.0), rel=1e-14)


def test_overlap_windows_tile_the_line():
    rng = np.random.default_rng(8)
    for _ in range(50):
        p = int(rng.integers(1, 50))
        q = int(rng.integers(1, 50))
        total = sum(overlap_length(s, p, q) for s in range(-30, 31))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_theta_symmetry_and_far_lag():
    for s in range(6):
        assert theta_infinity(P21, s, 600) == pytest.approx(
            theta_infinity(P21, -s, 600), abs=1e-12
        )
    assert theta_infinity(P21, 40, 1000) == 0.0


def test_theta_requires_dimension():
    p = validate(ApproximationProblem(m=1, n=1, weights=(1,), thetas=(1.0,)))
    with pytest.raises(ValidationError):
        theta_infinity(p, 0, 100)


@functools.lru_cache(maxsize=1)
def _reference_weight(d, Pmax):
    # max(p, q)^-d on the whole grid; kept for the next call, since the band
    # test runs every lag of one (d, Pmax) in a row
    pq = np.arange(1, Pmax + 1, dtype=np.float64)
    return np.maximum(pq[:, None], pq[None, :]) ** (-float(d))


def _reference_grid_sum(prob, Pmax, window):
    # the plain whole-grid expression: window and weight on every (p, q) pair
    d = prob.m + prob.n
    pref = 2.0 / zeta(float(d)) * mean_constant(prob)
    logs = np.log(np.arange(1, Pmax + 1, dtype=np.float64))
    return pref * float(np.sum(_reference_weight(d, Pmax) * window(logs[:, None], logs[None, :])))


def _reference_theta(prob, s, Pmax):
    def overlap(log_p, log_q):
        lo = np.maximum(s - log_p, -log_q)
        hi = np.minimum(s + 1 - log_p, 1 - log_q)
        return np.clip(hi - lo, 0.0, None)

    return _reference_grid_sum(prob, Pmax, overlap)


def test_band_grid_sums_equal_the_whole_grid_expression():
    # only the band where the overlap is nonzero is evaluated; every value must
    # still be the same float as the whole-grid expression, also for lags whose
    # band leaves the grid (|s| = 40) and for grids of 1 to 3 rows
    for Pmax in (7, 600, 1, 2000, 2, 3, 3000):
        for prob in (P21, P22):
            for s in (-40, -9, -2, -1, 0, 1, 2, 3, 5, 6, 7, 8, 40):
                assert theta_infinity(prob, s, Pmax) == _reference_theta(prob, s, Pmax)
    _reference_weight.cache_clear()
    # an empty band sums to +0.0, the value variance --lags 800 writes
    for s in (800, -800, 40):
        value = theta_infinity(P22, s, 2000)
        assert repr(value) == "0.0" and math.copysign(1.0, value) == 1.0


def test_band_slabs_match_any_chunk_size(monkeypatch):
    # single-row slabs (a row wider than _CHUNK) and whole-grid slabs give the same floats
    for chunk in (1, 7, 10**9):
        monkeypatch.setattr(theory, "_CHUNK", chunk)
        for s in (-3, 0, 2, 6):
            assert theta_infinity(P22, s, 300) == _reference_theta(P22, s, 300)


def test_grid_sums_respect_the_enumeration_cap(monkeypatch):
    monkeypatch.setenv("DIOPH_CAP", "100")
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError):
            theta_infinity(P22, 1, 11)  # 121 pairs
        with pytest.raises(CapExceededError):
            theta_infinity(P22, 0, 2000)  # its grid alone would take 32 MB
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024  # refused before any grid
    assert theta_infinity(P22, 0, 10) == _reference_theta(P22, 0, 10)


def test_theta_peak_memory_is_one_grid():
    # the zeroed (Pmax, Pmax) grid plus slab-sized temporaries: no weight grid
    # and no full-size scratch buffers
    Pmax = 2000
    tracemalloc.start()
    try:
        theta_infinity(P22, 0, Pmax)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * 8 * Pmax * Pmax


def test_max_pq_partial_sum_tail():
    for d, P in ((3, 500), (3, 2000), (4, 500)):
        limit = 2.0 * zeta(float(d - 1)) - zeta(float(d))
        err = abs(max_pq_partial_sum(d, P) - limit)
        assert err <= 4.0 * P ** (-(d - 2))


@pytest.mark.parametrize("prob", [P21, P22])
def test_sigma2_series_identity(prob):
    # the lag covariances sum to the variance constant
    c = constants(prob)
    S = int(math.ceil(math.log(2000))) + 2
    total = math.fsum(theta_infinity(prob, s, 2000) for s in range(-S, S + 1))
    assert abs(total - c.sigma2) <= 1e-3 * c.sigma2


def test_theta_numeric_matches_exact_for_indicators():
    theta = theta_infinity  # exact path

    def g(r):
        return 1.0 if 1.0 <= r <= math.e else 0.0

    def h(x):
        return 1.0 if abs(x) <= 1.0 else 0.0

    from diophlab.theory import theta_infinity_numeric

    for s in (0, 1, 2, 3):
        numeric = theta_infinity_numeric(
            P21, s, 300, g, (1.0, math.e), (h, h), ((-1.0, 1.0), (-1.0, 1.0))
        )
        exact = theta(P21, s, 300)
        assert numeric == pytest.approx(exact, rel=1e-6)


def test_theta_numeric_smooth_profile_symmetry():
    from diophlab.theory import theta_infinity_numeric

    def g(r):  # smooth bump on [1, e]
        if not 1.0 < r < math.e:
            return 0.0
        t = (r - 1.0) / (math.e - 1.0)
        return (t * (1.0 - t)) ** 2

    def h(x):  # even triangular profile
        return max(0.0, 1.0 - abs(x))

    args = (g, (1.0, math.e), (h, h), ((-1.0, 1.0), (-1.0, 1.0)))
    vals = {s: theta_infinity_numeric(P21, s, 120, *args) for s in (-2, -1, 0, 1, 2)}
    assert all(v >= 0.0 for v in vals.values())
    assert vals[1] == pytest.approx(vals[-1], rel=1e-6)
    assert vals[2] == pytest.approx(vals[-2], rel=1e-6)
    assert vals[0] > vals[2]


def test_n_solutions_examples():
    assert n_solutions(1, 1, 7) == 15
    assert n_solutions(6, 4, 6) == 5
    assert n_solutions(5, 2, 4) == 1
    with pytest.raises(ValidationError):
        n_solutions(5, 7, 4)
    with pytest.raises(ValidationError):
        n_solutions(5, 0, 4)


def test_n_solutions_against_brute_force():
    for q in range(1, 121):
        for ell in sorted({1, min(2, q), max(q // 2, 1), max(q - 1, 1), q}):
            for P in (q, 2 * q, 5 * q):
                assert n_solutions(q, ell, P) == n_solutions_brute(q, ell, P)
                assert n_solutions(q, -ell, P) == n_solutions_brute(q, -ell, P)


def test_divisor_sum_growth_ratios():
    r1a = divisor_sum_check(100, 1)
    r1b = divisor_sum_check(200, 1)
    assert abs(r1a.ratio - r1b.ratio) <= 0.25 * max(r1a.ratio, r1b.ratio)
    r2a = divisor_sum_check(100, 2)
    r2b = divisor_sum_check(400, 2)
    assert abs(r2a.ratio - r2b.ratio) <= 0.25 * max(r2a.ratio, r2b.ratio)
    assert r1a.inner_bound_holds and r1b.inner_bound_holds
    assert r2a.inner_bound_holds and r2b.inner_bound_holds


def test_divisor_sum_inner_exact():
    assert inner_divisor_sum(12, 1, 12) == sum(
        n_solutions_brute(12, ell, 12) for ell in range(1, 13)
    )
    report = divisor_sum_check(50, 1)
    assert report.total == sum(inner_divisor_sum(q, 1, q) for q in range(1, 51))


def test_divisor_sum_caps():
    with pytest.raises(ValidationError):
        divisor_sum_check(20000, 1)
    with pytest.raises(ValidationError):
        divisor_sum_check(100, 4)
