"""Closed-form constants and exact combinatorics.

Covers the zeta function, the mean constant C = 2^m prod(theta) omega_n, the
limit variance sigma2 = 2C (2 zeta(d-1)/zeta(d) - 1) with d = m + n, the lag
covariance Theta_inf(s) of the shell counts, and the exact divisor-sum
combinatorics behind the second-moment bound.

Theta_inf(s) for the indicator cell [1, e) is

    2 zeta(d)^{-1} 2^m prod(theta_i) omega_n
        * sum_{p,q >= 1} max(p,q)^{-d} * overlap_length(s, p, q),

where overlap_length is the log-radial overlap of the dilated shells; summed
over all integer lags it telescopes to sigma2 because the overlap windows
tile the line and sum_{p,q} max(p,q)^{-d} = 2 zeta(d-1) - zeta(d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from diophlab.counting import _CHUNK, enumeration_cap
from diophlab.errors import CapExceededError, ValidationError
from diophlab.problem import ApproximationProblem, mean_constant, omega_n

_BERNOULLI = (
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
)


def zeta(s: float) -> float:
    """Riemann zeta for real s > 1 by Euler-Maclaurin summation.

    Partial sum to K plus K^{1-s}/(s-1) + K^{-s}/2 and Bernoulli corrections;
    K grows until the first dropped correction is below 1e-13.
    """
    if not s > 1:
        raise ValidationError("zeta(s) implemented for s > 1 only")
    K = 16
    while True:
        total = sum(k ** (-s) for k in range(1, K))
        total += K ** (1.0 - s) / (s - 1.0) + 0.5 * K ** (-s)
        poch = s  # s (s+1) ... running product
        fact = 1.0
        power = K ** (-s - 1.0)
        converged = False
        for idx, b in enumerate(_BERNOULLI):
            two_j = 2 * (idx + 1)
            fact *= (two_j - 1) * two_j
            term = float(b) * poch / fact * power
            total += term
            poch *= (s + two_j - 1) * (s + two_j)
            power /= K * K
            if abs(term) < 1e-13:
                converged = True
                break
        if converged:
            return total
        K *= 4
        if K > 1 << 22:  # pragma: no cover - tolerance unreachable
            return total


@dataclass(frozen=True)
class TheoryConstants:
    """Mean and variance constants of the normalized count.

    sigma2 = 2 C zeta_ratio; the CLT statement behind sigma2 requires m >= 2,
    for m = 1 the value is still computed and ``m_warning`` is set.
    """

    C: float
    sigma2: float
    zeta_ratio: float
    m_warning: bool = False

    def __post_init__(self):
        if self.C <= 0:
            raise ValidationError("C must be positive")
        if self.sigma2 <= 0:
            raise ValidationError("sigma2 must be positive")


def constants(problem: ApproximationProblem) -> TheoryConstants:
    """C = 2^m prod(theta) omega_n and sigma2 = 2C(2 zeta(d-1)/zeta(d) - 1)."""
    d = problem.m + problem.n
    if d < 3:
        raise ValidationError("sigma2 needs m + n >= 3 (zeta(m+n-1) must be finite)")
    C = mean_constant(problem)
    ratio = 2.0 * zeta(float(d - 1)) / zeta(float(d)) - 1.0
    return TheoryConstants(
        C=C, sigma2=2.0 * C * ratio, zeta_ratio=ratio, m_warning=problem.m < 2
    )


def overlap_length(s: int, p: int, q: int) -> float:
    """Log-radial overlap |[s - log p, s + 1 - log p] ^ [-log q, 1 - log q]|.

    The length of radii shared by the shells [e^s/p, e^{s+1}/p] and
    [1/q, e/q], measured in log scale; always in [0, 1].
    """
    if p < 1 or q < 1:
        raise ValidationError("overlap_length needs p, q >= 1")
    lo = max(s - math.log(p), -math.log(q))
    hi = min(s + 1 - math.log(p), 1 - math.log(q))
    return max(0.0, hi - lo)


def theta_infinity(problem: ApproximationProblem, s: int, Pmax: int) -> float:
    """Closed-form lag-s covariance of the shell counts over the lattice space.

    The double sum is truncated at p, q <= Pmax; the diagonal band p ~ e^s q
    must fit below Pmax for the value to be accurate (Pmax >= ~4 e^|s|),
    smaller Pmax simply truncates (and yields exactly 0 once the band is
    empty, as for very large |s|).  The overlap is +0.0 unless
    s - 1 < log(p/q) < s + 1, so only that band is evaluated, in row slabs of
    about ``_CHUNK`` pairs, into a zeroed (Pmax, Pmax) grid; one ``np.sum`` of
    the grid then gives the same float as the overlap summed on the whole
    grid.  Raises CapExceededError when the Pmax^2 pairs exceed the
    enumeration cap.
    """
    d = problem.m + problem.n
    if d < 3:
        raise ValidationError("theta_infinity needs m + n >= 3")
    if Pmax < 1:
        raise ValidationError("Pmax must be >= 1")
    cap = enumeration_cap()
    if Pmax * Pmax > cap:
        raise CapExceededError(f"(p, q)-grid of {Pmax * Pmax} pairs > cap {cap} (set DIOPH_CAP to raise)")
    pref = 2.0 / zeta(float(d)) * mean_constant(problem)
    ks = np.arange(1, Pmax + 1, dtype=np.float64)
    logs = np.log(ks)
    k_pow = ks ** (-float(d))  # decreasing, so min(p^-d, q^-d) is the float max(p, q)^-d
    # row p of the band holds the columns q in (p e^{-s-1}, p e^{1-s}), taken
    # one column wider on each side.  Exponents are clamped to +-lim, past
    # which every bound clips the same, and the bounds are clipped to [0, Pmax]
    # in float before the int cast, so no lag overflows
    lim = math.log(Pmax) + 2.0
    q_lo, q_hi = (ks * math.exp(min(max(-x, -lim), lim)) for x in (s + 1, s - 1))
    c_lo = np.clip(np.floor(q_lo) - 1.0, 0, Pmax).astype(np.int64)
    c_hi = np.clip(np.ceil(q_hi) + 1.0, 0, Pmax).astype(np.int64)
    grid = np.zeros((Pmax, Pmax))
    # the rows with columns form a prefix, since c_lo only grows; an empty band has none
    r = 0
    r_end = int(np.count_nonzero(c_lo < c_hi))
    while r < r_end:
        # as many rows as keep the slab's rectangle within _CHUNK pairs (at least
        # one); row r's width alone bounds how many rows can fit
        n = min(r_end - r, _CHUNK // (c_hi[r] - c_lo[r]) + 1)
        area = np.arange(1, n + 1) * (c_hi[r:r + n] - c_lo[r])
        r1 = r + max(1, int(np.searchsorted(area, _CHUNK, side="right")))
        c0, c1 = c_lo[r], c_hi[r1 - 1]
        log_p, log_q = logs[r:r1, None], logs[None, c0:c1]
        lo = np.empty((r1 - r, c1 - c0))
        hi = np.empty_like(lo)
        # the log-radial overlap of the dilated shells, as in ``overlap_length``
        np.maximum(s - log_p, -log_q, out=lo)
        np.minimum(s + 1 - log_p, 1 - log_q, out=hi)
        np.subtract(hi, lo, out=hi)
        np.clip(hi, 0.0, None, out=hi)
        np.multiply(np.minimum.outer(k_pow[r:r1], k_pow[c0:c1]), hi, out=grid[r:r1, c0:c1])
        r = r1
    return pref * float(np.sum(grid))


def theta_infinity_numeric(
    problem: ApproximationProblem,
    s: int,
    Pmax: int,
    g,
    g_support: tuple,
    hs,
    h_supports,
) -> float:
    """Lag covariance for a separable test function, by 1-d quadrature.

    The function is f(x, y) = g(||y||) * prod_i h_i(x_i ||y||^{w_i}) with g
    supported in ``g_support`` = (r_lo, r_hi), r_lo > 0, and h_i supported in
    ``h_supports[i]``; every h_i must be even (f(-z) = f(z)).  The pair
    integral factorizes into one radial and m coordinate quadratures, so the
    target accuracy of 1e-6 relative is comfortable for smooth profiles; for
    indicator profiles the integrands are constant on the integration
    intervals and the slow path reproduces the closed form.
    """
    from scipy.integrate import quad

    tol = 1e-8  # absolute and relative quadrature tolerance
    d = problem.m + problem.n
    if d < 3:
        raise ValidationError("theta_infinity_numeric needs m + n >= 3")
    r_lo, r_hi = map(float, g_support)
    if not 0 < r_lo < r_hi:
        raise ValidationError("g_support must satisfy 0 < r_lo < r_hi")
    w = problem.weights_float()

    def h_pair(i: int, a: float, b: float) -> float:
        # integral of h_i(a t) h_i(b t) dt over the common support
        lo_i, hi_i = map(float, h_supports[i])
        lo = max(lo_i / a, lo_i / b)
        hi = min(hi_i / a, hi_i / b)
        if hi <= lo:
            return 0.0
        val, _ = quad(lambda t: hs[i](a * t) * hs[i](b * t), lo, hi, epsabs=tol, epsrel=tol)
        return val

    def radial_pair(p: int, q: int) -> float:
        # integral of g(p e^{-s} r) g(q r) r^{-1} dr over the common support
        scale_p = p * math.exp(-s)
        lo = max(r_lo / scale_p, r_lo / q)
        hi = min(r_hi / scale_p, r_hi / q)
        if hi <= lo:
            return 0.0
        val, _ = quad(
            lambda r: g(scale_p * r) * g(q * r) / r, lo, hi, epsabs=tol, epsrel=tol
        )
        return val

    omega = omega_n(problem.norm, problem.n)
    total = 0.0
    for q in range(1, Pmax + 1):
        # the radial supports only overlap in the band p ~ e^s q (r_hi/r_lo wide)
        p_lo = max(1, int(math.floor(math.exp(s) * q * r_lo / r_hi)))
        p_hi = min(Pmax, int(math.ceil(math.exp(s) * q * r_hi / r_lo)))
        for p in range(p_lo, p_hi + 1):
            rad = radial_pair(p, q)
            if rad == 0.0:
                continue
            term = rad
            for i in range(problem.m):
                term *= h_pair(i, float(p) ** (1.0 + w[i]), float(q) ** (1.0 + w[i]))
                if term == 0.0:
                    break
            total += term
    return 2.0 / zeta(float(d)) * omega * total


def max_pq_partial_sum(d: int, P: int) -> float:
    """sum_{p,q <= P} max(p,q)^{-d}; tends to 2 zeta(d-1) - zeta(d)."""
    if d < 3:
        raise ValidationError("needs d >= 3")
    ks = np.arange(1, P + 1, dtype=np.float64)
    # pairs with max = k: 2k - 1 of them
    return float(np.sum((2.0 * ks - 1.0) * ks ** (-float(d))))


# ---------------------------------------------------------------------------
# divisor-sum combinatorics

def n_solutions(q: int, ell: int, P: int) -> int:
    """#{(p, r) in Z^2 : q r - ell p = 0, |p| <= P} = 2 floor(P d / q) + 1.

    d = gcd(q, |ell|): p must be divisible by q / d, and r is determined.
    """
    if q < 1 or P < 1:
        raise ValidationError("need q >= 1 and P >= 1")
    if not 1 <= abs(ell) <= q:
        raise ValidationError("need 1 <= |ell| <= q")
    d = math.gcd(q, abs(ell))
    return 2 * (P * d // q) + 1


def n_solutions_brute(q: int, ell: int, P: int) -> int:
    """Direct enumeration oracle for n_solutions."""
    count = 0
    for p in range(-P, P + 1):
        if (ell * p) % q == 0:
            count += 1
    return count


def _totients_and_divisors(T: int):
    phi = np.arange(T + 1, dtype=np.int64)
    for p in range(2, T + 1):
        if phi[p] == p:  # p is prime
            phi[p::p] -= phi[p::p] // p
    divisors = [[] for _ in range(T + 1)]
    for d in range(1, T + 1):
        for mult in range(d, T + 1, d):
            divisors[mult].append(d)
    return phi, divisors


@dataclass(frozen=True)
class DivisorSumReport:
    T: int
    k: int
    total: int
    ratio: float
    inner_bound_holds: bool
    max_inner_ratio: float


def divisor_sum_check(T: int, k: int) -> DivisorSumReport:
    """Exact sum_{q <= T} sum_{1 <= ell <= q} N(q, ell)^k, with P = q, and its growth ratio.

    ``ratio`` divides the total by T^{k+1} (log T)^{nu_k} with nu_1 = 1 and
    nu_k = 0 for k >= 2.  Additionally verifies, exactly and per q, that the
    inner sum is at most (2 P/q + 1)^k * q * sigma_{k-1}(q) = 3^k q sigma_{k-1}(q).
    """
    if T < 2 or T > 10_000:
        raise ValidationError("T must be in [2, 10^4]")
    if k < 1 or k > 3:
        raise ValidationError("k must be in [1, 3]")
    phi, divisors = _totients_and_divisors(T)
    total = 0
    holds = True
    max_inner_ratio = 0.0
    for q in range(1, T + 1):
        inner = 0
        weight_bound = 0
        for d in divisors[q]:
            # ell with gcd(q, ell) = d number phi(q/d)
            inner += int(phi[q // d]) * n_solutions(q, d, q) ** k
            weight_bound += d ** (k - 1)
        total += inner
        if inner > 3**k * q * weight_bound:  # weight_bound = sigma_{k-1}(q)
            holds = False
        max_inner_ratio = max(max_inner_ratio, inner / float(q * weight_bound))
    nu = 1 if k == 1 else 0
    ratio = total / (float(T) ** (k + 1) * math.log(T) ** nu)
    return DivisorSumReport(
        T=T, k=k, total=total, ratio=ratio, inner_bound_holds=holds, max_inner_ratio=max_inner_ratio
    )


def inner_divisor_sum(q: int, k: int, P: int) -> int:
    """sum_{1 <= ell <= q} N(q, ell)^k, exactly."""
    total = 0
    for ell in range(1, q + 1):
        total += n_solutions(q, ell, P) ** k
    return total
