"""Reference enumerators used to cross-check the production counting path.

``brute_force_count`` enumerates candidate numerators p explicitly and tests
the defining inequality for each one, instead of using the closed-form
interval count.  It shares nothing with the production path except the basic
problem data, so exact agreement between the two is a meaningful check.

``slow_reference_count`` is a pure-Fraction triple loop for tiny inputs; it
exists to check the checker.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from diophlab.counting import (
    Convention,
    MatrixU,
    _sup_radius_below,
    block_radius_range,
    block_sq_radius_range,
    enumeration_cap,
)
from diophlab.errors import CapExceededError, ValidationError
from diophlab.problem import ApproximationProblem, Norm

_MARGIN = 1e-9


def _squared(problem: ApproximationProblem) -> bool:
    """Whether the radius key of q is ||q||_2^2 (Euclidean norm, n >= 2)
    rather than ||q||; derived here, not taken from the kernel."""
    return problem.n >= 2 and problem.norm is Norm.EUCLIDEAN


def _q_grid(problem: ApproximationProblem, k_max: int) -> np.ndarray:
    """All integer q with |q_j| <= k_max, q != 0, as an (n, K) array (box capped by DIOPH_CAP)."""
    if (2 * k_max + 1) ** problem.n > enumeration_cap():
        raise CapExceededError(f"brute-force grid of {(2 * k_max + 1) ** problem.n} points > cap")
    axes = [np.arange(-k_max, k_max + 1, dtype=np.int64)] * problem.n
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids])
    nonzero = np.any(pts != 0, axis=0)
    return pts[:, nonzero]


def _count_explicit_p(problem: ApproximationProblem, u: MatrixU, pts: np.ndarray, keys: np.ndarray, squared: bool) -> int:
    """Sum over columns of pts of the product over forms of explicit p-counts.

    ``keys`` are the integer radius keys of the columns: ||q||, or ||q||_2^2
    when ``squared``.
    """
    e = 2 if squared else 1
    norm_f = keys.astype(np.float64)
    if squared:
        norm_f = np.sqrt(norm_f)
    w = problem.weights_float()
    total_per_q = np.ones(pts.shape[1], dtype=np.int64)
    p_reach = int(math.ceil(max(problem.thetas))) + 2
    for i in range(problem.m):
        rho = problem.thetas[i] * norm_f ** (-w[i])
        c = u.entries[i] @ pts.astype(np.float64)
        base = np.rint(-c)
        cnt = np.zeros(pts.shape[1], dtype=np.int64)
        for off in range(-p_reach, p_reach + 1):
            p_val = base + off
            dist = np.abs(p_val + c)
            ok = dist < rho
            near = np.abs(dist - rho) < _MARGIN * np.maximum(1.0, rho)
            if np.any(near):
                theta = Fraction(problem.thetas[i])
                a, b = problem.weights[i].numerator, problem.weights[i].denominator
                for j in np.nonzero(near)[0]:
                    c_exact = sum(
                        Fraction(u.entries[i, k]) * int(pts[k, j]) for k in range(problem.n)
                    )
                    lhs = abs(int(p_val[j]) + c_exact)
                    ok[j] = lhs ** (e * b) * int(keys[j]) ** a < theta ** (e * b)
            cnt += ok
        total_per_q *= cnt
    return int(total_per_q.sum())


def _window_count(
    problem: ApproximationProblem, u: MatrixU, lo_key: int, hi_key: int, convention: Convention
) -> int:
    """Solutions with lo_key <= key(q) <= hi_key by explicit p enumeration.

    key(q) is ||q||, or ||q||_2^2 when ``_squared(problem)``.
    """
    convention.check(problem)
    squared = _squared(problem)
    pts = _q_grid(problem, math.isqrt(hi_key) if squared else hi_key)
    keys = np.sum(pts * pts, axis=0) if squared else np.max(np.abs(pts), axis=0)
    keep = (keys >= lo_key) & (keys <= hi_key)
    if convention is Convention.POSITIVE_Q:
        keep &= pts[0] >= 1
    return _count_explicit_p(problem, u, pts[:, keep], keys[keep], squared)


def brute_force_count(
    problem: ApproximationProblem,
    u: MatrixU,
    T: float,
    convention: Convention = Convention.BOTH_SIGNS,
) -> int:
    """Count of solutions with 0 < ||q|| < T by explicit p enumeration."""
    if not T > 1:
        raise ValidationError("brute_force_count needs T > 1")
    return _window_count(problem, u, 1, _sup_radius_below(T, _squared(problem)), convention)


def brute_force_block(
    problem: ApproximationProblem,
    u: MatrixU,
    s: int,
    convention: Convention = Convention.BOTH_SIGNS,
) -> int:
    """Block count for the shell e^s <= ||q|| < e^{s+1}, explicit p path."""
    lo_key, hi_key = (block_sq_radius_range if _squared(problem) else block_radius_range)(s)
    return _window_count(problem, u, lo_key, hi_key, convention)


def slow_reference_count(
    problem: ApproximationProblem,
    u: MatrixU,
    T: float,
    convention: Convention = Convention.BOTH_SIGNS,
) -> int:
    """Fraction-only triple loop; use only for tiny T."""
    k_max = _sup_radius_below(T)
    if (2 * k_max + 1) ** problem.n > 100_000:
        raise CapExceededError("slow_reference_count is for tiny instances only")
    T2 = Fraction(T) ** 2
    u_frac = [[Fraction(x) for x in row] for row in u.entries]
    total = 0
    for q in itertools.product(range(-k_max, k_max + 1), repeat=problem.n):
        if all(v == 0 for v in q):
            continue
        if problem.norm is Norm.SUP or problem.n == 1:
            if max(abs(v) for v in q) >= Fraction(T):
                continue
            norm_pow = ("int", max(abs(v) for v in q))
        else:
            qq = sum(v * v for v in q)
            if not qq < T2:
                continue
            norm_pow = ("sq", qq)
        if convention is Convention.POSITIVE_Q and q[0] < 1:
            continue
        prod = 1
        for i in range(problem.m):
            c = sum(u_frac[i][k] * q[k] for k in range(problem.n))
            theta = Fraction(problem.thetas[i])
            a, b = problem.weights[i].numerator, problem.weights[i].denominator
            kind, val = norm_pow
            cnt = 0
            reach = int(math.ceil(problem.thetas[i])) + 2
            center = -c
            for p in range(math.floor(center) - reach, math.floor(center) + reach + 2):
                lhs = abs(p + c)
                if kind == "int":
                    if lhs**b * val**a < theta**b:
                        cnt += 1
                else:
                    if lhs ** (2 * b) * val**a < theta ** (2 * b):
                        cnt += 1
            prod *= cnt
            if prod == 0:
                break
        total += prod
    return total
