"""Direct computation of the approximant counts Delta_T and their radial blocks.

The count for one denominator q is a product over the m forms of the number
of integers in an open interval, so no p is ever enumerated here.  Interval
endpoints are evaluated in double precision; whenever an endpoint lands
within relative margin 1e-9 of an integer the decision is escalated to exact
rational arithmetic (entries of u are dyadic, q is integral, weights are
rational, so the strict inequality can be settled by cross-powering).

Each q carries one exact integer radius key: ||q||, or ||q||_2^2 when
``squared_radii(problem)`` holds (Euclidean norm, n >= 2), so the square
root is never taken on the exact path.  Grids, shell bounds, the "below T"
cut and the escalation all work on that key.

Radial shells use integer thresholds ceil(e^s) computed in high precision
once and cached, which makes the tessellation identity against the lattice
module exact rather than approximate.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

import numpy as np
from mpmath import mp

from diophlab.errors import CapExceededError, ValidationError
from diophlab.problem import ApproximationProblem, Norm

DEFAULT_CAP = 2**31
_BOUNDARY_MARGIN = 1e-9


def enumeration_cap() -> int:
    cap = os.environ.get("DIOPH_CAP")
    if not cap:
        return DEFAULT_CAP
    try:
        value = int(cap)
    except ValueError:
        value = 0
    if value < 1:
        raise ValidationError(f"DIOPH_CAP must be a positive integer, got {cap!r}")
    return value


class Convention(Enum):
    BOTH_SIGNS = "both"
    POSITIVE_Q = "positive"


@dataclass(frozen=True)
class MatrixU:
    """An m x n matrix with dyadic entries in [0, 1)."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=np.float64, copy=True)
        if arr.ndim != 2:
            raise ValidationError("u must be a 2-d matrix")
        if np.any(arr < 0) or np.any(arr >= 1):
            raise ValidationError("entries of u must lie in [0, 1)")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    @property
    def n(self) -> int:
        return self.entries.shape[1]

    def row_fractions(self, i: int):
        return tuple(Fraction(x) for x in self.entries[i])


@dataclass(frozen=True)
class CountResult:
    total: int
    per_block: tuple
    T: float
    convention: Convention


# ---------------------------------------------------------------------------
# exact radial thresholds

@lru_cache(maxsize=None)
def _ceil_exp(x: int) -> int:
    """Smallest integer >= e^x, settled in high-precision arithmetic."""
    if x < 0:
        raise ValidationError("negative exponent in radial threshold")
    with mp.workdps(60 + x):
        return int(mp.ceil(mp.e**x))


def squared_radii(problem: ApproximationProblem) -> bool:
    """Whether the radius key of q is ||q||_2^2 rather than ||q||."""
    return problem.n >= 2 and problem.norm is Norm.EUCLIDEAN


def _sup_radius_below(T: float, squared: bool = False) -> int:
    """Largest integer key k with k < T, or k < T^2 when ``squared`` (T a dyadic real)."""
    return math.ceil(Fraction(T) ** (2 if squared else 1)) - 1


def block_radius_range(s: int) -> tuple[int, int]:
    """Integer radii k with e^s <= k < e^{s+1}, inclusive bounds."""
    return _ceil_exp(s), _ceil_exp(s + 1) - 1


def block_sq_radius_range(s: int) -> tuple[int, int]:
    """Integer squared radii Q with e^{2s} <= Q < e^{2s+2}, inclusive bounds."""
    return _ceil_exp(2 * s), _ceil_exp(2 * s + 2) - 1


def half_space_grid(n: int, lo: int, hi: int, squared: bool, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """One q from each {q, -q} pair with lo <= ||q||_sup <= hi, as (q, radii).

    With ``squared`` (Euclidean norm, n >= 2) the window is lo <= ||q||_2^2
    <= hi instead.  ``q`` is an (n, K) integer array whose first nonzero
    coordinate is positive, in lexicographic order; ``radii`` holds the exact
    integer ||q|| (or ||q||^2) of each column.
    """
    if n == 1:
        lo = max(lo, 1)
    if hi < lo:
        return np.zeros((n, 0), dtype=np.int64), np.zeros(0, dtype=np.int64)
    k_max = math.isqrt(hi) if squared else hi
    points = hi - lo + 1 if n == 1 else (2 * k_max + 1) ** n
    if points > cap:
        raise CapExceededError(f"q-grid of {points} points > cap {cap} (set DIOPH_CAP to raise)")
    if n == 1:
        q = np.arange(lo, hi + 1, dtype=np.int64)
        return q.reshape(1, -1), q
    axes = [np.arange(-k_max, k_max + 1, dtype=np.int64)] * n
    grids = np.meshgrid(*axes, indexing="ij")
    # ravel order is lexicographic, so the points after the origin are
    # exactly those whose first nonzero coordinate is positive
    pts = np.stack([g.ravel() for g in grids])[:, points // 2 + 1 :]
    radii = np.sum(pts * pts, axis=0) if squared else np.max(np.abs(pts), axis=0)
    keep = (radii >= lo) & (radii <= hi)
    return pts[:, keep], radii[keep]


# ---------------------------------------------------------------------------
# exact open-interval count (escalation path)

def _exact_open_count(c: Fraction, theta: Fraction, w: Fraction, radius_key: int, squared: bool) -> int:
    """#{p in Z : |p + c| < theta * ||q||^{-w}} by exact comparison.

    ``radius_key`` is k = ||q|| or, with ``squared``, k = ||q||_2^2.  With
    w = a/b and e = 2 if squared else 1, the strict inequality is cross-powered
    to |p + c|^{eb} k^a < theta^{eb}, so every comparison is exact.
    """
    e = 2 if squared else 1
    a, b = w.numerator, w.denominator
    radius = float(theta) * float(radius_key) ** (-float(w) / e)
    rhs = theta ** (e * b)
    center = -float(c)
    lo = math.floor(center - radius) - 2
    hi = math.ceil(center + radius) + 2
    return sum(1 for p in range(lo, hi + 1) if abs(p + c) ** (e * b) * radius_key**a < rhs)


# ---------------------------------------------------------------------------
# per-q interval counts

def interval_radii(problem: ApproximationProblem, radii: np.ndarray) -> np.ndarray:
    """(m, K) interval radii theta_i * ||q||^{-w_i} from the radius keys of K q."""
    norm_f = radii.astype(np.float64)
    if squared_radii(problem):
        norm_f = np.sqrt(norm_f)
    w = problem.weights_float()
    return np.stack([problem.thetas[i] * norm_f ** (-w[i]) for i in range(problem.m)])


def per_q_product_counts(
    problem: ApproximationProblem,
    u: MatrixU,
    q_int: np.ndarray,
    radii: np.ndarray,
    rho: np.ndarray | None = None,
) -> np.ndarray:
    """prod_i #{p_i : |p_i + <u_i, q>| < theta_i ||q||^{-w_i}} for each column q.

    ``q_int`` is an (n, K) integer array and ``radii`` its integer radius keys
    (see ``squared_radii``).  ``rho`` may carry the precomputed
    ``interval_radii``.
    """
    if u.m != problem.m or u.n != problem.n:
        raise ValidationError("u has wrong shape for the problem")
    q_float = q_int.astype(np.float64)
    if rho is None:
        rho = interval_radii(problem, radii)
    squared = squared_radii(problem)

    prod = np.ones(q_float.shape[1], dtype=np.int64)
    for i in range(problem.m):
        t = u.entries[i] @ q_float  # <u_i, q>
        hi = rho[i] - t
        lo = -rho[i] - t
        cnt = np.ceil(hi) - np.floor(lo) - 1.0
        margin_hi = np.abs(hi - np.rint(hi))
        margin_lo = np.abs(lo - np.rint(lo))
        sus = (margin_hi < _BOUNDARY_MARGIN * np.maximum(1.0, np.abs(hi))) | (
            margin_lo < _BOUNDARY_MARGIN * np.maximum(1.0, np.abs(lo))
        )
        cnt_i = cnt.astype(np.int64)
        if np.any(sus):
            u_row = u.row_fractions(i)
            theta = Fraction(problem.thetas[i])
            w_i = problem.weights[i]
            for j in np.nonzero(sus)[0]:
                c = sum(u_row[k] * int(q_int[k, j]) for k in range(problem.n))
                cnt_i[j] = _exact_open_count(c, theta, w_i, int(radii[j]), squared)
        prod *= cnt_i
    return prod


# ---------------------------------------------------------------------------
# counting kernel

class CountingKernel:
    """Precomputed q-grid and interval radii for the shells s_lo <= s < s_hi.

    Denominators are enumerated from the positive half-space only (first
    nonzero coordinate of q positive); the both-signs count is exactly twice
    that by the symmetry (p, q) <-> (-p, -q).  Build once, then map
    ``block_counts``/``count_up_to`` over many samples: the q-grid
    ``q_int``, its radius keys ``radii`` and the interval radii
    ``rho`` = theta_i * ||q||^{-w_i} do not depend on u.
    """

    def __init__(self, problem: ApproximationProblem, s_lo: int, s_hi: int):
        if not 0 <= s_lo < s_hi:
            raise ValidationError("need 0 <= s_lo < s_hi")
        self.problem = problem
        self.s_lo = int(s_lo)
        self.s_hi = int(s_hi)
        self._build()

    def _build(self) -> None:
        p = self.problem
        squared = squared_radii(p)
        radius_range = block_sq_radius_range if squared else block_radius_range
        lo, hi = radius_range(self.s_lo)[0], radius_range(self.s_hi - 1)[1]
        self.q_int, self.radii = half_space_grid(p.n, lo, hi, squared, enumeration_cap())
        bounds = np.array([radius_range(j)[0] for j in range(self.s_lo + 1, self.s_hi)])
        self.block_of = self.s_lo + np.searchsorted(bounds, self.radii, side="right").astype(np.int64)
        self.rho = interval_radii(p, self.radii)

    @property
    def n_shells(self) -> int:
        return self.s_hi - self.s_lo

    # -- per-sample work ---------------------------------------------------

    def _counts_per_q(self, u: MatrixU) -> np.ndarray:
        return per_q_product_counts(self.problem, u, self.q_int, self.radii, self.rho)

    def _apply_convention(self, value, convention: Convention):
        if convention is Convention.BOTH_SIGNS:
            return value * 2
        if self.problem.n != 1:
            raise ValidationError("PositiveQ convention requires n = 1")
        return value

    def _shell_counts(self, u: MatrixU, convention: Convention, mask) -> np.ndarray:
        per_q = self._counts_per_q(u)
        out = np.bincount(
            self.block_of[mask] - self.s_lo, weights=per_q[mask], minlength=self.n_shells
        ).astype(np.int64)
        return self._apply_convention(out, convention)

    def block_counts(self, u: MatrixU, convention: Convention = Convention.BOTH_SIGNS) -> np.ndarray:
        """Counts for the shells s = s_lo .. s_hi-1, in that order."""
        return self._shell_counts(u, convention, slice(None))

    def _block_counts_below(self, u: MatrixU, T: float, convention: Convention) -> np.ndarray:
        """``block_counts`` restricted to ||q|| < T."""
        mask = self.radii <= _sup_radius_below(T, squared_radii(self.problem))
        return self._shell_counts(u, convention, mask)

    def count_up_to(self, u: MatrixU, T: float, convention: Convention = Convention.BOTH_SIGNS) -> int:
        """Count with e^{s_lo} <= ||q|| < T, T within the kernel's range."""
        return int(self._block_counts_below(u, T, convention).sum())


def _blocks_needed_for(T: float) -> int:
    if not T > 1:
        raise ValidationError("count_direct needs T > 1")
    n = max(1, int(math.ceil(math.log(T))))
    while _ceil_exp(n) - 1 < _sup_radius_below(T):
        n += 1
    return n


def count_direct(
    problem: ApproximationProblem,
    u: MatrixU,
    T: float,
    convention: Convention = Convention.BOTH_SIGNS,
) -> CountResult:
    """|{(p, q) : 0 < ||q|| < T, |p_i + <u_i, q>| < theta_i ||q||^{-w_i}}|.

    ``per_block`` holds the counts split by the shells e^s <= ||q|| < e^{s+1};
    when T = e^N the blocks are exactly the shell counts for s = 0..N-1 and
    they sum to the total.
    """
    kernel = CountingKernel(problem, 0, _blocks_needed_for(T))
    blocks = kernel._block_counts_below(u, T, convention)
    total = int(blocks.sum())
    return CountResult(
        total=total, per_block=tuple(int(b) for b in blocks), T=float(T), convention=convention
    )


def count_block(
    problem: ApproximationProblem,
    u: MatrixU,
    s: int,
    convention: Convention = Convention.BOTH_SIGNS,
) -> int:
    """Count restricted to the shell e^s <= ||q|| < e^{s+1}."""
    if s < 0:
        raise ValidationError("block index s must be >= 0")
    kernel = CountingKernel(problem, s, s + 1)
    return int(kernel.block_counts(u, convention)[0])


def normalize_clt(count: int, T: float, C: float) -> float:
    """(count - C log T) / sqrt(log T)."""
    if not T > 1:
        raise ValidationError("normalize_clt needs T > 1")
    logT = math.log(T)
    return (count - C * logT) / math.sqrt(logT)
