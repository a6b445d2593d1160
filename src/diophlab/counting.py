"""Direct computation of the approximant counts Delta_T and their radial blocks.

The count for one denominator q is a product over the m forms of the number
of integers in an open interval, so no p is ever enumerated here.  Interval
endpoints are evaluated in double precision, and a q is escalated to exact
rational arithmetic only when an endpoint lies within a certified float
error bound of an integer (``per_q_product_counts`` states the bound and its
one assumption; entries of u are dyadic, q is integral, weights are
rational, so the strict inequality can be settled by cross-powering).

Counting is candidate-first and sparse.  q streams in chunks of ``_CHUNK``
columns through two reused buffers.  Form 0 keeps the q whose interval is
wide or may hold an integer; the other forms and the escalation see only
those, and only the q with a nonzero count leave the chunk, so the memory
of a call is bounded by the chunk, not by the grid.

Each q carries one exact integer radius key: ||q||, or ||q||_2^2 when
``squared_radii(problem)`` holds (Euclidean norm, n >= 2), so the square
root is never taken on the exact path.  Grids, shell bounds, the "below T"
cut and the escalation all work on that key.  Radial shells use integer
thresholds ceil(e^s), computed once with the correctly rounded ``decimal``
exp and cached.  They are the only shell thresholds in the package: the
lattice module's Siegel transform of the counting cell is shell s of this
kernel.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from decimal import Decimal, localcontext
from enum import Enum
from fractions import Fraction
from functools import lru_cache

import numpy as np

from diophlab.errors import CapExceededError, ValidationError
from diophlab.problem import ApproximationProblem, Norm

DEFAULT_CAP = 2**31
_CHUNK = 1 << 16  # q columns per chunk: the work arrays of one chunk stay near L2 size
_SAFETY = 16.0  # factor on the float error bound of per_q_product_counts


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

    def check(self, problem: ApproximationProblem) -> None:
        """Refuse POSITIVE_Q at n >= 2, where q > 0 names no half-space."""
        if self is Convention.POSITIVE_Q and problem.n != 1:
            raise ValidationError("PositiveQ convention requires n = 1")


@dataclass(frozen=True)
class MatrixU:
    """An m x n matrix with dyadic entries in [0, 1)."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=np.float64, copy=True)
        if arr.ndim != 2:
            raise ValidationError("u must be a 2-d matrix")
        if not np.all((arr >= 0) & (arr < 1)):
            raise ValidationError("entries of u must lie in [0, 1)")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    @property
    def n(self) -> int:
        return self.entries.shape[1]


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
    with localcontext() as ctx:
        ctx.prec = 60 + x
        return math.ceil(Decimal(x).exp())  # Decimal.exp is correctly rounded


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


def half_space_grid(n: int, lo: int, hi: int, squared: bool) -> tuple[np.ndarray, np.ndarray]:
    """One q from each {q, -q} pair with lo <= ||q||_sup <= hi, as (q, radii).

    With ``squared`` (Euclidean norm, n >= 2) the window is lo <= ||q||_2^2
    <= hi instead.  ``q`` is an (n, K) integer array whose first nonzero
    coordinate is positive, in lexicographic order; ``radii`` holds the exact
    integer ||q|| (or ||q||^2) of each column.  A box of more than
    ``enumeration_cap()`` points raises CapExceededError.
    """
    if n == 1:
        lo = max(lo, 1)
    if hi < lo:
        return np.zeros((n, 0), dtype=np.int64), np.zeros(0, dtype=np.int64)
    k_max = math.isqrt(hi) if squared else hi
    points = hi - lo + 1 if n == 1 else (2 * k_max + 1) ** n
    cap = enumeration_cap()
    if points > cap:
        raise CapExceededError(f"q-grid of {points} points > cap {cap} (set DIOPH_CAP to raise)")
    if n == 1:
        q = np.arange(lo, hi + 1, dtype=np.int64)
        return q.reshape(1, -1), q
    # the trailing (n-1)-dim box in lexicographic (ravel) order and its radius
    axes = [np.arange(-k_max, k_max + 1, dtype=np.int64)] * (n - 1)
    tail = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])
    part = np.sum(tail * tail, axis=0) if squared else np.max(np.abs(tail), axis=0)

    def slab(lead, tail, part):
        # window points (l, t), l in lead and t in tail, in row-major order
        radii = lead[:, None] ** 2 + part if squared else np.maximum(lead[:, None], part)
        keep = (radii >= lo) & (radii <= hi)
        rows, cols = np.nonzero(keep)
        q = np.empty((n, rows.size), dtype=np.int64)
        q[0] = lead[rows]
        q[1:] = tail[:, cols]
        return q, radii[keep]

    # q_1 = 0 keeps the trailing points after the origin (first nonzero
    # coordinate positive); rows q_1 > 0 go in slabs of about _CHUNK points
    after = part.size // 2 + 1
    slabs = [slab(np.zeros(1, dtype=np.int64), tail[:, after:], part[after:])]
    step = max(1, _CHUNK // part.size)
    for start in range(1, k_max + 1, step):
        slabs.append(slab(np.arange(start, min(start + step, k_max + 1), dtype=np.int64), tail, part))
    return np.concatenate([q for q, _ in slabs], axis=1), np.concatenate([r for _, r in slabs])


# ---------------------------------------------------------------------------
# exact open-interval count (escalation path)

def _exact_open_count(c: Fraction, theta: Fraction, w: Fraction, radius_key: int, squared: bool) -> int:
    """#{p in Z : |p + c| < theta * ||q||^{-w}} by exact comparison.

    ``radius_key`` is k = ||q|| or, with ``squared``, k = ||q||_2^2.  With
    w = a/b and e = 2 if squared else 1, the strict inequality is cross-powered
    to |p + c|^{eb} k^a < theta^{eb}, so every comparison is exact.  The p
    that satisfy it are the integers of an interval around -c: the one
    nearest -c is tested first, then each end moves from its float guess,
    one exact comparison a step, to the last p inside.  The cost therefore
    does not grow with the length of the interval.
    """
    e = 2 if squared else 1
    a, b = w.numerator, w.denominator
    power, scale, rhs = e * b, radius_key**a, theta ** (e * b)

    def inside(p: int) -> bool:
        return abs(p + c) ** power * scale < rhs

    nearest = round(-c)  # on a tie both neighbours are as near
    if not inside(nearest):
        return 0

    def last_inside(p: int, step: int) -> int:
        # from a guess p on the ``step`` side of ``nearest``, the end of the run that way
        while inside(p + step):
            p += step
        while not inside(p):
            p -= step
        return p

    radius = float(theta) * float(radius_key) ** (-float(w) / e)
    center = -float(c)
    hi = last_inside(max(nearest, math.ceil(center + radius) - 1), 1)
    lo = last_inside(min(nearest, math.floor(center - radius) + 1), -1)
    return hi - lo + 1


# ---------------------------------------------------------------------------
# per-q interval counts

def interval_radii(problem: ApproximationProblem, radii: np.ndarray) -> np.ndarray:
    """(m, K) interval radii theta_i * ||q||^{-w_i} from the radius keys of K q."""
    norm_f = radii.astype(np.float64)
    if squared_radii(problem):
        np.sqrt(norm_f, out=norm_f)
    w = problem.weights_float()
    rho = np.empty((problem.m, norm_f.size))
    for i in range(problem.m):
        np.power(norm_f, -w[i], out=rho[i])
        rho[i] *= problem.thetas[i]  # x * theta == theta * x in floats
    return rho


def _dot_gap(u_row: np.ndarray, q: np.ndarray, rho: np.ndarray, t: np.ndarray, gap: np.ndarray) -> None:
    """t = <u_row, q>, summed term by term, and gap = ||t|| - rho, with
    ||t|| = |t - rint(t)| exact in floats; q holds integer columns."""
    t[:] = q[0]  # a cast in place and a float multiply beat one casting multiply
    t *= u_row[0]
    for k in range(1, q.shape[0]):
        gap[:] = q[k]
        gap *= u_row[k]
        t += gap
    np.subtract(t, np.rint(t, out=gap), out=gap)
    np.abs(gap, out=gap)
    gap -= rho


def _form_counts(t: np.ndarray, rho: np.ndarray, err: float, gap: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Float counts #{p : |p + t| < rho} and the mask of q that float cannot settle.

    ``gap`` holds ||t|| - rho (any value on the wide q) and is overwritten;
    ``err`` bounds the float error of t and rho.  Where 2 rho < 1 - 2 err the
    open interval holds at most one integer, so the count is gap < 0; only
    the few wider intervals take ceil(hi) - floor(lo) - 1.  A q is
    suspicious when the decision sits within ``err`` of flipping.
    """
    wide = np.flatnonzero(rho >= 0.5 - err)
    cnt = (gap < 0).astype(np.int64)
    sus = np.abs(gap, out=gap) <= err
    if wide.size:
        hi = rho[wide] - t[wide]
        lo = -rho[wide] - t[wide]
        cnt[wide] = (np.ceil(hi) - np.floor(lo) - 1.0).astype(np.int64)
        sus[wide] = (np.abs(hi - np.rint(hi)) <= err) | (np.abs(lo - np.rint(lo)) <= err)
    return cnt, sus


def per_q_product_counts(
    problem: ApproximationProblem,
    u: MatrixU,
    q_int: np.ndarray,
    radii: np.ndarray,
    rho: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The q with a nonzero prod_i #{p_i : |p_i + <u_i, q>| < theta_i ||q||^{-w_i}}.

    ``q_int`` is an (n, K) integer array and ``radii`` its integer radius keys
    (see ``squared_radii``), and ``rho`` their ``interval_radii``.  Returns
    ``(cols, counts)``: the ascending columns with a nonzero product, and
    their int64 products.

    Candidates first.  Form 0 runs on every column of a chunk, as
    gap = ||<u_0, q>|| - rho_0.  The candidates are the q with gap <= err_0,
    plus the wide q (rho_0 >= 1/2 - err_0), forced in.  For a narrow q,
    gap <= err_0 is exactly "counted (gap < 0) or suspicious (|gap| <= err_0)"
    in ``_form_counts``, so the filter drops only q that count 0 without
    escalating.  The rest of the work sees candidates and survivors only.

    Error bound.  Entries of u lie in [0, 1) and q is an exact integer, so
    the float t = <u_i, q> is within gamma_n ||q||_1 ~ n 2^-53 ||q||_1 of the
    exact value (Higham, Accuracy and Stability of Numerical Algorithms,
    section 3.1).  The float rho_i = theta_i ||q||^{-w_i} is within a few ulps
    of the real one plus rho_i w_i ln||q|| 2^-53 <= theta_i 2^-53 / e from
    rounding w_i; the subtraction rho_i - t adds half an ulp of |t| + rho_i.
    With ||q||_1 <= l1 over the chunk, every endpoint is therefore within

        err_i = SAFETY 2^-52 (n l1 + 2 theta_i + 1),   SAFETY = 16,

    of its exact value, assuming only that libm ``pow`` is accurate to a few
    ulps (it is not correctly rounded; SAFETY absorbs that).  A q is settled
    by exact rationals (``_exact_open_count``) only when an endpoint, or
    ||t|| against rho_i for a narrow interval, lies within err_i of flipping.
    """
    if u.m != problem.m or u.n != problem.n:
        raise ValidationError("u has wrong shape for the problem")
    n = problem.n
    squared = squared_radii(problem)
    buf = np.empty((2, min(q_int.shape[1], _CHUNK)))  # t and gap of form 0, reused by every chunk
    cols, counts = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for start in range(0, q_int.shape[1], _CHUNK):
        q, keys = q_int[:, start : start + _CHUNK], radii[start : start + _CHUNK]
        rho_c = rho[:, start : start + _CHUNK]
        key = int(keys.max())
        l1 = n * (math.isqrt(key) + 1 if squared else key)  # >= ||q||_1 on the chunk
        live = slice(None)  # form 0 runs on every column
        for i in range(problem.m):
            err = _SAFETY * 2.0**-52 * (n * l1 + 2.0 * problem.thetas[i] + 1.0)
            t, gap = buf[:, : keys.size] if i == 0 else np.empty((2, live.size))
            _dot_gap(u.entries[i], q[:, live], rho_c[i, live], t, gap)
            if i == 0:
                gap[rho_c[0] >= 0.5 - err] = -np.inf  # force the wide intervals in
                live = np.flatnonzero(gap <= err)
                t, gap = t[live], gap[live]
            cnt, sus = _form_counts(t, rho_c[i, live], err, gap)
            for j in np.flatnonzero(sus):
                col = live[j]
                c = sum(Fraction(u.entries[i, k]) * int(q[k, col]) for k in range(n))
                cnt[j] = _exact_open_count(c, Fraction(problem.thetas[i]), problem.weights[i], int(keys[col]), squared)
            hit = cnt != 0
            prod = cnt[hit] if i == 0 else prod[hit] * cnt[hit]
            live = live[hit]
            if not live.size:
                break
        cols.append(live + start)
        counts.append(prod)
    return np.concatenate(cols), np.concatenate(counts)


# ---------------------------------------------------------------------------
# counting kernel

class CountingKernel:
    """Precomputed q-grid and interval radii for the shells s_lo <= s < s_hi.

    Denominators are enumerated from the positive half-space only (first
    nonzero coordinate of q positive); the both-signs count is exactly twice
    that by the symmetry (p, q) <-> (-p, -q).  Build once, then map
    ``block_counts`` over many samples: the q-grid ``q_int``, its radius
    keys ``radii`` and the interval radii ``rho`` = theta_i * ||q||^{-w_i}
    do not depend on u.
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
        self.q_int, self.radii = half_space_grid(p.n, lo, hi, squared)
        self._starts = np.array([radius_range(j)[0] for j in range(self.s_lo + 1, self.s_hi)], dtype=np.int64)
        self.rho = interval_radii(p, self.radii)

    @property
    def n_shells(self) -> int:
        return self.s_hi - self.s_lo

    # -- per-sample work ---------------------------------------------------

    def shell_of(self, keys: np.ndarray) -> np.ndarray:
        """Shell index s - s_lo of each radius key, for keys within the kernel's shells."""
        return np.searchsorted(self._starts, keys, side="right")

    def block_counts(
        self, u: MatrixU, convention: Convention = Convention.BOTH_SIGNS, below: int | None = None
    ) -> np.ndarray:
        """Counts for the shells s = s_lo .. s_hi-1, in that order, of the q
        with radius key <= ``below`` (all q if None)."""
        convention.check(self.problem)
        cols, counts = per_q_product_counts(self.problem, u, self.q_int, self.radii, self.rho)
        keys = self.radii[cols]
        if below is not None:
            keep = keys <= below
            keys, counts = keys[keep], counts[keep]
        out = np.bincount(self.shell_of(keys), weights=counts, minlength=self.n_shells)
        return out.astype(np.int64) * (2 if convention is Convention.BOTH_SIGNS else 1)


def _blocks_needed_for(T: float) -> int:
    if not 1 < T < math.inf:
        raise ValidationError("count_direct needs finite T > 1")
    n = max(1, int(math.ceil(math.log(T))))
    while block_radius_range(n - 1)[1] < _sup_radius_below(T):
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
    convention.check(problem)
    kernel = CountingKernel(problem, 0, _blocks_needed_for(T))
    blocks = kernel.block_counts(u, convention, _sup_radius_below(T, squared_radii(problem)))
    total = int(blocks.sum())
    return CountResult(
        total=total, per_block=tuple(int(b) for b in blocks), T=float(T), convention=convention
    )
