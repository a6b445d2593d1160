"""Direct computation of the approximant counts Delta_T and their radial blocks.

The count for one denominator q is a product over the m forms of the number
of integers in an open interval, so no p is ever enumerated here.  Interval
endpoints are evaluated in double precision, and a q is escalated to exact
rational arithmetic only when an endpoint lies within a certified float
error bound of an integer (``per_q_product_counts`` states the bound and its
one assumption; entries of u are dyadic, q is integral, weights are
rational, so the strict inequality can be settled by cross-powering).

Counting is candidate-first and sparse, and no q-grid is kept.  Per
sample, ``_form0_candidates`` lists the q that form 0 may keep by a
baby-step/giant-step search on the circle: the residues frac(x u_01) of one
axis coordinate are sorted once, and each row of the other coordinates finds
its x near an integer by ``searchsorted``.  Rows are padded by the float
error bound, so the list is a superset of the q with a nonzero count (the
docstring states the argument), of about K^{1/2} log K entries for n <= 2
instead of the K of the window.  ``per_q_product_counts`` then streams those
candidates in chunks of ``_CHUNK`` columns through two reused buffers and
settles every count: form 0 again, the other forms and the escalation on
its survivors only.  Shell totals are summed in int64, and a kernel whose
counts could leave int64 is refused when it is built.

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


def _box(n: int, lo: int, hi: int, squared: bool) -> tuple[int, int]:
    """(k_max, points): the largest |q_j| of the key window lo <= key <= hi
    (lo >= 1 at n = 1) and the points of its q-box, hi - lo + 1 at n = 1 and
    (2 k_max + 1)^n otherwise."""
    k_max = math.isqrt(hi) if squared else hi
    return k_max, hi - lo + 1 if n == 1 else (2 * k_max + 1) ** n


def _check_cap(points: int) -> None:
    cap = enumeration_cap()
    if points > cap:
        raise CapExceededError(f"q-grid of {points} points > cap {cap} (set DIOPH_CAP to raise)")


def _tail_box(n: int, k_max: int, squared: bool) -> tuple[np.ndarray, np.ndarray]:
    """The trailing (n-1)-dim box [-k_max, k_max]^{n-1} in lexicographic (ravel)
    order, as (tail, part): the points and the radius key each adds to q_1's."""
    axes = [np.arange(-k_max, k_max + 1, dtype=np.int64)] * (n - 1)
    tail = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])
    part = np.sum(tail * tail, axis=0) if squared else np.max(np.abs(tail), axis=0)
    return tail, part


def half_space_slabs(n: int, lo: int, hi: int, squared: bool):
    """One q from each {q, -q} pair with lo <= ||q||_sup <= hi, as (q, radii)
    slabs of about ``_CHUNK`` q each.

    With ``squared`` (Euclidean norm, n >= 2) the window is lo <= ||q||_2^2
    <= hi instead.  Each ``q`` is an (n, k) integer array whose first nonzero
    coordinate is positive; the slabs follow one another in lexicographic
    order.  ``radii`` holds the exact integer ||q|| (or ||q||^2) of each
    column.  A box of more than ``enumeration_cap()`` points raises
    CapExceededError before the first slab.
    """
    if n == 1:
        lo = max(lo, 1)
    if hi < lo:
        return
    k_max, points = _box(n, lo, hi, squared)
    _check_cap(points)
    if n == 1:
        for start in range(lo, hi + 1, _CHUNK):
            q = np.arange(start, min(start + _CHUNK, hi + 1), dtype=np.int64)
            yield q.reshape(1, -1), q
        return
    tail, part = _tail_box(n, k_max, squared)

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
    yield slab(np.zeros(1, dtype=np.int64), tail[:, after:], part[after:])
    step = max(1, _CHUNK // part.size)
    for start in range(1, k_max + 1, step):
        yield slab(np.arange(start, min(start + step, k_max + 1), dtype=np.int64), tail, part)


def half_space_grid(n: int, lo: int, hi: int, squared: bool) -> tuple[np.ndarray, np.ndarray]:
    """The slabs of ``half_space_slabs`` joined into one (q, radii) window."""
    slabs = list(half_space_slabs(n, lo, hi, squared))
    if not slabs:
        return np.zeros((n, 0), dtype=np.int64), np.zeros(0, dtype=np.int64)
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


def _check_shape(problem: ApproximationProblem, u: MatrixU) -> None:
    if u.m != problem.m or u.n != problem.n:
        raise ValidationError("u has wrong shape for the problem")


def _float_err(n: int, l1: int, theta: float) -> float:
    """The certified float error bound err_i of ``per_q_product_counts`` for a
    form with this theta, on q with ||q||_1 <= l1."""
    return _SAFETY * 2.0**-52 * (n * l1 + 2.0 * theta + 1.0)


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
    _check_shape(problem, u)
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
            err = _float_err(n, l1, problem.thetas[i])
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
# form-0 candidates by sorted residues

_SIGNS = np.array([-1.0, 1.0])[:, None, None]  # lower and upper end of a range


def _near_integer(axis_u: float, size: int, c: np.ndarray, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, row) for every x in [0, size) and row with
    r_x in [j - c_row - delta_row, j - c_row + delta_row) for j = 0, 1 or 2,
    r_x = frac(x axis_u), all in floats.

    Baby steps: the residues r_x, sorted once.  Giant steps: the three ranges
    of every row, found in the sorted residues by one searchsorted.  With
    c_row in [0, 1] (so r_x + c_row in [0, 2]) and delta_row < 1/2 these are
    the x with ||x axis_u + c_row|| < delta_row; a row with c_row = 0 and
    delta_row = 1/2 tiles [0, 1) exactly and takes every x once.  The ranges
    of a row must not overlap, so the caller keeps delta_row clear of 1/2.
    """
    r = np.arange(size, dtype=np.float64)
    r *= axis_u
    r -= np.floor(r)  # exact
    order = np.argsort(r, kind="stable")
    bounds = (np.arange(3.0)[:, None] - c) + _SIGNS * delta  # (lower/upper, j, row)
    first, last = np.searchsorted(r[order], bounds)
    length = (last - first).ravel()
    pos = np.repeat(first.ravel() - (np.cumsum(length) - length), length)
    pos += np.arange(pos.size)
    return order[pos], np.repeat(np.arange(3 * c.size) % c.size, length)


def _form0_candidates(problem: ApproximationProblem, u: MatrixU, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """(q, keys): the half-space q with lo <= key <= hi that may pass form 0,
    a superset of every q with a nonzero count.

    q is split into an axis coordinate x and a row: x = q_1 in [0, k_max] and
    the row the trailing (n-1)-box point t (the box ``half_space_grid``
    builds), or, at n = 1, q = x + M b with M a power of 2 near sqrt(hi),
    x in [0, M) and the row b.  A row's offset c = frac(<u_0, q> - x u_01)
    and its key lower bound R (max(part(t), lo), or max(M b, lo)) do not
    depend on x; rho_0 decreases in the key, so every q of the row has
    rho_0(q) <= theta_0 R^{-w_0/e} (e = 2 for squared keys, else 1).  The
    row keeps the x with ||x u_01 + c|| < delta in floats, where

        delta = theta_0 R^{-w_0/e} + 3 err_max,

    err_max being the bound err_0 of ``per_q_product_counts`` at
    l1 = n k_max >= ||q||_1.  Superset: frac of a nonnegative float is exact
    (of a negative one, within 2^-53), u_01 M is exact (M a power of 2), and
    the residue, the offset, the float radius and the searchsorted bounds are
    each within err_max of their exact values, so a q with
    ||<u_0, q>|| < rho_0(q) passes.  A row with delta >= 1/2 - 3 err_max,
    whose three residue ranges could meet, takes every x, so the wide q are
    covered too.  The caller runs ``per_q_product_counts`` on the result,
    which settles every count exactly as on the whole grid.
    """
    _check_shape(problem, u)
    n, squared = problem.n, squared_radii(problem)
    if n == 1:
        lo = max(lo, 1)
    if hi < lo:
        return np.zeros((n, 0), dtype=np.int64), np.zeros(0, dtype=np.int64)
    k_max = _box(n, lo, hi, squared)[0]
    u0 = u.entries[0]
    if n == 1:
        size = 1 << (hi.bit_length() + 1) // 2
        b = np.arange(lo // size, hi // size + 1, dtype=np.int64)
        c = b * (u0[0] * size)
        floor_key = np.maximum(b * size, lo)
    else:
        size = k_max + 1
        tail, part = _tail_box(n, k_max, squared)
        c = tail[0] * u0[1]
        for k in range(2, n):
            c += tail[k - 1] * u0[k]
        floor_key = np.maximum(part, lo)
    c -= np.floor(c)
    err = 3.0 * _float_err(n, n * k_max, problem.thetas[0])
    delta = interval_radii(problem, floor_key)[0]
    delta += err
    whole = delta >= 0.5 - err  # its ranges could meet: take every x instead
    c[whole], delta[whole] = 0.0, 0.5
    x, row = _near_integer(u0[0], size, c, delta)
    if n == 1:
        keys = x + size * b[row]
        keys = keys[(keys >= lo) & (keys <= hi)]
        return keys.reshape(1, -1), keys
    keys = x * x + part[row] if squared else np.maximum(x, part[row])
    # q_1 = 0 keeps the rows after the origin (first nonzero coordinate positive)
    keep = (keys >= lo) & (keys <= hi) & ((x > 0) | (row > part.size // 2))
    x, row = x[keep], row[keep]
    return np.concatenate([x[None], tail[:, row]]), keys[keep]


# ---------------------------------------------------------------------------
# counting kernel

class CountingKernel:
    """Shell counts for the shells s_lo <= s < s_hi, one sample u at a time.

    Denominators come from the positive half-space only (first nonzero
    coordinate of q positive); the both-signs count is exactly twice that by
    the symmetry (p, q) <-> (-p, -q).  The kernel holds the key window
    ``lo``..``hi`` of its shells and the shell starts, nothing sized by the
    window: each ``block_counts`` call draws its q from
    ``_form0_candidates``.  Building one refuses a window whose box exceeds
    ``enumeration_cap()`` (CapExceededError) and one whose counts could leave
    int64 (ValidationError).
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
        ranges = [radius_range(s) for s in range(self.s_lo, self.s_hi)]
        self.lo, self.hi = ranges[0][0], ranges[-1][1]
        _check_cap(_box(p.n, self.lo, self.hi, squared)[1])
        # a q of shell s counts at most prod_i (2 theta_i lo_s^{-w_i/e} + 1), and
        # twice the points of the shell's box bound its q of both signs
        e = 2 if squared else 1
        bound = 0.0
        for lo, hi in ranges:
            per_q = math.prod(2.0 * t * lo ** (-w / e) + 1.0 for t, w in zip(p.thetas, p.weights_float()))
            bound += 2.0 * _box(p.n, lo, hi, squared)[1] * per_q
        if bound >= 2.0**62:
            raise ValidationError(f"counts up to ~{bound:.3g} may not fit int64; lower the thetas or the shells")
        self._starts = np.array([lo for lo, _ in ranges[1:]], dtype=np.int64)

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
        hi = self.hi if below is None else min(self.hi, below)
        q, keys = _form0_candidates(self.problem, u, self.lo, hi)
        cols, counts = per_q_product_counts(self.problem, u, q, keys, interval_radii(self.problem, keys))
        out = np.zeros(self.n_shells, dtype=np.int64)
        np.add.at(out, self.shell_of(keys[cols]), counts)  # int64: exact beyond 2^53
        return out * (2 if convention is Convention.BOTH_SIGNS else 1)


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
