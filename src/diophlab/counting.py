"""Direct computation of the approximant counts Delta_T and their radial blocks.

The count for one denominator q is a product over the m forms of the number
of integers in an open interval, so no p is ever enumerated here.  Interval
endpoints are evaluated in double precision, and a q is escalated to exact
rational arithmetic only when an endpoint lies within a certified float
error bound of an integer (``per_q_product_counts`` states the bound and its
one assumption; entries of u are dyadic, q is integral, weights are
rational, so the strict inequality can be settled by cross-powering).

Counting is candidate-first and sparse, and no q-grid is kept.  One call
counts a batch of samples.  For each sample, ``_form0_candidates`` lists the
q that form 0 may keep by a baby-step/giant-step search on the circle: the
sample's residues frac(x u_01) of one axis coordinate are sorted once, and
each row of the other coordinates, built once per call, finds its x near an
integer by ``searchsorted``.  Rows are padded by the float error bound, so
the list is a superset of the q with a nonzero count (the docstring states
the argument), of about K^{1/2} log K entries for n <= 2 instead of the K of
the window.  ``per_q_product_counts`` then takes the candidates of the whole
batch, sample after sample, in one pass per form and settles every count:
form 0 again, the other forms and the escalation on its survivors only.
Shell totals are summed in int64, and a kernel whose counts could leave
int64 is refused when it is built.

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

import bisect
import math
import os
from dataclasses import dataclass
from decimal import Decimal, localcontext
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from diophlab.errors import CapExceededError, ValidationError
from diophlab.problem import ApproximationProblem, Norm

DEFAULT_CAP = 2**31
# points per half_space_slabs slab: an int64 or float64 array of a slab is
# about 64 KB, like one counting batch's (montecarlo._BATCH_CANDIDATES)
_CHUNK = 1 << 13
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

def _form_radii(problem: ApproximationProblem, i: int, radii: np.ndarray) -> np.ndarray:
    """Interval radii theta_i * ||q||^{-w_i} of form i from the radius keys of q."""
    rho = radii.astype(np.float64)
    if squared_radii(problem):
        np.sqrt(rho, out=rho)
    np.power(rho, -problem.weights_float()[i], out=rho)
    rho *= problem.thetas[i]  # x * theta == theta * x in floats
    return rho


def interval_radii(problem: ApproximationProblem, radii: np.ndarray) -> np.ndarray:
    """(m, K) interval radii theta_i * ||q||^{-w_i} from the radius keys of K q."""
    return np.stack([_form_radii(problem, i, radii) for i in range(problem.m)])


def _batch(problem: ApproximationProblem, u) -> list:
    """The samples of a call: one MatrixU is the batch of one."""
    us = [u] if isinstance(u, MatrixU) else list(u)
    for v in us:
        if v.m != problem.m or v.n != problem.n:
            raise ValidationError("u has wrong shape for the problem")
    return us


def _float_err(n: int, l1, theta: float):
    """The certified float error bound err_i of ``per_q_product_counts`` for a
    form with this theta, on q with ||q||_1 <= l1 (a scalar or one per q)."""
    return _SAFETY * 2.0**-52 * (n * l1 + 2.0 * theta + 1.0)


def _dot_gap(u_rows: list, bounds: list, q: np.ndarray, rho: np.ndarray, t: np.ndarray, gap: np.ndarray) -> None:
    """t = <u_rows[b], q> on the columns bounds[b]:bounds[b + 1] of each sample
    b, summed term by term, and gap = ||t|| - rho, with ||t|| = |t - rint(t)|
    exact in floats; q holds integer columns."""
    runs = list(zip(u_rows, bounds, bounds[1:]))
    t[:] = q[0]  # a cast in place and a float multiply beat one casting multiply
    for row, a, z in runs:
        t[a:z] *= row[0]
    for k in range(1, q.shape[0]):
        gap[:] = q[k]
        for row, a, z in runs:
            gap[a:z] *= row[k]
        t += gap
    np.subtract(t, np.rint(t, out=gap), out=gap)
    np.abs(gap, out=gap)
    gap -= rho


def _form_counts(t: np.ndarray, rho: np.ndarray, err: np.ndarray, gap: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Float counts #{p : |p + t| < rho} and the mask of q that float cannot settle.

    ``gap`` holds ||t|| - rho and is overwritten; ``err`` bounds the float
    error of t and rho, one bound per q.  Where 2 rho < 1 - 2 err the open
    interval holds at most one integer, so the count is gap < 0; only the
    few wider intervals take ceil(hi) - floor(lo) - 1.  A q is suspicious
    when the decision sits within ``err`` of flipping.
    """
    wide = np.flatnonzero(rho >= 0.5 - err)
    cnt = (gap < 0).astype(np.int64)
    sus = np.abs(gap, out=gap) <= err
    if wide.size:
        hi = rho[wide] - t[wide]
        lo = -rho[wide] - t[wide]
        e = err[wide]
        cnt[wide] = (np.ceil(hi) - np.floor(lo) - 1.0).astype(np.int64)
        sus[wide] = (np.abs(hi - np.rint(hi)) <= e) | (np.abs(lo - np.rint(lo)) <= e)
    return cnt, sus


def per_q_product_counts(
    problem: ApproximationProblem,
    u,
    q_int: np.ndarray,
    radii: np.ndarray,
    offsets=None,
) -> tuple[np.ndarray, np.ndarray]:
    """The q with a nonzero prod_i #{p_i : |p_i + <u_i, q>| < theta_i ||q||^{-w_i}}.

    ``u`` is one MatrixU, or a batch of them whose columns follow one another
    in ``q_int``: sample b owns the columns offsets[b]:offsets[b + 1] (B + 1
    ascending offsets; one MatrixU owns every column).  ``q_int`` is an
    (n, K) integer array and ``radii`` its integer radius keys (see
    ``squared_radii``).  Returns ``(cols, counts)``: the ascending columns
    with a nonzero product, and their int64 products.

    Candidates first.  Form 0 runs on every column, as
    gap = ||<u_0, q>|| - rho_0.  The candidates are the q with gap <= err_0,
    plus the wide q (rho_0 >= 1/2 - err_0), forced in.  For a narrow q,
    gap <= err_0 is exactly "counted (gap < 0) or suspicious (|gap| <= err_0)"
    in ``_form_counts``, so the filter drops only q that count 0 without
    escalating.  The rest of the work, the radii rho_i of forms 1..m-1
    included, sees candidates and survivors only.

    Error bound.  Entries of u lie in [0, 1) and q is an exact integer, so
    the float t = <u_i, q> is within gamma_n ||q||_1 ~ n 2^-53 ||q||_1 of the
    exact value (Higham, Accuracy and Stability of Numerical Algorithms,
    section 3.1).  The float rho_i = theta_i ||q||^{-w_i} is within a few ulps
    of the real one plus rho_i w_i ln||q|| 2^-53 <= theta_i 2^-53 / e from
    rounding w_i; the subtraction rho_i - t adds half an ulp of |t| + rho_i.
    With ||q||_1 <= l1, every endpoint is therefore within

        err_i = SAFETY 2^-52 (n l1 + 2 theta_i + 1),   SAFETY = 16,

    of its exact value, assuming only that libm ``pow`` is accurate to a few
    ulps (it is not correctly rounded; SAFETY absorbs that).  The form-0
    filter takes err_0 at the largest key of the call, one scalar certified
    for every q of the batch; each survivor then takes err_i at its own
    exact ||q||_1 in every form.  A q is settled by exact rationals
    (``_exact_open_count``) only when an endpoint, or ||t|| against rho_i for
    a narrow interval, lies within its err_i of flipping.
    """
    us = _batch(problem, u)
    offsets = [0, radii.size] if offsets is None else [int(o) for o in offsets]
    n = problem.n
    squared = squared_radii(problem)
    key = int(radii.max(initial=0))
    l1 = n * (math.isqrt(key) + 1 if squared else key)  # >= ||q||_1 on the call
    live = slice(None)  # form 0 runs on every column
    bounds = offsets
    for i in range(problem.m):
        rho = _form_radii(problem, i, radii[live])
        t, gap = np.empty((2, rho.size))
        q = q_int if i == 0 else np.take(q_int, live, axis=1)  # several times faster than q_int[:, live]
        _dot_gap([v.entries[i].tolist() for v in us], bounds, q, rho, t, gap)
        if i == 0:
            err = _float_err(n, l1, problem.thetas[0])
            keep = gap <= err
            keep |= rho >= 0.5 - err  # force the wide intervals in
            live = np.flatnonzero(keep)
            t, gap, rho = t[live], gap[live], rho[live]
            norm1 = np.abs(np.take(q_int, live, axis=1)).sum(axis=0)  # the exact ||q||_1 of each survivor
        cnt, sus = _form_counts(t, rho, _float_err(n, norm1, problem.thetas[i]), gap)
        for j in np.flatnonzero(sus):
            col = live[j]
            v = us[bisect.bisect_right(offsets, col) - 1]  # the sample that owns the column
            c = sum(Fraction(v.entries[i, k]) * int(q_int[k, col]) for k in range(n))
            cnt[j] = _exact_open_count(c, Fraction(problem.thetas[i]), problem.weights[i], int(radii[col]), squared)
        hit = cnt != 0
        prod = cnt[hit] if i == 0 else prod[hit] * cnt[hit]
        live, norm1 = live[hit], norm1[hit]
        if not live.size:
            break
        bounds = np.searchsorted(live, offsets).tolist()
    return live, prod


# ---------------------------------------------------------------------------
# form-0 candidates by sorted residues

_SIGNS = np.array([-1.0, 1.0])[:, None, None]  # lower and upper end of a range


class _Rows(NamedTuple):
    """The u-independent rows of the form-0 search on one key window: x runs
    over [0, size), row r's offset is c = sum_k coords[k, r] a_k with
    a = (u_01 M) at n = 1 and (u_02, .., u_0n) otherwise, ``part`` is the key
    it adds to x's, ``delta`` its padded form-0 radius, and the ``whole``
    rows take every x."""

    size: int
    coords: np.ndarray
    part: np.ndarray
    delta: np.ndarray
    whole: np.ndarray


def _rows(problem: ApproximationProblem, lo: int, hi: int) -> _Rows:
    """The rows of ``_form0_candidates`` on the key window lo..hi (lo >= 1, hi >= lo)."""
    n, squared = problem.n, squared_radii(problem)
    k_max = _box(n, lo, hi, squared)[0]
    if n == 1:
        size = 1 << (hi.bit_length() + 1) // 2
        b = np.arange(lo // size, hi // size + 1, dtype=np.int64)
        coords, part = b[None], b * size
    else:
        size = k_max + 1
        coords, part = _tail_box(n, k_max, squared)
    err = 3.0 * _float_err(n, n * k_max, problem.thetas[0])
    delta = _form_radii(problem, 0, np.maximum(part, lo))
    delta += err
    whole = delta >= 0.5 - err  # its range could hold an x twice: take every x instead
    delta[whole] = 0.5
    return _Rows(size, coords, part, delta, whole)


def _near_integer(axis_u: np.ndarray, size: int, c: np.ndarray, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, row, ends) for every sample b, x in [0, size) and row with
    r_x - j in [-c[b, row] - delta_row, -c[b, row] + delta_row) for
    j = 0, 1 or 2, r_x = frac(x axis_u[b]), all in floats.  The hits of
    sample b follow those of b - 1 and end before ends[b].

    Baby steps: each sample's residues r_x, sorted once and laid out as
    r - 2, r - 1, r, which ascend through [-2, 1) (the subtractions round by
    at most 2^-53, and r - 1 is exact for r >= 1/2).  Giant steps: the range
    of every row, found in its sample's layout by one searchsorted.  With
    c in [0, 1] (so r_x + c in [0, 2]) and delta_row < 1/2 these are the x
    with ||x axis_u + c|| < delta_row, each once, since the range is shorter
    than 1; a row with c = -1/2 and delta_row = 1/2 is the range [0, 1), so
    it takes every x once.  The caller keeps the other rows' delta_row clear
    of 1/2.
    """
    B, rows = c.shape
    r = np.arange(size, dtype=np.float64) * axis_u[:, None]
    r -= np.floor(r)  # exact
    order = np.argsort(r, axis=1, kind="stable")
    r = np.take_along_axis(r, order, axis=1)
    r = np.concatenate([r - 2.0, r - 1.0, r], axis=1)
    bounds = _SIGNS * delta - c  # (lower/upper, b, row)
    first, last = np.empty((2, B, rows), dtype=np.int64)
    for b in range(B):
        first[b], last[b] = np.searchsorted(r[b], bounds[:, b]) + 3 * size * b  # positions in r.ravel()
    length = (last - first).ravel()
    ends = np.cumsum(length)
    pos = np.repeat(first.ravel() - (ends - length), length)
    pos += np.arange(pos.size)
    row = np.repeat(np.arange(B * rows) % rows, length)
    return np.concatenate([order] * 3, axis=1).ravel()[pos], row, ends[rows - 1 :: rows].copy()


def _form0_candidates(problem: ApproximationProblem, us: list, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(q, keys, offsets): for each sample u of the batch ``us``, the
    half-space q with lo <= key <= hi (lo >= 1) that may pass form 0, a
    superset of every q with a nonzero count.  Sample b owns the columns
    offsets[b]:offsets[b + 1].

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
    whose residue range could hold an x twice, takes every x, so the wide q
    are covered too.  The rows (``_rows``) do not depend on u and are built
    once per call; each sample searches its own sorted residues.  The caller
    runs ``per_q_product_counts`` on the result, which settles every count
    exactly as on the whole grid.
    """
    n = problem.n
    if hi < lo:
        return np.zeros((n, 0), dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(len(us) + 1, dtype=np.int64)
    rows = _rows(problem, lo, hi)
    u0 = np.array([u.entries[0] for u in us])  # (B, n)
    scale = u0[:, :1] * rows.size if n == 1 else u0[:, 1:]
    c = rows.coords[0] * scale[:, :1]
    for k in range(1, rows.coords.shape[0]):
        c += rows.coords[k] * scale[:, k : k + 1]
    c -= np.floor(c)
    c[:, rows.whole] = -0.5  # with delta = 1/2: the range [0, 1), every x
    x, row, ends = _near_integer(u0[:, 0], rows.size, c, rows.delta)
    keys = rows.part[row]  # each step in place: a call's peak memory follows its candidates
    if n == 1:
        keys += x
        keep = (keys >= lo) & (keys <= hi)
    else:
        if squared_radii(problem):
            keys += x * x
        else:
            np.maximum(keys, x, out=keys)
        # q_1 = 0 keeps the rows after the origin (first nonzero coordinate positive)
        keep = (keys >= lo) & (keys <= hi) & ((x > 0) | (row > rows.part.size // 2))
    ends = [0, *ends.tolist()]
    offsets = np.cumsum([0] + [np.count_nonzero(keep[a:z]) for a, z in zip(ends, ends[1:])])
    keys = keys[keep]
    if n == 1:
        return keys.reshape(1, -1), keys, offsets
    x, row = x[keep], row[keep]
    return np.concatenate([x[None], np.take(rows.coords, row, axis=1)]), keys, offsets


# ---------------------------------------------------------------------------
# counting kernel

class CountingKernel:
    """Shell counts for the shells s_lo <= s < s_hi, for one sample u or a
    batch of them per call.

    Denominators come from the positive half-space only (first nonzero
    coordinate of q positive); the both-signs count is exactly twice that by
    the symmetry (p, q) <-> (-p, -q).  The kernel holds the key window
    ``lo``..``hi`` of its shells, the shell starts and
    ``candidates_per_sample``, its u-independent estimate of the form-0
    candidates a sample draws, by which callers size their batches; nothing
    sized by the window: each ``block_counts`` call draws its q from
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
        # the x a sample is expected to draw, sum over rows of min(size, 2 delta size + 1)
        rows = _rows(p, self.lo, self.hi)
        self.candidates_per_sample = int(np.minimum(rows.size, 2.0 * rows.delta * rows.size + 1.0).sum())

    @property
    def n_shells(self) -> int:
        return self.s_hi - self.s_lo

    # -- per-batch work ----------------------------------------------------

    def shell_of(self, keys: np.ndarray) -> np.ndarray:
        """Shell index s - s_lo of each radius key, for keys within the kernel's shells."""
        return np.searchsorted(self._starts, keys, side="right")

    def block_counts(
        self, u, convention: Convention = Convention.BOTH_SIGNS, below: int | None = None
    ) -> np.ndarray:
        """Counts for the shells s = s_lo .. s_hi-1, in that order, of the q
        with radius key <= ``below`` (all q if None): an (n_shells,) int64
        array for one MatrixU ``u``, or (B, n_shells) for a sequence of B,
        row b for sample b, in one pass over the batch."""
        convention.check(self.problem)
        us = _batch(self.problem, u)
        hi = self.hi if below is None else min(self.hi, below)
        q, keys, offsets = _form0_candidates(self.problem, us, self.lo, hi)
        cols, counts = per_q_product_counts(self.problem, us, q, keys, offsets)
        out = np.zeros((len(us), self.n_shells), dtype=np.int64)
        ends = np.searchsorted(cols, offsets)
        sample = np.repeat(np.arange(len(us)), ends[1:] - ends[:-1])
        np.add.at(out, (sample, self.shell_of(keys[cols])), counts)  # int64: exact beyond 2^53
        out *= 2 if convention is Convention.BOTH_SIGNS else 1
        return out[0] if isinstance(u, MatrixU) else out


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
