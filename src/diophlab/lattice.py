"""Space-of-lattices observables: Lambda_u, the diagonal flow, Siegel
transforms, and the reciprocal-covolume function alpha.

alpha(L) is the maximum over j of 1 / (minimal covolume of a rank-j
sublattice), and at least 1.  For unimodular L, a primitive rank-j
sublattice D and the rank-(d - j) sublattice of the dual lattice L*
orthogonal to D have the same covolume, so for d <= 5 every rank reduces
to rank 1 or 2 on L or on L*.  Both bases are LLL-reduced, the dual one
formed from the reduced basis of L.  Rank 1 is lambda_1, found by
enumerating up to the shortest reduced column.  Rank 2 is certified by
one short-vector enumeration at the radius (4 / pi) * best / lambda_1,
best being the least covolume of two reduced columns (see _min_covolume).
Covolumes are Euclidean regardless of the problem's counting norm.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from diophlab.counting import MatrixU, enumeration_cap, half_space_grid, per_q_product_counts, squared_radii
from diophlab.errors import CapExceededError, ValidationError
from diophlab.problem import ApproximationProblem, Norm, WeightedBoxFunction

_DET_TOL = 1e-9


@dataclass(frozen=True)
class UnimodularLattice:
    """A lattice given by a (d, d) basis whose columns generate it.

    ``provenance`` records (u, s) when the lattice is a^s Lambda_u; counting
    transforms need it to fall back on exact integer arithmetic.
    """

    basis: np.ndarray
    provenance: tuple | None = None

    def __post_init__(self):
        arr = np.array(self.basis, dtype=np.float64, copy=True)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValidationError("basis must be a square matrix")
        det = abs(float(np.linalg.det(arr)))
        if abs(det - 1.0) > _DET_TOL * max(1.0, det):
            raise ValidationError(f"basis determinant {det} is not 1 within tolerance")
        arr.setflags(write=False)
        object.__setattr__(self, "basis", arr)

    @property
    def dimension(self) -> int:
        return self.basis.shape[0]


def lattice_from_u(problem: ApproximationProblem, u: MatrixU) -> UnimodularLattice:
    """The lattice {(p + u q, q) : p in Z^m, q in Z^n} with basis [[I, u], [0, I]]."""
    if u.m != problem.m or u.n != problem.n:
        raise ValidationError("u has wrong shape for the problem")
    d = problem.dimension
    basis = np.eye(d)
    basis[: problem.m, problem.m :] = u.entries
    return UnimodularLattice(basis=basis, provenance=(u, 0))


def apply_flow(lat: UnimodularLattice, s: int, problem: ApproximationProblem) -> UnimodularLattice:
    """Scale the first m coordinates by e^{w_i s} and the last n by e^{-s}.

    ``problem`` supplies the flow exponents (w_1, ..., w_m, -1, ..., -1);
    negative s runs the flow backwards.
    """
    flow = np.diag([math.exp(float(w) * s) for w in problem.weights] + [math.exp(-s)] * problem.n)
    new_basis = flow @ lat.basis
    prov = None
    if lat.provenance is not None:
        u, s0 = lat.provenance
        prov = (u, s0 + s)
    return UnimodularLattice(basis=new_basis, provenance=prov)


# ---------------------------------------------------------------------------
# Siegel transforms

def _radial_int_window(v1: float, v2: float, s: int, lower_closed: bool, upper_closed: bool, squared: bool):
    """Inclusive integer bounds for ||q|| (or ||q||^2) in the window
    [v1 e^s, v2 e^s] with the given open/closed flags."""
    with localcontext() as ctx:
        ctx.prec = 60 + 2 * max(0, s)
        es = Decimal(s).exp()
        a = Decimal(v1) * es
        b = Decimal(v2) * es
        if squared:
            a, b = a * a, b * b
        lo = math.ceil(a) if lower_closed else math.floor(a) + 1
        hi = math.floor(b) if upper_closed else math.ceil(b) - 1
    return lo, hi


def siegel_transform_box(
    f: WeightedBoxFunction,
    lat: UnimodularLattice,
    s: int,
    norm: Norm = Norm.SUP,
) -> int:
    """Number of nonzero points of a^s Lambda_u inside the support of f.

    Equals sum over q with v1 e^s <= ||q|| <= v2 e^s (flags as carried by f)
    of prod_i #{p_i : |p_i + <u_i, q>| < theta_i ||q||^{-w_i}}.  Requires the
    lattice to carry (u, 0) provenance.  ``norm`` is the denominator norm;
    for n = 1 the two norms coincide and the argument is ignored.
    """
    if lat.provenance is None:
        raise ValidationError("siegel_transform_box needs (u, 0) provenance")
    u, s0 = lat.provenance
    if s0 != 0:
        raise ValidationError("siegel_transform_box needs the unflowed lattice (s = 0)")
    problem = ApproximationProblem(m=u.m, n=u.n, weights=f.weights, thetas=f.thetas, norm=norm)
    squared = squared_radii(problem)
    lo, hi = _radial_int_window(f.upsilon1, f.upsilon2, s, f.lower_closed, f.upper_closed, squared)
    q, radii = half_space_grid(u.n, lo, hi, squared, enumeration_cap())
    return 2 * int(per_q_product_counts(problem, u, q, radii)[1].sum())


def siegel_transform_points(box, lat: UnimodularLattice) -> int:
    """Exact number of nonzero lattice points in a closed axis box.

    ``box`` is a sequence of (lo, hi) pairs, one per coordinate.  Points are
    found by enumerating integer coordinates inside the preimage of the box
    under the basis; membership on the boundary is settled in exact dyadic
    arithmetic.
    """
    cap = enumeration_cap()
    d = lat.dimension
    bounds = np.array([[float(lo), float(hi)] for lo, hi in box], dtype=np.float64)
    if bounds.shape != (d, 2):
        raise ValidationError("box must provide one (lo, hi) pair per coordinate")
    if np.any(bounds[:, 0] > bounds[:, 1]):
        raise ValidationError("box has lo > hi")
    inv = np.linalg.inv(lat.basis)
    corners = np.array(list(itertools.product(*bounds)))  # (2^d, d)
    pre = corners @ inv.T
    lo_int = np.floor(pre.min(axis=0) - 1e-9).astype(np.int64)
    hi_int = np.ceil(pre.max(axis=0) + 1e-9).astype(np.int64)
    n_pts = int(np.prod((hi_int - lo_int + 1).astype(np.float64)))
    if n_pts > cap:
        raise CapExceededError(f"preimage box of {n_pts} points > cap {cap}")
    axes = [np.arange(lo_int[k], hi_int[k] + 1, dtype=np.int64) for k in range(d)]
    grids = np.meshgrid(*axes, indexing="ij")
    zs = np.stack([g.ravel() for g in grids])  # (d, K)
    nonzero = np.any(zs != 0, axis=0)
    zs = zs[:, nonzero]
    pts = lat.basis @ zs.astype(np.float64)  # (d, K)
    margin = 1e-9 * np.maximum(1.0, np.abs(bounds)).max()
    inside = np.all((pts >= bounds[:, 0:1] - margin) & (pts <= bounds[:, 1:2] + margin), axis=0)
    clear = np.all((pts >= bounds[:, 0:1] + margin) & (pts <= bounds[:, 1:2] - margin), axis=0)
    total = int(np.count_nonzero(clear))
    fuzzy = np.nonzero(inside & ~clear)[0]
    if fuzzy.size:
        basis_frac = [[Fraction(x) for x in row] for row in lat.basis]
        bounds_frac = [(Fraction(lo), Fraction(hi)) for lo, hi in bounds]
        for j in fuzzy:
            ok = True
            for i in range(d):
                coord = sum(basis_frac[i][k] * int(zs[k, j]) for k in range(d))
                if not (bounds_frac[i][0] <= coord <= bounds_frac[i][1]):
                    ok = False
                    break
            total += ok
    return total


# ---------------------------------------------------------------------------
# alpha

_LLL_DELTA = 0.75
_LLL_MAX_STEPS = 10_000


def _lll_reduce(basis: np.ndarray) -> np.ndarray:
    """LLL with delta = 3/4 on the columns; returns a reduced basis of the same lattice.

    Carries the triangular factor r of b = QR, so mu_kj = r_jk / r_jj and
    |b*_j|^2 = r_jj^2.  Size reduction subtracts the same column multiple
    from b and r (exact algebra); only a swap refactors.  A basis that does
    not reduce within ``_LLL_MAX_STEPS`` steps raises CapExceededError.
    """
    b = basis.astype(np.float64, copy=True)
    d = b.shape[1]
    r = np.linalg.qr(b, mode="r")
    k, steps = 1, 0
    while k < d:
        steps += 1
        if steps > _LLL_MAX_STEPS:
            raise CapExceededError(f"LLL did not finish in {_LLL_MAX_STEPS} steps (numerically degenerate basis)")
        for j in range(k - 1, -1, -1):
            q = round(r[j, k] / r[j, j])
            if q != 0:
                b[:, k] -= q * b[:, j]
                r[:, k] -= q * r[:, j]
        if r[k, k] ** 2 + r[k - 1, k] ** 2 >= _LLL_DELTA * r[k - 1, k - 1] ** 2:
            k += 1
        else:
            b[:, [k - 1, k]] = b[:, [k, k - 1]]
            r = np.linalg.qr(b, mode="r")
            k = max(k - 1, 1)
    return b


def _fincke_pohst(basis: np.ndarray, radius: float, cap: int):
    """Integer coordinates x != 0 with ||basis @ x|| <= radius, one per +/- pair.

    Only the half-space with the last nonzero coordinate positive is walked,
    which halves the tree and yields one representative per sign pair.
    """
    d = basis.shape[0]
    gram = basis.T @ basis
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - degenerate basis
        raise ValidationError("basis is numerically singular") from exc
    # plain float rows; numpy scalar access is too slow in the recursion
    U = [[float(chol[j, i]) for j in range(d)] for i in range(d)]  # upper triangular
    r2 = radius * radius * (1.0 + 1e-12)
    found: list[tuple] = []
    x = [0] * d
    budget = [0]

    def rec(level: int, rem: float, all_zero_above: bool):
        if budget[0] > cap:
            raise CapExceededError("short-vector enumeration exceeded the node cap")
        if level < 0:
            if not all_zero_above:
                found.append(tuple(x))
            return
        row = U[level]
        c = 0.0
        for j in range(level + 1, d):
            xv = x[j]
            if xv:
                c += row[j] * xv
        diag = row[level]
        root = math.sqrt(rem) if rem > 0.0 else 0.0
        lo = math.ceil((-root - c) / diag - 1e-12)
        hi = math.floor((root - c) / diag + 1e-12)
        if all_zero_above and lo < 0:
            lo = 0  # canonical sign: highest nonzero coordinate positive
        budget[0] += max(0, hi - lo + 1)
        for v in range(lo, hi + 1):
            x[level] = v
            t = diag * v + c
            rec(level - 1, rem - t * t, all_zero_above and v == 0)
        x[level] = 0

    rec(d - 1, r2, True)
    if not found:
        return np.zeros((0, d), dtype=np.int64)
    return np.array(found, dtype=np.int64)


# lambda_1 lambda_2 <= (4 / pi) covol for a rank-2 lattice (Minkowski's second theorem)
_RANK2_FACTOR = 4.0 / math.pi
_ALPHA_CAP = 2_000_000  # Fincke-Pohst node budget per enumeration


def _scan_min_covolume(vecs: np.ndarray, coords: np.ndarray, norms: np.ndarray, best: float, bound: float) -> float:
    """Minimum sqrt(Gram det) over independent pairs whose norm product can beat ``bound``.

    Independence is exact: some 2x2 minor of the integer coordinates is nonzero.
    """
    order = np.argsort(norms)
    vecs, coords, norms = vecs[order], coords[order], norms[order]
    rows, cols = np.triu_indices(coords.shape[1], 1)
    for a in range(len(norms) - 1):
        na = norms[a]
        if na * na > bound * (1 + 1e-12):
            break
        hi = np.searchsorted(norms, bound / na * (1 + 1e-12), side="right")
        if hi <= a + 1:
            continue
        x, y = coords[a], coords[a + 1 : hi]
        independent = np.any(x[rows] * y[:, cols] != x[cols] * y[:, rows], axis=1)
        if np.any(independent):
            g = (na * norms[a + 1 : hi]) ** 2 - (vecs[a + 1 : hi] @ vecs[a]) ** 2
            local = math.sqrt(max(float(np.min(g[independent])), 0.0))
            if local < best:
                best = local
                bound = min(bound, _RANK2_FACTOR * best)
    return best


def _shortest_length(basis: np.ndarray) -> float:
    """Euclidean lambda_1, from one enumeration up to the shortest basis column."""
    radius = float(np.min(np.linalg.norm(basis, axis=0)))
    coords = _fincke_pohst(basis, radius * (1 + 1e-12), _ALPHA_CAP)
    return float(np.min(np.linalg.norm(coords.astype(np.float64) @ basis.T, axis=1)))


def _min_covolume(basis: np.ndarray, lambda1: float) -> float:
    """Certified minimal covolume of a rank-2 sublattice, from one enumeration.

    ``best`` starts at the least covolume of two basis columns.  The optimal
    sublattice has a basis attaining its minima mu_1 <= mu_2, with
    mu_1 >= lambda1 and mu_1 mu_2 <= (4/pi) covol <= (4/pi) best, so both
    vectors lie within the radius (4/pi) * best / lambda1.
    """
    d = basis.shape[0]
    best = math.inf
    for pair in itertools.combinations(range(d), 2):
        sub = basis[:, pair]
        best = min(best, math.sqrt(max(float(np.linalg.det(sub.T @ sub)), 0.0)))
    coords = _fincke_pohst(basis, _RANK2_FACTOR * best / lambda1, _ALPHA_CAP)
    vecs = coords.astype(np.float64) @ basis.T
    return _scan_min_covolume(vecs, coords, np.linalg.norm(vecs, axis=1), best, _RANK2_FACTOR * best)


def alpha(lat: UnimodularLattice) -> float:
    """sup over sublattice-spanned subspaces V of 1 / covol(V); always >= 1.

    Ranks d - 1 and d - 2 are read off the dual lattice (ranks 1 and 2 there),
    so only rank-1 and rank-2 searches run.  Certified for dimension <= 5;
    larger dimensions raise ValidationError.
    """
    d = lat.dimension
    if d > 5:
        raise ValidationError(f"alpha is certified for dimension <= 5 only, got {d}")
    reduced = _lll_reduce(lat.basis)
    dual = _lll_reduce(np.linalg.inv(reduced).T)
    lam, lam_dual = _shortest_length(reduced), _shortest_length(dual)
    out = max(1.0, 1.0 / lam, 1.0 / lam_dual)
    if d >= 4:
        out = max(out, 1.0 / _min_covolume(reduced, lam))
    if d == 5:  # at d = 4 the dual rank-2 minimum is the same number
        out = max(out, 1.0 / _min_covolume(dual, lam_dual))
    return out


def truncated_siegel(
    f,
    lat: UnimodularLattice,
    L: float,
    s: int = 0,
    problem: ApproximationProblem | None = None,
) -> float:
    """Sharp-L truncation: the Siegel transform if alpha(a^s Lambda) <= L, else 0.

    ``f`` may be a WeightedBoxFunction (counted at flow time s, needs
    provenance and ``problem`` for n >= 2 norms) or an axis box as accepted
    by :func:`siegel_transform_points` (then s must be 0).
    """
    if L < 1:
        raise ValidationError("truncation level L must be >= 1")
    if isinstance(f, WeightedBoxFunction):
        if s == 0:
            a_val = alpha(lat)
        else:
            if problem is None:
                u, _ = lat.provenance if lat.provenance else (None, None)
                if u is None:
                    raise ValidationError("truncated_siegel needs provenance or problem")
                problem = ApproximationProblem(m=u.m, n=u.n, weights=f.weights, thetas=f.thetas)
            a_val = alpha(apply_flow(lat, s, problem))
        if a_val > L:
            return 0.0
        norm = problem.norm if problem is not None else Norm.SUP
        return float(siegel_transform_box(f, lat, s, norm=norm))
    if s != 0:
        raise ValidationError("axis-box truncation is defined at s = 0 only")
    if alpha(lat) > L:
        return 0.0
    return float(siegel_transform_points(f, lat))
