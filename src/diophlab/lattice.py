"""Space-of-lattices observables: Lambda_u, the diagonal flow, Siegel
transforms, and the reciprocal-covolume function alpha.

alpha(L) is the maximum over j of 1 / (minimal covolume of a j-dimensional
subspace spanned by lattice vectors).  It is computed by certified
short-vector enumeration: for each j, all lattice vectors of Euclidean norm
up to a Minkowski-derived radius are enumerated and j-subsets are scored by
their Gram determinant.  Rank <= 4 lattices have a basis attaining the
successive minima, and the product of minima is at most (2^j / v_j) times
the covolume (v_j = volume of the Euclidean unit j-ball), so any subspace
beating the current best is spanned inside the radius
(2^j / v_j) * best / (lambda_1 ... lambda_{j-1}) built from the global
successive minima; the radius is re-checked after each scan and enlarged
until certified.  Covolumes are Euclidean regardless of the problem's
counting norm.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from mpmath import mp

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

    def to_json(self) -> list:
        return [list(map(float, row)) for row in self.basis]


@dataclass(frozen=True)
class DiagonalFlow:
    """Exponent data of a = diag(e^{w_1},...,e^{w_m}, e^{-1},...,e^{-1})."""

    exponents: tuple
    s: int = 1

    def __post_init__(self):
        exps = tuple(Fraction(e) for e in self.exponents)
        object.__setattr__(self, "exponents", exps)
        if sum(exps, Fraction(0)) != 0:
            raise ValidationError("flow exponents must sum to zero (unimodularity)")

    @staticmethod
    def from_problem(problem: ApproximationProblem, s: int = 1) -> "DiagonalFlow":
        return DiagonalFlow(tuple(problem.weights) + (Fraction(-1),) * problem.n, s=s)

    def matrix(self) -> np.ndarray:
        return np.diag([math.exp(float(e) * self.s) for e in self.exponents])


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
    flow = DiagonalFlow.from_problem(problem, s=s)
    new_basis = flow.matrix() @ lat.basis
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
    with mp.workdps(60 + 2 * max(0, s)):
        es = mp.e**s
        a = mp.mpf(v1) * es
        b = mp.mpf(v2) * es
        if squared:
            a, b = a * a, b * b
        lo = int(mp.ceil(a)) if lower_closed else int(mp.floor(a)) + 1
        hi = int(mp.floor(b)) if upper_closed else int(mp.ceil(b)) - 1
    return lo, hi


def siegel_transform_box(
    f: WeightedBoxFunction,
    lat: UnimodularLattice,
    s: int,
    norm: Norm = Norm.SUP,
    cap: int | None = None,
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
    cap = enumeration_cap() if cap is None else cap
    problem = ApproximationProblem(m=u.m, n=u.n, weights=f.weights, thetas=f.thetas, norm=norm)
    squared = squared_radii(problem)
    lo, hi = _radial_int_window(f.upsilon1, f.upsilon2, s, f.lower_closed, f.upper_closed, squared)
    q, radii = half_space_grid(u.n, lo, hi, squared, cap)
    return 2 * int(per_q_product_counts(problem, u, q, radii).sum())


def siegel_transform_points(box, lat: UnimodularLattice, cap: int | None = None) -> int:
    """Exact number of nonzero lattice points in a closed axis box.

    ``box`` is a sequence of (lo, hi) pairs, one per coordinate.  Points are
    found by enumerating integer coordinates inside the preimage of the box
    under the basis; membership on the boundary is settled in exact dyadic
    arithmetic.
    """
    cap = enumeration_cap() if cap is None else cap
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

def _lll_reduce(basis: np.ndarray, delta: float = 0.75) -> np.ndarray:
    """Textbook LLL on the columns; returns a reduced basis of the same lattice."""
    b = [basis[:, i].astype(np.float64).copy() for i in range(basis.shape[1])]
    d = len(b)

    def gram_schmidt():
        ortho, mu = [], np.zeros((d, d))
        for i in range(d):
            v = b[i].copy()
            for j in range(i):
                denom = ortho[j] @ ortho[j]
                mu[i, j] = (b[i] @ ortho[j]) / denom
                v -= mu[i, j] * ortho[j]
            ortho.append(v)
        return ortho, mu

    ortho, mu = gram_schmidt()
    k = 1
    guard = 0
    while k < d:
        guard += 1
        if guard > 10_000:  # numerically degenerate input
            break
        for j in range(k - 1, -1, -1):
            q = round(mu[k, j])
            if q != 0:
                b[k] = b[k] - q * b[j]
                ortho, mu = gram_schmidt()
        if ortho[k] @ ortho[k] >= (delta - mu[k, k - 1] ** 2) * (ortho[k - 1] @ ortho[k - 1]):
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            ortho, mu = gram_schmidt()
            k = max(k - 1, 1)
    return np.stack(b, axis=1)


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


def _int_rank(cols) -> int:
    """Exact rank of a list of integer vectors (Gaussian elimination over Q)."""
    ncols = len(cols)
    if ncols == 0:
        return 0
    nrows = len(cols[0])
    work = [[Fraction(int(cols[c][r])) for c in range(ncols)] for r in range(nrows)]
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, nrows) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[row], work[pivot] = work[pivot], work[row]
        pv = work[row][col]
        for r in range(row + 1, nrows):
            if work[r][col] != 0:
                factor = work[r][col] / pv
                for cc in range(col, ncols):
                    work[r][cc] -= factor * work[row][cc]
        row += 1
        rank += 1
        if row == nrows:
            break
    return rank


_BALL_VOLUME = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0, 4: math.pi**2 / 2.0, 5: 8.0 * math.pi**2 / 15.0}


def _minkowski_factor(j: int) -> float:
    # product of successive minima <= (2^j / v_j) * covolume
    return (2.0**j) / _BALL_VOLUME[j]


def _scan_min_covolume(vecs: np.ndarray, coords: np.ndarray, norms: np.ndarray, j: int, best: float, bound: float) -> float:
    """Minimum sqrt(Gram det) over j-subsets whose norm product can beat ``bound``."""
    order = np.argsort(norms)
    vecs, coords, norms = vecs[order], coords[order], norms[order]
    k = len(norms)
    if k < j:
        return best

    if j == 2:
        for a in range(k - 1):
            na = norms[a]
            if na * na > bound * (1 + 1e-12):
                break
            limit = bound / na
            hi = np.searchsorted(norms, limit * (1 + 1e-12), side="right")
            if hi <= a + 1:
                continue
            w = vecs[a + 1 : hi]
            nw = norms[a + 1 : hi]
            dots = w @ vecs[a]
            g = (na * nw) ** 2 - dots**2
            scale = (na * nw) ** 2
            cand = g > 1e-9 * scale
            fuzzy = np.nonzero((g <= 1e-9 * scale) & (g > -1e-9 * scale))[0]
            for idx in fuzzy:
                if _int_rank([coords[a], coords[a + 1 + idx]]) == 2:
                    cand[idx] = True
            if np.any(cand):
                local = math.sqrt(max(float(np.min(g[cand])), 0.0))
                if local < best:
                    best = local
                    bound = min(bound, _minkowski_factor(2) * best)
        return best

    # generic depth-first scan for j >= 3; the last member is vectorized via
    # det Gram(chosen + v) = det Gram(chosen) * dist(v, span(chosen))^2
    chosen: list[int] = []

    def close_out(start: int, prod: float):
        nonlocal best, bound
        sub = vecs[chosen]
        det_a = float(np.linalg.det(sub @ sub.T))
        scale_a = float(np.prod(norms[chosen]) ** 2)
        hi = np.searchsorted(norms, (bound / prod) * (1 + 1e-12), side="right")
        if hi <= start:
            return
        if det_a <= 1e-9 * scale_a:
            # chosen prefix is (numerically) dependent; settle it exactly and,
            # in the rare independent-but-ill-conditioned case, score each
            # candidate by a direct Gram determinant
            chosen_coords = [coords[c] for c in chosen]
            if _int_rank(chosen_coords) < len(chosen):
                return
            for t in range(start, hi):
                if _int_rank(chosen_coords + [coords[t]]) < j:
                    continue
                full = np.vstack([sub, vecs[t]])
                det = float(np.linalg.det(full @ full.T))
                if det > 0 and math.sqrt(det) < best:
                    best = math.sqrt(det)
                    bound = min(bound, _minkowski_factor(j) * best)
            return
        w = vecs[start:hi]
        qm, _ = np.linalg.qr(sub.T)  # (dim, j-1) orthonormal
        proj = w @ qm
        res2 = np.sum(w * w, axis=1) - np.sum(proj * proj, axis=1)
        nw2 = norms[start:hi] ** 2
        solid = res2 > 1e-9 * nw2
        fuzzy = np.nonzero(~solid & (det_a * np.maximum(res2, 0.0) < best * best))[0]
        for idx in fuzzy:
            if _int_rank([coords[c] for c in chosen] + [coords[start + idx]]) == j:
                solid[idx] = True
        if np.any(solid):
            local = math.sqrt(max(det_a * float(np.min(res2[solid])), 0.0))
            if local < best:
                best = local
                bound = min(bound, _minkowski_factor(j) * best)

    def rec(start: int, prod: float):
        nonlocal best, bound
        if len(chosen) == j - 1:
            close_out(start, prod)
            return
        need = j - len(chosen)
        for idx in range(start, k - need + 1):
            new_prod = prod * norms[idx]
            if new_prod * norms[idx] ** (need - 1) > bound * (1 + 1e-12):
                break
            chosen.append(idx)
            rec(idx + 1, new_prod)
            chosen.pop()

    rec(0, 1.0)
    return best


def _successive_minima(basis: np.ndarray, cap: int) -> np.ndarray:
    """Euclidean successive minima, from one enumeration up to the largest
    reduced-basis column norm (which bounds every minimum)."""
    d = basis.shape[0]
    radius = float(np.max(np.linalg.norm(basis, axis=0)))
    coords = _fincke_pohst(basis, radius * (1 + 1e-12), cap)
    vecs = coords.astype(np.float64) @ basis.T
    norms = np.linalg.norm(vecs, axis=1)
    order = np.argsort(norms)
    minima = []
    chosen: list[np.ndarray] = []
    for idx in order:
        cand = coords[idx]
        if _int_rank(chosen + [cand]) == len(chosen) + 1:
            chosen.append(cand)
            minima.append(float(norms[idx]))
            if len(chosen) == d:
                break
    if len(minima) < d:  # pragma: no cover - basis is full rank
        raise ValidationError("could not determine successive minima")
    return np.array(minima)


def _min_covolume(basis: np.ndarray, j: int, minima: np.ndarray, cap: int) -> float:
    """Certified minimal covolume of a j-dimensional sublattice-spanned subspace.

    The minima of the optimal sublattice dominate the global minima and
    multiply to at most (2^j / v_j) times its covolume, so once the
    enumeration radius reaches factor * best / prod(minima[:j-1]) every
    candidate that could improve on ``best`` has been scanned.
    """
    d = basis.shape[0]
    # seed: subsets of a basis span primitive sublattices
    best = math.inf
    for subset in itertools.combinations(range(d), j):
        sub = basis[:, subset]
        det = float(np.linalg.det(sub.T @ sub))
        best = min(best, math.sqrt(max(det, 0.0)))
    factor = _minkowski_factor(j)
    lower_product = float(np.prod(minima[: j - 1])) if j > 1 else 1.0
    radius = max(float(minima[0]) * 1.5, (factor * best) ** (1.0 / j) * 1.2)
    for _ in range(16):
        coords = _fincke_pohst(basis, radius, cap)
        if coords.shape[0]:
            vecs = coords.astype(np.float64) @ basis.T
            norms = np.linalg.norm(vecs, axis=1)
            best = _scan_min_covolume(vecs, coords, norms, j, best, factor * best)
        needed = factor * best / lower_product
        if needed <= radius * (1 + 1e-9):
            return best
        radius = needed
    raise CapExceededError("alpha radius escalation failed to certify")


def alpha(lat: UnimodularLattice, cap: int | None = None) -> float:
    """sup over sublattice-spanned subspaces V of 1 / covol(V); always >= 1.

    Certified for dimension <= 5; larger dimensions raise ValidationError.
    """
    d = lat.dimension
    if d > 5:
        raise ValidationError(f"alpha is certified for dimension <= 5 only, got {d}")
    cap = 2_000_000 if cap is None else cap
    reduced = _lll_reduce(lat.basis)
    minima = _successive_minima(reduced, cap)
    out = max(1.0, 1.0 / float(minima[0]))
    for j in range(2, d):
        cov = _min_covolume(reduced, j, minima, cap)
        out = max(out, 1.0 / cov)
    return out


def truncated_siegel(
    f,
    lat: UnimodularLattice,
    L: float,
    s: int = 0,
    problem: ApproximationProblem | None = None,
    cap: int | None = None,
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
        return float(siegel_transform_box(f, lat, s, norm=norm, cap=cap))
    if s != 0:
        raise ValidationError("axis-box truncation is defined at s = 0 only")
    if alpha(lat) > L:
        return 0.0
    return float(siegel_transform_points(f, lat, cap=cap))
