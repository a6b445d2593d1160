"""Space-of-lattices observables: Lambda_u, the diagonal flow, Siegel
transforms, and the reciprocal-covolume function alpha.

The Siegel transform of the tessellation counts the problem's own cell
[1, e) x {|x_i| < theta_i ||y||^{-w_i}} (thetas, weights and norm all come
from the ApproximationProblem), and its radial window is the counting
kernel's shell s, so the terms sum to Delta_{e^N} exactly.

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

import numpy as np

from diophlab.counting import CountingKernel, MatrixU
from diophlab.errors import CapExceededError, ValidationError
from diophlab.problem import ApproximationProblem

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
    negative s runs the flow backwards.  A lattice with (u, s0) provenance is
    refused at flow times s0 + s beyond :func:`check_flow_time`.
    """
    prov = None
    if lat.provenance is not None:
        u, s0 = lat.provenance
        check_flow_time(problem, s0 + s, "a^s Lambda_u")
        prov = (u, s0 + s)
    flow = np.diag([math.exp(float(w) * s) for w in problem.weights] + [math.exp(-s)] * problem.n)
    return UnimodularLattice(basis=flow @ lat.basis, provenance=prov)


def check_flow_time(problem: ApproximationProblem, s: int, what: str) -> None:
    """Refuse a flow time s at which the float basis no longer holds a^s Lambda_u.

    Its short vectors (|q| ~ e^s) carry a rounding error near
    e^{(1 + max w) s} 2^-53 in p + <u_i, q>; above 2^-26, i.e. for
    (1 + max w) s > 27 ln 2, ValidationError names ``what`` and s.
    """
    growth = 1 + max(problem.weights_float())
    if growth * s > 27 * math.log(2):
        raise ValidationError(
            f"{what} needs flow time s={s}, where the float basis no longer holds the lattice "
            f"((1 + max w) s = {growth * s:.4g} > 27 ln 2)"
        )


# ---------------------------------------------------------------------------
# Siegel transforms

def siegel_transform_box(problem: ApproximationProblem, lat: UnimodularLattice, s: int) -> int:
    """Number of nonzero points of a^s Lambda_u in the counting cell of ``problem``.

    The cell is [1, e) x {|x_i| < theta_i ||y||^{-w_i}} in the problem's norm,
    so the count is the kernel's shell s: the sum over q with e^s <= ||q|| <
    e^{s+1} of prod_i #{p_i : |p_i + <u_i, q>| < theta_i ||q||^{-w_i}}.
    Requires the lattice to carry (u, 0) provenance.  A negative s raises
    ValidationError (its window [e^s, e^{s+1}) holds no nonzero integer q).
    """
    if lat.provenance is None:
        raise ValidationError("siegel_transform_box needs (u, 0) provenance")
    u, s0 = lat.provenance
    if s0 != 0:
        raise ValidationError("siegel_transform_box needs the unflowed lattice (s = 0)")
    return int(CountingKernel(problem, s, s + 1).block_counts(u)[0])


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
