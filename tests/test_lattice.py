import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diophlab import lattice
from diophlab.counting import CountingKernel, MatrixU
from diophlab.errors import CapExceededError, ValidationError
from diophlab.lattice import (
    UnimodularLattice,
    _fincke_pohst,
    _lll_reduce,
    alpha,
    apply_flow,
    lattice_from_u,
    siegel_transform_box,
    siegel_transform_points,
    truncated_siegel,
)
from diophlab.problem import ApproximationProblem, Norm, WeightedBoxFunction, validate

P11 = validate(ApproximationProblem(m=1, n=1, weights=(1,), thetas=(0.5,)))
P21 = validate(
    ApproximationProblem(m=2, n=1, weights=(Fraction(1, 2), Fraction(1, 2)), thetas=(1.0, 1.0))
)


def test_lattice_from_u_examples():
    u0 = MatrixU(np.zeros((2, 1)))
    lat = lattice_from_u(P21, u0)
    assert np.array_equal(lat.basis, np.eye(3))
    assert lat.provenance == (u0, 0)

    lat2 = lattice_from_u(P11, MatrixU([[0.5]]))
    assert np.allclose(lat2.basis, np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_unimodular_validation():
    with pytest.raises(ValidationError, match="determinant"):
        UnimodularLattice(np.diag([2.0, 1.0]))


def test_flow_exponents_and_group_law():
    rng = np.random.default_rng(2)
    lat = lattice_from_u(P21, MatrixU(rng.random((2, 1))))
    # exponents that do not sum to zero leave the determinant check to refuse the flow
    unbalanced = ApproximationProblem(m=2, n=1, weights=(1, 1), thetas=(1.0, 1.0))
    with pytest.raises(ValidationError, match="determinant"):
        apply_flow(lat, 1, unbalanced)

    assert np.array_equal(apply_flow(lat, 0, P21).basis, lat.basis)
    back = apply_flow(apply_flow(lat, 2, P21), -2, P21)
    assert np.max(np.abs(back.basis - lat.basis)) < 1e-12
    assert abs(np.linalg.det(apply_flow(lat, 3, P21).basis)) == pytest.approx(1.0, rel=1e-12)
    assert apply_flow(lat, 2, P21).provenance[1] == 2


def test_siegel_box_examples():
    lat = lattice_from_u(P11, MatrixU(np.zeros((1, 1))))
    cell = WeightedBoxFunction.counting_cell(P11)
    assert siegel_transform_box(cell, lat, 0) == 4
    assert siegel_transform_box(cell, lat, 1) == 10
    narrow = WeightedBoxFunction(upsilon1=1.41, upsilon2=1.414, thetas=(0.5,), weights=(1,))
    assert siegel_transform_box(narrow, lat, 0) == 0


def test_siegel_box_requires_provenance():
    bare = UnimodularLattice(np.eye(2))
    cell = WeightedBoxFunction.counting_cell(P11)
    with pytest.raises(ValidationError, match="provenance"):
        siegel_transform_box(cell, bare, 0)
    flowed = apply_flow(lattice_from_u(P11, MatrixU(np.zeros((1, 1)))), 1, P11)
    with pytest.raises(ValidationError, match="unflowed"):
        siegel_transform_box(cell, flowed, 0)


def test_tessellation_identity_n1():
    rng = np.random.default_rng(7)
    cell = WeightedBoxFunction.counting_cell(P21)
    for _ in range(5):
        u = MatrixU(rng.random((2, 1)))
        lat = lattice_from_u(P21, u)
        for s in range(7):
            assert siegel_transform_box(cell, lat, s) == CountingKernel(P21, s, s + 1).block_counts(u)[0]


@pytest.mark.parametrize(
    "prob",
    [
        validate(ApproximationProblem(m=1, n=2, weights=(2,), thetas=(0.6,))),
        validate(
            ApproximationProblem(m=2, n=2, weights=(1, 1), thetas=(1.0, 0.7), norm=Norm.EUCLIDEAN)
        ),
    ],
)
def test_tessellation_identity_n2(prob):
    rng = np.random.default_rng(13)
    cell = WeightedBoxFunction.counting_cell(prob)
    for _ in range(2):
        u = MatrixU(rng.random((prob.m, prob.n)))
        lat = lattice_from_u(prob, u)
        for s in range(4):
            got = siegel_transform_box(cell, lat, s, norm=prob.norm)
            assert got == CountingKernel(prob, s, s + 1).block_counts(u)[0]


def _points_oracle(box, lat):
    """Independent Fraction-based box count over a generous integer window."""
    d = lat.dimension
    inv = np.linalg.inv(lat.basis)
    corners = np.array(
        [[box[k][0] if (mask >> k) & 1 else box[k][1] for k in range(d)] for mask in range(2**d)]
    )
    pre = corners @ inv.T
    lo = np.floor(pre.min(axis=0)).astype(int) - 2
    hi = np.ceil(pre.max(axis=0)).astype(int) + 2
    basis_frac = [[Fraction(x) for x in row] for row in lat.basis]
    count = 0
    import itertools

    for z in itertools.product(*[range(lo[k], hi[k] + 1) for k in range(d)]):
        if not any(z):
            continue
        ok = True
        for i in range(d):
            coord = sum(basis_frac[i][k] * z[k] for k in range(d))
            if not (Fraction(box[i][0]) <= coord <= Fraction(box[i][1])):
                ok = False
                break
        count += ok
    return count


def test_siegel_points_examples():
    z2 = UnimodularLattice(np.eye(2))
    assert siegel_transform_points([(-1.5, 1.5)] * 2, z2) == 8
    assert siegel_transform_points([(0.25, 0.75)] * 2, z2) == 0
    lat = lattice_from_u(
        validate(ApproximationProblem(m=1, n=1, weights=(1,), thetas=(1.0,))), MatrixU([[0.5]])
    )
    box = [(-1.0, 1.0), (-1.0, 1.0)]
    assert siegel_transform_points(box, lat) == 6
    assert _points_oracle(box, lat) == 6


def test_siegel_points_random_oracle():
    rng = np.random.default_rng(3)
    for _ in range(4):
        u = MatrixU(rng.random((2, 1)))
        lat = lattice_from_u(P21, u)
        box = [(-1.5, 1.2), (-0.75, 2.0), (-2.0, 0.5)]
        assert siegel_transform_points(box, lat) == _points_oracle(box, lat)


def test_siegel_points_cap(monkeypatch):
    monkeypatch.setenv("DIOPH_CAP", "100")
    with pytest.raises(CapExceededError):
        siegel_transform_points([(-50.0, 50.0)] * 2, UnimodularLattice(np.eye(2)))


def _ball(basis, radius):
    """Integer coordinates and vectors of the lattice points within ``radius``
    (one per sign pair), sorted by length.  The vectors are summed in exact
    integers and rounded once, so no cancellation enters."""
    coords = _fincke_pohst(basis, radius * (1 + 1e-9), 10**8)
    scale = max(Fraction(float(x)).denominator for x in basis.ravel())
    exact = np.array([[int(Fraction(float(x)) * scale) for x in row] for row in basis], dtype=object)
    vecs = (coords.astype(object) @ exact.T / scale).astype(float).reshape(-1, basis.shape[0])
    order = np.argsort(np.linalg.norm(vecs, axis=1), kind="stable")
    return coords[order], vecs[order]


def _covolumes(vecs):
    """Covolume of each stack of row vectors, |prod diag R| of a QR factorisation."""
    r = np.linalg.qr(np.swapaxes(vecs, -1, -2), mode="r")
    return np.abs(np.prod(np.diagonal(r, axis1=-2, axis2=-1), axis=-1))


# 2^j / vol(unit j-ball): Minkowski's second theorem bounds mu_1 ... mu_j of a
# rank-j lattice by this times its covolume
_MINKOWSKI = {j: 2**j * math.gamma(j / 2 + 1) / math.pi ** (j / 2) for j in range(1, 5)}


def _successive_minima(coords):
    """Indices of vectors attaining lambda_1 .. lambda_{d-1}, by a greedy pass in length order."""
    picked = []
    for i in range(len(coords)):
        if len(picked) == coords.shape[1] - 1:
            break
        if np.linalg.matrix_rank(coords[picked + [i]].astype(float)) > len(picked):
            picked.append(i)
    return picked


def _minkowski_subsets(norms, j, bound):
    """Index tuples i_1 < ... < i_j of ``norms`` (ascending) with product <= ``bound``."""
    subsets = [((), 1.0)]
    for t in range(j):
        grown = []
        for idx, prod in subsets:
            # the j - t vectors still to pick are each at least norms[i] long
            hi = np.searchsorted(norms ** (j - t), bound / prod * (1 + 1e-9), side="right")
            grown.extend((idx + (i,), prod * norms[i]) for i in range(idx[-1] + 1 if idx else 0, hi))
        subsets = grown
    return np.array([idx for idx, _ in subsets], dtype=np.intp).reshape(-1, j)


def _exhaustive_covolume(basis, radius, j):
    """Least covolume of a rank-j sublattice with a basis inside the ball, with no LLL and no duality.

    It scans the independent j-subsets of ball vectors (independence from the
    integer Gram determinant).  A subset is skipped only when Minkowski's
    second theorem rules it out as the minima of a sublattice that beats the
    first j successive-minima vectors: its norm product exceeds kappa_j times
    their covolume.  Returns inf when the ball spans rank < j.
    """
    coords, vecs = _ball(basis, radius)
    picked = _successive_minima(coords)
    if len(picked) < j:
        return math.inf
    bound = _MINKOWSKI[j] * float(_covolumes(vecs[picked[:j]]))
    subsets = _minkowski_subsets(np.linalg.norm(vecs, axis=1), j, bound)
    x = coords[subsets]
    independent = np.abs(np.linalg.det((x @ np.swapaxes(x, 1, 2)).astype(float))) > 0.5
    return float(np.min(_covolumes(vecs[subsets[independent]])))


def _alpha_exhaustive(basis, radius):
    """max(1, 1 / least rank-j covolume) over j < d, each from the subspace scan of the ball."""
    return max(1.0, *(1.0 / _exhaustive_covolume(basis, radius, j) for j in range(1, basis.shape[0])))


def _certified_radius(basis):
    """A radius whose ball holds a basis of every minimal-covolume sublattice of rank < d (d <= 4).

    Take the successive minima lambda_1 .. lambda_{d-1} and vectors attaining
    them.  The minimal rank-j sublattice D has covolume c_j at most that of the
    first j of those vectors, and its minima mu_i >= lambda_i satisfy
    mu_1 ... mu_j <= kappa_j c_j, so mu_j <= kappa_j c_j / (lambda_1 ... lambda_{j-1}).
    For j <= 3 vectors attaining the minima of D form a basis of D.
    """
    d = basis.shape[0]
    radius = float(np.min(np.linalg.norm(basis, axis=0)))
    while True:
        coords, vecs = _ball(basis, radius)
        picked = _successive_minima(coords)
        if len(picked) == d - 1:
            break
        radius *= 1.25
    lam = np.linalg.norm(vecs[picked], axis=1)
    return max(
        _MINKOWSKI[j] * float(_covolumes(vecs[picked[:j]])) / float(np.prod(lam[: j - 1])) for j in range(1, d)
    )


# (problem, largest flow time): d = 3 at s <= 6, inside the alpha-tail precision
# guard (1 + max w) s <= 27 ln 2, and a few d = 4 lattices at small s
_ALPHA_CASES = [
    (P21, 6),
    (validate(ApproximationProblem(m=2, n=1, weights=(Fraction(1, 3), Fraction(2, 3)), thetas=(1.0, 1.0))), 6),
    (validate(ApproximationProblem(m=1, n=2, weights=(2,), thetas=(1.0,))), 6),
]
_ALPHA_CASES_D4 = [(validate(ApproximationProblem(m=2, n=2, weights=(1, 1), thetas=(1.0, 1.0))), 2)]


@st.composite
def flowed_lattices(draw, cases):
    prob, s_max = draw(st.sampled_from(cases))
    s = draw(st.integers(0, s_max))
    u = [[draw(st.integers(0, 2**53 - 1)) / 2**53 for _ in range(prob.n)] for _ in range(prob.m)]
    return apply_flow(lattice_from_u(prob, MatrixU(np.array(u))), s, prob)


def _check_alpha_against_exhaustive(lat):
    assert alpha(lat) == pytest.approx(_alpha_exhaustive(lat.basis, _certified_radius(lat.basis)), rel=1e-12)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(flowed_lattices(_ALPHA_CASES))
def test_alpha_matches_certified_exhaustive_d3(lat):
    _check_alpha_against_exhaustive(lat)


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(flowed_lattices(_ALPHA_CASES_D4))
def test_alpha_matches_certified_exhaustive_d4(lat):
    _check_alpha_against_exhaustive(lat)


def test_alpha_integer_lattices():
    for d in (2, 3):
        lat = UnimodularLattice(np.eye(d))
        assert alpha(lat) == pytest.approx(1.0, abs=1e-9)
        assert _alpha_exhaustive(np.eye(d), 3.0) == pytest.approx(1.0, abs=1e-9)


def test_alpha_diagonal_values():
    lat = UnimodularLattice(np.diag([math.e, 1 / math.e]))
    assert alpha(lat) == pytest.approx(math.e, rel=1e-12)
    assert alpha(UnimodularLattice(np.diag([2.0, 1.0, 0.5]))) == pytest.approx(2.0, rel=1e-12)
    assert alpha(UnimodularLattice(np.diag([4.0, 0.5, 0.5, 1.0]))) == pytest.approx(4.0, rel=1e-12)


def test_alpha_at_least_one_and_matches_exhaustive():
    rng = np.random.default_rng(10)
    for _ in range(20):
        u = MatrixU(rng.random((2, 1)))
        s = int(rng.integers(0, 8))
        lat = apply_flow(lattice_from_u(P21, u), s, P21)
        a = alpha(lat)
        assert a >= 1.0
    # full agreement with the exhaustive scan on a few moderate lattices
    for _ in range(3):
        u = MatrixU(rng.random((2, 1)))
        lat = apply_flow(lattice_from_u(P21, u), 3, P21)
        a = alpha(lat)
        assert a == pytest.approx(_alpha_exhaustive(lat.basis, 2.5 / min(a, 2.5) + 2.5), rel=1e-9)


P22 = validate(ApproximationProblem(m=2, n=2, weights=(1, 1), thetas=(1.0, 1.0)))
P32 = validate(ApproximationProblem(m=3, n=2, weights=(Fraction(2, 3),) * 3, thetas=(1.0,) * 3))


@pytest.mark.parametrize("prob, flow_times, radius", [(P22, (2, 3), 2.0), (P32, (1, 2), 1.6)])
def test_alpha_duality_matches_exhaustive(prob, flow_times, radius):
    # d = 4 and 5 read ranks d - 1 and d - 2 off the dual lattice; with this
    # seed each of ranks 2 .. d - 1 attains alpha on some lattice of the set
    rng = np.random.default_rng(1)
    for s in flow_times:
        for _ in range(2):
            lat = apply_flow(lattice_from_u(prob, MatrixU(rng.random((prob.m, prob.n)))), s, prob)
            assert alpha(lat) == pytest.approx(_alpha_exhaustive(lat.basis, radius), rel=1e-12)


def test_alpha_equals_dual_alpha():
    rng = np.random.default_rng(8)
    for prob in (P11, P21, P22, P32):
        for s in (0, 1, 3):
            lat = apply_flow(lattice_from_u(prob, MatrixU(rng.random((prob.m, prob.n)))), s, prob)
            dual = UnimodularLattice(np.linalg.inv(lat.basis).T)
            assert alpha(dual) == pytest.approx(alpha(lat), rel=1e-12)


@pytest.mark.parametrize("prob", [P22, P32])
def test_min_covolume_enumerates_once(prob, monkeypatch):
    # the radius (4/pi) best / lambda_1 is certified before the scan, so one
    # enumeration settles the rank-2 minimum of every lattice.  The basis is
    # skewed by a unimodular U, so that its column pairs need not attain the
    # minimum and the enumeration has to find it.
    rng = np.random.default_rng(4)
    calls = []
    enumerate_ = lattice._fincke_pohst

    def counted(*args):
        calls.append(args)
        return enumerate_(*args)

    monkeypatch.setattr(lattice, "_fincke_pohst", counted)
    for s in (0, 1, 2, 3):
        lat = apply_flow(lattice_from_u(prob, MatrixU(rng.random((prob.m, prob.n)))), s, prob)
        reduced = _lll_reduce(lat.basis)
        lam = lattice._shortest_length(reduced)
        U = np.eye(prob.dimension, dtype=np.int64)
        for _ in range(prob.dimension):
            i, j = rng.choice(prob.dimension, 2, replace=False)
            U[:, i] += U[:, j]
        skewed = reduced @ U
        calls.clear()
        covol = lattice._min_covolume(skewed, lam)
        assert len(calls) == 1
        # a smaller rank-2 covolume c would have a basis within (4/pi) covol / lambda_1
        want = _exhaustive_covolume(skewed, 4 / math.pi * covol / lam, 2)
        assert covol == pytest.approx(want, rel=1e-12)


def test_lll_step_guard_raises(monkeypatch):
    skew = np.array([[1.0, 7.0, 3.0], [0.0, 1.0, 5.0], [0.0, 0.0, 1.0]])
    assert abs(np.linalg.det(_lll_reduce(skew))) == pytest.approx(1.0)
    monkeypatch.setattr(lattice, "_LLL_MAX_STEPS", 1)
    with pytest.raises(CapExceededError, match="LLL"):
        _lll_reduce(skew)


def test_alpha_uncertified_above_five():
    with pytest.raises(ValidationError, match="dimension <= 5"):
        alpha(UnimodularLattice(np.eye(6)))


def test_truncated_siegel():
    cell = WeightedBoxFunction.counting_cell(P11)
    lat = lattice_from_u(P11, MatrixU(np.zeros((1, 1))))
    assert truncated_siegel(cell, lat, 1.0, s=0) == 4.0  # alpha(Z^2) = 1 <= L
    skew = UnimodularLattice(np.diag([math.e, 1 / math.e]), provenance=None)
    assert truncated_siegel([(-1.0, 1.0), (-1.0, 1.0)], skew, 2.0, s=0) == 0.0  # alpha = e > 2
    # points (0, +-1/e) and (0, +-2/e) lie in the box once the cutoff admits alpha = e
    assert truncated_siegel([(-1.0, 1.0), (-1.0, 1.0)], skew, 3.0, s=0) == 4.0
    with pytest.raises(ValidationError):
        truncated_siegel(cell, lat, 0.5, s=0)


def test_truncated_matches_plain_at_large_L():
    # at L = 100 the truncation should not bite on at least 99% of samples
    rng = np.random.default_rng(21)
    cell = WeightedBoxFunction.counting_cell(P21)
    agree = 0
    total = 2000
    for _ in range(total):
        u = MatrixU(rng.random((2, 1)))
        lat = lattice_from_u(P21, u)
        full = float(siegel_transform_box(cell, lat, 0))
        trunc = truncated_siegel(cell, lat, 100.0, s=0)
        agree += trunc == full
    assert agree / total >= 0.99


def test_growth_bound_alpha():
    # pilot fit of f_hat <= K * alpha, then assert with safety factor 2
    rng = np.random.default_rng(33)
    cell = WeightedBoxFunction.counting_cell(P21)

    def ratio(idx_rng):
        u = MatrixU(idx_rng.random((2, 1)))
        lat = lattice_from_u(P21, u)
        s = int(idx_rng.integers(0, 6))
        val = siegel_transform_box(cell, lat, s)
        a = alpha(apply_flow(lat, s, P21))
        return val / a

    pilot = max(ratio(rng) for _ in range(200))
    K = 2.0 * max(pilot, 1.0)
    for _ in range(1000):
        assert ratio(rng) <= K


def test_uniform_l1_and_l2_bounds_in_s():
    # means and second moments of the shell counts stay bounded in s (m = 2)
    rng = np.random.default_rng(44)
    from diophlab.counting import CountingKernel

    means, seconds = [], []
    for s in (0, 2, 4, 6, 8, 10, 12):
        kernel = CountingKernel(P21, s, s + 1)
        S = 400 if s >= 10 else 1000
        vals = []
        for i in range(S):
            u = MatrixU(rng.random((2, 1)))
            vals.append(kernel.block_counts(u)[0])
        vals = np.array(vals, dtype=float)
        means.append(vals.mean())
        seconds.append(np.mean(vals**2))
    assert max(means) <= 4.0 * means[-1] + 20.0  # no growth trend
    assert max(seconds) <= 200.0  # bounded second moment, f in L^2 for m >= 2


def test_fincke_pohst_counts_ball_points():
    # number of nonzero integer points with norm <= R in Z^2, one per sign pair
    coords = _fincke_pohst(np.eye(2), 2.0, 10**6)
    # ||x|| <= 2: (0,±1),(0,±2),(±1,0),(±2,0),(±1,±1),(±2,±... no: (1,1) norm sqrt2, (2,1) norm sqrt5 > 2
    # points: (0,1),(0,2),(1,0),(2,0),(1,1),(1,-1),(1,2)? sqrt5 no. total pairs:
    assert coords.shape[0] == 6
    red = _lll_reduce(np.array([[1.0, 7.0], [0.0, 1.0]]))
    assert abs(abs(np.linalg.det(red)) - 1.0) < 1e-9
    assert np.max(np.linalg.norm(red, axis=0)) < 3.0
