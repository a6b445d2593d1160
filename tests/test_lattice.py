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
)
from diophlab.oracles import brute_force_block
from diophlab.problem import ApproximationProblem, Norm, validate

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


def test_flow_refuses_times_beyond_float_precision():
    # past (1 + max w) s = 27 ln 2 the float basis rounds p + <u_i, q> of the
    # short vectors beyond 2^-26, so alpha would measure
    # another lattice: (1,3) at s = 9 has (1 + 3) 9 = 36 > 18.7
    rng = np.random.default_rng(3)
    p13 = validate(ApproximationProblem(m=1, n=3, weights=(3,), thetas=(1.0,)))
    lat = lattice_from_u(p13, MatrixU(rng.random((1, 3))))
    with pytest.raises(ValidationError, match="s=9"):
        apply_flow(lat, 9, p13)
    with pytest.raises(ValidationError, match="s=9"):  # s0 = 4 from the provenance, plus 5
        apply_flow(apply_flow(lat, 4, p13), 5, p13)
    # (2,2) at s = 9 and (1,2) at s = 6 have (1 + max w) s = 18 <= 18.7 and still run
    p22 = validate(ApproximationProblem(m=2, n=2, weights=(1, 1), thetas=(1.0, 1.0)))
    p12 = validate(ApproximationProblem(m=1, n=2, weights=(2,), thetas=(1.0,)))
    for prob, s in ((p22, 9), (p12, 6)):
        flowed = apply_flow(lattice_from_u(prob, MatrixU(rng.random((prob.m, prob.n)))), s, prob)
        assert flowed.provenance[1] == s
        assert alpha(flowed) >= 1.0


def test_siegel_box_examples():
    lat = lattice_from_u(P11, MatrixU(np.zeros((1, 1))))
    assert siegel_transform_box(P11, lat, 0) == 4
    assert siegel_transform_box(P11, lat, 1) == 10
    with pytest.raises(ValidationError):  # [e^-1, 1) holds no nonzero integer q
        siegel_transform_box(P11, lat, -1)


def test_siegel_box_requires_provenance():
    bare = UnimodularLattice(np.eye(2))
    with pytest.raises(ValidationError, match="provenance"):
        siegel_transform_box(P11, bare, 0)
    flowed = apply_flow(lattice_from_u(P11, MatrixU(np.zeros((1, 1)))), 1, P11)
    with pytest.raises(ValidationError, match="unflowed"):
        siegel_transform_box(P11, flowed, 0)


def test_tessellation_identity_n1():
    rng = np.random.default_rng(7)
    for _ in range(5):
        u = MatrixU(rng.random((2, 1)))
        lat = lattice_from_u(P21, u)
        for s in range(7):
            assert siegel_transform_box(P21, lat, s) == CountingKernel(P21, s, s + 1).block_counts(u)[0]


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
    for _ in range(2):
        u = MatrixU(rng.random((prob.m, prob.n)))
        lat = lattice_from_u(prob, u)
        for s in range(4):
            got = siegel_transform_box(prob, lat, s)
            assert got == CountingKernel(prob, s, s + 1).block_counts(u)[0]


def test_siegel_box_counts_in_the_problem_norm():
    # the cell takes its norm from the problem: Euclidean shells, no norm argument
    p22e = validate(
        ApproximationProblem(m=2, n=2, weights=(1, 1), thetas=(1.0, 0.7), norm=Norm.EUCLIDEAN)
    )
    rng = np.random.default_rng(17)
    for _ in range(3):
        u = MatrixU(rng.random((2, 2)))
        lat = lattice_from_u(p22e, u)
        for s in (0, 1, 2):
            want = brute_force_block(p22e, u, s)
            assert siegel_transform_box(p22e, lat, s) == want


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


def test_fincke_pohst_node_cap_raises():
    with pytest.raises(CapExceededError, match="node cap"):
        _fincke_pohst(np.eye(3), 10.0, 0)


def test_alpha_uncertified_above_five():
    with pytest.raises(ValidationError, match="dimension <= 5"):
        alpha(UnimodularLattice(np.eye(6)))


def test_growth_bound_alpha():
    # pilot fit of f_hat <= K * alpha, then assert with safety factor 2
    rng = np.random.default_rng(33)

    def ratio(idx_rng):
        u = MatrixU(idx_rng.random((2, 1)))
        lat = lattice_from_u(P21, u)
        s = int(idx_rng.integers(0, 6))
        val = siegel_transform_box(P21, lat, s)
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
