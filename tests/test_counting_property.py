"""Property test: the production count against both oracles on boundary-heavy inputs.

u is drawn with denominators 2, 4 or 8 (so <u_i, q> often lands on an integer
or a half-integer) or as a full 53-bit dyadic; thetas in {0.5, 1, 1.5, 2} make
theta * k^{-w} hit integers and half-integers; T is an integer, a shell
threshold ceil(e^s) or a float.  Examples are derandomized, so every run
checks the same inputs.

The first test keeps T small enough for the pure-Fraction oracle.  The
second draws T up to e^9 (n = 1) or e^4 (n = 2) against the explicit-p
oracle, so the form-0 candidate generator meets many rows narrower than 1/2
and rows cut by T.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from diophlab.counting import Convention, MatrixU, count_direct
from diophlab.oracles import brute_force_count, slow_reference_count
from diophlab.problem import ApproximationProblem, Norm, validate

_WEIGHTS = {
    (1, 1): [(Fraction(1),)],
    (2, 1): [(Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3), Fraction(2, 3))],
    (1, 2): [(Fraction(2),)],
    (2, 2): [(Fraction(1), Fraction(1)), (Fraction(1, 2), Fraction(3, 2))],
}
_T_MAX = {1: 40, 2: 9}  # the Fraction oracle loops over the whole q box
_T_MAX_WIDE = {1: math.e**9, 2: math.e**4}  # the explicit-p oracle's box stays under ~10^5 q

dyadic = st.one_of(
    st.sampled_from([2, 4, 8]).flatmap(lambda den: st.integers(0, den - 1).map(lambda k: k / den)),
    st.integers(0, 2**53 - 1).map(lambda k: k / 2**53),
)


@st.composite
def instances(draw, t_max=_T_MAX):
    m, n = draw(st.sampled_from(sorted(_WEIGHTS)))
    weights = draw(st.sampled_from(_WEIGHTS[m, n]))
    thetas = tuple(draw(st.sampled_from([0.5, 1.0, 1.5, 2.0])) for _ in range(m))
    norm = draw(st.sampled_from([Norm.SUP, Norm.EUCLIDEAN])) if n == 2 else Norm.SUP
    convention = draw(st.sampled_from(list(Convention))) if n == 1 else Convention.BOTH_SIGNS
    u = np.array([[draw(dyadic) for _ in range(n)] for _ in range(m)])
    t_max = t_max[n]
    thresholds = [math.ceil(math.e**s) for s in range(1, 10) if math.e**s <= t_max]
    T = draw(
        st.one_of(
            st.integers(2, int(t_max)).map(float),
            st.sampled_from(thresholds).map(float),
            st.floats(1.5, t_max),
        )
    )
    problem = validate(ApproximationProblem(m=m, n=n, weights=weights, thetas=thetas, norm=norm))
    return problem, MatrixU(u), T, convention


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(instances())
def test_count_direct_matches_oracles_on_boundaries(instance):
    problem, u, T, convention = instance
    want = slow_reference_count(problem, u, T, convention)
    assert brute_force_count(problem, u, T, convention) == want
    assert count_direct(problem, u, T, convention).total == want


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(instances(_T_MAX_WIDE))
def test_count_direct_matches_brute_force_past_narrow_rows(instance):
    problem, u, T, convention = instance
    assert count_direct(problem, u, T, convention).total == brute_force_count(problem, u, T, convention)
